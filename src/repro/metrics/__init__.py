"""Ranking and agreement metrics used across the evaluation framework."""

from repro.metrics.agreement import (
    IntervalEstimate,
    kendall_tau,
    mae,
    mape,
    mean_confidence_interval,
    pearson,
)
from repro.metrics.ranking import (
    HITS_AT,
    RankingMetrics,
    aggregate_ranks,
    average_precision,
    rank_of,
    roc_auc,
)
from repro.metrics.tradeoff import TradeoffPoint, candidate_recall, reduction_rate

__all__ = [
    "HITS_AT",
    "IntervalEstimate",
    "RankingMetrics",
    "TradeoffPoint",
    "aggregate_ranks",
    "average_precision",
    "candidate_recall",
    "kendall_tau",
    "mae",
    "mape",
    "mean_confidence_interval",
    "pearson",
    "rank_of",
    "reduction_rate",
    "roc_auc",
]
