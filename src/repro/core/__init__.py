"""The evaluation framework — the paper's primary contribution.

``EvaluationProtocol`` is the public front door; the submodules expose the
individual stages (full ranking, candidate sets, pools, estimators) plus
the easy-negative and complexity analyses behind the paper's motivation.
"""

from repro.core.auc import AUCEstimate, corrupt_with_pools, estimate_auc
from repro.core.candidates import (
    CandidateSets,
    TradeoffReport,
    build_static_candidates,
    choose_threshold,
    evaluate_tradeoff,
)
from repro.core.complexity import (
    SamplingComplexity,
    distinct_test_relations,
    sampling_complexity,
)
from repro.core.easy_negatives import (
    EasyNegativeClassifier,
    EasyNegativeReport,
    FalseEasyNegative,
    mine_easy_negatives,
)
from repro.core.estimators import (
    evaluate_sampled,
    expected_gain,
    expected_outranking,
    optimism_curve,
    sampled_rank,
)
from repro.core.protocol import EvaluationProtocol, PreparationReport
from repro.core.ranking import evaluate_full, filtered_rank
from repro.core.sampling import (
    STRATEGIES,
    NegativePools,
    Strategy,
    build_pools,
    resolve_sample_size,
)
from repro.engine.engine import EvaluationResult

__all__ = [
    "AUCEstimate",
    "STRATEGIES",
    "CandidateSets",
    "corrupt_with_pools",
    "estimate_auc",
    "EasyNegativeClassifier",
    "EasyNegativeReport",
    "EvaluationProtocol",
    "EvaluationResult",
    "FalseEasyNegative",
    "NegativePools",
    "PreparationReport",
    "SamplingComplexity",
    "Strategy",
    "TradeoffReport",
    "build_pools",
    "build_static_candidates",
    "choose_threshold",
    "distinct_test_relations",
    "evaluate_full",
    "evaluate_sampled",
    "evaluate_tradeoff",
    "expected_gain",
    "expected_outranking",
    "filtered_rank",
    "mine_easy_negatives",
    "optimism_curve",
    "sampled_rank",
    "sampling_complexity",
]
