"""Ranking metrics: ranks, MRR, Hits@K, mean rank, ROC-AUC.

Conventions
-----------
* Ranks are 1-based: the best possible rank is 1.
* "Realistic" rank handling for ties: the rank of the true answer among
  scores ``s`` is ``1 + |better| + |ties| / 2`` (LibKGE's *mean* policy),
  which avoids rewarding models that assign constant scores.
* Filtered metrics remove known true answers (other than the query's own)
  from the candidate list before ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

HITS_AT = (1, 3, 10)


def rank_of(true_score: float, candidate_scores: np.ndarray) -> float:
    """1-based rank of ``true_score`` among ``candidate_scores``.

    ``candidate_scores`` must *exclude* the true answer's own score; ties
    contribute half a position each (mean tie policy).

    Examples
    --------
    >>> import numpy as np
    >>> rank_of(2.0, np.asarray([3.0, 1.0, 0.5]))
    2.0
    >>> rank_of(1.0, np.asarray([1.0, 0.0]))  # one tie counts half
    1.5
    """
    better = float(np.count_nonzero(candidate_scores > true_score))
    ties = float(np.count_nonzero(candidate_scores == true_score))
    return 1.0 + better + ties / 2.0


@dataclass(frozen=True)
class RankingMetrics:
    """Aggregated ranking metrics over a set of queries.

    Examples
    --------
    >>> metrics = aggregate_ranks([1.0, 2.0], hits_at=(1,))
    >>> metrics.hits_at(1)
    0.5
    >>> metrics.as_dict()
    {'mrr': 0.75, 'mean_rank': 1.5, 'hits@1': 0.5}
    >>> metrics.metric("hits@1")
    0.5
    """

    mrr: float
    hits: dict[int, float]
    mean_rank: float
    num_queries: int

    def hits_at(self, k: int) -> float:
        return self.hits[k]

    def as_dict(self) -> dict[str, float]:
        result = {"mrr": self.mrr, "mean_rank": self.mean_rank}
        for k, value in sorted(self.hits.items()):
            result[f"hits@{k}"] = value
        return result

    def metric(self, name: str) -> float:
        """Look up a metric by name (``"mrr"`` or ``"hits@K"``)."""
        if name == "mrr":
            return self.mrr
        if name == "mean_rank":
            return self.mean_rank
        if name.startswith("hits@"):
            return self.hits[int(name.split("@", 1)[1])]
        raise KeyError(f"unknown metric {name!r}")

    def __repr__(self) -> str:
        hits = ", ".join(f"h@{k}={v:.3f}" for k, v in sorted(self.hits.items()))
        return f"RankingMetrics(mrr={self.mrr:.3f}, {hits}, n={self.num_queries})"


def aggregate_ranks(
    ranks: np.ndarray | Iterable[float], hits_at: tuple[int, ...] = HITS_AT
) -> RankingMetrics:
    """Aggregate raw ranks (an array or any iterable) into :class:`RankingMetrics`.

    Examples
    --------
    >>> metrics = aggregate_ranks([1.0, 4.0, 10.0])
    >>> metrics.num_queries
    3
    >>> round(metrics.mrr, 3)
    0.45
    >>> metrics.hits_at(10)
    1.0
    """
    array = np.asarray(
        ranks if isinstance(ranks, np.ndarray) else list(ranks), dtype=np.float64
    )
    if array.size == 0:
        return RankingMetrics(mrr=0.0, hits={k: 0.0 for k in hits_at}, mean_rank=0.0, num_queries=0)
    if (array < 1.0).any():
        raise ValueError("ranks must be >= 1")
    return RankingMetrics(
        mrr=float(np.mean(1.0 / array)),
        hits={k: float(np.mean(array <= k)) for k in hits_at},
        mean_rank=float(np.mean(array)),
        num_queries=int(array.size),
    )


def roc_auc(positive_scores: np.ndarray, negative_scores: np.ndarray) -> float:
    """ROC-AUC via the rank-sum (Mann-Whitney) formulation.

    This is the sampled metric some inductive KGC work reports instead of
    full ranking (paper Section 1); exposed here so the framework can
    estimate it over hard negatives as the paper's Section 7 proposes.

    Examples
    --------
    >>> import numpy as np
    >>> roc_auc(np.asarray([0.9, 0.8]), np.asarray([0.1, 0.8]))
    0.875
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative score")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def average_precision(positive_scores: np.ndarray, negative_scores: np.ndarray) -> float:
    """Area under the precision-recall curve (average precision).

    Examples
    --------
    >>> import numpy as np
    >>> round(average_precision(np.asarray([0.9, 0.5]), np.asarray([0.7])), 4)
    0.8333
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative score")
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
    order = np.argsort(-scores, kind="stable")
    labels = labels[order]
    cum_pos = np.cumsum(labels)
    precision = cum_pos / np.arange(1, labels.size + 1)
    return float((precision * labels).sum() / pos.size)
