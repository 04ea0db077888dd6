"""Sampled rank estimators and the theory behind their bias (Section 4).

:func:`evaluate_sampled` reproduces the sampled protocol: each query's
truth is ranked against the (filtered) pre-drawn candidate pool of its
relation-side, and the per-query ranks aggregate into MRR / Hits@K exactly
as in the full protocol.  Because the pool omits most easy negatives, a
*good* pool's sampled rank approaches the true filtered rank while scoring
a fraction of the entities.

The companion functions formalise why uniform pools are optimistic:

* :func:`expected_outranking` — the hypergeometric expectation
  ``E[X_u] = n_s * |E_(h,r)| / |E|`` of Equation 1, which vanishes as the
  sample shrinks (hence inflated metrics);
* :func:`expected_gain` — Theorem 1's ``E[Y] >= 0``: sampling inside the
  true range set never lands farther from the true rank.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import NegativePools
from repro.engine.chunking import DEFAULT_CHUNK_SIZE
from repro.engine.engine import EvaluationEngine, EvaluationResult
from repro.kg.graph import SIDES, KnowledgeGraph, Side
from repro.metrics.ranking import HITS_AT, rank_of
from repro.models.base import KGEModel


def sampled_rank(
    model: KGEModel,
    graph: KnowledgeGraph,
    anchor: int,
    relation: int,
    side: Side,
    truth: int,
    pool: np.ndarray,
) -> tuple[float, int]:
    """Filtered rank of ``truth`` against one candidate pool.

    Known true answers (and the truth itself) are removed from the pool
    before scoring — the filtered setting — so only genuine negatives can
    outrank the truth.  Returns ``(rank, entities_scored)``.
    """
    known = graph.true_answers(anchor, relation, side)
    negatives = pool[~np.isin(pool, known, assume_unique=False)]
    negatives = negatives[negatives != truth]
    true_score = model.score_candidates(
        anchor, relation, side, np.asarray([truth], dtype=np.int64)
    )[0]
    if negatives.size == 0:
        return 1.0, 1
    negative_scores = model.score_candidates(anchor, relation, side, negatives)
    return rank_of(true_score, negative_scores), int(negatives.size) + 1


def evaluate_sampled(
    model: KGEModel,
    graph: KnowledgeGraph,
    pools: NegativePools,
    split: str = "test",
    hits_at: tuple[int, ...] = HITS_AT,
    sides: tuple[Side, ...] = SIDES,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    start_method: str | None = None,
) -> EvaluationResult:
    """Estimate ranking metrics of ``model`` using pre-drawn pools.

    Execution goes through :class:`repro.engine.EvaluationEngine`:
    ``workers`` fans the chunk schedule across scoring processes (the
    state reaches workers through shared memory) and ``chunk_size``
    bounds the per-chunk score matrix.  Ranks are bitwise-identical
    across worker counts and start methods.
    """
    engine = EvaluationEngine(
        workers=workers, chunk_size=chunk_size, start_method=start_method
    )
    return engine.run(
        model, graph, split=split, pools=pools, hits_at=hits_at, sides=sides
    )


# ----------------------------------------------------------------------
# Theory: Equation 1 and Theorem 1
# ----------------------------------------------------------------------
def expected_outranking(
    num_better: int, num_entities: int, num_samples: int
) -> float:
    """``E[X_u]`` — expected sampled entities outranking the truth (Eq. 1).

    Sampling ``num_samples`` of ``num_entities`` without replacement when
    ``num_better`` of them outrank the truth is hypergeometric with mean
    ``num_samples * num_better / num_entities``.
    """
    if not 0 <= num_better <= num_entities:
        raise ValueError(f"need 0 <= num_better <= |E|, got {num_better}/{num_entities}")
    if not 0 <= num_samples <= num_entities:
        raise ValueError(f"need 0 <= n_s <= |E|, got {num_samples}/{num_entities}")
    if num_entities == 0:
        return 0.0
    return num_samples * num_better / num_entities


def expected_gain(
    num_better: int,
    num_entities: int,
    range_size: int,
    num_samples: int,
) -> float:
    """``E[Y]`` of Theorem 1 — rank-accuracy gained by in-range sampling.

    ``Y = X_range - X_uniform`` with ``X_range`` the outranking count when
    sampling ``min(n_s, |RS_r|)`` candidates inside the range set.  The
    closed forms are the two cases of the paper's appendix proof; both are
    non-negative whenever ``E_(h,r)`` is contained in the range set.
    """
    if not 0 <= num_better <= range_size <= num_entities:
        raise ValueError(
            "need 0 <= |E_(h,r)| <= |RS_r| <= |E|, got "
            f"{num_better}/{range_size}/{num_entities}"
        )
    if not 0 < num_samples <= num_entities:
        raise ValueError(f"need 0 < n_s <= |E|, got {num_samples}")
    if range_size == 0:
        return 0.0
    if num_samples < range_size:
        return (
            num_better
            * num_samples
            / (range_size * num_entities)
            * (num_entities - range_size)
        )
    return num_better / num_entities * (num_entities - num_samples)


def optimism_curve(
    num_better: int, num_entities: int, sample_sizes: np.ndarray
) -> np.ndarray:
    """``E[X_u]`` for a sweep of sample sizes (the Figure 3b x-axis)."""
    sizes = np.asarray(sample_sizes, dtype=np.float64)
    return sizes * num_better / num_entities
