"""Full filtered ranking evaluation — the expensive ground truth.

This is the standard KGC protocol the paper sets out to approximate: for
every test triple and both prediction directions, score *every* entity,
remove known true answers (filtered setting) and record the rank of the
truth.  Cost is ``O(|E|)`` scores per query, ``O(|E| * |test|)`` overall —
the quadratic blow-up (relative to sampled evaluation) that motivates the
whole framework.

The chunking / grouping / filtering machinery lives in
:mod:`repro.engine.chunking` and execution is delegated to
:class:`repro.engine.EvaluationEngine`, so the full protocol can fan its
chunks across worker processes: ``evaluate_full(model, graph, workers=4)``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.chunking import DEFAULT_CHUNK_SIZE
from repro.engine.engine import EvaluationEngine, EvaluationResult
from repro.kg.graph import SIDES, KnowledgeGraph, Side
from repro.metrics.ranking import HITS_AT
from repro.models.base import KGEModel


def filtered_rank(
    scores: np.ndarray,
    truth: int,
    known_answers: np.ndarray,
) -> float:
    """Filtered 1-based rank of ``truth`` inside a full score vector.

    ``known_answers`` are removed from the competition (masked out, so
    even a ``-inf`` truth never ties them); the truth itself always
    competes.  Ties count half (mean tie policy), matching
    :mod:`repro.metrics.ranking`.
    """
    true_score = scores[truth]
    competes = np.ones(scores.shape[0], dtype=bool)
    if known_answers.size:
        competes[known_answers] = False
    competes[truth] = False  # the truth never competes with itself
    competitors = scores[competes]
    better = int(np.count_nonzero(competitors > true_score))
    ties = int(np.count_nonzero(competitors == true_score))
    return 1.0 + better + ties / 2.0


def evaluate_full(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str = "test",
    hits_at: tuple[int, ...] = HITS_AT,
    sides: tuple[Side, ...] = SIDES,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    start_method: str | None = None,
) -> EvaluationResult:
    """Run the full filtered ranking protocol on one split.

    Every distinct triple contributes one query per side in ``sides``;
    the returned per-query ranks are keyed by ``(h, r, t, side)`` so
    estimators can be compared against the ground truth query-by-query.

    ``workers`` fans the chunk schedule across that many scoring
    processes (1 = in-process serial; negative = all cores); the ranks
    are bitwise-identical either way.  ``chunk_size`` bounds the
    ``chunk_size x |E|`` score intermediate per chunk.  ``start_method``
    selects how the persistent shared-memory pool's workers start; see
    :class:`repro.engine.EvaluationEngine`.
    """
    engine = EvaluationEngine(
        workers=workers, chunk_size=chunk_size, start_method=start_method
    )
    return engine.run(model, graph, split=split, hits_at=hits_at, sides=sides)
