"""Static candidate sets: thresholded domains & ranges (paper Section 4.1).

The Static estimator narrows each relation's head/tail candidate pool by
thresholding the recommender's score column.  Per column, the threshold is
chosen to optimize the Candidate Recall / Reduction Rate trade-off — the
smallest Euclidean distance to the ideal point ``(CR, RR) = (1, 1)`` —
using only *training* evidence, so test truths never leak into the sets.

The final evaluation-time candidate set is the thresholded set **union
the observed (PT) entities**, mirroring the paper's remark that in
practice one always folds the already-seen candidates in.

Each side's sets form one :class:`~repro.kg.graph.KeyedCSR` keyed by
relation (an empty set is a missing key), next to a ``(|R|,)`` float64
array of thresholds; Table 5's coverage test is one
:meth:`~repro.kg.graph.KeyedCSR.contains` pass per side.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.kg.graph import (
    SIDES,
    KeyedCSR,
    KnowledgeGraph,
    Side,
    entities_by_relation,
    keyed_by_relation,
)
from repro.metrics.tradeoff import TradeoffPoint
from repro.recommenders.base import FittedRecommender


@dataclass
class CandidateSets:
    """Per-(relation, side) entity candidate sets with their thresholds.

    ``sets[side]`` holds each relation's sorted candidates as one
    :class:`KeyedCSR`; ``thresholds[side][relation]`` is the score
    threshold that chose them (``inf`` for an all-zero column).
    """

    sets: dict[Side, KeyedCSR]
    thresholds: dict[Side, np.ndarray]
    num_entities: int
    recommender_name: str = "?"
    build_seconds: float = 0.0

    def candidates(self, relation: int, side: Side) -> np.ndarray:
        """Sorted entity ids admissible for ``(relation, side)``."""
        return self.sets[side].segment(relation)

    def set_size(self, relation: int, side: Side) -> int:
        return int(self.candidates(relation, side).size)

    def mean_reduction_rate(self) -> float:
        """Unweighted mean RR over all ``2|R|`` columns, empty ones included."""
        sizes = np.concatenate(
            [self.sets[side].lengths(np.arange(self.thresholds[side].size)) for side in SIDES]
        )
        if not sizes.size:
            return 0.0
        return float(np.mean(1.0 - sizes / self.num_entities))

    def __repr__(self) -> str:
        total = sum(self.thresholds[side].size for side in SIDES)
        return (
            f"CandidateSets({self.recommender_name!r}, {total} columns, "
            f"mean RR={self.mean_reduction_rate():.3f})"
        )


def _truth_index(graph: KnowledgeGraph) -> dict[Side, KeyedCSR]:
    """Per side, the entities of each relation in train + valid."""
    return entities_by_relation(graph.num_entities, [graph.train.array, graph.valid.array])


def _stored_scores(support: np.ndarray, scores: np.ndarray, entities: np.ndarray) -> np.ndarray:
    """The scores of ``entities`` in a column stored as its sorted
    ``support`` and their ``scores``: 0 for an entity it does not store."""
    found = np.zeros(entities.size, dtype=scores.dtype)
    if support.size:
        at = np.minimum(np.searchsorted(support, entities), support.size - 1)
        stored = support[at] == entities
        found[stored] = scores[at[stored]]
    return found


def _best_threshold(
    positive: np.ndarray,
    truth_scores: np.ndarray,
    num_entities: int,
    num_thresholds: int,
) -> tuple[float, TradeoffPoint]:
    """The threshold search of one column, from its sorted positive
    scores and its truths' scores (0 for a truth it does not score).

    Every candidate threshold is a quantile of the positives, hence > 0,
    so the entities scoring at least a threshold are all positives: one
    search in ``positive`` counts them, with no dense column.
    """
    num_truths = truth_scores.size
    if positive.size == 0:
        return np.inf, TradeoffPoint(candidate_recall=1.0 if num_truths == 0 else 0.0, reduction_rate=1.0)
    quantiles = np.unique(np.quantile(positive, np.linspace(0.0, 1.0, num_thresholds)))
    kept = positive.size - np.searchsorted(positive, quantiles)
    recalled = num_truths - np.searchsorted(np.sort(truth_scores), quantiles)
    best, best_distance = None, np.inf
    for threshold, kept_count, recalled_count in zip(
        quantiles.tolist(), kept.tolist(), recalled.tolist()
    ):
        recall = recalled_count / num_truths if num_truths else 1.0
        reduction = 1.0 - kept_count / num_entities
        # TradeoffPoint.distance_to_ideal, without a point per candidate.
        distance = math.hypot(1.0 - recall, 1.0 - reduction)
        if distance < best_distance:
            best, best_distance = (threshold, recall, reduction), distance
    assert best is not None
    threshold, recall, reduction = best
    return threshold, TradeoffPoint(candidate_recall=recall, reduction_rate=reduction)


def choose_threshold(
    scores: np.ndarray,
    truths: np.ndarray,
    num_thresholds: int = 32,
) -> tuple[float, TradeoffPoint]:
    """Pick the score threshold minimizing distance to ``(CR, RR) = (1, 1)``.

    ``scores`` is one dense column; ``truths`` are the training-time true
    entities of the column.  Candidate thresholds are quantiles of the
    positive scores.  An empty/zero column returns threshold ``inf`` (an
    empty set) with CR defined as 1 when there are no truths.
    """
    positive = np.sort(scores[scores > 0])
    return _best_threshold(positive, scores[truths], scores.shape[0], num_thresholds)


def build_static_candidates(
    fitted: FittedRecommender,
    graph: KnowledgeGraph,
    include_observed: bool = True,
    num_thresholds: int = 32,
) -> CandidateSets:
    """Threshold every score column into a static candidate set.

    Each column is read as its stored ``(entities, scores)``
    (:meth:`~repro.recommenders.base.FittedRecommender.column_entries`);
    a truth outside them scores 0.  ``include_observed`` unions in the PT
    (seen-in-training) entities after thresholding — the paper's
    practical default.
    """
    start = time.perf_counter()
    columns: dict[Side, dict[int, np.ndarray]] = {side: {} for side in SIDES}
    thresholds = {side: np.empty(graph.num_relations) for side in SIDES}
    truths = _truth_index(graph)
    for side in SIDES:
        for relation in range(graph.num_relations):
            support, scores = fitted.column_entries(relation, side)
            threshold, _ = _best_threshold(
                np.sort(scores[scores > 0]),
                _stored_scores(support, scores, truths[side].segment(relation)),
                graph.num_entities,
                num_thresholds,
            )
            thresholds[side][relation] = threshold
            selected = support[scores >= threshold]
            if include_observed:
                # The keyed CSR sorts and deduplicates the union.
                selected = np.concatenate([selected, graph.observed(relation, side)])
            columns[side][relation] = selected
    return CandidateSets(
        sets={side: keyed_by_relation(columns[side], graph.num_entities) for side in SIDES},
        thresholds=thresholds,
        num_entities=graph.num_entities,
        recommender_name=fitted.name,
        build_seconds=time.perf_counter() - start,
    )


@dataclass
class TradeoffReport:
    """Table 5 row: CR (Test / Unseen) and RR of one candidate generator."""

    recommender_name: str
    candidate_recall_test: float
    candidate_recall_unseen: float
    reduction_rate: float
    num_test_pairs: int
    num_unseen_pairs: int
    fit_seconds: float = 0.0

    def as_row(self) -> dict[str, float | str | int]:
        return {
            "Model": self.recommender_name,
            "CR Test": round(self.candidate_recall_test, 3),
            "CR Unseen": round(self.candidate_recall_unseen, 3),
            "RR": round(self.reduction_rate, 3),
            "Runtime (s)": round(self.fit_seconds, 3),
        }


def evaluate_tradeoff(
    sets: CandidateSets,
    graph: KnowledgeGraph,
    split: str = "test",
    fit_seconds: float = 0.0,
) -> TradeoffReport:
    """Measure CR Test / CR Unseen / RR of candidate sets on a split.

    CR Test covers every distinct (entity, relation-side) combination the
    split contains; CR Unseen restricts to combinations absent from train
    and valid.  RR is weighted by those distinct (answer entity,
    relation) pairs per side: the average over them of the fraction of
    entities the relation-side's candidate set filters out.
    """
    triples = getattr(graph, split)
    truths = _truth_index(graph)
    num_relations = graph.num_relations
    covered: list[np.ndarray] = []
    unseen: list[np.ndarray] = []
    rr_terms: list[np.ndarray] = []
    for side in SIDES:
        # Sorted unique keys list the side's pairs in (entity, relation) order.
        keys = np.unique(
            triples.entities(side).astype(np.int64) * num_relations + triples.relations
        )
        entities, relations = np.divmod(keys, num_relations)
        covered.append(sets.sets[side].contains(relations, entities))
        unseen.append(~truths[side].contains(relations, entities))
        rr_terms.append(1.0 - sets.sets[side].lengths(relations) / sets.num_entities)
    hit = np.concatenate(covered)
    fresh = np.concatenate(unseen)
    rr = np.concatenate(rr_terms)
    total_unseen = int(np.count_nonzero(fresh))
    return TradeoffReport(
        recommender_name=sets.recommender_name,
        candidate_recall_test=np.count_nonzero(hit) / hit.size if hit.size else 1.0,
        candidate_recall_unseen=(
            np.count_nonzero(hit & fresh) / total_unseen if total_unseen else 1.0
        ),
        reduction_rate=float(np.mean(rr)) if rr.size else 0.0,
        num_test_pairs=int(hit.size),
        num_unseen_pairs=total_unseen,
        fit_seconds=fit_seconds,
    )
