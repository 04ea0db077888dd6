"""Easy-negative mining and the false-negative audit (Tables 2 and 10).

An (entity, relation-side) slot whose recommender score is exactly zero is
an *easy negative*: the recommender has never seen any evidence connecting
the entity to that domain/range, so it can be ruled out of ranking with
near certainty.  The paper's Table 2 counts that mass (millions of slots);
Table 10 audits the rare *false* easy negatives — actual dataset triples
whose participant scores zero, which on inspection are almost always
curation errors like ``(MonthOfAugust, gender, male)``.

The :class:`EasyNegativeClassifier` implements the Section 7 extension: a
closed-world triple classifier that rejects a candidate triple as soon as
either slot scores zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kg.graph import HEAD, TAIL, KnowledgeGraph
from repro.recommenders.base import FittedRecommender


@dataclass(frozen=True)
class FalseEasyNegative:
    """One dataset triple wrongly marked easy (a Table 10 row)."""

    head: int
    relation: int
    tail: int
    split: str
    zero_side: str  # "head", "tail" or "both"

    def labelled(self, graph: KnowledgeGraph) -> tuple[str, str, str]:
        return (
            graph.entities.label_of(self.head),
            graph.relations.label_of(self.relation),
            graph.entities.label_of(self.tail),
        )


@dataclass
class EasyNegativeReport:
    """Table 2 numbers for one (dataset, recommender) pair."""

    recommender_name: str
    dataset_name: str
    num_entities: int
    num_relations: int
    easy_negatives: int
    false_easy_negatives: list[FalseEasyNegative] = field(default_factory=list)

    @property
    def total_slots(self) -> int:
        """All (entity, relation-side) combinations: ``|E| * 2|R|``."""
        return self.num_entities * 2 * self.num_relations

    @property
    def easy_fraction(self) -> float:
        """Easy negatives as a fraction of all slots (Table 2's percent row)."""
        if self.total_slots == 0:
            return 0.0
        return self.easy_negatives / self.total_slots

    @property
    def num_false(self) -> int:
        return len(self.false_easy_negatives)

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "Dataset": self.dataset_name,
            "Easy negatives (%)": round(100.0 * self.easy_fraction, 2),
            "Easy negatives": self.easy_negatives,
            "False easy negatives": self.num_false,
        }


def mine_easy_negatives(
    fitted: FittedRecommender,
    graph: KnowledgeGraph,
    audit_splits: tuple[str, ...] = ("train", "valid", "test"),
) -> EasyNegativeReport:
    """Count zero-score slots and audit them against the dataset triples.

    The easy-negative count is ``|E| * 2|R| - nnz(X)``; the audit indexes
    a ``(2|R|, |E|)`` zero mask with every triple of ``audit_splits`` and
    flags, in split order, those whose head scores zero in the relation's
    domain column or whose tail scores zero in its range column.
    """
    total_slots = graph.num_entities * 2 * graph.num_relations
    easy = total_slots - fitted.total_nonzero()

    # zero[col, e]: entity e has no stored score in column col (a slot).
    stored = fitted.matrix.tocoo()
    zero = np.ones((2 * graph.num_relations, graph.num_entities), dtype=bool)
    zero[stored.col, stored.row] = False

    false_negatives: list[FalseEasyNegative] = []
    for split in audit_splits:
        triples = getattr(graph, split).array
        head_zero = zero[triples[:, 1], triples[:, 0]]
        tail_zero = zero[triples[:, 1] + graph.num_relations, triples[:, 2]]
        flagged = np.flatnonzero(head_zero | tail_zero)
        for (h, r, t), hz, tz in zip(
            triples[flagged].tolist(), head_zero[flagged].tolist(), tail_zero[flagged].tolist()
        ):
            zero_side = "both" if hz and tz else ("head" if hz else "tail")
            false_negatives.append(FalseEasyNegative(h, r, t, split, zero_side))
    return EasyNegativeReport(
        recommender_name=fitted.name,
        dataset_name=graph.name,
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        easy_negatives=easy,
        false_easy_negatives=false_negatives,
    )


class EasyNegativeClassifier:
    """Closed-world triple classifier from zero recommender scores (§7).

    ``classify`` returns ``False`` (confident negative) when either slot
    of the candidate triple has zero score, ``True`` (plausible) otherwise.
    """

    def __init__(self, fitted: FittedRecommender):
        self.fitted = fitted

    def classify(self, head: int, relation: int, tail: int) -> bool:
        head_score = self.fitted.score_of(head, relation, HEAD)
        tail_score = self.fitted.score_of(tail, relation, TAIL)
        return head_score > 0.0 and tail_score > 0.0

    def classify_batch(self, triples: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`classify` over an ``(n, 3)`` triple array."""
        triples = np.asarray(triples, dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"expected (n, 3) triples, got {triples.shape}")
        heads, relations, tails = triples.T
        num_relations = self.fitted.num_relations
        if relations.size == 0:
            return np.zeros(0, dtype=bool)
        if relations.min() < 0 or relations.max() >= num_relations:
            raise IndexError(f"relation outside [0, {num_relations})")
        matrix = self.fitted.matrix
        head_scores = np.asarray(matrix[heads, relations]).ravel()
        tail_scores = np.asarray(matrix[tails, relations + num_relations]).ravel()
        return (head_scores > 0.0) & (tail_scores > 0.0)
