"""The relation-recommender interface (paper Section 3).

A relation recommender assigns every entity a score for being the *head*
(domain) or *tail* (range) of every relation, independent of the other end
of the query.  Scores live in a sparse ``|E| x 2|R|`` matrix: column ``r``
is the domain of relation ``r`` and column ``r + |R|`` its range, matching
Algorithm 1's layout.

:class:`FittedRecommender` wraps that matrix with the lookups the
evaluation framework needs — column slices, probability vectors and
zero-score (easy-negative) masks — plus the fit runtime, which Table 5
reports as a headline comparison axis.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.kg.graph import HEAD, KnowledgeGraph, Side
from repro.kg.typing import TypeStore


def column_index(relation: int, side: Side, num_relations: int) -> int:
    """Map ``(relation, side)`` to its column in the score matrix.

    Domains (heads) occupy columns ``0 .. |R|-1`` and ranges (tails)
    columns ``|R| .. 2|R|-1``, exactly as Algorithm 1 offsets ranges by
    ``|R|``.

    Examples
    --------
    >>> column_index(2, "head", num_relations=5)
    2
    >>> column_index(2, "tail", num_relations=5)
    7
    """
    if not 0 <= relation < num_relations:
        raise IndexError(f"relation {relation} outside [0, {num_relations})")
    return relation if side == HEAD else relation + num_relations


def binary_incidence(graph: KnowledgeGraph) -> sp.csr_matrix:
    """Algorithm 1's matrix ``B``: binary ``|E| x 2|R|`` seen-as incidence.

    ``B[e, r] = 1`` iff entity ``e`` appears as a head of relation ``r`` in
    training; ``B[e, r + |R|] = 1`` iff it appears as a tail.

    Examples
    --------
    >>> from repro.kg.graph import build_graph
    >>> graph = build_graph({"train": [("a", "likes", "b"), ("a", "likes", "c")]})
    >>> binary_incidence(graph).toarray()
    array([[1., 0.],
           [0., 1.],
           [0., 1.]])
    """
    matrix = count_incidence(graph)
    matrix.data[:] = 1.0  # collapse duplicate (entity, slot) observations
    return matrix


def count_incidence(graph: KnowledgeGraph) -> sp.csr_matrix:
    """Like :func:`binary_incidence` but keeping occurrence *counts* (DBH).

    Examples
    --------
    >>> from repro.kg.graph import build_graph
    >>> graph = build_graph({"train": [("a", "r", "b"), ("a", "r", "c")]})
    >>> count_incidence(graph).toarray()[0].tolist()  # 'a': head twice
    [2.0, 0.0]
    """
    train = graph.train.array
    num_r = graph.num_relations
    rows = np.concatenate([train[:, 0], train[:, 2]])
    cols = np.concatenate([train[:, 1], train[:, 1] + num_r])
    data = np.ones(rows.shape[0], dtype=np.float64)
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(graph.num_entities, 2 * num_r)
    )


@dataclass
class FittedRecommender:
    """A fitted recommender: the score matrix plus metadata.

    Parameters
    ----------
    matrix:
        CSR ``|E| x 2|R|`` of non-negative scores; zero means "never a
        credible candidate" (the easy-negative signal of Section 4).
    name:
        Recommender name for tables.
    num_relations:
        Needed to resolve ``(relation, side)`` columns.
    fit_seconds:
        Wall-clock fitting time (the Table 5 "Runtime" column).

    Examples
    --------
    >>> from repro.kg.graph import build_graph
    >>> from repro.recommenders.pseudo_typed import PseudoTyped
    >>> graph = build_graph({"train": [("a", "r", "b"), ("c", "r", "b")]})
    >>> fitted = PseudoTyped().fit(graph)
    >>> fitted.column_support(0, "head").tolist()  # a and c were heads
    [0, 2]
    >>> fitted.zero_mask(0, "tail").tolist()       # everything but b
    [True, False, True]
    >>> fitted.column_probabilities(0, "head").tolist()
    [0.5, 0.0, 0.5]
    """

    matrix: sp.csr_matrix
    name: str
    num_relations: int
    fit_seconds: float = 0.0
    _csc: sp.csc_matrix | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.shape[1] != 2 * self.num_relations:
            raise ValueError(
                f"score matrix has {self.matrix.shape[1]} columns, "
                f"expected 2 * {self.num_relations}"
            )
        if self.matrix.nnz and self.matrix.data.min() < 0:
            raise ValueError("recommender scores must be non-negative")

    @property
    def num_entities(self) -> int:
        return self.matrix.shape[0]

    def _column_store(self) -> sp.csc_matrix:
        if self._csc is None:
            csc = self.matrix.tocsc()
            csc.sum_duplicates()  # sorted, unique entity ids per column
            self._csc = csc
        return self._csc

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def column_entries(self, relation: int, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """The stored ``(entities, scores)`` of one (relation, side) column:
        sorted unique entity ids and their scores (explicit zeros
        included), as views into the column store."""
        col = column_index(relation, side, self.num_relations)
        store = self._column_store()
        start, stop = store.indptr[col], store.indptr[col + 1]
        return store.indices[start:stop], store.data[start:stop]

    def column(self, relation: int, side: Side) -> np.ndarray:
        """Dense score vector of one (relation, side) column."""
        entities, scores = self.column_entries(relation, side)
        dense = np.zeros(self.num_entities, dtype=scores.dtype)
        dense[entities] = scores
        return dense

    def column_support(self, relation: int, side: Side) -> np.ndarray:
        """Entity ids with a *non-zero* score in the column (sorted)."""
        return self.column_entries(relation, side)[0].astype(np.int64)

    def column_probabilities(self, relation: int, side: Side) -> np.ndarray:
        """Column scores normalised into a probability vector.

        An all-zero column falls back to uniform so sampling stays defined
        for relations the recommender knows nothing about.
        """
        scores = self.column(relation, side)
        total = scores.sum()
        if total <= 0:
            return np.full(scores.shape[0], 1.0 / scores.shape[0])
        return scores / total

    def score_of(self, entity: int, relation: int, side: Side) -> float:
        """Single-cell lookup."""
        col = column_index(relation, side, self.num_relations)
        return float(self.matrix[entity, col])

    def zero_mask(self, relation: int, side: Side) -> np.ndarray:
        """Boolean mask of entities with score exactly 0 (easy negatives)."""
        mask = np.ones(self.num_entities, dtype=bool)
        mask[self.column_support(relation, side)] = False
        return mask

    def total_nonzero(self) -> int:
        """Number of non-zero (entity, relation-side) slots."""
        return int(self.matrix.nnz)

    def __repr__(self) -> str:
        return (
            f"FittedRecommender({self.name!r}, |E|={self.num_entities}, "
            f"2|R|={self.matrix.shape[1]}, nnz={self.matrix.nnz}, "
            f"fit={self.fit_seconds:.2f}s)"
        )


class RelationRecommender(abc.ABC):
    """Base class: subclasses implement :meth:`_score_matrix`.

    Examples
    --------
    >>> from repro.kg.graph import build_graph
    >>> from repro.recommenders.pseudo_typed import PseudoTyped
    >>> graph = build_graph({"train": [("a", "r", "b")]})
    >>> fitted = PseudoTyped().fit(graph)  # PT is the simplest subclass
    >>> fitted.name
    'pt'
    >>> fitted.score_of(0, 0, "head")
    1.0
    """

    name: str = "recommender"
    requires_types: bool = False

    def fit(
        self, graph: KnowledgeGraph, types: TypeStore | None = None
    ) -> FittedRecommender:
        """Fit on the training split and return the scored matrix.

        Typed recommenders raise ``ValueError`` when ``types`` is missing —
        the availability trade-off Table 1 catalogues.
        """
        if self.requires_types and types is None:
            raise ValueError(f"{self.name} requires entity types")
        start = time.perf_counter()
        matrix = self._score_matrix(graph, types)
        elapsed = time.perf_counter() - start
        return FittedRecommender(
            matrix=matrix.tocsr(),
            name=self.name,
            num_relations=graph.num_relations,
            fit_seconds=elapsed,
        )

    @abc.abstractmethod
    def _score_matrix(
        self, graph: KnowledgeGraph, types: TypeStore | None
    ) -> sp.spmatrix:
        """Compute the raw non-negative ``|E| x 2|R|`` score matrix."""
