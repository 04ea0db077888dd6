"""Core knowledge-graph data structures.

A :class:`TripleSet` is an immutable ``(n, 3)`` integer array of
``(head, relation, tail)`` triples with convenience accessors.  A
:class:`KnowledgeGraph` bundles the train/valid/test triple sets with the
entity/relation vocabularies and the index structures the evaluation
framework needs:

* *the filter index* — for each ``(h, r)`` the set of known true tails
  across all splits (and symmetrically for heads), used by filtered
  ranking; one :class:`FilterIndexCSR`, built by :func:`build_filter_csr`;
* *observed domains & ranges* — for each relation the entities seen as its
  head (domain) or tail (range) in the training split, used by the PT
  recommender and by candidate-recall bookkeeping.

Heads and tails are handled uniformly through the ``side`` argument:
``"head"`` means we predict the head of ``(?, r, t)`` and ``"tail"`` means we
predict the tail of ``(h, r, ?)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Mapping, Sequence

import numpy as np

from repro.kg.vocabulary import Vocabulary

Side = Literal["head", "tail"]

HEAD: Side = "head"
TAIL: Side = "tail"
SIDES: tuple[Side, Side] = (HEAD, TAIL)

#: First vocabulary size that no longer fits an int32 id.
INT32_LIMIT = 2**31


def id_dtype(num_entities: int) -> np.dtype:
    """The narrowest integer dtype that can hold every entity id.

    Entity-valued index buffers (filter-index answers, observed-entity
    sets, the compact triple store) are stored as int32 whenever the
    vocabulary allows it — halving their memory — and fall back to int64
    for vocabularies of ``2**31`` entities or more.
    """
    return np.dtype(np.int32) if num_entities < INT32_LIMIT else np.dtype(np.int64)


def _as_triple_array(triples: Iterable[tuple[int, int, int]] | np.ndarray) -> np.ndarray:
    array = np.asarray(list(triples) if not isinstance(triples, np.ndarray) else triples)
    if array.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(f"triples must have shape (n, 3), got {array.shape}")
    return array.astype(np.int64, copy=False)


class TripleSet:
    """An immutable collection of ``(head, relation, tail)`` integer triples."""

    __slots__ = ("_array",)

    def __init__(self, triples: Iterable[tuple[int, int, int]] | np.ndarray):
        array = _as_triple_array(triples)
        array.setflags(write=False)
        self._array = array

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ``(n, 3)`` int64 array."""
        return self._array

    @property
    def heads(self) -> np.ndarray:
        return self._array[:, 0]

    @property
    def relations(self) -> np.ndarray:
        return self._array[:, 1]

    @property
    def tails(self) -> np.ndarray:
        return self._array[:, 2]

    def entities(self, side: Side) -> np.ndarray:
        """Entity column for ``side`` (heads for ``"head"``, tails otherwise)."""
        return self.heads if side == HEAD else self.tails

    def unique_pairs(self, side: Side) -> int:
        """Number of distinct ``(entity, relation)`` pairs on ``side``.

        ``side == "tail"`` counts distinct ``(h, r)`` pairs — the number of
        distinct *tail-prediction* queries — and ``side == "head"`` counts
        distinct ``(r, t)`` pairs.
        """
        anchor = self.heads if side == TAIL else self.tails
        pairs = np.stack([anchor, self.relations], axis=1)
        return int(np.unique(pairs, axis=0).shape[0])

    def subset(self, mask: np.ndarray) -> "TripleSet":
        """A new :class:`TripleSet` of the rows selected by boolean ``mask``."""
        return TripleSet(self._array[mask])

    def concat(self, other: "TripleSet") -> "TripleSet":
        return TripleSet(np.concatenate([self._array, other._array], axis=0))

    def as_tuples(self) -> list[tuple[int, int, int]]:
        return [tuple(int(x) for x in row) for row in self._array]

    def __len__(self) -> int:
        return int(self._array.shape[0])

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for row in self._array:
            yield int(row[0]), int(row[1]), int(row[2])

    def __contains__(self, triple: object) -> bool:
        if not (isinstance(triple, tuple) and len(triple) == 3):
            return False
        h, r, t = triple
        matches = (
            (self._array[:, 0] == h)
            & (self._array[:, 1] == r)
            & (self._array[:, 2] == t)
        )
        return bool(matches.any())

    def __repr__(self) -> str:
        return f"TripleSet({len(self)} triples)"


@dataclass
class KnowledgeGraph:
    """A knowledge graph with train/valid/test splits and query indexes.

    Parameters
    ----------
    entities, relations:
        Vocabularies; ``num_entities``/``num_relations`` derive from them.
    train, valid, test:
        The three triple splits; ``valid`` and ``test`` may be empty.
    name:
        Human-readable dataset name for reports.
    """

    entities: Vocabulary
    relations: Vocabulary
    train: TripleSet
    valid: TripleSet = field(default_factory=lambda: TripleSet([]))
    test: TripleSet = field(default_factory=lambda: TripleSet([]))
    name: str = "kg"

    def __post_init__(self) -> None:
        self._filter_index: FilterIndexCSR | None = None
        #: Evaluation plans over this graph, most recently used first —
        #: built and read by :func:`repro.engine.worker.evaluation_plan`,
        #: and freed with the graph, like the filter index they derive from.
        self.evaluation_plans: list = []
        self._observed: dict[Side, dict[int, np.ndarray]] | None = None
        self._validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def all_triples(self) -> TripleSet:
        """Train, valid and test triples concatenated."""
        return self.train.concat(self.valid).concat(self.test)

    def _validate(self) -> None:
        for split_name, split in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if len(split) == 0:
                continue
            arr = split.array
            if arr[:, [0, 2]].max() >= self.num_entities or arr.min() < 0:
                raise ValueError(f"{split_name} split references entities outside the vocabulary")
            if arr[:, 1].max() >= self.num_relations:
                raise ValueError(f"{split_name} split references relations outside the vocabulary")

    # ------------------------------------------------------------------
    # Filter index (filtered ranking)
    # ------------------------------------------------------------------
    @property
    def filter_index(self) -> FilterIndexCSR:
        """The CSR filter index over all splits, built once, lazily."""
        if self._filter_index is None:
            self._filter_index = build_filter_csr(
                self.num_entities,
                self.num_relations,
                [self.train.array, self.valid.array, self.test.array],
            )
        return self._filter_index

    def true_answers(self, anchor: int, relation: int, side: Side) -> np.ndarray:
        """All known true answers for a query, across every split.

        ``side == "tail"``: true tails of ``(anchor, relation, ?)``.
        ``side == "head"``: true heads of ``(?, relation, anchor)``.
        """
        return self.filter_index.true_answers(anchor, relation, side)

    # ------------------------------------------------------------------
    # Observed domains & ranges (training split only)
    # ------------------------------------------------------------------
    def _build_observed(self) -> dict[Side, dict[int, np.ndarray]]:
        observed: dict[Side, dict[int, set[int]]] = {HEAD: {}, TAIL: {}}
        for h, r, t in self.train:
            observed[HEAD].setdefault(r, set()).add(h)
            observed[TAIL].setdefault(r, set()).add(t)
        dtype = id_dtype(self.num_entities)
        return {
            side: {r: np.asarray(sorted(vals), dtype=dtype) for r, vals in mapping.items()}
            for side, mapping in observed.items()
        }

    @property
    def observed_entities(self) -> dict[Side, dict[int, np.ndarray]]:
        """Per relation, entities seen in training as its head / tail."""
        if self._observed is None:
            self._observed = self._build_observed()
        return self._observed

    def observed(self, relation: int, side: Side) -> np.ndarray:
        """Entities observed in training on ``side`` of ``relation``."""
        return self.observed_entities[side].get(relation, np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Degree statistics
    # ------------------------------------------------------------------
    def degree_counts(self, side: Side) -> np.ndarray:
        """``(|E|, |R|)`` matrix counting training occurrences per side.

        Entry ``(e, r)`` is the number of training triples in which entity
        ``e`` appears on ``side`` of relation ``r`` — the raw statistic the
        DBH heuristic scores entities with.
        """
        counts = np.zeros((self.num_entities, self.num_relations), dtype=np.int64)
        entities = self.train.entities(side)
        np.add.at(counts, (entities, self.train.relations), 1)
        return counts

    def relation_counts(self) -> np.ndarray:
        """Number of training triples per relation."""
        counts = np.zeros(self.num_relations, dtype=np.int64)
        np.add.at(counts, self.train.relations, 1)
        return counts

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def relabel(self, name: str) -> "KnowledgeGraph":
        """A shallow copy under a different dataset name."""
        return KnowledgeGraph(
            entities=self.entities,
            relations=self.relations,
            train=self.train,
            valid=self.valid,
            test=self.test,
            name=name,
        )

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(name={self.name!r}, |E|={self.num_entities}, "
            f"|R|={self.num_relations}, train={len(self.train)}, "
            f"valid={len(self.valid)}, test={len(self.test)})"
        )


@dataclass
class FilterIndexCSR:
    """The filter index: every known true answer, in CSR form.

    For each side, the answers of every ``(anchor, relation)`` query
    across all splits — exactly what filtered ranking must exclude (minus
    the query's own truth) — packed into three flat arrays:

    * ``keys`` — sorted int64 ``anchor * num_relations + relation``
      composite keys, one per non-empty ``(anchor, relation)`` pair;
    * ``offsets`` — ``len(keys) + 1`` int64 prefix offsets into ``values``;
    * ``values`` — the answers, sorted and unique within each key's
      segment, concatenated in key order, stored as
      :func:`id_dtype` (int32 unless the vocabulary needs int64).

    For ``side == "tail"`` the anchor is the head (true tails of
    ``(h, r, ?)``); for ``side == "head"`` it is the tail.  Build one
    with :func:`build_filter_csr`; the evaluation engine reads it once
    per evaluation plan (:func:`repro.engine.worker.evaluation_plan`).
    """

    num_entities: int
    num_relations: int
    keys: dict[Side, np.ndarray]
    offsets: dict[Side, np.ndarray]
    values: dict[Side, np.ndarray]

    def true_answers(self, anchor: int, relation: int, side: Side) -> np.ndarray:
        """Known true answers of one query (empty when it has none)."""
        keys, offsets = self.keys[side], self.offsets[side]
        key = anchor * self.num_relations + relation
        start = offsets[np.searchsorted(keys, key)]
        stop = offsets[np.searchsorted(keys, key, side="right")]
        return self.values[side][start:stop]

    def gather(
        self, anchors: np.ndarray, relation: int, side: Side
    ) -> tuple[np.ndarray, np.ndarray]:
        """Known answers of a batch of same-relation queries, flattened.

        Returns ``(rows, answers)``: ``answers[j]`` is a known answer of
        query ``rows[j]`` (an index into ``anchors``), row-major in the
        index's answer order — the batched :meth:`true_answers`, with one
        pair of ``searchsorted`` calls for the whole batch.  A key the
        index lacks has ``left == right`` insertion points, hence an empty
        segment, so misses need no special case.
        """
        keys, offsets = self.keys[side], self.offsets[side]
        wanted = np.asarray(anchors, dtype=np.int64) * self.num_relations + relation
        starts = offsets[np.searchsorted(keys, wanted)]
        lengths = offsets[np.searchsorted(keys, wanted, side="right")] - starts
        rows = np.repeat(np.arange(wanted.size), lengths)
        # Slot j of the output reads values[starts[row] + j - first slot of row].
        shift = starts - (np.cumsum(lengths) - lengths)
        return rows, self.values[side][np.arange(rows.size) + shift[rows]]


def build_filter_csr(
    num_entities: int,
    num_relations: int,
    split_arrays: Sequence[np.ndarray],
) -> FilterIndexCSR:
    """Build the filter index from raw ``(n, 3)`` triple arrays.

    Per side, sort the triples by ``(anchor * num_relations + relation,
    answer)``, drop duplicate (key, answer) pairs with one shifted
    comparison, and read the key table and offsets off ``np.unique``.
    Composite keys are int64 (they can exceed int32 even when ids fit);
    answers use :func:`id_dtype`.  Every step is a vectorised numpy
    pass, so memory stays flat in the number of keys.
    """
    arrays = [np.asarray(a) for a in split_arrays if np.asarray(a).shape[0]]
    if arrays:
        triples = (
            arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)
        )
    else:
        triples = np.empty((0, 3), dtype=np.int64)
    value_dtype = id_dtype(num_entities)
    keys: dict[Side, np.ndarray] = {}
    offsets: dict[Side, np.ndarray] = {}
    values: dict[Side, np.ndarray] = {}
    relations = triples[:, 1].astype(np.int64, copy=False)
    for side in SIDES:
        anchor = triples[:, 2] if side == HEAD else triples[:, 0]
        answer = triples[:, 0] if side == HEAD else triples[:, 2]
        composite = anchor.astype(np.int64) * num_relations + relations
        order = np.lexsort((answer, composite))
        composite = composite[order]
        answer = answer[order].astype(value_dtype, copy=False)
        if composite.size:
            fresh = np.ones(composite.size, dtype=bool)
            fresh[1:] = (composite[1:] != composite[:-1]) | (
                answer[1:] != answer[:-1]
            )
            composite = composite[fresh]
            answer = answer[fresh]
        side_keys, counts = np.unique(composite, return_counts=True)
        keys[side] = side_keys
        offsets[side] = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        values[side] = np.ascontiguousarray(answer)
    return FilterIndexCSR(
        num_entities=num_entities,
        num_relations=num_relations,
        keys=keys,
        offsets=offsets,
        values=values,
    )


def build_graph(
    triples_by_split: Mapping[str, Iterable[tuple[str, str, str]]],
    name: str = "kg",
) -> KnowledgeGraph:
    """Build a :class:`KnowledgeGraph` from labelled string triples.

    ``triples_by_split`` maps split names (``"train"``, ``"valid"``,
    ``"test"``) to iterables of ``(head_label, relation_label, tail_label)``.
    Vocabularies are accumulated over all splits in encounter order.
    """
    entities = Vocabulary()
    relations = Vocabulary()
    encoded: dict[str, list[tuple[int, int, int]]] = {"train": [], "valid": [], "test": []}
    for split in ("train", "valid", "test"):
        for h, r, t in triples_by_split.get(split, ()):  # type: ignore[arg-type]
            encoded[split].append((entities.add(h), relations.add(r), entities.add(t)))
    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        train=TripleSet(encoded["train"]),
        valid=TripleSet(encoded["valid"]),
        test=TripleSet(encoded["test"]),
        name=name,
    )
