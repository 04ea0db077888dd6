"""Core knowledge-graph data structures.

A :class:`TripleSet` is an immutable ``(n, 3)`` integer array of
``(head, relation, tail)`` triples with convenience accessors.  A
:class:`KnowledgeGraph` bundles the train/valid/test triple sets with the
entity/relation vocabularies and the index structures the evaluation
framework needs.  It is the one graph type: the compact on-disk store
(:func:`repro.kg.triples.open_compact`) opens as a :class:`KnowledgeGraph`
whose triple sets are int32 memory maps and whose vocabularies read
their label files on first use.

Each index is a :class:`KeyedCSR` from the one :func:`build_keyed_csr`,
and differs only in key and value:

* *the filter index* (:func:`build_filter_csr`) — keyed by
  ``anchor * num_relations + relation`` over all splits: the known true
  answers of each query, excluded by filtered ranking;
* *observed domains & ranges* (:meth:`KnowledgeGraph.observed`) — keyed by
  ``relation`` over train: the entities seen as its head / tail, used by
  the PT recommender and candidate-recall bookkeeping;
* *training truths* — :func:`entities_by_relation` over train and valid,
  used to threshold static candidate sets;
* *static candidate sets and negative pools*
  (:class:`~repro.core.candidates.CandidateSets`,
  :class:`~repro.core.sampling.NegativePools`) — one per side, keyed by
  ``relation`` (:func:`keyed_by_relation`): the thresholded set and the
  sampled pool of each ``(relation, side)``;
* *known triples* (:func:`repro.models.training.known_triple_index`) —
  keyed by ``relation * num_entities + head``: the tails the trainer's
  false-negative filters reject.

Only :class:`KeyedCSR` knows how its pairs are laid out and searched.
Every index answers the same lookups: :meth:`~KeyedCSR.segment` and
:meth:`~KeyedCSR.gather` (the values under one key, or a batch of keys),
:meth:`~KeyedCSR.spans` and :meth:`~KeyedCSR.lengths` (where those
segments sit, and their sizes), and :meth:`~KeyedCSR.locate` and
:meth:`~KeyedCSR.contains` (whether each ``(key, value)`` pair is stored,
and its position within its key's segment).

Heads and tails are handled uniformly through the ``side`` argument:
``"head"`` means we predict the head of ``(?, r, t)`` and ``"tail"`` means we
predict the tail of ``(h, r, ?)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    Entity-valued index buffers (the values of every :class:`KeyedCSR`,
    the compact triple store) are stored as int32 whenever the
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
    if array.dtype in (np.int32, np.int64):
        return array
    return array.astype(np.int64)


class TripleSet:
    """An immutable collection of ``(head, relation, tail)`` integer triples.

    int32 and int64 arrays are kept as given, so a memory-mapped int32
    store split is held without a copy; any other input becomes int64.
    """

    __slots__ = ("_array",)

    def __init__(self, triples: Iterable[tuple[int, int, int]] | np.ndarray):
        array = _as_triple_array(triples)
        array.setflags(write=False)
        self._array = array

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ``(n, 3)`` array: int64, or the int32
        (:func:`id_dtype`) a compact store holds.  Widen a column before
        building composite keys from it."""
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
        self._observed_index: dict[Side, KeyedCSR] | None = None
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
            if max(arr[:, 0].max(), arr[:, 2].max()) >= self.num_entities or arr.min() < 0:
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
    @property
    def observed_index(self) -> dict[Side, KeyedCSR]:
        """Per side, the training entities of each relation, keyed by relation."""
        if self._observed_index is None:
            self._observed_index = entities_by_relation(
                self.num_entities, [self.train.array]
            )
        return self._observed_index

    def observed(self, relation: int, side: Side) -> np.ndarray:
        """Entities observed in training on ``side`` of ``relation``."""
        return self.observed_index[side].segment(relation)

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


#: The buffers of a :class:`KeyedCSR`, as named by :meth:`KeyedCSR.arrays`.
CSR_ARRAYS = ("keys", "offsets", "values")


@dataclass(frozen=True, eq=False)
class KeyedCSR:
    """Values grouped under int64 keys, in CSR form.

    ``keys`` are sorted, unique and non-empty; ``offsets`` (``len(keys) +
    1`` int64) delimit each key's segment of ``values``, which is sorted
    and unique.  A missing key has ``left == right`` insertion points,
    hence an empty segment, so lookups need no special case for misses.
    """

    keys: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def spans(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)``: where the segment of each key of ``wanted``
        starts in ``values`` and its int64 size (0 for a missing key)."""
        starts = self.offsets[np.searchsorted(self.keys, wanted)]
        return starts, self.offsets[np.searchsorted(self.keys, wanted, side="right")] - starts

    def segment(self, key: int) -> np.ndarray:
        """The values stored under ``key`` (empty when it has none)."""
        start, length = self.spans(key)
        return self.values[start : start + length]

    def lengths(self, wanted: np.ndarray) -> np.ndarray:
        """The batched ``segment(key).size``: int64 segment sizes of ``wanted``."""
        return self.spans(wanted)[1]

    def gather(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The batched :meth:`segment`: ``(rows, values)``, flattened, where
        ``values[j]`` is stored under ``wanted[rows[j]]``."""
        rows, slots = segment_slots(*self.spans(wanted))
        return rows, self.values[slots]

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, int]:
        """``(packed, bound)``: every stored pair as ``key ordinal * bound +
        value`` (int64, sorted in ``(key, value)`` order), ``bound`` one past
        the largest value.  :meth:`locate` rejects probe values outside
        ``[0, bound)``, which would alias a neighbouring key's pair.  Built
        on the first :meth:`locate`, whatever the key range."""
        bound = int(self.values.max()) + 1
        ordinals = np.repeat(np.arange(self.keys.size), np.diff(self.offsets))
        return ordinals * bound + self.values, bound

    def locate(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where the pairs ``(keys[i], values[i])`` are stored, as
        ``(inside, positions)`` of the shape of ``keys``: ``inside[i]`` says
        whether ``values[i]`` is stored under ``keys[i]`` and, where it is,
        ``positions[i]`` (int64) is its index within that key's segment.
        One search of the packed pairs places every probe."""
        if self.values.size == 0:
            return np.zeros(np.shape(keys), dtype=bool), np.zeros(np.shape(keys), dtype=np.int64)
        packed, bound = self._pairs
        values = np.asarray(values)
        slot = np.searchsorted(self.keys, keys)
        probes = slot * bound + values
        at = np.minimum(np.searchsorted(packed, probes), packed.size - 1)
        slot = np.minimum(slot, self.keys.size - 1)
        inside = (self.keys[slot] == keys) & (values >= 0) & (values < bound)
        inside &= packed[at] == probes
        return inside, at - self.offsets[slot]

    def contains(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per pair ``i``, whether ``values[i]`` is stored under ``keys[i]``."""
        return self.locate(keys, values)[0]

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """The three buffers, named ``{prefix}_keys`` etc., for export."""
        return {f"{prefix}_{name}": getattr(self, name) for name in CSR_ARRAYS}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], prefix: str) -> "KeyedCSR":
        """Rebuild a view-backed index from :meth:`arrays` output
        (``KeyError`` when one of its buffers is missing)."""
        return cls(*(arrays[f"{prefix}_{name}"] for name in CSR_ARRAYS))


def segment_slots(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, slots)`` reading segments ``starts[i]:starts[i] + lengths[i]``
    of a flat array back to back: slot ``j`` of the output belongs to
    segment ``rows[j]``."""
    rows = np.repeat(np.arange(starts.size), lengths)
    # Slot j reads starts[row] + j - the first output slot of its row.
    shift = starts - (np.cumsum(lengths) - lengths)
    return rows, np.arange(rows.size) + shift[rows]


def _changes(sorted_array: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their
    predecessor (the first entry always does)."""
    fresh = np.empty(sorted_array.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(sorted_array[1:], sorted_array[:-1], out=fresh[1:])
    return fresh


def build_keyed_csr(
    keys: np.ndarray, values: np.ndarray, value_dtype: np.dtype
) -> KeyedCSR:
    """Group ``values`` under int64 ``keys`` (values stored as ``value_dtype``).

    Each pair is packed into one int64, ``key code * value span + (value
    - min value)``, whose order is the ``(key, value)`` order: one in-place
    sort, one neighbour comparison to drop duplicates, then the remainder
    and the in-place quotient split the pairs back.  The key code is
    ``key - min key`` while the packed range stays below ``2**63``; past
    that it is the key's rank among the distinct keys.  No ``np.unique``:
    on large arrays it costs a hash pass on top of the sort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values)
    if keys.size == 0:
        return KeyedCSR(
            np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), np.empty(0, dtype=value_dtype)
        )
    key_min, value_min = int(keys.min()), int(values.min())
    value_span = int(values.max()) - value_min + 1
    if (int(keys.max()) - key_min + 1) * value_span < 2**63:
        distinct = None
        packed = keys - key_min
    else:
        distinct = np.sort(keys)
        distinct = distinct[_changes(distinct)]
        packed = np.searchsorted(distinct, keys)
    packed *= value_span
    packed -= value_min
    packed += values
    packed.sort()
    fresh = _changes(packed)
    if not fresh.all():
        packed = packed[fresh]
    values = (packed % value_span + value_min).astype(value_dtype, copy=False)
    codes = np.floor_divide(packed, value_span, out=packed)
    starts = np.flatnonzero(_changes(codes))
    unique = distinct[codes[starts]] if distinct is not None else codes[starts] + key_min
    offsets = np.append(starts, codes.size).astype(np.int64, copy=False)
    return KeyedCSR(unique, offsets, values)


def keyed_by_relation(columns: Mapping[int, np.ndarray], num_entities: int) -> KeyedCSR:
    """One side's per-relation entity arrays as one index keyed by relation.

    Relations whose array is empty become missing keys, which read back
    as empty segments.
    """
    relations = np.fromiter(columns, dtype=np.int64, count=len(columns))
    sizes = [np.size(column) for column in columns.values()]
    values = np.concatenate([np.empty(0, dtype=np.int64), *columns.values()])
    return build_keyed_csr(np.repeat(relations, sizes), values, id_dtype(num_entities))


def _stacked(split_arrays: Sequence[np.ndarray]) -> np.ndarray:
    arrays = [np.asarray(a) for a in split_arrays if np.asarray(a).shape[0]]
    if not arrays:
        return np.empty((0, 3), dtype=np.int64)
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)


def entities_by_relation(
    num_entities: int, split_arrays: Sequence[np.ndarray]
) -> dict[Side, KeyedCSR]:
    """Per side, keyed by relation, the entities seen on that side of it."""
    triples = _stacked(split_arrays)
    return {
        side: build_keyed_csr(
            triples[:, 1],
            triples[:, 0] if side == HEAD else triples[:, 2],
            id_dtype(num_entities),
        )
        for side in SIDES
    }


@dataclass
class FilterIndexCSR:
    """The filter index: every known true answer, one :class:`KeyedCSR`
    per side.

    Each side's segments are the answers of every ``(anchor, relation)``
    query across all splits — exactly what filtered ranking must exclude
    (minus the query's own truth) — keyed by ``anchor * num_relations +
    relation`` and stored as :func:`id_dtype`.  For ``side == "tail"``
    the anchor is the head (true tails of ``(h, r, ?)``); for ``side ==
    "head"`` it is the tail.  The evaluation engine reads it once per
    evaluation plan (:func:`repro.engine.worker.evaluation_plan`).
    """

    num_entities: int
    num_relations: int
    sides: dict[Side, KeyedCSR]

    def true_answers(self, anchor: int, relation: int, side: Side) -> np.ndarray:
        """Known true answers of one query (empty when it has none)."""
        return self.sides[side].segment(anchor * self.num_relations + relation)

    def query_keys(self, anchors: np.ndarray, relation: int | np.ndarray) -> np.ndarray:
        """The int64 keys of a batch of ``(anchor, relation)`` queries, as
        :meth:`KeyedCSR.gather` takes them; ``relation`` is one for the
        batch or one per anchor."""
        return np.asarray(anchors, dtype=np.int64) * self.num_relations + relation


def build_filter_csr(
    num_entities: int,
    num_relations: int,
    split_arrays: Sequence[np.ndarray],
) -> FilterIndexCSR:
    """Build the filter index from raw ``(n, 3)`` triple arrays.

    The triples keep their dtype (int32 memory maps stay int32); only
    the composite key is int64.
    """
    triples = _stacked(split_arrays)
    relations = triples[:, 1].astype(np.int64, copy=False)
    heads, tails, dtype = triples[:, 0], triples[:, 2], id_dtype(num_entities)
    sides = {
        HEAD: build_keyed_csr(tails.astype(np.int64) * num_relations + relations, heads, dtype),
        TAIL: build_keyed_csr(heads.astype(np.int64) * num_relations + relations, tails, dtype),
    }
    return FilterIndexCSR(num_entities, num_relations, sides)


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
