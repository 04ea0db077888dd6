"""Query grouping, chunk planning and vectorised filtered ranking.

This module is the shared substrate of both evaluation paths: the full
filtered protocol (:func:`repro.core.ranking.evaluate_full`) and the
sampled estimators (:func:`repro.core.estimators.evaluate_sampled`).
Both reduce to the same pipeline —

1. group a split's queries by ``(relation, side)`` into one query table
   (:func:`query_table`);
2. cut the table into bounded chunks so the ``b x k`` score
   intermediates stay small (:func:`plan_chunks`);
3. rank each chunk's truths against its candidates with known true
   answers filtered out (:func:`chunk_filtered_ranks`).

The only difference between the two paths is the candidate axis, and it
decides how chunks are cut.  The sampled path ranks against a pre-drawn
pool per ``(relation, side)`` (known answers are moved onto the pool axis
by :func:`pooled_answers`), so its chunks never leave a group: the group's
queries share one pool and one matrix product.  The full protocol ranks
against *every* entity, the same axis for every query, so its chunks are
runs of consecutive table rows across groups and sides: one full-height
product per chunk, however small the groups.  :class:`ChunkTask` captures
one unit of that pipeline, so the evaluation engine can run chunks
serially or fan them out across worker processes without duplicating any
of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.kg.graph import (
    HEAD,
    SIDES,
    FilterIndexCSR,
    KeyedCSR,
    KnowledgeGraph,
    Side,
    TripleSet,
    segment_slots,
)
from repro.kg.triples import unique_rows_in_order

if TYPE_CHECKING:
    from repro.engine.worker import EvaluationPlan

Query = tuple[int, int, int, Side]
"""A ranking query: ``(head, relation, tail, side)`` where ``side`` names
the slot being predicted."""

#: Default number of queries ranked per score-matrix chunk.
DEFAULT_CHUNK_SIZE = 128


def split_triples(graph: KnowledgeGraph, split: str) -> TripleSet:
    """Resolve a split name to its :class:`TripleSet`."""
    if split not in ("train", "valid", "test"):
        raise KeyError(f"unknown split {split!r}; expected train, valid or test")
    return getattr(graph, split)


def query_table(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
) -> tuple[np.ndarray, list[tuple[int, Side]], np.ndarray]:
    """A split's distinct ranking queries grouped by ``(relation, side)``.

    Returns ``(table, groups, starts)``: ``table`` is an ``(N, 4)`` int64
    array of ``(anchor, truth, head, tail)`` rows, group ``g`` is
    ``groups[g] = (relation, side)`` and owns rows
    ``starts[g]:starts[g + 1]``.  The order is that of walking the split
    triple by triple and ``sides`` side by side: groups appear in order
    of their first query, and each group keeps its queries in that walk
    order.  A triple repeated in the split counts once, at its first
    occurrence, so every ``(head, relation, tail, side)`` is one row and
    a run's ranks, query count and metrics all count the same queries.
    Grouping is what lets both evaluators score whole query batches
    against one candidate set / pool with a single matrix product.
    Built with array passes, not a per-triple loop.
    """
    triples = unique_rows_in_order(split_triples(graph, split).array).astype(np.int64, copy=False)
    if not len(triples) or not sides:
        return np.empty((0, 4), dtype=np.int64), [], np.zeros(1, dtype=np.int64)
    side_ids = np.asarray([SIDES.index(side) for side in sides], dtype=np.int64)
    # One event per (triple, side) in walk order, keyed by (relation, side).
    keys = (triples[:, 1, None] * len(SIDES) + side_ids).ravel()
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    group_of_key = np.empty_like(appearance)
    group_of_key[appearance] = np.arange(appearance.size)
    event_group = group_of_key[inverse.ravel()]
    events = np.argsort(event_group, kind="stable")
    rows = triples[events // len(sides)]
    predict_head = side_ids[events % len(sides)] == SIDES.index(HEAD)
    heads, tails = rows[:, 0], rows[:, 2]
    table = np.stack(
        [
            np.where(predict_head, tails, heads),
            np.where(predict_head, heads, tails),
            heads,
            tails,
        ],
        axis=1,
    )
    groups = [
        (int(key) // len(SIDES), SIDES[int(key) % len(SIDES)])
        for key in unique[appearance]
    ]
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(np.bincount(event_group))]
    )
    return table, groups, starts


def query_chunks(num_queries: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Yield index slices bounding the ``b x k`` score intermediates."""
    for start in range(0, num_queries, chunk_size):
        yield slice(start, min(start + chunk_size, num_queries))


@dataclass(frozen=True)
class ChunkTask:
    """One schedulable unit of evaluation work.

    ``start``/``stop`` bound the chunk's rows of the plan's query table
    (:func:`query_table`).  A sampled task's rows all belong to one
    ``(relation, side)`` group, whose pool is the candidate axis, and the
    task names that ``relation`` and ``side``.  A full-path task's rows
    may span groups and sides, since every query ranks against every
    entity, so both are None and each row's own are read from the plan.
    Tasks are tiny (a few integers and a string), so shipping them to
    worker processes costs nothing next to the scoring they trigger.
    """

    start: int
    stop: int
    relation: int | None = None
    side: Side | None = None

    @property
    def num_queries(self) -> int:
        return self.stop - self.start


def plan_chunks(plan: "EvaluationPlan", chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[ChunkTask]:
    """Cut a plan's query table into the engine's chunk schedule.

    Without pools (the full path) the chunks are runs of ``chunk_size``
    consecutive rows, whichever groups they hold.  With pools each group
    is cut on its own, so every chunk scores against one pool.  Either
    way the schedule covers the table's rows contiguously, in table order.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if plan.pools is None:
        return [ChunkTask(c.start, c.stop) for c in query_chunks(plan.num_queries, chunk_size)]
    starts = plan.starts.tolist()
    return [
        ChunkTask(first + chunk.start, first + chunk.stop, relation, side)
        for (relation, side), first, last in zip(plan.groups, starts, starts[1:])
        for chunk in query_chunks(last - first, chunk_size)
    ]


def collect_known_answers(
    index: FilterIndexCSR,
    anchors: np.ndarray,
    truths: np.ndarray,
    relation: int | np.ndarray,
    side: Side,
    pools: KeyedCSR | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A batch's exclusion sets as flat ``(rows, cols)`` pairs, sorted by row.

    ``relation`` is the batch's relation, or one relation per query.
    Row ``i`` holds every known answer of query ``i`` and its truth
    exactly once.  For queries drawn from a graph split the truth is
    always in the index; a truth the index never saw (a caller-supplied
    triple) is added after its row's answers.

    ``cols`` are entity ids or, given the side's ``pools`` (keyed by
    relation), pool positions (:func:`pooled_answers`), with the answers
    outside a query's pool dropped.  One batched CSR gather
    (:meth:`KeyedCSR.gather`) reads every query's answers either way.
    """
    truths = np.asarray(truths, dtype=np.int64)
    wanted = index.query_keys(anchors, relation)
    rows, cols = index.sides[side].gather(wanted)
    has_truth = np.zeros(truths.size, dtype=bool)
    has_truth[rows[cols == truths[rows]]] = True
    if pools is not None:
        rows, cols = pooled_answers(pools, wanted, rows, cols, index.num_relations)
    if has_truth.all():
        return rows, cols
    missing = np.flatnonzero(~has_truth)
    missing_cols = truths[missing]
    if pools is not None:
        inside, positions = pools.locate(wanted[missing] % index.num_relations, missing_cols)
        missing, missing_cols = missing[inside], positions[inside]
    rows = np.concatenate([rows, missing])
    cols = np.concatenate([cols, missing_cols])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def pooled_answers(
    pools: KeyedCSR,
    wanted: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    num_relations: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gathered ``(rows, entity)`` answers of the query keys ``wanted``
    moved onto their relation's pool axis, the unpooled ones dropped.

    Queries sharing a key read the same answers, so only the first query
    of each key is searched in the pools (:meth:`KeyedCSR.locate`), and
    every query of the key then reads that query's pooled positions.
    """
    counts = np.bincount(rows, minlength=wanted.size)
    _, first, inverse = np.unique(wanted, return_index=True, return_inverse=True)
    key_rows, slots = segment_slots((np.cumsum(counts) - counts)[first], counts[first])
    inside, positions = pools.locate(wanted[first[key_rows]] % num_relations, cols[slots])
    kept = np.bincount(key_rows[inside], minlength=first.size)
    rows, at = segment_slots((np.cumsum(kept) - kept)[inverse], kept[inverse])
    return rows, positions[inside][at]


def pool_positions(pool: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where entity ``ids`` sit on a sorted pool's candidate axis.

    Returns ``(inside, positions)``: ``inside[j]`` says whether
    ``ids[j]`` is in ``pool`` and, where it is, ``positions[j]`` is its
    column.  This is how serve's top-k rows move their known answers
    (entity ids) onto a candidate set's axis.
    """
    if pool.size == 0:
        return np.zeros(len(ids), dtype=bool), np.zeros(len(ids), dtype=np.int64)
    positions = np.searchsorted(pool, ids)
    np.minimum(positions, pool.size - 1, out=positions)
    return pool[positions] == ids, positions


def chunk_filtered_ranks(
    scores: np.ndarray,
    true_scores: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Vectorised filtered ranks for one chunk of queries.

    ``scores`` is a floating ``(b, k)`` slab: row ``i`` scores the
    candidates of query ``i``.  ``(rows, cols)`` are the candidate
    columns to exclude per row (known answers, truth included): entity
    ids when the candidate axis is every entity, pool positions
    (:func:`collect_known_answers` given the pools) when it is a pool.

    The rank is ``1 + better + ties/2`` over the row's non-excluded
    candidates, a pair listed twice excluded once.  The truth scores are
    copied first (they may be a view of the slab); then every excluded
    cell is overwritten with NaN, which compares false both ways, so it
    neither beats nor ties the truth, and one ``>`` and one ``==`` pass
    count the rest.  The slab is this kernel's scratch: its excluded
    cells hold NaN afterwards, so callers pass a slab they own and do
    not read it again.
    """
    true_scores = np.array(true_scores)[:, None]
    if rows.size:
        scores[rows, cols] = np.nan
    # int32 counts reduce faster than numpy's default int64; k < 2**31.
    better = (scores > true_scores).sum(axis=1, dtype=np.int32)
    ties = (scores == true_scores).sum(axis=1, dtype=np.int32)
    return 1.0 + better + ties / 2.0
