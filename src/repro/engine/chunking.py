"""Query grouping, chunk planning and vectorised filtered ranking.

This module is the shared substrate of both evaluation paths: the full
filtered protocol (:func:`repro.core.ranking.evaluate_full`) and the
sampled estimators (:func:`repro.core.estimators.evaluate_sampled`).
Both reduce to the same pipeline —

1. group a split's queries by ``(relation, side)`` so same-candidate
   queries can share one matrix product (:func:`grouped_queries`);
2. cut each group into bounded chunks so the ``b x k`` score
   intermediates stay small (:func:`plan_chunks`);
3. rank each chunk's truths against its candidates with known true
   answers filtered out (:func:`chunk_filtered_ranks`).

The only difference between the two paths is the candidate axis: the full
protocol ranks against *every* entity, the sampled path against a
pre-drawn pool.  :class:`ChunkTask` captures one unit of that pipeline, so
the evaluation engine can run chunks serially or fan them out across
worker processes without duplicating any of the logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import SIDES, FilterIndexCSR, KnowledgeGraph, Side, TripleSet

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


def grouped_queries(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
) -> dict[tuple[int, Side], list[tuple[int, int, int, int]]]:
    """Group a split's ranking queries by ``(relation, side)``.

    Each group entry is ``(anchor, truth, head, tail)``.  Grouping is what
    lets both evaluators score whole query batches against one candidate
    set / pool with a single matrix product — the same-relation queries
    share their candidates by construction of the framework.
    """
    groups: dict[tuple[int, Side], list[tuple[int, int, int, int]]] = {}
    for h, r, t in split_triples(graph, split):
        for side in sides:
            anchor, truth = (t, h) if side == "head" else (h, t)
            groups.setdefault((r, side), []).append((anchor, truth, h, t))
    return groups


def query_chunks(num_queries: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Yield index slices bounding the ``b x k`` score intermediates."""
    for start in range(0, num_queries, chunk_size):
        yield slice(start, min(start + chunk_size, num_queries))


@dataclass(frozen=True)
class ChunkTask:
    """One schedulable unit of evaluation work.

    ``group`` indexes the ordered ``(relation, side)`` group list built by
    :func:`ordered_groups`; ``start``/``stop`` bound the query rows of the
    chunk inside that group.  Tasks are tiny (four integers and a string),
    so shipping them to worker processes costs nothing next to the scoring
    they trigger.
    """

    group: int
    relation: int
    side: Side
    start: int
    stop: int

    @property
    def num_queries(self) -> int:
        return self.stop - self.start


def ordered_groups(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
) -> list[tuple[tuple[int, Side], list[tuple[int, int, int, int]]]]:
    """The ``(relation, side)`` groups of a split in deterministic order.

    The order is the insertion order of :func:`grouped_queries` (first
    appearance in the split), which pins both the chunk schedule and the
    rank-dictionary insertion order, so serial and parallel runs produce
    identical results.
    """
    return list(grouped_queries(graph, split, sides).items())


def plan_chunks(
    groups: list[tuple[tuple[int, Side], list[tuple[int, int, int, int]]]],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[ChunkTask]:
    """Cut ordered groups into the engine's chunk schedule."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    tasks: list[ChunkTask] = []
    for group_index, ((relation, side), queries) in enumerate(groups):
        for chunk in query_chunks(len(queries), chunk_size):
            tasks.append(
                ChunkTask(
                    group=group_index,
                    relation=relation,
                    side=side,
                    start=chunk.start,
                    stop=chunk.stop,
                )
            )
    return tasks


def group_offsets(lengths: list[int] | np.ndarray) -> np.ndarray:
    """Start offset of each group inside the concatenated query table.

    ``group_offsets(lengths)[g] + task.start`` is the global row of a
    chunk's first query — the index workers use to write ranks straight
    into the shared result buffer, and the parent uses to read them back.
    The returned array has ``len(lengths) + 1`` entries (the last is the
    total query count).
    """
    return np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(np.asarray(lengths, dtype=np.int64))]
    )


def collect_known_answers(
    index: FilterIndexCSR,
    anchors: np.ndarray,
    truths: np.ndarray,
    relation: int,
    side: Side,
) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's exclusion sets as flat ``(rows, cols)`` entity pairs.

    One batched CSR gather (:meth:`FilterIndexCSR.gather`) yields every
    known answer of every query; row ``i`` then holds its truth exactly
    once.  For queries drawn from a graph split the truth is always in
    the index; a truth the index never saw (a caller-supplied triple) is
    appended.
    """
    rows, cols = index.gather(anchors, relation, side)
    has_truth = np.zeros(len(truths), dtype=bool)
    has_truth[rows[cols == truths[rows]]] = True
    if has_truth.all():
        return rows, cols
    missing = np.flatnonzero(~has_truth)
    return np.concatenate([rows, missing]), np.concatenate([cols, truths[missing]])


def chunk_filtered_ranks(
    scores: np.ndarray,
    true_scores: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    pool: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised filtered ranks for one chunk of same-(relation, side) queries.

    ``scores`` is ``(b, k)``: row ``i`` scores the candidates of query
    ``i``.  ``(rows, cols)`` are the flat entity ids to exclude per row
    (known answers, truth included) from :func:`collect_known_answers`.
    With ``pool`` None the candidate axis *is* the entity axis (full
    evaluation); otherwise ``pool`` maps columns to sorted entity ids and
    exclusions outside the pool are ignored.

    The rank is ``1 + better + ties/2`` over non-excluded candidates; the
    exclusion is applied as a vectorised correction (one fancy-indexed
    gather and two bincounts per chunk) rather than per-row masking, which
    is what keeps sampled evaluation sampling-bound instead of
    Python-bound.
    """
    b = scores.shape[0]
    better = (scores > true_scores[:, None]).sum(axis=1)
    ties = (scores == true_scores[:, None]).sum(axis=1)
    if pool is not None:
        positions = np.searchsorted(pool, cols)
        np.minimum(positions, pool.size - 1, out=positions)
        inside = pool[positions] == cols
        rows, cols = rows[inside], positions[inside]
    if rows.size:
        values = scores[rows, cols]
        reference = true_scores[rows]
        better -= np.bincount(rows[values > reference], minlength=b)
        ties -= np.bincount(rows[values == reference], minlength=b)
    return 1.0 + better + ties / 2.0
