"""The evaluation plan, per-worker evaluation state and the chunk-scoring kernel.

Everything about an evaluation that does not depend on the model — the
grouped query table, and each query's known answers already mapped onto
its candidate axis — is an :class:`EvaluationPlan`.  It is built once
per ``(graph, split, sides, pools)`` by :func:`evaluation_plan`, cached
on the graph, and reused by every model evaluated afterwards: only the
scores change between checkpoints.

The engine's parallel path fans :class:`~repro.engine.chunking.ChunkTask`
objects across a persistent worker pool (:mod:`repro.engine.pool`).  The
model parameters and the plan's arrays are published into shared memory
once per plan and model layout (:mod:`repro.engine.shm`); each long-lived
worker (:func:`worker_main`) attaches them, so each task only carries four
integers and its enqueue time and trace id, each chunk's ranks go
straight into a shared result buffer, and each reply carries only the
amounts the worker measured for it (stage seconds, query and entity
counts).

:func:`score_chunk` is the single scoring kernel both evaluation paths
share: one :func:`score_rank_rows` call per chunk (the score slab and
each truth's score) and one rank pass.  Serve's rank rows make the same
call.  The serial engine path calls :func:`score_chunk` directly on a
locally built :class:`EvaluationState`, which is what guarantees
bitwise-equal ranks between ``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.engine.chunking import (
    ChunkTask,
    Query,
    chunk_filtered_ranks,
    collect_known_answers,
    query_table,
)
from repro.kg.graph import SIDES, KnowledgeGraph, Side, id_dtype
from repro.models.base import KGEModel
from repro.obs import get_registry, get_tracer

if TYPE_CHECKING:
    from repro.core.sampling import NegativePools

#: Counter of cache-missing plan builds (documented in docs/observability.md).
PLAN_BUILDS_COUNTER = "repro_engine_plan_builds_total"

#: Plans kept per graph, most recently used first.  Each distinct pools
#: object (e.g. every ``EvaluationProtocol.resample``) needs its own plan;
#: the bound keeps a resampling loop from pinning every old draw.
MAX_CACHED_PLANS = 4

#: Guards every graph's ``evaluation_plans`` list: engine runs on one
#: graph may come from several threads (serve requests).
_PLANS_LOCK = threading.Lock()

#: Plan array names, as exported into shared memory.
PLAN_ARRAYS = ("starts", "queries", "excluded_starts", "excluded_rows", "excluded_cols")


@dataclass(frozen=True, eq=False)
class EvaluationPlan:
    """The model-independent part of one evaluation, immutable once built.

    * ``groups[g] = (relation, side)`` owns rows ``starts[g]:starts[g + 1]``
      of ``queries``, the ``(N, 4)`` int64 ``(anchor, truth, head, tail)``
      table of :func:`~repro.engine.chunking.query_table`;
    * query ``i``'s excluded candidates (its known answers, truth
      included) are the pairs ``excluded_starts[i]:excluded_starts[i + 1]``
      of ``excluded_rows`` (always ``i``) and ``excluded_cols``, already
      in candidate coordinates: entity ids on the full path, pool
      positions on the sampled path (answers outside the pool are
      dropped, since they never compete).  Both are stored in the narrow
      id dtype (:func:`~repro.kg.graph.id_dtype`).

    The pairs are kept per query, not per chunk, so one plan serves every
    chunk size.  Each row's relation and side follow from ``groups`` and
    ``starts`` (:attr:`row_groups`), so a chunk may span groups without
    the plan storing them per row.  Plans compare by identity: the
    engine's caches and the shared-memory state ask whether a plan *is*
    the one they hold.
    """

    split: str
    sides: tuple[Side, ...]
    pools: "NegativePools | None"
    groups: list[tuple[int, Side]]
    starts: np.ndarray
    queries: np.ndarray
    excluded_starts: np.ndarray
    excluded_rows: np.ndarray
    excluded_cols: np.ndarray

    @property
    def num_queries(self) -> int:
        return int(self.queries.shape[0])

    @cached_property
    def row_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """``(relations, sides)``: every row's relation id and side code
        (an index into ``SIDES``), both ``(N,)`` int64."""
        return row_groups(self.groups, self.starts)

    @cached_property
    def keys(self) -> list[Query]:
        """The ``(head, relation, tail, side)`` rank key of every row, in order."""
        relations, sides = self.row_groups
        return list(
            zip(
                self.queries[:, 2].tolist(),
                relations.tolist(),
                self.queries[:, 3].tolist(),
                [SIDES[code] for code in sides.tolist()],
            )
        )

    @cached_property
    def pool_ids(self) -> dict[tuple[int, Side], np.ndarray]:
        """Each group's pool as read-only int64 entity ids, keyed by the
        group's ``(relation, side)``; empty without pools.  Resolved once
        per plan (per process), so a sampled chunk neither searches the
        pools nor widens its pool's ids."""
        if self.pools is None:
            return {}
        ids = {}
        for relation, side in self.groups:
            pool = self.pools.pool(relation, side).astype(np.int64)
            pool.setflags(write=False)
            ids[relation, side] = pool
        return ids

    def chunk(
        self, task: ChunkTask
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(anchors, truths, rows, cols)`` of one chunk; ``rows`` are chunk-local."""
        block = self.queries[task.start : task.stop]
        lo, hi = self.excluded_starts[task.start], self.excluded_starts[task.stop]
        return (
            block[:, 0],
            block[:, 1],
            self.excluded_rows[lo:hi] - task.start,
            self.excluded_cols[lo:hi],
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """The plan's flat arrays, named for shared-memory export."""
        return {f"plan_{name}": getattr(self, name) for name in PLAN_ARRAYS}

    @classmethod
    def from_arrays(
        cls,
        split: str,
        sides: tuple[Side, ...],
        pools: "NegativePools | None",
        groups: list[tuple[int, Side]],
        arrays: Mapping[str, np.ndarray],
    ) -> "EvaluationPlan":
        """Rebuild a view-backed plan from :meth:`arrays` output."""
        return cls(
            split=split,
            sides=sides,
            pools=pools,
            groups=groups,
            **{name: arrays[f"plan_{name}"] for name in PLAN_ARRAYS},
        )


def row_groups(
    groups: list[tuple[int, Side]], starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each query table row's relation id and side code (an index into
    ``SIDES``), from the table's groups and their ``starts``."""
    sizes = np.diff(starts)
    relations = np.repeat(np.asarray([relation for relation, _ in groups], dtype=np.int64), sizes)
    sides = np.repeat(np.asarray([SIDES.index(side) for _, side in groups], dtype=np.int64), sizes)
    return relations, sides


def _build_plan(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...],
    pools: "NegativePools | None",
) -> EvaluationPlan:
    """Group the split's queries and map each one's known answers onto its
    candidate axis: per side, one :func:`collect_known_answers` over all
    its queries (each with its own relation; on the sampled path one pool
    search per distinct ``(anchor, relation)`` key), then one stable
    merge of the sides by query row."""
    index = graph.filter_index
    queries, groups, starts = query_table(graph, split, sides)
    row_relations, row_sides = row_groups(groups, starts)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for code, side in enumerate(SIDES):
        mine = np.flatnonzero(row_sides == code)
        side_rows, side_cols = collect_known_answers(
            index,
            queries[mine, 0],
            queries[mine, 1],
            row_relations[mine],
            side,
            None if pools is None else pools.pools[side],
        )
        rows.append(mine[side_rows])
        cols.append(side_cols)
    # Each side's pairs are sorted by row; a row belongs to one side, so a
    # stable sort merges them without reordering any row's answers.
    merged_rows = np.concatenate(rows)
    order = np.argsort(merged_rows, kind="stable")
    # Rows index queries, columns index entities or pool positions: both
    # fit the narrow id dtype, which halves the plan next to int64 pairs.
    excluded_rows = merged_rows[order].astype(id_dtype(queries.shape[0]))
    excluded_cols = np.concatenate(cols)[order].astype(id_dtype(graph.num_entities))
    counts = np.bincount(excluded_rows, minlength=queries.shape[0])
    excluded_starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    for array in (starts, queries, excluded_starts, excluded_rows, excluded_cols):
        array.setflags(write=False)
    return EvaluationPlan(
        split=split,
        sides=sides,
        pools=pools,
        groups=groups,
        starts=starts,
        queries=queries,
        excluded_starts=excluded_starts,
        excluded_rows=excluded_rows,
        excluded_cols=excluded_cols,
    )


def _cached_plan(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...],
    pools: "NegativePools | None",
    insert: EvaluationPlan | None = None,
) -> EvaluationPlan | None:
    """The graph's cached plan for the key, moved to the front; on a miss,
    ``insert`` (when given) is cached and returned instead."""
    with _PLANS_LOCK:
        cached = graph.evaluation_plans
        for position, plan in enumerate(cached):
            if plan.pools is pools and plan.split == split and plan.sides == sides:
                cached.insert(0, cached.pop(position))
                return plan
        if insert is not None:
            cached.insert(0, insert)
            del cached[MAX_CACHED_PLANS:]
        return insert


def evaluation_plan(
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
    pools: "NegativePools | None" = None,
) -> EvaluationPlan:
    """The graph's cached plan for ``(split, sides, pools)``, built on a miss.

    Plans live in ``graph.evaluation_plans``, so they share the graph's
    lifetime (and, through it, its filter index's).  A cached plan holds
    its pools object and matches only that very object (``is``), never
    an id that a later pools object could reuse.  A miss is traced as an
    ``engine.plan`` span and counted in ``repro_engine_plan_builds_total``;
    when two threads miss together, both build and the first to finish
    is the plan both get.
    """
    sides = tuple(sides)
    plan = _cached_plan(graph, split, sides, pools)
    if plan is None:
        with get_tracer().span("engine.plan"):
            built = _build_plan(graph, split, sides, pools)
        get_registry().counter(
            PLAN_BUILDS_COUNTER, "Evaluation plans built (cache misses)"
        ).inc()
        plan = _cached_plan(graph, split, sides, pools, insert=built)
    return plan


@dataclass
class EvaluationState:
    """Everything a chunk needs to score: the model and the plan."""

    model: KGEModel
    plan: EvaluationPlan = field(repr=False)


def build_state(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
    pools: "NegativePools | None" = None,
) -> EvaluationState:
    """The evaluation state for one (model, split) run: the model plus the
    graph's cached plan (:func:`evaluation_plan`), built on first use."""
    return EvaluationState(model=model, plan=evaluation_plan(graph, split, sides, pools))


def score_rank_rows(
    model: KGEModel,
    anchors: np.ndarray,
    truths: np.ndarray,
    relation: int | np.ndarray,
    side: Side | np.ndarray,
    pool: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The rank step's score call: ``(scores, true_scores)`` of ``b`` queries.

    ``relation`` and ``side`` are one value or one per row (sides as
    codes into ``SIDES``).  Against a ``pool`` the ``(b, k)`` slab scores
    the pool's entities and each truth is scored against its own query
    row in the same paired call (a truth need not be in the pool).  With
    ``pool=None`` the slab is the full entity axis and each truth's
    score is read from its own row.  The slab is fresh, so the rank pass
    may mask it in place.
    """
    if pool is None:
        scores = model.score_candidates_batch(anchors, relation, side)
        return scores, scores[np.arange(scores.shape[0]), truths]
    return model.score_candidates_batch(anchors, relation, side, pool, truths=truths)


def score_chunk(state: EvaluationState, task: ChunkTask) -> tuple[np.ndarray, int]:
    """Rank one chunk of queries; returns ``(ranks, entities_scored)``.

    With pools in the plan the chunk is the sampled path: its candidate
    axis is the group's pool (:attr:`EvaluationPlan.pool_ids`), and each
    truth is scored too.  Without pools it is the full path: the
    candidate axis is the whole entity vocabulary and the chunk's rows
    may span groups, so the call takes each row's relation and side from
    the plan.  Either way it is one :func:`score_rank_rows` call, then
    one rank pass that masks the plan's exclusions (already in candidate
    coordinates) in the fresh score slab.  An empty pool gives a
    ``(b, 0)`` slab, so every query ranks first.
    """
    plan = state.plan
    anchors, truths, rows, cols = plan.chunk(task)
    if plan.pools is None:
        relations, sides = plan.row_groups
        relation, side = relations[task.start : task.stop], sides[task.start : task.stop]
        pool = None
    else:
        relation, side = task.relation, task.side
        pool = plan.pool_ids[relation, side]
    scores, true_scores = score_rank_rows(state.model, anchors, truths, relation, side, pool)
    ranks = chunk_filtered_ranks(scores, true_scores, rows, cols)
    # The sampled path scores each truth on top of its pool.
    return ranks, int(scores.size) + (0 if pool is None else task.num_queries)


# ----------------------------------------------------------------------
# Persistent-pool worker loop
# ----------------------------------------------------------------------
def worker_main(worker_id: int, task_queue, result_queue) -> None:
    """The long-lived loop of one persistent shared-memory pool worker.

    Messages on ``task_queue``:

    * ``("state", manifest)`` — attach a freshly published state
      (:func:`repro.engine.shm.attach_state`), replacing any previous
      one, and acknowledge with ``("ready", worker_id, state_id,
      telemetry)``;
    * ``("task", state_id, index, task, meta)`` — score one chunk with
      :func:`score_chunk` against the attached state, write the ranks
      directly into the shared result buffer at the task's own table
      rows, and reply ``("done", index, entities_scored, telemetry)`` —
      the ranks themselves never cross the queue;
    * ``("stop",)`` — detach and exit.

    Telemetry: every reply ships the amounts the worker measured for it
    as ``{"counters": {name: amount}}`` under the
    ``repro_engine_worker_*`` names — the attach seconds on a ready
    reply; on a done reply the chunk's queue wait (from
    ``meta["enqueue_ts"]``), score and write seconds and its query and
    entity counts.  When ``meta["timeline"]`` asks for them, a done reply
    also carries the chunk's timestamped span events under ``"events"``,
    stamped with ``meta["trace_id"]``.  The worker's tracer is its own,
    never the parent's process-global one (under ``fork`` that could
    snapshot held locks).

    Any failure is reported as ``("error", index, traceback)`` instead of
    raised, so the parent always gets a message rather than a dead queue.
    SIGINT is ignored: a Ctrl-C in the parent must interrupt the *parent*
    (which then tears the pool down deliberately), not race ``N`` workers
    into dying mid-write.
    """
    import signal
    import time
    import traceback

    from repro.engine.shm import attach_state
    from repro.obs.context import TraceContext, use_context
    from repro.obs.trace import Tracer

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass
    tracer = Tracer(enabled=True, timeline=False)
    attached = None
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        index = -1
        try:
            if kind == "state":
                if attached is not None:
                    attached.close()
                    attached = None
                attach_start = time.perf_counter()
                attached = attach_state(message[1])
                attach_seconds = time.perf_counter() - attach_start
                counters = {
                    "repro_engine_worker_attach_seconds_total": attach_seconds,
                    "repro_engine_worker_busy_seconds_total": attach_seconds,
                }
                result_queue.put(
                    ("ready", worker_id, attached.state_id, {"counters": counters})
                )
            elif kind == "task":
                _, state_id, index, task, meta = message
                if attached is None or attached.state_id != state_id:
                    raise RuntimeError(
                        f"worker {worker_id} received a task for state "
                        f"{state_id} but has "
                        f"{attached.state_id if attached else 'no state'} attached"
                    )
                received = time.time()
                tracer.timeline = bool(meta["timeline"])
                trace_id = meta["trace_id"]
                context = TraceContext(trace_id=trace_id) if trace_id else None
                with use_context(context):
                    wait = max(0.0, received - float(meta["enqueue_ts"]))
                    tracer.record("engine.worker.queue_wait", wait)
                    score_start = time.perf_counter()
                    ranks, scored = score_chunk(attached.state, task)
                    score_seconds = time.perf_counter() - score_start
                    tracer.record("engine.worker.score", score_seconds)
                    write_start = time.perf_counter()
                    attached.result[task.start : task.stop] = ranks
                    write_seconds = time.perf_counter() - write_start
                    tracer.record("engine.worker.write", write_seconds)
                counters = {
                    "repro_engine_worker_chunks_total": 1.0,
                    "repro_engine_worker_queries_total": float(task.num_queries),
                    "repro_engine_worker_entities_total": float(scored),
                    "repro_engine_worker_queue_wait_seconds_total": wait,
                    "repro_engine_worker_score_seconds_total": score_seconds,
                    "repro_engine_worker_write_seconds_total": write_seconds,
                    "repro_engine_worker_busy_seconds_total": (
                        score_seconds + write_seconds
                    ),
                }
                telemetry = {"counters": counters}
                if tracer.timeline:
                    telemetry["events"] = tracer.events()
                    tracer.reset()
                result_queue.put(("done", index, scored, telemetry))
            else:  # pragma: no cover — protocol error
                raise RuntimeError(f"unknown worker message {kind!r}")
        except BaseException:
            result_queue.put(("error", index, traceback.format_exc()))
    if attached is not None:
        attached.close()
