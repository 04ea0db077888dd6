"""Per-worker evaluation state and the chunk-scoring kernel.

The engine's parallel path fans :class:`~repro.engine.chunking.ChunkTask`
objects across a persistent worker pool (:mod:`repro.engine.pool`).
Everything heavy — the model parameters, the graph's CSR filter index,
the candidate pools and the grouped query arrays — is built **once in the
parent** (:func:`build_state`) and published into shared memory
(:mod:`repro.engine.shm`); each long-lived worker (:func:`worker_main`)
attaches it once per distinct state, so each task only carries four
integers and each chunk's ranks go straight into a shared result buffer.

:func:`score_chunk` is the single scoring kernel both evaluation paths
share; the serial engine path calls it directly on a locally built
:class:`EvaluationState`, which is what guarantees bitwise-equal ranks
between ``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.chunking import (
    ChunkTask,
    chunk_filtered_ranks,
    collect_known_answers,
    ordered_groups,
)
from repro.kg.graph import SIDES, FilterIndexCSR, KnowledgeGraph, Side
from repro.models.base import KGEModel

if TYPE_CHECKING:
    from repro.core.sampling import NegativePools


@dataclass
class GroupState:
    """One ``(relation, side)`` query group with its precomputed id arrays."""

    relation: int
    side: Side
    queries: list[tuple[int, int, int, int]]
    anchors: np.ndarray
    truths: np.ndarray


@dataclass
class EvaluationState:
    """Everything a chunk needs to score: model, filter index, groups, pools."""

    model: KGEModel
    filter_index: FilterIndexCSR
    groups: list[GroupState]
    split: str = "test"
    sides: tuple[Side, ...] = SIDES
    pools: "NegativePools | None" = None


def build_state(
    model: KGEModel,
    graph: KnowledgeGraph,
    split: str,
    sides: tuple[Side, ...] = SIDES,
    pools: "NegativePools | None" = None,
) -> EvaluationState:
    """Materialise the evaluation state for one (model, split) run.

    The group order is deterministic (split iteration order), and workers
    attach the published copy of this very state, so parent and workers
    agree on every ``ChunkTask.group`` index.  Reading
    ``graph.filter_index`` here builds the graph's cached index before
    any timed chunk.
    """
    groups = [
        GroupState(
            relation=relation,
            side=side,
            queries=queries,
            anchors=np.asarray([q[0] for q in queries], dtype=np.int64),
            truths=np.asarray([q[1] for q in queries], dtype=np.int64),
        )
        for (relation, side), queries in ordered_groups(graph, split, sides)
    ]
    return EvaluationState(
        model=model,
        filter_index=graph.filter_index,
        groups=groups,
        split=split,
        sides=sides,
        pools=pools,
    )


def score_chunk(state: EvaluationState, task: ChunkTask) -> tuple[np.ndarray, int]:
    """Rank one chunk of queries; returns ``(ranks, entities_scored)``.

    With pools attached the chunk is the sampled path: the truths' scores
    come from the diagonal of the anchor x truth score matrix and the
    candidates are the chunk's relation-side pool.  Without pools it is
    the full path: the candidate axis is the whole entity vocabulary.
    """
    group = state.groups[task.group]
    chunk = slice(task.start, task.stop)
    anchors = group.anchors[chunk]
    truths = group.truths[chunk]
    model = state.model
    b = task.num_queries

    if state.pools is None:
        scores = model.score_candidates_batch(anchors, group.relation, group.side)
        true_scores = scores[np.arange(b), truths]
        rows, cols = collect_known_answers(
            state.filter_index, anchors, truths, group.relation, group.side
        )
        return chunk_filtered_ranks(scores, true_scores, rows, cols), int(scores.size)

    pool = state.pools.pool(group.relation, group.side)
    if pool.size == 0:
        # Nothing competes with the truth: every query ranks first.
        return np.ones(b, dtype=np.float64), b
    # One batched call scores every query's truth: the diagonal of the
    # (b, b) anchor x truth score matrix.
    true_scores = np.diagonal(
        model.score_candidates_batch(anchors, group.relation, group.side, truths)
    )
    pool_scores = model.score_candidates_batch(
        anchors, group.relation, group.side, pool
    )
    rows, cols = collect_known_answers(
        state.filter_index, anchors, truths, group.relation, group.side
    )
    ranks = chunk_filtered_ranks(pool_scores, true_scores, rows, cols, pool=pool)
    return ranks, int(pool_scores.size) + b


# ----------------------------------------------------------------------
# Persistent-pool worker loop
# ----------------------------------------------------------------------
def worker_main(worker_id: int, task_queue, result_queue) -> None:
    """The long-lived loop of one persistent shared-memory pool worker.

    Messages on ``task_queue``:

    * ``("state", manifest)`` — attach a freshly published state
      (:func:`repro.engine.shm.attach_state`), replacing any previous
      one, and acknowledge with ``("ready", worker_id, state_id,
      attach_seconds)``;
    * ``("task", state_id, index, task, offset, meta)`` — score one
      chunk with :func:`score_chunk` against the attached state, write
      the ranks directly into the shared result buffer at ``offset``,
      and reply ``("done", index, entities_scored, telemetry)`` — the
      ranks themselves never cross the queue;
    * ``("stop",)`` — detach and exit.

    Telemetry: the worker runs its **own** ``MetricsRegistry`` +
    ``Tracer`` (never the parent's process-globals — under ``fork``
    those can snapshot held locks).  When a task carries ``meta`` the
    worker times its stages (queue wait from ``meta["enqueue_ts"]``,
    scoring, the rank write), folds them into its private
    ``repro_engine_worker_*`` counters, and ships the counter delta
    since the previous reply — plus timestamped span events stamped
    with ``meta["trace_id"]`` when ``meta["timeline"]`` asks for them —
    back as the reply's ``telemetry`` dict.  ``meta=None`` is the
    zero-overhead path: score, write, reply, nothing timed.

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
    from repro.obs.metrics import MetricsRegistry, counter_deltas
    from repro.obs.trace import Tracer

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, timeline=False)
    shipped: dict[str, float] = {}
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
                result_queue.put(
                    ("ready", worker_id, attached.state_id, attach_seconds)
                )
            elif kind == "task":
                _, state_id, index, task, offset, meta = message
                if attached is None or attached.state_id != state_id:
                    raise RuntimeError(
                        f"worker {worker_id} received a task for state "
                        f"{state_id} but has "
                        f"{attached.state_id if attached else 'no state'} attached"
                    )
                if meta is None:
                    ranks, scored = score_chunk(attached.state, task)
                    attached.result[offset : offset + task.num_queries] = ranks
                    result_queue.put(("done", index, scored, None))
                    continue
                received = time.time()
                tracer.timeline = bool(meta.get("timeline"))
                trace_id = meta.get("trace_id")
                context = (
                    TraceContext(trace_id=trace_id) if trace_id else None
                )
                with use_context(context):
                    wait = max(0.0, received - float(meta["enqueue_ts"]))
                    tracer.record("engine.worker.queue_wait", wait)
                    score_start = time.perf_counter()
                    ranks, scored = score_chunk(attached.state, task)
                    score_seconds = time.perf_counter() - score_start
                    tracer.record("engine.worker.score", score_seconds)
                    write_start = time.perf_counter()
                    attached.result[offset : offset + task.num_queries] = ranks
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
                for name, amount in counters.items():
                    registry.counter(name).inc(amount)
                snapshot = registry.counter_values()
                telemetry = {"counters": counter_deltas(snapshot, shipped)}
                shipped = snapshot
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
