"""The batched, multi-worker evaluation engine.

:class:`EvaluationEngine` is the single execution core behind both
evaluation protocols: the full filtered ranking
(:func:`repro.core.ranking.evaluate_full`) and the sampled estimators
(:func:`repro.core.estimators.evaluate_sampled`).  One ``run()`` call

1. looks up the graph's cached evaluation plan — grouped queries and
   known answers already mapped onto each query's candidate axis, built
   once per ``(graph, split, sides, pools)`` (:func:`repro.engine.worker.
   evaluation_plan`) — and cuts it into the deterministic chunk schedule
   (:func:`repro.engine.chunking.plan_chunks`);
2. scores the chunks — in-process for ``workers=1``, or on a persistent
   worker pool that reads the model and the plan from shared memory,
   published once per plan and model layout (:mod:`repro.engine.pool`);
3. concatenates the per-chunk ranks in plan order and aggregates them
   into metrics once, returning both as one :class:`EvaluationResult`.

Chunk results are consumed in schedule order regardless of which worker
finishes first, and scoring itself is deterministic, so ``workers=N``
produces **bitwise-identical ranks** to ``workers=1`` —
``benchmarks/bench_parallel_engine.py`` asserts exactly that next to its
speed-up floor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.engine.chunking import DEFAULT_CHUNK_SIZE, ChunkTask, Query, plan_chunks
from repro.engine.pool import PersistentWorkerPool, get_engine_pool
from repro.engine.worker import EvaluationState, build_state, score_chunk
from repro.kg.graph import SIDES, KnowledgeGraph, Side
from repro.metrics.ranking import HITS_AT, RankingMetrics, aggregate_ranks
from repro.models.base import KGEModel
from repro.obs import get_registry, get_tracer
from repro.obs.log import log_event

if TYPE_CHECKING:
    from repro.core.sampling import NegativePools


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request into a concrete process count.

    ``None`` and ``0`` mean serial; any negative value means "all cores"
    (``os.cpu_count()``), mirroring the ``-1`` convention of joblib.
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


@dataclass
class EvaluationResult:
    """The outcome of one evaluation: a rank per distinct query of the
    split and the metrics aggregated from exactly those ranks.

    ``strategy`` names the pools' sampling strategy on the sampled path
    and is ``None`` on the full path.
    """

    metrics: RankingMetrics
    ranks: dict[Query, float] = field(repr=False, default_factory=dict)
    seconds: float = 0.0
    num_scored: int = 0
    strategy: str | None = None

    @property
    def num_queries(self) -> int:
        return len(self.ranks)


class EvaluationEngine:
    """Chunk-streamed, optionally multi-process ranking evaluation.

    Parameters
    ----------
    workers:
        Number of scoring processes.  ``1`` (default) runs in-process with
        zero multiprocessing overhead; ``N > 1`` fans chunks across a
        persistent shared-memory worker pool; negative means all cores.
    chunk_size:
        Queries ranked per score-matrix chunk — bounds the ``b x k``
        intermediate at ``chunk_size x num_candidates`` floats.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``).  ``None`` defers to
        ``$REPRO_ENGINE_START_METHOD``, then the platform default
        (``fork`` on Linux).  It only decides how pool workers start;
        state always reaches them through shared memory.
    timeout:
        Optional per-run deadline in seconds for parallel runs; a run
        exceeding it raises :class:`~repro.engine.pool.EngineWorkerError`
        instead of hanging (the fault tests lean on this).
    pool:
        Optional caller-owned :class:`~repro.engine.pool.
        PersistentWorkerPool` parallel runs should use instead of
        the shared module-level registry — the serve layer injects its
        private pool here so its lifecycle (and ``close()``) stays fully
        its own.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start_method: str | None = None,
        timeout: float | None = None,
        pool: "PersistentWorkerPool | None" = None,
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.timeout = timeout
        self.pool = pool

    # ------------------------------------------------------------------
    def run(
        self,
        model: KGEModel,
        graph: KnowledgeGraph,
        split: str = "test",
        pools: "NegativePools | None" = None,
        hits_at: tuple[int, ...] = HITS_AT,
        sides: tuple[Side, ...] = SIDES,
    ) -> EvaluationResult:
        """Evaluate ``model`` on one split (sampled iff ``pools`` given).

        The chunks' ranks arrive in plan order, one per distinct query
        (:func:`~repro.engine.chunking.query_table`); they are aggregated
        once and keyed by ``(head, relation, tail, side)``.
        """
        start = time.perf_counter()
        tracer = get_tracer()
        registry = get_registry()
        registry.gauge(
            "repro_engine_workers", "Worker processes of the last engine run"
        ).set(self.workers)
        registry.gauge(
            "repro_engine_chunk_size", "Chunk size of the last engine run"
        ).set(self.chunk_size)
        with tracer.span("engine.run"):
            state = build_state(model, graph, split, sides=sides, pools=pools)
            plan = state.plan
            tasks = plan_chunks(plan, self.chunk_size)
            chunks: list[np.ndarray] = []
            num_scored = 0
            for chunk_ranks, chunk_scored in self._scored_chunks(state, tasks):
                chunks.append(chunk_ranks)
                num_scored += chunk_scored
            ranks = np.concatenate([np.empty(0), *chunks])
            keyed = dict(zip(plan.keys, ranks.tolist()))
            tracer.add("chunks", len(tasks))
            tracer.add("queries", ranks.size)
            tracer.add("scored", num_scored)
        registry.counter(
            "repro_engine_chunks_total", "Chunks scored by the evaluation engine"
        ).inc(len(tasks))
        registry.counter(
            "repro_engine_queries_total", "Queries ranked by the evaluation engine"
        ).inc(ranks.size)

        metrics = aggregate_ranks(ranks, hits_at=hits_at)
        log_event(
            "engine.run",
            split=split,
            workers=self.workers,
            chunks=len(tasks),
            queries=ranks.size,
            entities=num_scored,
            seconds=round(time.perf_counter() - start, 6),
        )
        return EvaluationResult(
            metrics=metrics,
            ranks=keyed,
            seconds=time.perf_counter() - start,
            num_scored=num_scored,
            strategy=None if pools is None else pools.strategy,
        )

    # ------------------------------------------------------------------
    def _scored_chunks(
        self, state: EvaluationState, tasks: list[ChunkTask]
    ) -> Iterator[tuple[np.ndarray, int]]:
        """Yield each task's ``(ranks, scored)`` in deterministic schedule order."""
        tracer = get_tracer()
        if self.workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                # A perf_counter pair per chunk is cheaper than a context
                # manager in a loop that may run thousands of times.
                chunk_start = time.perf_counter()
                result = score_chunk(state, task)
                tracer.record("engine.chunk", time.perf_counter() - chunk_start)
                yield result
            return
        # Always the pool at ``self.workers``: round-robin dispatch leaves
        # surplus workers idle when there are fewer chunks than workers,
        # which beats starting (and keeping alive) a smaller second pool.
        pool = self.pool if self.pool is not None else get_engine_pool(
            self.workers, self.start_method
        )
        wait_start = time.perf_counter()
        results = pool.run_tasks(state, tasks, timeout=self.timeout)
        # The pool returns every chunk at once; one record covers the
        # whole merge-side wait (serial runs keep per-chunk records).
        tracer.record("engine.chunk", time.perf_counter() - wait_start)
        yield from results

    def __repr__(self) -> str:
        return (
            f"EvaluationEngine(workers={self.workers}, "
            f"chunk_size={self.chunk_size})"
        )
