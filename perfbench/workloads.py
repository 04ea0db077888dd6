"""The three workloads: sampled-eval, full-eval and serve-mix.

Each workload builds its state from the generated inputs in
:meth:`Workload.setup` (what ``setup_s`` times), runs one op per call of
:meth:`Workload.op`, and checks the recorded outputs afterwards in
:meth:`Workload.verify`.  In a traced run, :meth:`Workload.wrap_setup` and
:meth:`Workload.wrap_ops` put :class:`~layers.LayerClock` wrappers around
the public calls of each layer, and :meth:`Workload.layer_metrics` turns
the clock, the program's own tracer summary and its counters into the
per-layer metrics.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path

import numpy as np

import repro.core.protocol as protocol_module
import repro.engine.engine as engine_module
import repro.engine.worker as worker_module
import repro.serve.registry as registry_module
import repro.serve.service as service_module
from repro.core.protocol import EvaluationProtocol
from repro.core.ranking import evaluate_full, filtered_rank
from repro.engine.pool import PersistentWorkerPool, active_pools, get_engine_pool
from repro.engine.worker import build_state
from repro.recommenders.base import RelationRecommender
from repro.serve import LinkPredictionService, ModelRegistry, ServeClient
from repro.store import ExperimentStore

import measure
from inputs import CLIENTS, DIM, MIX, Inputs
from layers import LayerClock, span_totals

SIDE_NAMES = ("head", "tail")
RECOMMENDER = "l-wd"
#: The paper's default sample size: 10% of the entities per pool.
SAMPLE_FRACTION = 0.1
#: Top-k of the serve rank requests.
TOP_K = 10
#: Multiply-adds per candidate of a ComplEx score: a dot over 2 * dim reals.
FLOPS_PER_SCORE = 4 * DIM


class Workload:
    """One set of inputs the benchmark runs, with its output checks."""

    name = ""
    #: Closed-loop client threads generating load.
    clients = 1
    #: What ``throughput_per_s`` counts.
    unit = ""
    #: Start each op on the other core than the last (serial workloads).
    rotate_cores = False

    def __init__(self, inputs: Inputs, workdir: Path):
        self.inputs = inputs
        self.workdir = workdir

    def setup(self, clock: LayerClock) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` built (processes, threads, files)."""

    def prepare_checks(self) -> None:
        """Compute check references; runs after setup, untimed."""

    def op(self, client: int, index: int) -> tuple[int, object]:
        """Run one op; returns ``(work units, record for verify)``."""
        raise NotImplementedError

    def verify(self, record: object) -> bool:
        raise NotImplementedError

    def end_block(self, traced: bool) -> None:
        """Collect what the block's set-up counted, before the next set-up."""

    def peak_memory_mb(self) -> float:
        """Peak memory of the run, taken after the measured blocks."""
        return measure.self_peak_rss_mb()

    def wrap_setup(self, clock: LayerClock) -> None:
        """Wrap the layer calls setup makes (traced runs only)."""

    def wrap_ops(self, clock: LayerClock) -> None:
        """Wrap the layer calls an op makes (traced runs only)."""

    def layer_metrics(self, clock: LayerClock, summary: dict | None, ops: list) -> dict:
        """Per-op layer metrics of the traced phase, plus attributed seconds."""
        return {}

    def extra_layer_metrics(self) -> dict:
        """Layer metrics measured outside the op loop (traced runs only)."""
        return {}

    def attributed_seconds(self, clock: LayerClock, ops: list) -> tuple[float, float]:
        """``(attributed, wall)`` seconds of the traced ops.

        Every wrapped layer runs inside an op on the op's own thread, so
        the layers' self seconds are the attributed part of the summed
        op wall times.
        """
        return sum(clock.seconds.values()), sum(op.latency for op in ops)

    def config(self) -> dict:
        return {"clients": self.clients, "unit": self.unit, "rotate_cores": self.rotate_cores}


def _query(key) -> tuple[int, int, int, str]:
    """``(anchor, truth, relation, side)`` of an ``(h, r, t, side)`` query key."""
    h, r, t, side = key
    anchor, truth = (t, h) if side == "head" else (h, t)
    return anchor, truth, r, side


def _checked_keys(graph, count: int, seed: int) -> list[tuple[int, int, int, str]]:
    """A fixed, seeded sample of a graph's test queries to check each op."""
    test = graph.test.array
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(test), size=min(count, len(test)), replace=False)
    return [
        (int(test[row, 0]), int(test[row, 1]), int(test[row, 2]), SIDE_NAMES[i % 2])
        for i, row in enumerate(rows)
    ]


def _wrap_engine(clock: LayerClock, model_class, gather: bool = True) -> None:
    """Wrap the engine's serial chunk path: group, score, gather, rank, aggregate."""
    clock.wrap(engine_module, "build_state", "engine.group")
    clock.wrap(engine_module, "plan_chunks", "engine.group")
    clock.wrap(engine_module, "aggregate_ranks", "engine.aggregate")
    if gather:
        clock.wrap(
            worker_module,
            "collect_known_answers",
            "engine.gather",
            count=lambda knowns: sum(known.size for known in knowns),
            count_name="engine.known_ids",
        )
        clock.wrap(worker_module, "chunk_filtered_ranks", "engine.rank")
        clock.wrap(model_class, "score_candidates_batch", "engine.score")


def _engine_counts(summary: dict | None, ops: int) -> dict:
    """Per-op chunk / query / entity counts from the program's ``engine.run`` span."""
    _, runs, counters = span_totals(summary, "engine.run")
    if not runs:
        return {}
    return {
        "engine.chunks": counters.get("chunks", 0.0) / ops,
        "engine.queries": counters.get("queries", 0.0) / ops,
        "engine.entities_scored": counters.get("scored", 0.0) / ops,
    }


def score_roofline(entities_per_op: float, score_ms: float, gflops: float) -> float:
    """Scoring flop rate as a share of the GEMM probe's."""
    return entities_per_op * FLOPS_PER_SCORE / (score_ms / 1e3) / (gflops * 1e9)


def _per_op_ms(clock: LayerClock, ops: int, names: dict[str, str]) -> dict:
    return {metric: clock.seconds.get(layer, 0.0) / ops * 1e3 for metric, layer in names.items()}


class SampledEval(Workload):
    """Serial ``EvaluationProtocol.evaluate`` over rotating checkpoints."""

    name = "sampled-eval"
    unit = "ranked queries (test triple x side)"
    rotate_cores = True

    def setup(self, clock: LayerClock) -> None:
        graph = self.inputs.graph()
        with clock.section("kg.filter_index"):
            graph.filter_index  # noqa: B018 — the index build is timed set-up
        protocol = EvaluationProtocol(
            graph,
            recommender=RECOMMENDER,
            strategy="static",
            sample_fraction=SAMPLE_FRACTION,
            seed=self.inputs.pool_seed,
        )
        protocol.prepare()
        self.graph, self.protocol = graph, protocol
        self.keys = _checked_keys(graph, self.inputs.scale.checked_ranks, self.inputs.seed)

    def wrap_setup(self, clock: LayerClock) -> None:
        clock.wrap(RelationRecommender, "fit", "recommenders.fit")
        clock.wrap(protocol_module, "build_static_candidates", "candidates.build")
        clock.wrap(protocol_module, "build_pools", "sampling.pools")

    def op(self, client: int, index: int) -> tuple[int, object]:
        checkpoint = index % len(self.inputs.checkpoints)
        result = self.protocol.evaluate(self.inputs.checkpoints[checkpoint])
        return result.num_queries, (checkpoint, [(key, result.ranks[key]) for key in self.keys])

    def verify(self, record) -> bool:
        checkpoint, ranks = record
        model = self.inputs.checkpoints[checkpoint]
        return all(rank == self.oracle_rank(model, key) for key, rank in ranks)

    def oracle_rank(self, model, key) -> float:
        """The scalar filtered rank of ``key`` over its sampled pool."""
        anchor, truth, relation, side = _query(key)
        pool = self.protocol.pools.pool(relation, side)
        scores = np.full(self.graph.num_entities, -np.inf)
        if pool.size:
            scores[pool] = model.score_candidates(anchor, relation, side, pool)
        scores[truth] = model.score_candidates(anchor, relation, side, np.asarray([truth]))[0]
        return filtered_rank(scores, truth, self.graph.true_answers(anchor, relation, side))

    def wrap_ops(self, clock: LayerClock) -> None:
        _wrap_engine(clock, type(self.inputs.checkpoints[0]))

    def layer_metrics(self, clock, summary, ops) -> dict:
        n = len(ops)
        metrics = _per_op_ms(
            clock,
            n,
            {
                "engine.group_ms": "engine.group",
                "engine.gather_ms": "engine.gather",
                "engine.rank_ms": "engine.rank",
                "engine.score_ms": "engine.score",
                "engine.aggregate_ms": "engine.aggregate",
            },
        )
        metrics["engine.known_ids"] = clock.counts.get("engine.known_ids", 0.0) / n
        metrics.update(_engine_counts(summary, n))
        metrics["sampling.pool_entities"] = float(self.protocol.pools.total_sampled())
        return metrics

    def extra_layer_metrics(self) -> dict:
        """Table 9's headline: full over sampled wall time on one checkpoint."""
        model = self.inputs.checkpoints[0]
        full = sampled = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            evaluate_full(model, self.graph, workers=1)
            full = min(full, time.perf_counter() - start)
            start = time.perf_counter()
            self.protocol.evaluate(model)
            sampled = min(sampled, time.perf_counter() - start)
        return {"table9.speedup_x": full / sampled}


class FullEval(Workload):
    """``evaluate_full`` on the persistent shm pool over rotating checkpoints."""

    name = "full-eval"
    unit = "ranked queries (test triple x side)"

    def __init__(self, inputs: Inputs, workdir: Path):
        super().__init__(inputs, workdir)
        self.workers = os.cpu_count() or 1

    def setup(self, clock: LayerClock) -> None:
        graph = self.inputs.graph()
        with clock.section("kg.filter_index"):
            graph.filter_index  # noqa: B018 — the index build is timed set-up
        pool = get_engine_pool(self.workers)
        pool.ensure_state(build_state(self.inputs.checkpoints[0], graph, "test"))
        self.graph = graph
        self.keys = _checked_keys(graph, self.inputs.scale.checked_ranks, self.inputs.seed)

    def close(self) -> None:
        for pool in active_pools():
            pool.shutdown()

    def peak_memory_mb(self) -> float:
        """Peak summed PSS of this process and the pool workers.

        Summing PSS counts the shared-memory state once however many
        workers map it.  The sampler runs during an untimed pass of one op
        per checkpoint, so it never slows a timed op.
        """
        sampler = measure.PssSampler(
            lambda: [pid for pool in active_pools() for pid in pool.worker_pids()]
        ).start()
        try:
            for index in range(len(self.inputs.checkpoints)):
                self.op(0, index)
        finally:
            sampler.stop()
        return sampler.peak_mb

    def op(self, client: int, index: int) -> tuple[int, object]:
        checkpoint = index % len(self.inputs.checkpoints)
        result = evaluate_full(
            self.inputs.checkpoints[checkpoint], self.graph, workers=self.workers
        )
        return result.num_queries, (checkpoint, [(key, result.ranks[key]) for key in self.keys])

    def verify(self, record) -> bool:
        checkpoint, ranks = record
        model = self.inputs.checkpoints[checkpoint]
        for key, rank in ranks:
            anchor, truth, relation, side = _query(key)
            expected = filtered_rank(
                model.score_all(anchor, relation, side),
                truth,
                self.graph.true_answers(anchor, relation, side),
            )
            if rank != expected:
                return False
        return True

    def wrap_ops(self, clock: LayerClock) -> None:
        _wrap_engine(clock, type(self.inputs.checkpoints[0]), gather=False)
        clock.wrap(PersistentWorkerPool, "ensure_state", "pool.publish")
        clock.wrap(PersistentWorkerPool, "run_tasks", "pool.merge_wait")

    def layer_metrics(self, clock, summary, ops) -> dict:
        n = len(ops)
        metrics = _per_op_ms(
            clock,
            n,
            {
                "engine.group_ms": "engine.group",
                "engine.aggregate_ms": "engine.aggregate",
                "pool.publish_ms": "pool.publish",
                "pool.merge_wait_ms": "pool.merge_wait",
            },
        )
        metrics.update(_engine_counts(summary, n))
        queue_wait, chunks, _ = span_totals(summary, "engine.worker.queue_wait")
        busy = span_totals(summary, "engine.worker.score")[0]
        busy += span_totals(summary, "engine.worker.write")[0]
        wall = clock.seconds.get("pool.merge_wait", 0.0) + clock.seconds.get("pool.publish", 0.0)
        metrics["pool.worker_queue_wait_ms"] = queue_wait / chunks * 1e3 if chunks else 0.0
        metrics["pool.worker_busy_frac"] = busy / (self.workers * wall) if wall else 0.0
        return metrics

    def extra_layer_metrics(self) -> dict:
        """Split score / gather / rank on serial in-process replays of the ops.

        The pool's workers are separate processes the benchmark cannot
        wrap, so the same ops are replayed with ``workers=1`` under the
        same wrappers.
        """
        clock = LayerClock()
        _wrap_engine(clock, type(self.inputs.checkpoints[0]))
        try:
            for model in self.inputs.checkpoints:
                evaluate_full(model, self.graph, workers=1)
        finally:
            clock.restore()
        replays = len(self.inputs.checkpoints)
        metrics = _per_op_ms(
            clock,
            replays,
            {
                "engine.gather_ms": "engine.gather",
                "engine.rank_ms": "engine.rank",
                "engine.score_ms": "engine.score",
            },
        )
        metrics["engine.known_ids"] = clock.counts.get("engine.known_ids", 0.0) / replays
        return metrics

    def config(self) -> dict:
        return {**super().config(), "workers": self.workers}


class ServeMix(Workload):
    """Two closed-loop clients driving an in-process ``LinkPredictionService``."""

    name = "serve-mix"
    clients = CLIENTS
    unit = "requests"
    model = "served"

    def __init__(self, inputs: Inputs, workdir: Path):
        super().__init__(inputs, workdir)
        self.service: LinkPredictionService | None = None
        self._builds = 0
        self._local = threading.local()
        self._attributed: dict[int, float] = {}
        self._waits: list[float] = []
        #: Service counters summed over the traced blocks (a service per block).
        self._counters = {"hits": 0, "misses": 0, "batches": 0, "batched": 0}
        self.reference: dict = {}

    def setup(self, clock: LayerClock) -> None:
        graph = self.inputs.graph()
        with clock.section("kg.filter_index"):
            graph.filter_index  # noqa: B018 — the index build is timed set-up
        # A fresh store per build, so every set-up fits and builds its
        # candidate sets instead of reloading the previous build's.
        self._builds += 1
        store = ExperimentStore(self.workdir / f"serve-store-{self._builds}")
        registry = ModelRegistry(store, graph, recommender=RECOMMENDER)
        registry.register(self.model, self.inputs.serve_model, persist=False)
        registry.candidates(self.model)
        self.service = LinkPredictionService(registry)
        self.client = ServeClient(service=self.service)
        self.graph = graph

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            shutil.rmtree(self.service.registry.store.root, ignore_errors=True)
            self.service = None

    def prepare_checks(self) -> None:
        self.reference = evaluate_full(self.inputs.serve_model, self.graph, workers=1).ranks

    def wrap_setup(self, clock: LayerClock) -> None:
        clock.wrap(RelationRecommender, "fit", "recommenders.fit")
        clock.wrap(registry_module, "build_static_candidates", "candidates.build")

    def op(self, client: int, index: int) -> tuple[int, object]:
        stream = self.inputs.requests[client]
        index %= len(stream.kinds)
        kind = int(stream.kinds[index])
        h, r, t, side_id = (int(v) for v in self.inputs.serve_queries[stream.queries[index]])
        side = SIDE_NAMES[side_id]
        self._local.queries = []
        if kind == 2:
            rows = self.client.score(self.model, [(h, r, t)])
            record = ("score", [((h, r, t, row["side"]), row["rank"]) for row in rows])
        else:
            anchor = t if side == "head" else h
            candidates = "filtered" if kind == 0 else "all"
            response = self.client.rank(
                self.model, anchor, r, side=side, k=TOP_K, candidates=candidates
            )
            top = [(row["entity_id"], row["score"]) for row in response["results"]]
            record = ("rank", (anchor, r, side, top, response["cached"]))
        queued = self._local.queries
        if queued:
            self._attributed[id(record)] = max(self._attributed.pop(q, 0.0) for q in queued)
        return 1, record

    def verify(self, record) -> bool:
        kind, payload = record
        if kind == "score":
            return all(self.reference.get(key) == rank for key, rank in payload)
        anchor, relation, side, top, _ = payload
        if not top or len(top) > TOP_K:
            return False
        excluded = set(self.graph.true_answers(anchor, relation, side).tolist()) | {anchor}
        if any(entity in excluded for entity, _ in top):
            return False
        order = [(-score, entity) for entity, score in top]
        return all(a < b for a, b in zip(order, order[1:]))

    def wrap_ops(self, clock: LayerClock) -> None:
        service = self.service
        assert service is not None
        scheduler = service.scheduler
        clock.wrap(service.registry.model(self.model), "score_candidates_batch", "serve.score")
        clock.wrap(service_module, "chunk_filtered_ranks", "serve.rank")
        clock.wrap(service, "_resolve_topk", "serve.topk")
        local, attributed, waits = self._local, self._attributed, self._waits
        submit, dispatch, score_batch = scheduler.submit, scheduler._dispatch, scheduler._score_batch

        def traced_submit(query):
            local.queries.append(id(query))
            return submit(query)

        def traced_dispatch(key, batch):
            started = time.monotonic()
            for query, _, arrival, _ in batch:
                waits.append(started - arrival)
                attributed[id(query)] = started - arrival
            return dispatch(key, batch)

        def traced_score_batch(key, queries):
            started = time.monotonic()
            try:
                return score_batch(key, queries)
            finally:
                # Stored before the scheduler resolves the callers, so the
                # client thread always finds its request's share.
                elapsed = time.monotonic() - started
                for query in queries:
                    attributed[id(query)] = attributed.get(id(query), 0.0) + elapsed

        clock.patch(scheduler, "submit", traced_submit)
        clock.patch(scheduler, "_dispatch", traced_dispatch)
        clock.patch(scheduler, "_score_batch", traced_score_batch)

    def end_block(self, traced: bool) -> None:
        if not traced or self.service is None:
            return
        cache, scheduler = self.service.health()["cache"], self.service.scheduler
        self._counters["hits"] += cache["hits"]
        self._counters["misses"] += cache["misses"]
        self._counters["batches"] += scheduler.num_batches
        self._counters["batched"] += scheduler.num_batched_requests

    def layer_metrics(self, clock, summary, ops) -> dict:
        batch_s, batches, _ = span_totals(summary, "serve.batch")
        counters = self._counters
        hits, misses = counters["hits"], counters["misses"]
        hit_latencies = [
            op.latency for op in ops if op.record and op.record[0] == "rank" and op.record[1][4]
        ]
        per_batch = {
            "serve.score_ms": "serve.score",
            "serve.rank_ms": "serve.rank",
            "serve.topk_ms": "serve.topk",
        }
        metrics = {
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.cache_hit_ms": float(np.median(hit_latencies)) * 1e3 if hit_latencies else 0.0,
            "serve.queue_wait_ms": float(np.mean(self._waits)) * 1e3 if self._waits else 0.0,
            "serve.mean_batch_size": (
                counters["batched"] / counters["batches"] if counters["batches"] else 0.0
            ),
            "serve.batch_ms": batch_s / batches * 1e3 if batches else 0.0,
        }
        metrics.update(_per_op_ms(clock, max(batches, 1), per_batch))
        return metrics

    def attributed_seconds(self, clock: LayerClock, ops: list) -> tuple[float, float]:
        """``(attributed, wall)`` seconds over the scored (non-cached) requests.

        A scored request's attributed time is the queue wait plus the batch
        time of the last of its queries to be scored.
        """
        attributed = wall = 0.0
        for op in ops:
            share = self._attributed.get(id(op.record))
            if share is not None:
                attributed += share
                wall += op.latency
        return attributed, wall

    def config(self) -> dict:
        return {**super().config(), "mix": MIX, "top_k": TOP_K}


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (SampledEval, FullEval, ServeMix)
}
