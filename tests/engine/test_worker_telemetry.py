"""Worker-side telemetry: shipped amounts, merged families, exact ranks.

Each persistent-pool worker times every chunk and ships the amounts it
measured (and, with timelines on, timestamped span events) back on its
replies; the parent merges them into per-worker-labelled
``repro_engine_worker_*`` families and folds stage seconds into the
active trace.  These tests pin the contract: both workers get series,
the merged counts add up exactly to the run, the pool's ranks are the
serial kernel's, and cross-process events share the caller's trace id.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.engine import PersistentWorkerPool, build_state, plan_chunks
from repro.engine.pool import WORKER_COUNTER_HELP
from repro.engine.worker import score_chunk
from repro.models import build_model
from repro.obs import get_registry, set_tracing
from repro.obs.context import TraceContext, use_context
from repro.obs.log import configure_logging

RUN_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    set_tracing(False)


@pytest.fixture
def pool():
    pool = PersistentWorkerPool(2)
    yield pool
    pool.shutdown(force=True)


@pytest.fixture
def state(tiny_graph):
    model = build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )
    return build_state(model, tiny_graph, "test")


def chunk_tasks(state, chunk_size: int = 1):
    return plan_chunks(state.plan, chunk_size)


def _worker_total(pool, family: str) -> float:
    """``family`` summed over both workers of ``pool``."""
    counter = get_registry().counter(family, labels=("pool", "worker"))
    return sum(counter.value(pool=pool.label, worker=worker) for worker in ("0", "1"))


def _assert_serial_ranks(state, tasks, results):
    """Each pool result is bitwise the serial kernel's on the same task."""
    assert len(results) == len(tasks)
    for task, (ranks, scored) in zip(tasks, results):
        serial_ranks, serial_scored = score_chunk(state, task)
        assert scored == serial_scored
        np.testing.assert_array_equal(ranks, serial_ranks)


class TestMergedFamilies:
    def test_every_worker_gets_a_labelled_series(self, pool, state):
        tasks = chunk_tasks(state)
        assert len(tasks) >= 2  # round-robin must reach both workers
        counter = get_registry().counter(
            "repro_engine_worker_chunks_total", labels=("pool", "worker")
        )
        before = {
            worker: counter.value(pool=pool.label, worker=worker)
            for worker in ("0", "1")
        }
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        gained = {
            worker: counter.value(pool=pool.label, worker=worker) - before[worker]
            for worker in ("0", "1")
        }
        assert gained["0"] > 0 and gained["1"] > 0
        assert gained["0"] + gained["1"] == len(tasks)

    def test_counts_sum_exactly_to_the_run(self, pool, state):
        tasks = chunk_tasks(state, chunk_size=3)
        families = (
            "repro_engine_worker_chunks_total",
            "repro_engine_worker_queries_total",
            "repro_engine_worker_entities_total",
        )
        before = {family: _worker_total(pool, family) for family in families}
        results = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        gained = {
            family: _worker_total(pool, family) - before[family] for family in families
        }
        assert gained == {
            "repro_engine_worker_chunks_total": len(tasks),
            "repro_engine_worker_queries_total": sum(task.num_queries for task in tasks),
            "repro_engine_worker_entities_total": sum(scored for _, scored in results),
        }

    def test_stage_families_appear_on_the_exposition(self, pool, state):
        pool.run_tasks(state, chunk_tasks(state), timeout=RUN_TIMEOUT)
        text = get_registry().render()
        for family in (
            "repro_engine_worker_chunks_total",
            "repro_engine_worker_queries_total",
            "repro_engine_worker_entities_total",
            "repro_engine_worker_score_seconds_total",
            "repro_engine_worker_busy_seconds_total",
        ):
            assert family in WORKER_COUNTER_HELP  # documented family
            assert f'{family}{{pool="{pool.label}",worker="0"}}' in text

    def test_attach_seconds_ship_on_the_ready_ack(self, pool, state):
        family = "repro_engine_worker_attach_seconds_total"
        before = _worker_total(pool, family)
        pool.ensure_state(state)
        assert _worker_total(pool, family) > before

    def test_attach_folds_into_the_trace(self, pool, state):
        tracer = set_tracing(True, timeline=False)
        pool.ensure_state(state)
        spans = {node["name"]: node for node in tracer.summary()["spans"]}
        assert spans["engine.worker.attach"]["count"] == pool.workers
        assert spans["engine.worker.attach"]["seconds"] > 0.0


class TestExactness:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ranks_bitwise_equal_serial_score_chunk(self, state, workers):
        pool = PersistentWorkerPool(workers)
        try:
            for chunk_size in (1, 4):
                tasks = chunk_tasks(state, chunk_size)
                results = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
                _assert_serial_ranks(state, tasks, results)
        finally:
            pool.shutdown(force=True)

    def test_timeline_run_matches_untimed_run(self, pool, state):
        tasks = chunk_tasks(state)
        untimed = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        set_tracing(True)  # timelines on: workers ship events too
        timed = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        set_tracing(False)
        _assert_serial_ranks(state, tasks, untimed)
        _assert_serial_ranks(state, tasks, timed)


class TestTimeline:
    def test_worker_events_cross_process_on_one_trace(self, pool, state):
        tracer = set_tracing(True)
        tasks = chunk_tasks(state)
        with use_context(TraceContext(trace_id="tel-e2e")):
            pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        worker_events = [
            event
            for event in tracer.events()
            if event["name"].startswith("engine.worker.")
        ]
        assert worker_events
        names = {event["name"] for event in worker_events}
        assert {
            "engine.worker.queue_wait",
            "engine.worker.score",
            "engine.worker.write",
        } <= names
        pids = {event["pid"] for event in worker_events}
        assert os.getpid() not in pids  # genuinely recorded in the workers
        assert pids == set(pool.worker_pids())
        assert {event["trace_id"] for event in worker_events} == {"tel-e2e"}

    def test_stage_spans_fold_without_duplicate_events(self, pool, state):
        tracer = set_tracing(True, timeline=False)
        tasks = chunk_tasks(state)
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        assert tracer.events() == []  # aggregate fold only, no synthesized events
        spans = {node["name"]: node for node in tracer.summary()["spans"]}
        assert spans["engine.worker.score"]["count"] == len(tasks)
        assert spans["engine.worker.score"]["seconds"] > 0.0


class TestLifecycleLogging:
    def test_pool_lifecycle_emits_correlated_json_lines(self, state):
        stream = io.StringIO()
        try:
            configure_logging(stream)
            pool = PersistentWorkerPool(2)
            pool.run_tasks(state, chunk_tasks(state), timeout=RUN_TIMEOUT)
            pool.shutdown()
        finally:
            configure_logging(None)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        events = {line["event"]: line for line in lines}
        assert events["engine.pool.start"]["workers"] == 2
        assert events["engine.state.publish"]["shm_bytes"] > 0
        assert events["engine.pool.shutdown"]["runs"] == 1
