"""Fault injection: dead workers, scoring exceptions, interrupts.

The persistent pool's contract is *clear error, never a hang, never a
leaked segment*: a worker killed mid-chunk surfaces as
:class:`EngineWorkerError` through liveness polling; a worker-side
exception carries the original traceback; a Ctrl-C-style interrupt of
the parent tears the pool down and unlinks every shared segment.  Every
test is deadline-guarded by the engine's own ``timeout`` (no external
timeout plugin needed), and every test proves the shared memory is gone
afterwards by re-attaching the published segments and expecting
``FileNotFoundError``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    EngineWorkerError,
    EvaluationEngine,
    PersistentWorkerPool,
    build_state,
    plan_chunks,
)
from repro.engine.shm import attach_array
from repro.models import build_model

#: Hard ceiling on any single pool run in this module — a hang fails fast.
RUN_TIMEOUT = 60.0


class KillerModel:
    """A picklable scorer whose workers die mid-chunk with ``os._exit``.

    No ``parameter_arrays`` surface, so it rides the manifest's pickle
    fallback; scoring in the *parent* (serial path) works fine, scoring
    in a *worker* hard-exits the process — exactly an OOM-kill/segfault
    shape the pool must survive.
    """

    name = "killer"

    def __init__(self, num_entities: int, exit_code: int = 17):
        self.num_entities = num_entities
        self.exit_code = exit_code

    def score_candidates_batch(self, anchors, relation, side, candidates=None, truths=None):
        os._exit(self.exit_code)

    def score_candidates(self, anchor, relation, side, candidates):
        os._exit(self.exit_code)


class FailingModel:
    """A picklable scorer that raises — the recoverable-error shape."""

    name = "failing"

    def __init__(self, num_entities: int):
        self.num_entities = num_entities

    def score_candidates_batch(self, anchors, relation, side, candidates=None, truths=None):
        raise ValueError("injected scoring failure")

    def score_candidates(self, anchor, relation, side, candidates):
        raise ValueError("injected scoring failure")


class SlowModel:
    """A picklable scorer slow enough for an interrupt to land mid-run."""

    name = "slow"

    def __init__(self, num_entities: int, delay: float = 0.05):
        self.num_entities = num_entities
        self.delay = delay

    def score_candidates_batch(self, anchors, relation, side, candidates=None, truths=None):
        time.sleep(self.delay)
        k = self.num_entities if candidates is None else len(candidates)
        scores = np.zeros((len(anchors), k), dtype=np.float64)
        return scores if truths is None else (scores, np.zeros(len(anchors)))

    def score_candidates(self, anchor, relation, side, candidates):
        time.sleep(self.delay)
        return np.zeros(len(candidates), dtype=np.float64)


def _published_specs(pool: PersistentWorkerPool) -> list:
    published = pool._published
    assert published is not None, "expected a live published state"
    return list(published.manifest.arrays.values())


def _assert_unlinked(specs: list) -> None:
    for spec in specs:
        with pytest.raises(FileNotFoundError):
            attach_array(spec)


@pytest.fixture
def pool():
    pool = PersistentWorkerPool(2)
    yield pool
    pool.shutdown(force=True)


class TestWorkerDeath:
    def test_killed_worker_raises_instead_of_hanging(self, tiny_graph, pool):
        state = build_state(KillerModel(tiny_graph.num_entities), tiny_graph, "test")
        tasks = plan_chunks(state.plan, 1)
        started = time.perf_counter()
        with pytest.raises(EngineWorkerError, match="died|exit"):
            pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        assert time.perf_counter() - started < RUN_TIMEOUT
        assert pool.broken and pool.closed

    def test_shm_unlinked_after_worker_death(self, tiny_graph):
        pool = PersistentWorkerPool(2)
        state = build_state(SlowModel(tiny_graph.num_entities), tiny_graph, "test")
        tasks = plan_chunks(state.plan, 128)
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)  # publish + one clean run
        specs = _published_specs(pool)
        killer_state = build_state(
            KillerModel(tiny_graph.num_entities), tiny_graph, "test"
        )
        with pytest.raises(EngineWorkerError):
            pool.run_tasks(killer_state, tasks, timeout=RUN_TIMEOUT)
        _assert_unlinked(specs)

    def test_registry_replaces_broken_pool(self, tiny_graph):
        from repro.engine import get_engine_pool

        first = get_engine_pool(2)
        state = build_state(KillerModel(tiny_graph.num_entities), tiny_graph, "test")
        tasks = plan_chunks(state.plan, 1)
        with pytest.raises(EngineWorkerError):
            first.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        replacement = get_engine_pool(2)
        assert replacement is not first
        assert replacement.alive()
        replacement.shutdown(force=True)


class TestWorkerException:
    def test_error_carries_worker_traceback(self, tiny_graph):
        model = FailingModel(tiny_graph.num_entities)
        # Both test queries fit one full-path chunk, which the engine
        # scores serially; one query per chunk keeps the run on the pool.
        engine = EvaluationEngine(workers=2, chunk_size=1, timeout=RUN_TIMEOUT)
        with pytest.raises(EngineWorkerError, match="injected scoring failure"):
            engine.run(model, tiny_graph, split="test")

    def test_shm_unlinked_after_exception(self, tiny_graph, pool):
        state = build_state(FailingModel(tiny_graph.num_entities), tiny_graph, "test")
        tasks = plan_chunks(state.plan, 128)
        with pytest.raises(EngineWorkerError):
            pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        # The failed run marked the pool broken and closed its arena:
        # the manifest's segments must be unattachable.
        assert pool.broken
        assert pool._published is None or pool._published.arena.closed


class TestTimeout:
    def test_run_deadline_raises_not_hangs(self, tiny_graph, pool):
        state = build_state(
            SlowModel(tiny_graph.num_entities, delay=1.0), tiny_graph, "test"
        )
        tasks = plan_chunks(state.plan, 1)
        started = time.perf_counter()
        with pytest.raises(EngineWorkerError, match="timed out"):
            pool.run_tasks(state, tasks, timeout=0.5)
        assert time.perf_counter() - started < 10.0


class TestInterrupt:
    def test_ctrl_c_tears_pool_down_and_unlinks(self, tiny_graph):
        pool = PersistentWorkerPool(2)
        state = build_state(
            SlowModel(tiny_graph.num_entities, delay=1.0), tiny_graph, "test"
        )
        tasks = plan_chunks(state.plan, 1)
        pool.ensure_state(state)
        specs = _published_specs(pool)
        timer = threading.Timer(0.3, signal.raise_signal, args=(signal.SIGINT,))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        finally:
            timer.cancel()
        assert pool.closed
        _assert_unlinked(specs)


class TestNormalShutdown:
    def test_clean_shutdown_unlinks_everything(self, tiny_graph):
        pool = PersistentWorkerPool(2)
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        state = build_state(model, tiny_graph, "test")
        tasks = plan_chunks(state.plan, 128)
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)
        specs = _published_specs(pool)
        pids = pool.worker_pids()
        pool.shutdown()
        _assert_unlinked(specs)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(_pid_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_pid_alive(pid) for pid in pids)

    def test_shutdown_is_idempotent(self):
        pool = PersistentWorkerPool(1)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(EngineWorkerError, match="no longer usable"):
            pool.run_tasks(None, [], timeout=1.0)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
