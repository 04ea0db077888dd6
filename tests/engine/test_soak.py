"""Soak: one persistent pool, many runs, flat resource gauges.

Fifty consecutive evaluations must reuse the same worker processes and
the same published shared-memory state: worker count stays constant,
``repro_engine_shm_bytes`` stays flat (one arena, created once), and
nothing accumulates run over run.  The serve path gets
the same treatment through its service-owned pool.
"""

from __future__ import annotations

import pytest

from repro.engine import EvaluationEngine, get_engine_pool
from repro.engine.shm import SHM_BYTES_GAUGE, SHM_SEGMENTS_GAUGE
from repro.models import build_model
from repro.obs import get_registry

SOAK_RUNS = 50


@pytest.fixture
def model(tiny_graph):
    return build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )


class TestPoolSoak:
    def test_fifty_runs_one_pool_flat_gauges(self, tiny_graph, model):
        # One query per chunk: the tiny graph's two test queries would
        # otherwise fill one full-path chunk, which runs serially.
        engine = EvaluationEngine(workers=2, chunk_size=1)
        registry = get_registry()
        baseline = engine.run(model, tiny_graph, split="test")
        pool = get_engine_pool(2)
        pids = set(pool.worker_pids())
        runs_before = pool.runs_completed
        published_before = pool.states_published
        shm_bytes = registry.gauge(SHM_BYTES_GAUGE, "").value()
        shm_segments = registry.gauge(SHM_SEGMENTS_GAUGE, "").value()
        assert shm_bytes > 0 and shm_segments > 0

        for _ in range(SOAK_RUNS):
            run = engine.run(model, tiny_graph, split="test")
            assert run.metrics == baseline.metrics
            # Flat, not sawtooth: the same state serves every run.
            assert registry.gauge(SHM_BYTES_GAUGE, "").value() == shm_bytes
            assert registry.gauge(SHM_SEGMENTS_GAUGE, "").value() == shm_segments

        assert pool.alive()
        assert set(pool.worker_pids()) == pids  # zero worker churn
        assert pool.runs_completed == runs_before + SOAK_RUNS
        assert pool.states_published == published_before  # zero republishes
        assert (
            registry.gauge(
                "repro_engine_pool_workers", "", labels=("pool",)
            ).value(pool=pool.label)
            == pool.workers
        )

    def test_retraining_refreshes_in_place(self, tiny_graph, model):
        engine = EvaluationEngine(workers=2, chunk_size=1)
        engine.run(model, tiny_graph, split="test")
        pool = get_engine_pool(2)
        published = pool.states_published
        # A training step mutates parameters in place; the live arena
        # takes the new bytes, so the workers score the mutated model...
        next(iter(model.parameter_arrays().values()))[...] += 0.5
        serial = EvaluationEngine(workers=1).run(model, tiny_graph, split="test")
        assert engine.run(model, tiny_graph, split="test").ranks == serial.ranks
        # ...without creating an arena.
        assert pool.states_published == published


class TestServeSoak:
    def test_serve_path_reuses_service_pool(self, codex_s, tmp_path):
        from repro.serve.registry import ModelRegistry
        from repro.serve.service import LinkPredictionService
        from repro.store import ExperimentStore

        # The service scores at the default chunk size, and a single chunk
        # runs serially: this graph's 252 test queries make two chunks.
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=4, seed=0)
        registry = ModelRegistry(ExperimentStore(tmp_path / "store"), graph)
        registry.register("dm", model)
        with LinkPredictionService(registry, engine_workers=2) as service:
            first = service.evaluate_model("dm", split="test")
            for _ in range(9):
                repeat = service.evaluate_model("dm", split="test")
                assert repeat["metrics"] == first["metrics"]
            stats = service.engine_pool_stats()
            assert stats["started"] and stats["alive"]
            assert stats["runs_completed"] == 10
            assert stats["states_published"] == 1  # one publish, nine reuses
            assert stats["evaluations"] == 10
            assert service.health()["engine_pool"]["runs_completed"] == 10
        assert service.engine_pool_stats()["started"] is False  # close() shut it
