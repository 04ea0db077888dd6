"""Unit tests for the shared-memory plane: arena, publish/attach, fingerprint."""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.engine import build_state, get_engine_pool, plan_chunks, score_chunk
from repro.engine.shm import (
    ShmArena,
    attach_array,
    attach_state,
    publish_state,
    state_fingerprint,
)
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.models import build_model

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _fresh_graph(seed: int) -> KnowledgeGraph:
    """A 50-entity graph whose test split size varies with ``seed``."""
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, [50, 3, 50], size=(120, 3))
    test_size = 8 + seed % 7
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(50)]),
        relations=Vocabulary(["r0", "r1", "r2"]),
        train=TripleSet(triples[:-test_size]),
        test=TripleSet(triples[-test_size:]),
        name=f"fresh-{seed}",
    )


@pytest.fixture
def tiny_state(tiny_graph):
    model = build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )
    return build_state(model, tiny_graph, "test")


class TestShmArena:
    def test_put_and_view_round_trip(self):
        arena = ShmArena(tag="repro_t")
        try:
            data = np.arange(12, dtype=np.float64).reshape(3, 4)
            view = arena.put("x", data)
            np.testing.assert_array_equal(view, data)
            assert arena.view("x") is view
            assert arena.nbytes == data.nbytes
        finally:
            arena.close()

    def test_attach_sees_parent_writes(self):
        arena = ShmArena(tag="repro_t")
        try:
            view = arena.put("x", np.zeros(8))
            attached, segment = attach_array(arena.specs["x"])
            view[3] = 42.0
            assert attached[3] == 42.0  # same bytes, not a copy
            attached = None  # release the buffer before closing
            segment.close()
        finally:
            arena.close()

    def test_zero_size_arrays_are_representable(self):
        arena = ShmArena(tag="repro_t")
        try:
            view = arena.put("empty", np.empty(0, dtype=np.int64))
            assert view.size == 0
            array, segment = attach_array(arena.specs["empty"])
            assert array.size == 0 and array.dtype == np.int64
            array = None
            segment.close()
        finally:
            arena.close()

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena(tag="repro_t")
        spec = arena.put("x", np.ones(4)) is not None and arena.specs["x"]
        arena.close()
        arena.close()  # second close is a no-op
        with pytest.raises(FileNotFoundError):
            attach_array(spec)

    def test_duplicate_names_rejected(self):
        arena = ShmArena(tag="repro_t")
        try:
            arena.put("x", np.ones(2))
            with pytest.raises(ValueError, match="duplicate"):
                arena.put("x", np.ones(2))
        finally:
            arena.close()


class TestPublishAttach:
    def test_attached_state_scores_identically(self, tiny_state):
        published = publish_state(tiny_state)
        attached = None
        try:
            attached = attach_state(published.manifest)
            tasks = plan_chunks(tiny_state.plan.groups, tiny_state.plan.starts, 128)
            for task in tasks:
                direct, n1 = score_chunk(tiny_state, task)
                via_shm, n2 = score_chunk(attached.state, task)
                np.testing.assert_array_equal(direct, via_shm)
                assert n1 == n2
        finally:
            if attached is not None:
                attached.close()
            published.close()

    def test_manifest_counts_queries_and_groups(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            manifest = published.manifest
            plan = tiny_state.plan
            assert manifest.num_queries == plan.num_queries == plan.starts[-1]
            assert manifest.groups == plan.groups
            assert published.result_view.shape == (manifest.num_queries,)
        finally:
            published.close()

    def test_registry_models_travel_as_arrays_not_pickle(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            assert published.manifest.model_pickle is None
            assert published.manifest.model_spec is not None
            param_specs = [
                name for name in published.manifest.arrays if name.startswith("param_")
            ]
            assert param_specs  # every embedding table went to shared memory
        finally:
            published.close()


_READ_AFTER_CLOSE = """
import numpy as np
from repro.core.sampling import build_pools
from repro.engine import build_state
from repro.engine.shm import attach_state, publish_state
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.models import build_model

triples = np.random.default_rng(0).integers(0, [50, 3, 50], size=(120, 3))
graph = KnowledgeGraph(
    entities=Vocabulary([f"e{i}" for i in range(50)]),
    relations=Vocabulary(["r0", "r1", "r2"]),
    train=TripleSet(triples[:-10]),
    test=TripleSet(triples[-10:]),
)
pools = build_pools(graph, "random", np.random.default_rng(0), num_samples=10)
model = build_model("distmult", 50, 3, dim=4, seed=0)
state = build_state(model, graph, "test", pools=pools)
published = publish_state(state)
attached = attach_state(published.manifest)
queries = attached.state.plan.queries
result = published.result_view
attached.close()
published.close()
assert np.array_equal(queries, state.plan.queries)
assert not result.any()
print(int(queries.sum()))
"""


class TestAttachedClose:
    def test_view_kept_past_close_stays_readable(self):
        """Closing an attached state or an arena used to unmap segments
        under live views, so the next read killed the process (SIGSEGV)."""
        result = subprocess.run(
            [sys.executable, "-c", _READ_AFTER_CLOSE],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode != -signal.SIGSEGV
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().isdigit()

    def test_close_frees_unkept_views_at_once(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            attached = attach_state(published.manifest)
            views = [weakref.ref(attached.result), weakref.ref(attached.state.plan.queries)]
            gc.disable()
            try:
                attached.close()
                assert [view() for view in views] == [None, None]
            finally:
                gc.enable()
        finally:
            published.close()


class TestStateFingerprint:
    def test_in_place_parameter_mutation_changes_fingerprint(self, tiny_state):
        before = state_fingerprint(tiny_state)
        entity_table = next(iter(tiny_state.model.parameter_arrays().values()))
        entity_table += 0.25  # what a training step does between evals
        after = state_fingerprint(tiny_state)
        assert before != after

    def test_same_content_same_fingerprint(self, tiny_state):
        assert state_fingerprint(tiny_state) == state_fingerprint(tiny_state)

    def test_different_split_different_fingerprint(self, tiny_graph):
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        test_state = build_state(model, tiny_graph, "test")
        valid_state = build_state(model, tiny_graph, "valid")
        assert state_fingerprint(test_state) != state_fingerprint(valid_state)


class TestPublishedStateIdentity:
    """A freed graph's plan id can be reused by the next one; a live
    published state must never mistake that new plan for the one it
    published."""

    def test_published_state_pins_its_plan(self):
        graph = _fresh_graph(0)
        model = build_model("distmult", 50, 3, dim=4, seed=0)
        state = build_state(model, graph, "test")
        published = publish_state(state)
        try:
            plan = weakref.ref(state.plan)
            del graph, state
            gc.collect()
            assert plan() is not None  # its id cannot be recycled
            fresh = build_state(model, _fresh_graph(1), "test")
            assert not published.matches(fresh)
        finally:
            published.close()

    def test_every_fresh_graph_is_republished(self):
        model = build_model("distmult", 50, 3, dim=4, seed=0)
        pool = get_engine_pool(2)
        before = pool.states_published
        for seed in range(12):
            graph = _fresh_graph(seed)
            state = build_state(model, graph, "test")
            published = pool.ensure_state(state)
            assert pool.states_published == before + seed + 1
            assert published.manifest.num_queries == 2 * len(graph.test)
            del graph, state, published
            gc.collect()
