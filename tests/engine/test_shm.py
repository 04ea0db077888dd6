"""Unit tests for the shared-memory plane: arena, publish/attach, refresh."""

from __future__ import annotations

import gc
import multiprocessing
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.bench import LatencyBoundScorer
from repro.core.ranking import evaluate_full
from repro.engine import (
    EvaluationState,
    build_state,
    get_engine_pool,
    plan_chunks,
    score_chunk,
)
from repro.engine.shm import (
    ShmArena,
    attach_array,
    attach_state,
    publish_state,
)
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.models import build_model

SRC = str(Path(__file__).resolve().parents[2] / "src")


#: Chunk size that cuts a fresh graph's 16-28 test queries into several
#: full-path chunks, so a two-worker run goes through the pool.
POOL_CHUNK = 4


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
            tasks = plan_chunks(tiny_state.plan, 128)
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


def _params(model) -> dict[str, np.ndarray]:
    return {name: array.copy() for name, array in model.parameter_arrays().items()}


def _published_params(published) -> dict[str, np.ndarray]:
    return {
        name[len("param_") :]: published.arena.view(name)
        for name in published.manifest.arrays
        if name.startswith("param_")
    }


class TestRefreshRule:
    """A published arena serves any later state with the same plan and
    model layout by copying its parameters in; anything else republishes."""

    def test_in_place_mutation_is_copied_in(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            entity_table = next(iter(tiny_state.model.parameter_arrays().values()))
            entity_table += 0.25  # what a training step does between evals
            assert published.refresh(tiny_state)
            for name, array in _params(tiny_state.model).items():
                np.testing.assert_array_equal(_published_params(published)[name], array)
        finally:
            published.close()

    def test_another_checkpoint_of_the_layout_is_copied_in(self, tiny_state, tiny_graph):
        published = publish_state(tiny_state)
        try:
            checkpoint = build_model(
                "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=7
            )
            segments = published.manifest.arrays
            assert published.refresh(build_state(checkpoint, tiny_graph, "test"))
            assert published.manifest.arrays == segments  # no new segment
            for name, array in _params(checkpoint).items():
                np.testing.assert_array_equal(_published_params(published)[name], array)
        finally:
            published.close()

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("distmult", {"dim": 6}),
            ("complex", {"dim": 4}),
            ("distmult", {"dim": 4, "dtype": "float32"}),
            ("transe", {"dim": 4, "norm": 2}),
        ],
    )
    def test_layout_change_republishes(self, tiny_graph, name, kwargs):
        published = publish_state(
            build_state(build_model("transe", 6, 3, dim=4), tiny_graph, "test")
        )
        try:
            before = {key: view.copy() for key, view in _published_params(published).items()}
            changed = build_model(name, 6, 3, seed=3, **kwargs)
            assert not published.refresh(build_state(changed, tiny_graph, "test"))
            for key, array in before.items():  # a refused refresh copies nothing
                np.testing.assert_array_equal(_published_params(published)[key], array)
        finally:
            published.close()

    def test_new_plan_republishes(self, tiny_state, tiny_graph):
        published = publish_state(tiny_state)
        try:
            assert not published.refresh(build_state(tiny_state.model, tiny_graph, "valid"))
        finally:
            published.close()

    def test_pickled_wrapper_never_refreshes(self, tiny_state):
        wrapped = EvaluationState(LatencyBoundScorer(tiny_state.model, delay=0.0), tiny_state.plan)
        published = publish_state(wrapped)
        try:
            assert published.manifest.model_pickle is not None
            assert not published.refresh(wrapped)
        finally:
            published.close()


START_METHODS = ("fork", "spawn")


@pytest.mark.parametrize("start_method", START_METHODS)
class TestRefreshThroughPool:
    """Refreshed parameters reach the workers: every pooled run is bitwise
    its serial run, and no arena is created after the first."""

    @pytest.fixture(autouse=True)
    def _method(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable on this platform")

    def test_rotating_checkpoints_publish_once(self, start_method):
        graph = _fresh_graph(1)
        checkpoints = [build_model("complex", 50, 3, dim=4, seed=seed) for seed in range(4)]
        serial = [evaluate_full(model, graph, workers=1).ranks for model in checkpoints]
        pool = get_engine_pool(2, start_method)
        published = None
        for _ in range(3):
            for model, expected in zip(checkpoints, serial):
                ranks = evaluate_full(
                    model, graph, workers=2, start_method=start_method, chunk_size=POOL_CHUNK
                ).ranks
                assert ranks == expected
                published = pool.states_published if published is None else published
                assert pool.states_published == published

    def test_in_place_mutation_reaches_workers(self, start_method):
        graph = _fresh_graph(2)
        model = build_model("distmult", 50, 3, dim=4, seed=0)
        evaluate_full(model, graph, workers=2, start_method=start_method, chunk_size=POOL_CHUNK)
        pool = get_engine_pool(2, start_method)
        published = pool.states_published
        for table in model.parameter_arrays().values():
            table *= -1.5
        serial = evaluate_full(model, graph, workers=1).ranks
        assert evaluate_full(
            model, graph, workers=2, start_method=start_method, chunk_size=POOL_CHUNK
        ).ranks == serial
        assert pool.states_published == published

    def test_layout_change_republishes_and_stays_exact(self, start_method):
        graph = _fresh_graph(3)
        pool = get_engine_pool(2, start_method)
        models = [
            build_model("transe", 50, 3, dim=4, norm=1),
            build_model("transe", 50, 3, dim=4, norm=2),
            build_model("transe", 50, 3, dim=6, norm=2),
            build_model("distmult", 50, 3, dim=6),
        ]
        for model in models:
            published = pool.states_published
            ranks = evaluate_full(
                model, graph, workers=2, start_method=start_method, chunk_size=POOL_CHUNK
            ).ranks
            assert ranks == evaluate_full(model, graph, workers=1).ranks
            assert pool.states_published == published + 1


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
            assert not published.refresh(fresh)
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
