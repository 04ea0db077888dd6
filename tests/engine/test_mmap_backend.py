"""Mmap backend through the engine: zero-copy transport, bitwise ranks.

The acceptance matrix of the out-of-core backend: a model served from
``.npy`` mmap shards must produce ranks bitwise-identical to its
in-memory twin on the full protocol and the sampled estimator, at any
worker count, under both start methods, over an in-memory
:class:`KnowledgeGraph` and one opened from a compact store (int32
memory-mapped splits) alike.  The shared-memory transport ships
only the shard manifest (no parameter blocks), and attaching verifies
the manifest digest.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.estimators import evaluate_sampled
from repro.core.ranking import evaluate_full
from repro.core.sampling import build_pools
from repro.datasets.zoo import load
from repro.engine.shm import publish_state
from repro.kg import open_compact, save_compact
from repro.models import build_model
from repro.models.io import open_mmap, save_sharded

WORKER_COUNTS = (1, 4)
START_METHODS = ("fork", "spawn")


def _require_method(method: str) -> None:
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")


@pytest.fixture(scope="module")
def dataset():
    return load("codex-s-lite")


@pytest.fixture(scope="module")
def memory_model(dataset):
    graph = dataset.graph
    return build_model(
        "complex", graph.num_entities, graph.num_relations, dim=8, seed=0
    )


@pytest.fixture(scope="module")
def mmap_model(memory_model, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shards")
    save_sharded(memory_model, directory)
    return open_mmap(directory)


@pytest.fixture(scope="module")
def compact_graph(dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("compact")
    save_compact(dataset.graph, directory)
    return open_compact(directory)


@pytest.fixture(scope="module")
def pools(dataset):
    return build_pools(
        dataset.graph, "random", np.random.default_rng(0), num_samples=32
    )


@pytest.fixture(scope="module")
def full_baseline(dataset, memory_model):
    return evaluate_full(memory_model, dataset.graph, workers=1)


@pytest.fixture(scope="module")
def sampled_baseline(dataset, memory_model, pools):
    return evaluate_sampled(memory_model, dataset.graph, pools, workers=1)


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestMmapExactness:
    def test_full_ranks_bitwise_equal(
        self, dataset, mmap_model, full_baseline, workers, start_method
    ):
        _require_method(start_method)
        result = evaluate_full(
            mmap_model,
            dataset.graph,
            workers=workers,
            start_method=start_method,
        )
        assert result.ranks == full_baseline.ranks
        assert result.metrics == full_baseline.metrics

    def test_sampled_ranks_bitwise_equal(
        self, dataset, mmap_model, pools, sampled_baseline, workers, start_method
    ):
        _require_method(start_method)
        result = evaluate_sampled(
            mmap_model,
            dataset.graph,
            pools,
            workers=workers,
            start_method=start_method,
        )
        assert result.ranks == sampled_baseline.ranks
        assert result.metrics == sampled_baseline.metrics

    def test_compact_graph_matches_knowledge_graph(
        self, compact_graph, mmap_model, full_baseline, workers, start_method
    ):
        _require_method(start_method)
        result = evaluate_full(
            mmap_model,
            compact_graph,
            workers=workers,
            start_method=start_method,
        )
        assert result.ranks == full_baseline.ranks
        assert result.metrics == full_baseline.metrics


class TestShardTransport:
    """The shm manifest route for mmap models: ship paths, not bytes."""

    @pytest.fixture
    def published(self, dataset, mmap_model):
        from repro.engine.worker import build_state

        state = build_state(mmap_model, dataset.graph, "test")
        published = publish_state(state)
        yield published
        published.close()

    def test_manifest_ships_shards_not_params(self, published, mmap_model):
        manifest = published.manifest
        assert manifest.model_shards is not None
        assert manifest.model_shards["digest"] == mmap_model.shard_source.digest
        assert manifest.model_pickle is None
        # No parameter bytes go through shared memory.
        assert not any(name.startswith("param_") for name in manifest.arrays)

    def test_refresh_reuses_on_equal_digest(
        self, published, dataset, mmap_model, memory_model, tmp_path
    ):
        from repro.engine.worker import build_state

        segments = published.manifest.arrays
        reopened = open_mmap(mmap_model.shard_source.directory)
        assert published.refresh(build_state(reopened, dataset.graph, "test"))
        assert published.manifest.arrays == segments  # nothing copied in
        # A changed digest, or the in-memory twin, republishes.
        retrained = build_model(
            "complex", memory_model.num_entities, memory_model.num_relations, dim=8, seed=1
        )
        save_sharded(retrained, tmp_path)
        assert not published.refresh(build_state(open_mmap(tmp_path), dataset.graph, "test"))
        assert not published.refresh(build_state(memory_model, dataset.graph, "test"))

    def test_attach_verifies_digest(self, published):
        from dataclasses import replace

        from repro.engine.shm import attach_state

        manifest = published.manifest
        tampered = replace(
            manifest,
            model_shards=dict(
                manifest.model_shards,
                digest="0" * len(manifest.model_shards["digest"]),
            ),
        )
        with pytest.raises(RuntimeError, match="changed underneath"):
            attach_state(tampered)

    def test_attach_round_trips(self, published, mmap_model):
        from repro.engine.shm import attach_state

        attached = attach_state(published.manifest)
        try:
            model = attached.state.model
            assert model.shard_source.digest == mmap_model.shard_source.digest
            np.testing.assert_array_equal(
                model.parameters["entity"].data,
                mmap_model.parameters["entity"].data,
            )
        finally:
            attached.close()
