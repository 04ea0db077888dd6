"""Artifact cache: round trips, the LRU layer, listings and gc."""

import numpy as np
import pytest

from repro.core.candidates import build_static_candidates
from repro.core.sampling import build_pools
from repro.models import build_model
from repro.recommenders.registry import build_recommender
from repro.store import ArtifactStore, LRUCache


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


@pytest.fixture
def fitted(tiny_graph):
    return build_recommender("l-wd").fit(tiny_graph, None)


class TestLRU:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1


class TestRoundTrips:
    def test_json_round_trip(self, store):
        payload = {"rows": [1, 2, 3], "label": "x"}
        store.put_json("study", "k" * 32, payload)
        assert store.get_json("study", "k" * 32) == payload
        assert store.get_json("study", "absent") is None

    def test_json_survives_process_restart(self, store, tmp_path):
        store.put_json("study", "k" * 32, {"a": 1})
        reopened = ArtifactStore(tmp_path / "artifacts")
        assert reopened.get_json("study", "k" * 32) == {"a": 1}

    def test_model_round_trip_is_bit_identical(self, store):
        model = build_model("complex", 12, 4, dim=6, seed=3)
        store.put_model("m" * 32, model)
        store.memory.clear()  # force the disk path
        loaded = store.get_model("m" * 32)
        assert loaded is not None and loaded.name == "complex"
        for name, tensor in model.parameters.items():
            np.testing.assert_array_equal(loaded.parameters[name].data, tensor.data)

    def test_pools_round_trip(self, store, tiny_graph, fitted):
        pools = build_pools(
            tiny_graph,
            "probabilistic",
            rng=np.random.default_rng(0),
            sample_fraction=0.5,
            fitted=fitted,
        )
        store.put_pools("p" * 32, pools)
        store.memory.clear()
        loaded = store.get_pools("p" * 32)
        assert loaded is not None
        assert loaded.strategy == pools.strategy
        assert loaded.sample_size == pools.sample_size
        for side in ("head", "tail"):
            for name, array in pools.pools[side].arrays(side).items():
                assert loaded.pools[side].arrays(side)[name].tobytes() == array.tobytes()

    def test_candidates_round_trip(self, store, tiny_graph, fitted):
        sets = build_static_candidates(fitted, tiny_graph)
        store.put_candidates("c" * 32, sets)
        store.memory.clear()
        loaded = store.get_candidates("c" * 32)
        assert loaded is not None
        assert loaded.recommender_name == sets.recommender_name
        for side in ("head", "tail"):
            assert loaded.thresholds[side].tobytes() == sets.thresholds[side].tobytes()
            for relation in range(tiny_graph.num_relations):
                np.testing.assert_array_equal(
                    loaded.candidates(relation, side), sets.candidates(relation, side)
                )

    def test_memory_layer_serves_hits(self, store):
        store.put_json("study", "k" * 32, {"a": 1})
        misses_before = store.memory.misses
        assert store.get_json("study", "k" * 32) == {"a": 1}
        assert store.memory.misses == misses_before  # served from memory

    def test_memory_eviction_falls_back_to_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts", max_memory_entries=1)
        store.put_json("study", "a" * 32, {"v": "a"})
        store.put_json("study", "b" * 32, {"v": "b"})  # evicts a
        assert len(store.memory) == 1
        assert store.get_json("study", "a" * 32) == {"v": "a"}


class TestListingAndGC:
    def test_entries_and_delete(self, store):
        store.put_json("study", "a" * 32, {"v": 1}, labels={"dataset": "tiny"})
        store.put_json("truth", "b" * 32, {"v": 2})
        entries = store.entries()
        assert {(e.kind, e.key) for e in entries} == {
            ("study", "a" * 32),
            ("truth", "b" * 32),
        }
        assert entries[0].size_bytes > 0
        assert store.delete("study", "a" * 32)
        assert not store.delete("study", "a" * 32)
        assert store.get_json("study", "a" * 32) is None
        assert len(store.entries()) == 1

    def test_gc_removes_orphans_keeps_valid(self, store):
        store.put_json("study", "a" * 32, {"v": 1})
        # Orphan payload: a write that never committed its sidecar.
        orphan_dir = store.root / "truth" / "cc"
        orphan_dir.mkdir(parents=True)
        orphan = orphan_dir / ("c" * 32 + ".json")
        orphan.write_text("{}", encoding="utf-8")
        # Dangling sidecar: payload vanished.
        dangling_dir = store.root / "pools" / "dd"
        dangling_dir.mkdir(parents=True)
        dangling = dangling_dir / ("d" * 32 + ".meta.json")
        dangling.write_text(
            '{"kind": "pools", "key": "' + "d" * 32 + '", "format": "npz"}',
            encoding="utf-8",
        )
        # Corrupt sidecar: unreadable JSON.
        corrupt_dir = store.root / "model" / "ee"
        corrupt_dir.mkdir(parents=True)
        corrupt = corrupt_dir / ("e" * 32 + ".meta.json")
        corrupt.write_text("not json {", encoding="utf-8")

        report = store.gc()
        assert not orphan.exists() and not dangling.exists() and not corrupt.exists()
        assert report.num_removed == 3
        assert report.freed_bytes > 0
        assert store.get_json("study", "a" * 32) == {"v": 1}

    def test_gc_on_clean_store_is_a_noop(self, store):
        store.put_json("study", "a" * 32, {"v": 1})
        report = store.gc()
        assert report.num_removed == 0 and report.freed_bytes == 0
        assert len(store.entries()) == 1

    def test_torn_payload_reads_as_miss_and_heals(self, store):
        """A truncated payload under an intact sidecar must not brick the key."""
        store.put_json("study", "a" * 32, {"v": 1})
        store.memory.clear()
        payload = store.root / "study" / "aa" / ("a" * 32 + ".json")
        payload.write_text('{"v": 1', encoding="utf-8")  # torn write
        assert store.get_json("study", "a" * 32) is None
        store.put_json("study", "a" * 32, {"v": 2})  # recompute-and-overwrite heals
        store.memory.clear()
        assert store.get_json("study", "a" * 32) == {"v": 2}

    def test_torn_npz_reads_as_miss(self, store):
        model = build_model("distmult", 6, 2, dim=4, seed=0)
        store.put_model("m" * 32, model)
        store.memory.clear()
        payload = store.root / "model" / "mm" / ("m" * 32 + ".npz")
        payload.write_bytes(payload.read_bytes()[:40])  # truncate the archive
        assert store.get_model("m" * 32) is None

    def test_gc_collects_stray_tmp_files(self, store):
        store.put_json("study", "a" * 32, {"v": 1})
        stray = store.root / "study" / "aa" / ("tmp-999-" + "a" * 32 + ".json")
        stray.write_text("partial", encoding="utf-8")
        report = store.gc()
        assert str(stray) in report.removed_payloads
        assert store.get_json("study", "a" * 32) == {"v": 1}

    def test_entries_skips_corrupt_sidecars(self, store):
        store.put_json("study", "a" * 32, {"v": 1})
        bad_dir = store.root / "study" / "zz"
        bad_dir.mkdir(parents=True)
        (bad_dir / ("z" * 32 + ".meta.json")).write_text("not json", encoding="utf-8")
        assert [e.key for e in store.entries()] == ["a" * 32]
