"""Mmap shard IO: bitwise round-trips, probe-and-grow, digests, gauge."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.models import available_models, build_model
from repro.models.io import (
    MMAP_BYTES_GAUGE,
    init_sharded,
    open_mmap,
    save_sharded,
)


@pytest.fixture
def model():
    return build_model("complex", 20, 4, dim=8, seed=0)


class TestSaveOpenRoundTrip:
    @pytest.mark.parametrize("name", sorted(available_models()))
    def test_every_model_round_trips_bitwise(self, name, tmp_path):
        original = build_model(name, 12, 3, dim=8, seed=0)
        save_sharded(original, tmp_path / name)
        reopened = open_mmap(tmp_path / name)
        assert reopened.name == original.name
        assert reopened.num_entities == original.num_entities
        assert set(reopened.parameters) == set(original.parameters)
        for key, tensor in original.parameters.items():
            np.testing.assert_array_equal(
                reopened.parameters[key].data, tensor.data
            )

    def test_multi_shard_manifest_rejected(self, model, tmp_path):
        # A parameter split over row files cannot be mapped as one table
        # without copying it whole, so open_mmap refuses it and writes nothing.
        save_sharded(model, tmp_path / "s")
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        name, meta = next(iter(manifest["params"].items()))
        table = np.load(tmp_path / "s" / meta["shards"][0]["file"])
        half = table.shape[0] // 2
        meta["shards"] = []
        for index, block in enumerate((table[:half], table[half:])):
            np.save(tmp_path / "s" / f"{name}.{index}.npy", block)
            meta["shards"].append({"file": f"{name}.{index}.npy", "rows": int(block.shape[0])})
        manifest_path.write_text(json.dumps(manifest))
        before = sorted(path.name for path in (tmp_path / "s").iterdir())
        with pytest.raises(ValueError, match="split over 2 shard files"):
            open_mmap(tmp_path / "s")
        assert sorted(path.name for path in (tmp_path / "s").iterdir()) == before

    def test_arrays_are_read_only_maps(self, model, tmp_path):
        save_sharded(model, tmp_path / "s")
        reopened = open_mmap(tmp_path / "s")
        array = next(iter(reopened.parameters.values())).data
        with pytest.raises((ValueError, TypeError)):
            array[0] = 0.0

    def test_shard_source_attached(self, model, tmp_path):
        source = save_sharded(model, tmp_path / "s")
        reopened = open_mmap(tmp_path / "s")
        assert reopened.shard_source.digest == source.digest
        assert reopened.shard_source.nbytes == source.nbytes

    def test_scores_identical(self, model, tmp_path):
        save_sharded(model, tmp_path / "s")
        reopened = open_mmap(tmp_path / "s")
        for anchor, relation in ((0, 0), (3, 1), (7, 2)):
            np.testing.assert_array_equal(
                reopened.score_all(anchor, relation, "tail"),
                model.score_all(anchor, relation, "tail"),
            )

    def test_row_count_mismatch_detected(self, model, tmp_path):
        # Digest checks live at the engine-attach layer (streaming the
        # bytes here would defeat out-of-core); open_mmap still validates
        # structure: entity tables must span the manifest's vocabulary.
        save_sharded(model, tmp_path / "s")
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["model"]["num_entities"] = model.num_entities + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="entity-indexed"):
            open_mmap(tmp_path / "s")

    def test_missing_parameter_detected(self, model, tmp_path):
        save_sharded(model, tmp_path / "s")
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        first = next(iter(manifest["params"]))
        del manifest["params"][first]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="do not match"):
            open_mmap(tmp_path / "s")

    def test_mmap_gauge_advances(self, model, tmp_path):
        from repro.obs import get_registry

        gauge = get_registry().gauge(
            MMAP_BYTES_GAUGE, "Bytes of model parameters served from mmap shards"
        )
        before = gauge.value()
        source = save_sharded(model, tmp_path / "s")
        open_mmap(tmp_path / "s")
        assert gauge.value() == before + source.nbytes


class TestInitSharded:
    """Block-streamed init: entity tables written without materialising."""

    @pytest.mark.parametrize("name", sorted(available_models()))
    def test_every_model_initialises_and_opens(self, name, tmp_path):
        source = init_sharded(name, 40, 4, directory=tmp_path / name, dim=8, seed=0)
        model = open_mmap(tmp_path / name)
        assert model.num_entities == 40
        assert model.shard_source.digest == source.digest
        # Must be scoreable end to end.
        scores = model.score_all(39, 3, "tail")
        assert scores.shape == (40,)
        assert np.isfinite(scores).all()

    def test_blocks_do_not_change_content(self, tmp_path):
        # Same seed, different block sizes: identical files.
        a = init_sharded(
            "distmult", 100, 3, directory=tmp_path / "a", dim=4, block_rows=7
        )
        b = init_sharded(
            "distmult", 100, 3, directory=tmp_path / "b", dim=4, block_rows=100
        )
        model_a, model_b = open_mmap(tmp_path / "a"), open_mmap(tmp_path / "b")
        for key in model_a.parameters:
            np.testing.assert_array_equal(
                model_a.parameters[key].data, model_b.parameters[key].data
            )
        assert a.digest == b.digest

    def test_relation_table_not_misflagged(self, tmp_path):
        # num_relations == probe entity count: the two-probe detection
        # must still classify the relation table as non-entity-indexed.
        init_sharded("distmult", 50, 8, directory=tmp_path / "s", dim=4)
        model = open_mmap(tmp_path / "s")
        assert model.parameters["entity"].data.shape[0] == 50
        assert model.parameters["relation"].data.shape[0] == 8


class TestAttachStrictness:
    def test_strict_rejects_grown_first_axis(self, model):
        arrays = {
            key: np.zeros((100,) + tensor.data.shape[1:], dtype=tensor.data.dtype)
            for key, tensor in model.parameters.items()
        }
        with pytest.raises(ValueError):
            model.attach_parameter_arrays(arrays)

    def test_lenient_rejects_trailing_dim_mismatch(self, model):
        arrays = {
            key: np.zeros(
                tensor.data.shape[:-1] + (tensor.data.shape[-1] + 1,),
                dtype=tensor.data.dtype,
            )
            for key, tensor in model.parameters.items()
        }
        with pytest.raises(ValueError):
            model.attach_parameter_arrays(arrays, strict=False)

    def test_lenient_rejects_dtype_mismatch(self, model):
        arrays = {
            key: tensor.data.astype(np.float32)
            for key, tensor in model.parameters.items()
        }
        with pytest.raises(ValueError):
            model.attach_parameter_arrays(arrays, strict=False)
