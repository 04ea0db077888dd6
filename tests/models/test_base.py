"""KGEModel base plumbing: parameters, validation, helper surfaces."""

import numpy as np
import pytest

from repro.models import build_model
from repro.models.base import check_ids, xavier_uniform


class TestParameterRegistry:
    def test_duplicate_parameter_rejected(self):
        model = build_model("transe", 10, 2, dim=4)
        with pytest.raises(ValueError, match="duplicate"):
            model._add_parameter("entity", np.zeros((2, 2)))

    def test_parameters_mapping_is_a_copy(self):
        model = build_model("transe", 10, 2, dim=4)
        params = model.parameters
        params["bogus"] = None
        assert "bogus" not in model.parameters

    def test_parameter_list_order_stable(self):
        model = build_model("transe", 10, 2, dim=4)
        assert [id(p) for p in model.parameter_list()] == [
            id(p) for p in model.parameter_list()
        ]

    def test_num_parameters(self):
        model = build_model("transe", 10, 2, dim=4)
        assert model.num_parameters() == 10 * 4 + 2 * 4

    def test_zero_grad_clears_all(self):
        model = build_model("distmult", 10, 2, dim=4)
        loss = model.score_triples(np.array([0]), np.array([0]), np.array([1]))
        from repro.autodiff.engine import sum_

        sum_(loss).backward()
        assert model.entity.grad is not None
        model.zero_grad()
        assert model.entity.grad is None


class TestModes:
    def test_train_mode_chains(self):
        model = build_model("transe", 10, 2, dim=4)
        assert model.train_mode(True) is model
        assert model.training
        model.train_mode(False)
        assert not model.training

    def test_repr_mentions_sizes(self):
        text = repr(build_model("transe", 10, 2, dim=4))
        assert "10" in text and "dim=4" in text


class TestHelpers:
    def test_check_ids_accepts_lists(self):
        out = check_ids([0, 1, 2], 5, "entity")
        assert out.dtype == np.int64

    def test_check_ids_rejects_out_of_range(self):
        with pytest.raises(IndexError, match="entity"):
            check_ids([0, 5], 5, "entity")
        with pytest.raises(IndexError):
            check_ids([-1], 5, "entity")

    def test_check_ids_empty_ok(self):
        assert check_ids([], 5, "entity").size == 0

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.array([2, -3, 4]), "got range [-3, 4]"),
            (np.array([-(2**63), 1]), f"got range [{-(2**63)}, 1]"),
            (np.array([0, 5]), "got range [0, 5]"),
            ([7, 1], "got range [1, 7]"),
            ([-1], "got range [-1, -1]"),
        ],
    )
    def test_check_ids_error_names_the_range(self, values, message):
        with pytest.raises(IndexError) as caught:
            check_ids(values, 5, "anchor")
        assert str(caught.value) == f"anchor ids must lie in [0, 5), {message}"

    @pytest.mark.parametrize(
        "values",
        [[], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32), [4, 0], np.array([4])],
    )
    def test_check_ids_passes_in_range_ids_as_int64(self, values):
        out = check_ids(values, 5, "anchor")
        assert out.dtype == np.int64
        assert out.tolist() == list(np.asarray(values).tolist())

    def test_check_ids_reads_an_int32_memmap(self, tmp_path):
        ids = np.lib.format.open_memmap(
            tmp_path / "ids.npy", mode="w+", dtype=np.int32, shape=(4,)
        )
        ids[:] = [3, 0, 4, 2]
        out = check_ids(ids, 5, "anchor")
        assert out.dtype == np.int64 and out.tolist() == [3, 0, 4, 2]
        ids[1] = -2
        with pytest.raises(IndexError) as caught:
            check_ids(ids[:2], 5, "anchor")
        assert str(caught.value) == "anchor ids must lie in [0, 5), got range [-2, 3]"

    def test_xavier_bounds(self, rng):
        data = xavier_uniform(rng, (100, 50))
        limit = np.sqrt(6.0 / 150)
        assert np.abs(data).max() <= limit

    def test_score_triples_numpy_matches_tensor_path(self):
        model = build_model("distmult", 10, 2, dim=4, seed=1)
        h = np.array([0, 3])
        r = np.array([1, 0])
        t = np.array([2, 7])
        tensor_scores = model.score_triples(h, r, t).data
        numpy_scores = model.score_triples_numpy(h, r, t)
        np.testing.assert_allclose(numpy_scores, tensor_scores, atol=1e-12)
