"""Optimizers: convergence on a quadratic, state handling, validation,
and the sparse row-indexed update path the fused kernels drive."""

import numpy as np
import pytest

from repro.autodiff.engine import parameter, square, sum_
from repro.models.optim import SGD, Adagrad, Adam, build_optimizer, coalesce_rows


def quadratic_steps(optimizer_factory, steps=200):
    """Minimise ||x - 3||^2 and return the final parameter."""
    x = parameter(np.array([10.0, -10.0]))
    optimizer = optimizer_factory([x])
    for _ in range(steps):
        loss = sum_(square(x - 3.0))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return x.data


class TestSGD:
    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: SGD(p, lr=0.1))
        np.testing.assert_allclose(final, [3.0, 3.0], atol=1e-3)

    def test_momentum_accelerates(self):
        plain = quadratic_steps(lambda p: SGD(p, lr=0.01), steps=50)
        momentum = quadratic_steps(lambda p: SGD(p, lr=0.01, momentum=0.9), steps=50)
        assert abs(momentum - 3.0).max() < abs(plain - 3.0).max()

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD([parameter(np.zeros(1))], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: Adam(p, lr=0.3))
        np.testing.assert_allclose(final, [3.0, 3.0], atol=1e-2)

    def test_skips_parameters_without_grad(self):
        used = parameter(np.array([1.0]))
        unused = parameter(np.array([7.0]))
        optimizer = Adam([used, unused], lr=0.1)
        loss = sum_(square(used))
        loss.backward()
        optimizer.step()
        assert unused.data[0] == 7.0
        assert used.data[0] != 1.0

    def test_weight_decay_shrinks_parameters(self):
        x = parameter(np.array([5.0]))
        optimizer = Adam([x], lr=0.1, weight_decay=1.0)
        for _ in range(100):
            loss = sum_(square(x - 5.0))  # pull toward 5, decay toward 0
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert 0.0 < x.data[0] < 5.0

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam([parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_negative_weight_decay_rejected(self):
        with pytest.raises(ValueError):
            Adam([parameter(np.zeros(1))], lr=0.1, weight_decay=-0.1)


class TestAdagrad:
    def test_converges_on_quadratic(self):
        final = quadratic_steps(lambda p: Adagrad(p, lr=1.0), steps=400)
        np.testing.assert_allclose(final, [3.0, 3.0], atol=1e-2)

    def test_effective_rate_shrinks(self):
        """The accumulated square sum monotonically damps the step size."""
        x = parameter(np.array([10.0]))
        optimizer = Adagrad([x], lr=1.0)
        steps = []
        for _ in range(3):
            before = x.data.copy()
            loss = sum_(square(x))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            steps.append(abs(float((x.data - before)[0])))
        assert steps[0] > steps[1] > steps[2]


class TestFactory:
    def test_builds_all(self):
        params = [parameter(np.zeros(1))]
        assert isinstance(build_optimizer("adam", params, lr=0.1), Adam)
        assert isinstance(build_optimizer("SGD", params, lr=0.1), SGD)
        assert isinstance(build_optimizer("adagrad", params, lr=0.1), Adagrad)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build_optimizer("lbfgs", [parameter(np.zeros(1))], lr=0.1)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([parameter(np.zeros(1))], lr=0.0)


class TestCoalesceRows:
    def test_duplicates_are_summed(self):
        rows = np.asarray([3, 1, 3, 1, 3])
        grads = np.asarray([[1.0], [10.0], [2.0], [20.0], [4.0]])
        unique, summed = coalesce_rows(rows, grads)
        np.testing.assert_array_equal(unique, [1, 3])
        np.testing.assert_allclose(summed, [[30.0], [7.0]])

    def test_unique_rows_pass_through_sorted(self):
        rows = np.asarray([5, 2, 9])
        grads = np.asarray([[1.0], [2.0], [3.0]])
        unique, summed = coalesce_rows(rows, grads)
        np.testing.assert_array_equal(unique, [2, 5, 9])
        np.testing.assert_allclose(summed, [[2.0], [1.0], [3.0]])

    def test_higher_rank_grads(self):
        """RESCAL-style (n, d, d) gradients coalesce along axis 0."""
        rows = np.asarray([0, 0, 1])
        grads = np.arange(12, dtype=float).reshape(3, 2, 2)
        unique, summed = coalesce_rows(rows, grads)
        np.testing.assert_array_equal(unique, [0, 1])
        np.testing.assert_allclose(summed[0], grads[0] + grads[1])
        np.testing.assert_allclose(summed[1], grads[2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coalesce_rows(np.asarray([[0, 1]]), np.zeros((2, 3)))


#: One optimizer factory per update rule, used by the sparse/dense grid.
_FACTORIES = {
    "sgd": lambda p: SGD(p, lr=0.1),
    "sgd-momentum": lambda p: SGD(p, lr=0.1, momentum=0.9),
    "sgd-decay": lambda p: SGD(p, lr=0.1, weight_decay=0.01),
    "adagrad": lambda p: Adagrad(p, lr=0.5),
    "adam": lambda p: Adam(p, lr=0.1),
    "adam-decay": lambda p: Adam(p, lr=0.1, weight_decay=0.01),
}


class TestStepRows:
    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    def test_sparse_equals_dense_on_a_dense_batch(self, kind):
        """Touching every row every step, step_rows must equal step bitwise,
        for float64 and float32 tables and for 1-D parameters."""
        for shape, dtype in (((6, 4), np.float64), ((6, 4), np.float32), ((6,), np.float64)):
            rng = np.random.default_rng(0)
            table = rng.standard_normal(shape).astype(dtype)
            grads = [rng.standard_normal(shape).astype(dtype) for _ in range(5)]

            dense_param = parameter(table.copy())
            dense = _FACTORIES[kind]([dense_param])
            sparse_param = parameter(table.copy())
            sparse = _FACTORIES[kind]([sparse_param])
            rows = np.arange(shape[0])
            for grad in grads:
                dense_param.grad = grad.copy()
                dense.step()
                dense_param.zero_grad()
                sparse.step_rows([(sparse_param, rows, grad.copy())])
            assert sparse_param.data.dtype == dense_param.data.dtype == dtype
            np.testing.assert_array_equal(sparse_param.data, dense_param.data)

    @pytest.mark.parametrize("kind", sorted(_FACTORIES))
    def test_duplicate_rows_accumulate_before_state(self, kind):
        """Duplicate indices must behave as one summed gradient, not as
        repeated state updates (the Adagrad/Adam trap)."""
        rng = np.random.default_rng(1)
        table = rng.standard_normal((4, 3))
        dup_rows = np.asarray([2, 0, 2])
        dup_grads = rng.standard_normal((3, 3))

        a_param = parameter(table.copy())
        a = _FACTORIES[kind]([a_param])
        a.step_rows([(a_param, dup_rows, dup_grads.copy())])

        b_param = parameter(table.copy())
        b = _FACTORIES[kind]([b_param])
        unique, summed = coalesce_rows(dup_rows, dup_grads)
        b.step_rows([(b_param, unique, summed)])
        np.testing.assert_allclose(a_param.data, b_param.data, atol=1e-12)

    def test_zero_gradient_step_is_noop_for_sgd(self):
        param = parameter(np.ones((3, 2)))
        optimizer = SGD([param], lr=0.5)
        optimizer.step_rows([(param, np.asarray([1]), np.zeros((1, 2)))])
        np.testing.assert_array_equal(param.data, np.ones((3, 2)))

    def test_empty_rows_are_noop(self):
        param = parameter(np.ones((3, 2)))
        optimizer = Adam([param], lr=0.5)
        optimizer.step_rows([(param, np.empty(0, dtype=np.int64), np.empty((0, 2)))])
        np.testing.assert_array_equal(param.data, np.ones((3, 2)))

    def test_dense_step_skips_none_grads(self):
        """A parameter whose grad is None is untouched (zero-grad step)."""
        used = parameter(np.ones(2))
        idle = parameter(np.ones(2))
        optimizer = Adagrad([used, idle], lr=0.5)
        used.grad = np.ones(2)
        optimizer.step()
        assert (used.data != 1.0).all()
        np.testing.assert_array_equal(idle.data, np.ones(2))

    @pytest.mark.parametrize("kind", ["sgd-momentum", "adagrad", "adam"])
    def test_state_dtype_follows_float32_params(self, kind):
        param = parameter(np.ones((4, 2), dtype=np.float32))
        optimizer = _FACTORIES[kind]([param])
        optimizer.step_rows(
            [(param, np.asarray([0, 2]), np.ones((2, 2), dtype=np.float32))]
        )
        assert param.data.dtype == np.float32
        state = {
            "sgd-momentum": getattr(optimizer, "_velocity", None),
            "adagrad": getattr(optimizer, "_sum_sq", None),
            "adam": getattr(optimizer, "_m", None),
        }[kind]
        assert state[0].dtype == np.float32

    def test_unbound_tensor_rejected(self):
        param = parameter(np.ones(2))
        stranger = parameter(np.ones(2))
        optimizer = SGD([param], lr=0.1)
        with pytest.raises(KeyError, match="not bound"):
            optimizer.step_rows([(stranger, np.asarray([0]), np.ones((1,)))])
