"""First-order optimizers over autodiff parameter tensors.

Adam (the paper's training optimizer, Appendix D), Adagrad and plain SGD.
State is kept per parameter tensor in the order the model registered them,
so an optimizer is bound to exactly one model's parameter list.

Every optimizer has one update rule, applied to a set of rows of each
parameter (:meth:`Optimizer._update`), and two ways to drive it:

* :meth:`Optimizer.step` — the dense step over ``param.grad``, used by
  the autodiff training path: every row at once;
* :meth:`Optimizer.step_rows` — sparse row-indexed updates for fused
  training (:mod:`repro.models.fused`): gradients arrive as
  ``(param, rows, row_grads)`` triples touching only the embedding rows of
  one batch.  Duplicate row indices are accumulated first
  (:func:`coalesce_rows`), then state and parameters are updated for the
  touched rows only.  For stateful optimizers this is the standard *lazy*
  semantics (as in torch's SparseAdam): momentum/second-moment decay is
  applied to a row only when it is touched, so a sparse trajectory equals
  the dense one bitwise whenever every row is touched every step, and
  diverges only through stale decay on untouched rows.

Optimizer state always lives in the parameters' dtype, so float32 models
keep float32 moments.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.autodiff.engine import Tensor, stack_parameters

Array = np.ndarray

#: Names accepted by :func:`build_optimizer` (and validated eagerly by
#: :class:`~repro.models.training.TrainingConfig`).
OPTIMIZERS = ("adagrad", "adam", "sgd")

#: One sparse gradient: (parameter tensor, row indices, per-row gradients).
#: Row indices may repeat; ``step_rows`` accumulates duplicates.
RowUpdate = tuple[Tensor, Array, Array]


def coalesce_rows(rows: Array, grads: Array) -> tuple[Array, Array]:
    """Sum gradients of duplicate row indices.

    Returns ``(unique_rows, summed_grads)`` with rows sorted ascending.
    A batch touches the same embedding row many times (every positive
    shares its relation row with its negatives, popular entities recur),
    and applying a stateful update once per *occurrence* instead of once
    per *row* would be wrong — this is the accumulation step that makes
    sparse and dense updates agree.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or grads.shape[0] != rows.shape[0]:
        raise ValueError(
            f"rows must be (n,) matching grads' first axis, got {rows.shape} "
            f"vs {grads.shape}"
        )
    unique, inverse = np.unique(rows, return_inverse=True)
    if unique.shape[0] == rows.shape[0]:
        # Already duplicate-free; the sort implied by np.unique suffices.
        return unique, grads[np.argsort(rows, kind="stable")]
    flat = grads.reshape(rows.shape[0], -1)
    # Segment-sum as a sparse matmul: one CSR row per unique index, one
    # column per occurrence.  ~4x faster than the unbuffered np.add.at.
    selector = sparse.csr_matrix(
        (
            np.ones(rows.shape[0], dtype=flat.dtype),
            (inverse, np.arange(rows.shape[0])),
        ),
        shape=(unique.shape[0], rows.shape[0]),
    )
    summed = selector @ flat
    return unique, summed.reshape((unique.shape[0],) + grads.shape[1:])


class Optimizer:
    """Shared bookkeeping for gradient-based optimizers."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = stack_parameters(params)
        self.lr = lr
        self.weight_decay = weight_decay
        #: Calls of :meth:`step` and :meth:`step_rows` so far.
        self._steps = 0
        self._index = {id(param): i for i, param in enumerate(self.params)}

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def _slot(self, param: Tensor) -> int:
        try:
            return self._index[id(param)]
        except KeyError:
            raise KeyError(
                "step_rows received a tensor this optimizer is not bound to"
            ) from None

    def _decayed(self, param: Tensor, rows: Array | slice, grads: Array) -> Array:
        if self.weight_decay > 0.0:
            return grads + self.weight_decay * param.data[rows]
        return grads

    def step(self) -> None:
        """Update every parameter with a gradient from its dense ``grad``.

        A dense gradient has no duplicate rows, so it goes to the update
        rule as is, with every row selected."""
        self._steps += 1
        every = slice(None)  # a basic slice: the rule reads and writes views
        for slot, param in enumerate(self.params):
            if param.grad is not None:
                self._update(slot, param, every, self._decayed(param, every, param.grad))

    def step_rows(self, updates: list[RowUpdate]) -> None:
        """Update the rows named by each ``(param, rows, row_grads)``,
        duplicate rows summed first (:func:`coalesce_rows`)."""
        self._steps += 1
        for param, rows, grads in updates:
            slot = self._slot(param)
            rows, grads = coalesce_rows(rows, grads)
            if rows.size:
                self._update(slot, param, rows, self._decayed(param, rows, grads))

    def _update(self, slot: int, param: Tensor, rows: Array | slice, grads: Array) -> None:
        """The update rule: apply ``grads`` (decay included) to ``rows`` of
        ``param``, whose state sits at index ``slot``."""
        raise NotImplementedError


class SGD(Optimizer):
    """Vanilla stochastic gradient descent (optional momentum)."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _update(self, slot: int, param: Tensor, rows: Array | slice, grads: Array) -> None:
        if self.momentum > 0.0:
            velocity = self._velocity[slot]
            rolled = self.momentum * velocity[rows] + grads
            velocity[rows] = rolled
            update = rolled
        else:
            update = grads
        param.data[rows] -= self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _update(self, slot: int, param: Tensor, rows: Array | slice, grads: Array) -> None:
        bias1 = 1.0 - self.beta1**self._steps
        bias2 = 1.0 - self.beta2**self._steps
        m, v = self._m[slot], self._v[slot]
        m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * grads
        v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * grads * grads
        m[rows] = m_rows
        v[rows] = v_rows
        param.data[rows] -= self.lr * (m_rows / bias1) / (np.sqrt(v_rows / bias2) + self.eps)


class Adagrad(Optimizer):
    """Adagrad (Duchi et al., 2011): per-coordinate adaptive learning rates.

    A natural fit for sparse embedding training — rarely touched rows keep
    large effective learning rates — which is why it ships alongside the
    row-indexed update path.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 0.1,
        eps: float = 1e-10,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.eps = eps
        self._sum_sq = [np.zeros_like(p.data) for p in self.params]

    def _update(self, slot: int, param: Tensor, rows: Array | slice, grads: Array) -> None:
        sum_sq = self._sum_sq[slot]
        rolled = sum_sq[rows] + grads * grads
        sum_sq[rows] = rolled
        param.data[rows] -= self.lr * grads / (np.sqrt(rolled) + self.eps)


def build_optimizer(name: str, params: list[Tensor], lr: float, **kwargs) -> Optimizer:
    """Factory: ``"adam"``, ``"adagrad"`` or ``"sgd"``."""
    name = name.lower()
    if name == "adam":
        return Adam(params, lr=lr, **kwargs)
    if name == "adagrad":
        return Adagrad(params, lr=lr, **kwargs)
    if name == "sgd":
        return SGD(params, lr=lr, **kwargs)
    raise KeyError(
        f"unknown optimizer {name!r}; available: {', '.join(OPTIMIZERS)}"
    )
