"""Finite-difference gradient checking for the autodiff substrate.

:func:`gradcheck` is the ground truth fused training is validated
against: the gradient equivalence tests first confirm (here) that the
autodiff gradients agree with central finite differences, then assert
that the fused backwards agree with autodiff to ~1e-9.  The chain
``finite differences -> autodiff -> fused`` is what "correct by
construction" means for :mod:`repro.models.fused`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.engine import Tensor


class GradcheckError(AssertionError):
    """Raised when an analytic gradient disagrees with finite differences."""


def gradcheck(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> float:
    """Compare backward-pass gradients of ``fn`` with central differences.

    ``fn`` takes no arguments, closes over ``params`` (leaf tensors with
    ``requires_grad``) and returns a scalar :class:`Tensor`.  Every element
    of every parameter is perturbed by ``+-eps`` and the analytic gradient
    must match ``(f(x + eps) - f(x - eps)) / (2 * eps)`` within
    ``atol + rtol * |fd|``.  Returns the worst absolute error seen; raises
    :class:`GradcheckError` on the first violating element.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.autodiff.engine import parameter, square, sum_
    >>> from repro.autodiff.gradcheck import gradcheck
    >>> x = parameter(np.array([1.0, -2.0, 0.5]))
    >>> gradcheck(lambda: sum_(square(x)), [x]) < 1e-8
    True

    A broken backward rule is caught:

    >>> from repro.autodiff.engine import Tensor
    >>> y = parameter(np.array([2.0]))
    >>> def wrong_double():
    ...     # claims d(2y)/dy = 3 instead of 2
    ...     return Tensor(
    ...         2.0 * y.data,
    ...         parents=(y,),
    ...         backward=lambda grad: y.accumulate_grad(3.0 * grad),
    ...     )
    >>> gradcheck(wrong_double, [y])
    Traceback (most recent call last):
        ...
    repro.autodiff.gradcheck.GradcheckError: ...
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    for param in params:
        if not param.requires_grad:
            raise ValueError("gradcheck parameters must require gradients")
        param.zero_grad()

    loss = fn()
    if loss.data.size != 1:
        raise ValueError("fn must return a scalar Tensor")
    loss.backward()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]
    for param in params:
        param.zero_grad()

    worst = 0.0
    for index, param in enumerate(params):
        flat = param.data.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = fn().data.item()
            flat[i] = original - eps
            minus = fn().data.item()
            flat[i] = original
            fd = (plus - minus) / (2.0 * eps)
            an = float(analytic[index].reshape(-1)[i])
            error = abs(an - fd)
            worst = max(worst, error)
            if error > atol + rtol * abs(fd):
                raise GradcheckError(
                    f"parameter {index}, element {i}: analytic gradient {an!r} "
                    f"vs finite difference {fd!r} (error {error:.3e})"
                )
    return worst
