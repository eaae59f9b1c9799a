"""Central finite-difference verification of analytic gradients: the
oracle that the gradient tests compare every op and model against."""

from typing import Callable

import numpy as np

from trasr.tensor import Tensor


class GradCheckError(RuntimeError):
    """Finite-difference check hit a non-finite value."""


def grad_check(f: Callable[[Tensor], Tensor], x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be scalar-valued. The check runs in float64 regardless of the
    dtype of `x`; relative error is |analytic - numeric| / max(1, |analytic|).
    """
    x64 = Tensor(np.asarray(x, dtype=np.float64).copy(), requires_grad=True)
    out = f(x64)
    if out.data.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise GradCheckError("non-finite function value at the base point")
    out.backward()
    analytic = x64.grad.reshape(-1).copy()

    flat = x64.data.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(x64.data.copy())).item()
        flat[i] = orig - eps
        lo = f(Tensor(x64.data.copy())).item()
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise GradCheckError(f"non-finite function value while perturbing coordinate {i}")
        numeric[i] = (hi - lo) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
