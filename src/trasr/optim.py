"""Named parameter store, warmup learning-rate schedule, and Adam."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError
from .tensor import Tensor


class ParameterStore:
    """Ordered map of dotted names to grad-tracked tensors."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._entries[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Name -> the live parameter array (not a copy), in name order."""
        return {name: t.data for name, t in self.items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        mine, theirs = set(self._entries), set(state)
        if mine != theirs:
            missing = sorted(mine - theirs)
            extra = sorted(theirs - mine)
            raise ShapeError(f"parameter set mismatch: missing={missing} extra={extra}")
        for name, arr in state.items():
            t = self._entries[name]
            if t.data.shape != arr.shape:
                raise ShapeError(f"shape mismatch for {name!r}: {t.data.shape} vs {arr.shape}")
            if not np.isfinite(arr).all():
                raise FormatError(f"entry {name!r} holds a non-finite value")
            np.copyto(t.data, arr)  # in place, cast to the parameter's dtype


def warmup_lr(step: int, scale: float, d_att: int, warmup_steps: int) -> float:
    """Noam-style rate: scale * d_att^-1/2 * min(step^-1/2, step * warmup^-3/2)."""
    if step < 1:
        raise ValueError(f"schedule step must be >= 1, got {step}")
    return scale * d_att ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
ADAM_SLICE = 65536  # elements per slice of `_adam_update`


@dataclass
class AdamState:
    """All of Adam's state: the rate of each step (`lr(step)`, step >= 1), the
    number of steps taken, and the first and second moments by parameter name."""

    lr: Callable[[int], float]
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: ParameterStore, state: AdamState, loss: Tensor) -> None:
    """One Adam update of every parameter, with bias correction, from the
    gradients of `loss`.

    The step runs `loss.backward()` and applies each parameter's update
    inside it, as soon as backward has finished that gradient (as in LOMO,
    Lv et al. 2023), then drops the gradient, so the gradients of all
    parameters never exist at once. Every op that reads a parameter has run
    its backward by then, so the update in place changes no gradient. A
    parameter that the graph does not reach raises `NotBackpropagatedError`
    before anything changes.
    """
    step = state.step + 1
    lr = state.lr(step)
    names = {id(t._node): name for name, t in params.items()}

    def update(node):
        name = names.get(id(node))
        if name is not None:
            _adam_update(state, name, params[name].data, node.grad, step, lr)
            node.grad = None

    loss.backward(on_leaf=update, required=params.items())
    state.step = step


def _adam_update(state: AdamState, name: str, x: np.ndarray, g: np.ndarray,
                 step: int, lr: float) -> None:
    """Adam on the parameter array x, in place, from its gradient g, over
    `ADAM_SLICE`-element slices, so that its temporaries stay a slice in size."""
    m = state.m.get(name)
    v = state.v.get(name)
    if m is None:
        m = state.m[name] = np.zeros_like(x)
        v = state.v[name] = np.zeros_like(x)
    if all(a.flags.c_contiguous for a in (x, m, v)):  # else a flat view would be a copy
        x, m, v, g = (a.reshape(-1) for a in (x, m, v, g))
    for i in range(0, len(x), ADAM_SLICE):
        s = slice(i, i + ADAM_SLICE)
        _adam_slice(x[s], m[s], v[s], g[s], step, lr)


def _adam_slice(x, m, v, g, step: int, lr: float) -> None:
    b1, b2, eps = BETA1, BETA2, EPSILON
    # in place, but in the operation order of m = b1*m + (1-b1)*g,
    # v = b2*v + (1-b2)*g*g, x -= lr*mhat / (sqrt(vhat) + eps): bit-identical
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    upd = m / (1.0 - b1 ** step)
    upd *= lr
    denom = np.sqrt(v / (1.0 - b2 ** step))
    denom += eps
    upd /= denom
    x -= upd
