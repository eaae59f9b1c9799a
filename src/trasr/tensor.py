"""Dense tensors with reverse-mode automatic differentiation.

A graph runs in the dtype of its arrays: float32 for the models, float64
for the finite-difference checker. Tensor-tensor ops follow numpy's
promotion, but a Python scalar operand of `add` or `mul` (and so of `-`,
`/` and negation) takes the other operand's dtype, so a constant factor
such as 1/sqrt(d_k) never lifts a float32 graph to float64.

A graph is used up by its one backward pass: once a node's gradient has
gone to its inputs, the node drops its closure and its inputs, so what an
op saved is freed as soon as its last consumer's gradient exists, and the
root holds no graph afterwards. A second `backward()` through any node of
that graph raises `RuntimeError`.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

from .errors import MaskError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (teacher / eval passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops record a graph (False inside `no_grad`)."""
    return _grad_enabled


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An n-d array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ---------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Accumulate gradients of `self` into every reachable leaf."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not track gradients")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        # Pop the nodes in reverse topological order and cut each one loose
        # once it is done: its closure and parents go, so an array an op saved
        # is freed as soon as its last consumer's gradient exists.
        _accum(self, grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None  # free intermediate buffers
            node._backward = _used_up
            node._parents = ()

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(other, -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _used_up(g) -> None:
    """The backward of a node whose graph one backward pass has consumed."""
    raise RuntimeError("backward() through a graph that an earlier backward() used up")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap two operands; a Python scalar (int or float, np.float64 included)
    takes the dtype of a tensor on the other side."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a, b
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        a = np.asarray(a, dtype=b.dtype)
    elif isinstance(b, (int, float)) and isinstance(a, Tensor):
        b = np.asarray(b, dtype=a.dtype)
    return _wrap(a), _wrap(b)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = np.asarray(g)
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    if g.shape != t.data.shape:
        g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """An op's output. `data` already has its operands' float dtype, so the
    checks of `Tensor.__init__` are skipped; only a numpy scalar (what numpy
    returns for a 0-d result, such as a full `tsum`) is made an array."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


# -- elementwise and linear ops -----------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data + b.data

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a_shape} and {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a_shape} x {b_shape}")
    if len(b_shape) == 2:
        # a shared matrix: one GEMM over every row of a, not one per batch entry
        def rows(x):
            return x.reshape(-1, x.shape[-1])

        data = (rows(a.data) @ b.data).reshape(*a_shape[:-1], b_shape[-1])

        def backward(g):
            g = rows(g)
            _accum(a, (g @ b.data.T).reshape(a_shape))
            _accum(b, rows(a.data).T @ g)

        return _result(data, (a, b), backward)
    data = np.matmul(a.data, b.data)

    def backward(g):
        _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0)

    def backward(g):
        _accum(x, g * (x.data > 0))  # subgradient at 0 is 0

    return _result(data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)

    def backward(g):
        _accum(x, g * data)

    return _result(data, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.log(x.data)

    def backward(g):
        _accum(x, g / x.data)

    return _result(data, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(x, np.broadcast_to(g, x.shape))

    return _result(data, (x,), backward)


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x: Tensor, *shape) -> Tensor:
    x = _wrap(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.shape))

    return _result(data, (x,), backward)


def transpose(x: Tensor, *axes) -> Tensor:
    """Permute axes; with none given, swap the last two (leading axes are batch)."""
    x = _wrap(x)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    data = x.data.transpose(axes)

    def backward(g):
        _accum(x, g.transpose(np.argsort(axes)))

    return _result(data, (x,), backward)


def take(x: Tensor, index) -> Tensor:
    """Basic or integer-array indexing with gradient scatter-add."""
    x = _wrap(x)
    data = x.data[index]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        _accum(x, gx)

    return _result(data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool,
            lengths=None) -> Tensor:
    """Inverted dropout: kept values scaled by 1/(1-p); identity in eval mode.

    With `lengths`, row i draws only its first lengths[i] positions, rows in
    order (the draws of one call per unpadded row), and padding keeps scale 1.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    x = _wrap(x)
    keep = np.ones_like(x.data)
    blocks = [keep] if lengths is None else [row[:n] for row, n in zip(keep, lengths)]
    for block in blocks:
        block[...] = (rng.random(block.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    data = x.data * keep

    def backward(g):
        _accum(x, g * keep)

    return _result(data, (x,), backward)


# -- normalization and softmax ------------------------------------------


def masked_softmax(x: Tensor, mask: np.ndarray | None = None, axis: int = -1) -> Tensor:
    """Softmax over unmasked positions; masked positions are exactly 0.

    `mask` is boolean with True marking valid positions, broadcastable to x;
    None means every position is valid.
    """
    x = _wrap(x)
    if mask is None:
        if x.shape[axis] == 0:
            raise MaskError("softmax slice with every position masked")
        ex = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    else:
        mask = np.asarray(mask, dtype=bool)
        try:
            valid = np.broadcast_to(mask, x.shape)
        except ValueError as e:
            raise ShapeError(f"mask shape {mask.shape} not broadcastable to {x.shape}") from e
        if not valid.any(axis=axis).all():
            raise MaskError("softmax slice with every position masked")
        shifted = np.where(valid, x.data, np.finfo(x.data.dtype).min)
        ex = np.exp(shifted - shifted.max(axis=axis, keepdims=True)) * valid
    y = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(x, y * (g - inner))

    return _result(y, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        _accum(x, g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _result(data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    xd = x.data
    n = xd.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
                         f"do not match axis size {n}")

    def mean(a):
        # what ndarray.mean computes, without its Python-level wrapper
        return np.add.reduce(a, axis=-1, keepdims=True) / n

    xc = xd - mean(xd)
    inv = 1.0 / np.sqrt(mean(xc * xc) + 1e-12)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    reduce_axes = tuple(range(xd.ndim - 1))

    def backward(g):
        _accum(gain, (g * xhat).sum(axis=reduce_axes))
        _accum(bias, g.sum(axis=reduce_axes))
        gq = g * gain.data
        _accum(x, inv * (gq - mean(gq) - xhat * mean(gq * xhat)))

    return _result(data, (x, gain, bias), backward)


# -- convolution and pooling --------------------------------------------


def _patches(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The kh x kw windows of xp [B, C, H, W] at `stride`, one per column:
    [C·kh·kw, B·Ho·Wo] (im2col, Chellapilla et al. 2006)."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [B, C, Ho, Wo, kh, kw]
    B, C, Ho, Wo = win.shape[:4]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(C * kh * kw, B * Ho * Wo)


def _col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """The inverse of `_patches`: each column of cols [C·kh·kw, B·Ho·Wo]
    added back onto its window of an array of `shape` [B, C, H, W]."""
    B, C, H, W = shape
    Ho, Wo = (H - kh) // stride + 1, (W - kw) // stride + 1
    cols = cols.reshape(C, kh, kw, B, Ho, Wo)
    out = np.zeros(shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += \
                cols[:, i, j].transpose(1, 0, 2, 3)
    return out


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[B,C,H,W] with kernels[O,C,kh,kw]."""
    x, kernels = _wrap(x), _wrap(kernels)
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/kernels, got {x.shape} and {kernels.shape}")
    B, C, H, W = x.shape
    O, Ck, kh, kw = kernels.shape
    if Ck != C:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape}, kernels {kernels.shape}")
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d input {H}x{W} too short for kernel {kh}x{kw} stride {stride}")

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # one GEMM: kernels [O, C·kh·kw] @ patches [C·kh·kw, B·Ho·Wo]
    k2 = kernels.data.reshape(O, C * kh * kw)
    data = (k2 @ _patches(xp, kh, kw, stride)).reshape(O, B, Ho, Wo).transpose(1, 0, 2, 3)
    if bias is not None:
        bias = _wrap(bias)
        if bias.shape != (O,):
            raise ShapeError(f"conv2d bias shape {bias.shape} != ({O},)")
        data = data + bias.data.reshape(1, O, 1, 1)

    def backward(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(O, B * Ho * Wo)
        if x.requires_grad:
            # first, so that its buffers are freed before the patches are built
            _accum(x, _col2im(k2.T @ g2, xp.shape, kh, kw, stride)
                   [:, :, padding:padding + H, padding:padding + W])
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        if kernels.requires_grad:
            # the patches are built again, not kept alive from the forward pass
            _accum(kernels, (g2 @ _patches(xp, kh, kw, stride).T).reshape(kernels.shape))

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return _result(data, parents, backward)


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Max pooling over non-overlapping size x size windows; trailing partial
    windows dropped."""
    x = _wrap(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-d input, got {x.shape}")
    B, C, H, W = x.shape
    Ho, Wo = H // size, W // size
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"max_pool2d input {H}x{W} smaller than window {size}")
    crop = x.data[:, :, :Ho * size, :Wo * size]
    win = crop.reshape(B, C, Ho, size, Wo, size).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(B, C, Ho, Wo, size * size)
    idx = flat.argmax(axis=-1)
    data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gwin = gflat.reshape(B, C, Ho, Wo, size, size).transpose(0, 1, 2, 4, 3, 5)
        gx = np.zeros_like(x.data)
        gx[:, :, :Ho * size, :Wo * size] = gwin.reshape(B, C, Ho * size, Wo * size)
        _accum(x, gx)

    return _result(data, (x,), backward)
