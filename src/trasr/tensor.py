"""Dense tensors with reverse-mode automatic differentiation.

A graph runs in the dtype of its arrays: float32 for the models, float64
for the finite-difference checker. Tensor-tensor ops follow numpy's
promotion, but a Python scalar operand of `add` or `mul` (and so of `-`,
`/` and negation) takes the other operand's dtype, so a constant factor
such as 1/sqrt(d_k) never lifts a float32 graph to float64.

Values and nodes. A `Tensor` is a value: its array `data`, and the node
through which it joins a graph. An op output that tracks gradients gets a
small `_Node` that holds only what backward needs of it: its gradient, its
parents (nodes, never values), its backward, and the shape and dtype that
`_accum` casts and sums a gradient down to. A leaf that tracks gradients (a
parameter) has a node with no parents and no backward; a value that tracks
none shares `_UNTRACKED`. Every op ends in one `_result` call that gives
the output's array and one gradient map per operand, and the node keeps
only the maps of the operands that track gradients. So the graph holds no
op output's array: a map captures exactly the arrays its operand's
gradient reads (`relu`, `exp` and the softmaxes their own output, each
operand of `mul`, `matmul` and `conv2d` the other one's array, `add` and
the shape ops none), and every other array, including one that only an
untracked operand's map reads, is freed as soon as the forward code drops
it.

A graph is used up by its one backward pass: once a node's gradient has
gone to its inputs, the node drops its backward, with its maps, and its
parents, so what an op saved is freed as soon as its last consumer's
gradient exists, and the root holds no graph afterwards. A second
`backward()` through any node of that graph raises `RuntimeError`.

Leaves are visited as soon as their gradient is final. `backward` orders
the graph depth-first and places each leaf right after its last consumer,
so it reaches the leaf, and calls `on_leaf` with its node, before any other
node's backward runs (`optim.adam_step` applies a parameter's update
there). This moves only leaves: every node's gradient sums its consumers'
parts in the order a plain depth-first walk gives.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from .errors import MaskError, NotBackpropagatedError, ShapeError

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


class _Node:
    """A value's place in a graph; it holds no array of the value."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "shape", "dtype")

    def __init__(self, shape: tuple, dtype, parents: tuple = (), backward=None):
        self.grad: np.ndarray | None = None
        self.requires_grad = True
        self._parents = parents
        self._backward = backward
        self.shape = shape
        self.dtype = dtype


_UNTRACKED = _Node((), None)  # shared by every value that tracks no gradient
_UNTRACKED.requires_grad = False


class Tensor:
    """An n-d array plus the node that tracks its gradient, if any."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self._node = _UNTRACKED
        if requires_grad and _grad_enabled:
            self.requires_grad = True

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        """True makes an untracked value a leaf; False detaches it."""
        if not flag:
            self._node = _UNTRACKED
        elif self._node is _UNTRACKED:
            self._node = _Node(self.data.shape, self.data.dtype)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, g) -> None:
        if self._node.requires_grad:
            self._node.grad = g
        elif g is not None:
            raise RuntimeError("a tensor that does not track gradients holds no gradient")

    @property
    def _backward(self):
        return self._node._backward

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ---------------------------------------------------------

    def backward(self, grad=None, on_leaf: Callable[[_Node], None] | None = None,
                 required: Iterable[tuple[str, Tensor]] = ()) -> None:
        """Accumulate gradients of `self` into every reachable leaf.

        `on_leaf(node)` is called once for each reached leaf's node, as soon
        as its gradient is final. Each (name, tensor) pair of `required` must
        be reached: for the first that is not, `NotBackpropagatedError`
        names it before any gradient is computed.
        """
        root = self._node
        if not root.requires_grad:
            raise RuntimeError("backward() on a tensor that does not track gradients")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Depth-first post-order over the op nodes; a leaf goes in just
        # before the first of its consumers to finish, which is the last one
        # reversed order reaches.
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, finished = stack.pop()
            if finished:
                for p in node._parents:
                    if p._backward is None and id(p) not in seen:
                        seen.add(id(p))
                        topo.append(p)
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _used_up:
                _used_up()
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        for name, t in required:
            if id(t._node) not in seen:
                raise NotBackpropagatedError(
                    f"parameter {name!r} has no gradient: backward does not reach it")

        # Pop the nodes in reverse topological order and cut each one loose
        # once it is done: its backward and parents go, so an array an op saved
        # is freed as soon as its last consumer's gradient exists.
        _accum(root, grad)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf, all of its consumers done
                if on_leaf is not None:
                    on_leaf(node)
                continue
            if node.grad is not None:
                node._backward(node.grad)
                if node is not root:
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

    def __getitem__(self, index):
        return take(self, index)


def _used_up(g=None) -> None:
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


def _accum(node: _Node, g: np.ndarray) -> None:
    """Add `g`, cast and summed down to the node's dtype and shape, into the
    gradient of a node that tracks one (`_result` keeps no other)."""
    g = np.asarray(g)
    if g.dtype != node.dtype:
        g = g.astype(node.dtype)
    if g.shape != node.shape:
        g = _unbroadcast(g, node.shape)
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def _result(data: np.ndarray, *inputs: tuple[_Node, Callable]) -> Tensor:
    """An op's output, given one (node, grad_map) pair per operand, where
    `grad_map(g)` maps the output's gradient to that operand's part.

    `data` already has its operands' float dtype, so the checks of
    `Tensor.__init__` are skipped; only a numpy scalar (what numpy returns
    for a 0-d result, such as a full `tsum`) is made an array. A node is made
    only while gradients are recorded and some operand tracks one, and it
    keeps only the maps of those operands, so an array that only another
    operand's map reads is freed with that map. Its backward runs the kept
    maps in operand order."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    if _grad_enabled:
        parents = tuple([node for node, _ in inputs if node.requires_grad])
        if parents:
            kept = inputs if len(parents) == len(inputs) else \
                [pair for pair in inputs if pair[0].requires_grad]

            def backward(g):
                for node, grad_map in kept:
                    _accum(node, grad_map(g))

            out._node = _Node(out.data.shape, out.data.dtype, parents, backward)
            return out
    out._node = _UNTRACKED
    return out


def _same(g: np.ndarray) -> np.ndarray:
    return g


def _rows(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


# -- elementwise and linear ops -----------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    return _result(a.data + b.data, (a._node, _same), (b._node, _same))


def mul(a, b) -> Tensor:
    a, b = _wrap_pair(a, b)
    ad, bd = a.data, b.data
    return _result(ad * bd, (a._node, lambda g: g * bd), (b._node, lambda g: g * ad))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a_shape} and {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a_shape} x {b_shape}")
    ad, bd = a.data, b.data
    if len(b_shape) == 2:
        # a shared matrix: one GEMM over every row of a, not one per batch entry
        return _result((_rows(ad) @ bd).reshape(*a_shape[:-1], b_shape[-1]),
                       (a._node, lambda g: (_rows(g) @ bd.T).reshape(a_shape)),
                       (b._node, lambda g: _rows(ad).T @ _rows(g)))
    return _result(np.matmul(ad, bd),
                   (a._node, lambda g: np.matmul(g, np.swapaxes(bd, -1, -2))),
                   (b._node, lambda g: np.matmul(np.swapaxes(ad, -1, -2), g)))


def relu(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0)
    # x > 0 exactly where relu(x) > 0; subgradient 0 at 0
    return _result(data, (x._node, lambda g: g * (data > 0)))


def exp(x: Tensor) -> Tensor:
    x = _wrap(x)
    data = np.exp(x.data)
    return _result(data, (x._node, lambda g: g * data))


def log(x: Tensor) -> Tensor:
    x = _wrap(x)
    xd = x.data
    return _result(np.log(xd), (x._node, lambda g: g / xd))


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    shape, expand = x.data.shape, axis is not None and not keepdims

    def grad_x(g):
        return np.broadcast_to(np.expand_dims(g, axis) if expand else g, shape)

    return _result(x.data.sum(axis=axis, keepdims=keepdims), (x._node, grad_x))


def tmean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _wrap(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x: Tensor, *shape) -> Tensor:
    x = _wrap(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    x_shape = x.data.shape
    return _result(x.data.reshape(shape), (x._node, lambda g: g.reshape(x_shape)))


def transpose(x: Tensor, *axes) -> Tensor:
    """Permute axes; with none given, swap the last two (leading axes are batch)."""
    x = _wrap(x)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return _result(x.data.transpose(axes), (x._node, lambda g: g.transpose(np.argsort(axes))))


def take(x: Tensor, index) -> Tensor:
    """Basic or integer-array indexing with gradient scatter-add."""
    x = _wrap(x)
    shape, dtype = x.data.shape, x.data.dtype

    def grad_x(g):
        gx = np.zeros(shape, dtype)
        np.add.at(gx, index, g)
        return gx

    return _result(x.data[index], (x._node, grad_x))


def dropout(x: Tensor, p: float, rng: np.random.Generator, lengths=None) -> Tensor:
    """Inverted dropout: kept values scaled by 1/(1-p); identity at p = 0.

    With `lengths`, row i draws only its first lengths[i] positions, rows in
    order (the draws of one call per unpadded row), and padding keeps scale 1.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    x = _wrap(x)
    keep = np.ones_like(x.data)
    blocks = [keep] if lengths is None else [row[:n] for row, n in zip(keep, lengths)]
    for block in blocks:
        block[...] = (rng.random(block.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return _result(x.data * keep, (x._node, lambda g: g * keep))


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
    return _result(y, (x._node, lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True))))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    return _result(data, (x._node, lambda g: g - np.exp(data) * g.sum(axis=axis, keepdims=True)))


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
    gd = gain.data
    reduce_axes = tuple(range(xd.ndim - 1))

    def grad_x(g):
        gq = g * gd
        return inv * (gq - mean(gq) - xhat * mean(gq * xhat))

    return _result(xhat * gd + bias.data,
                   (gain._node, lambda g: (g * xhat).sum(axis=reduce_axes)),
                   (bias._node, lambda g: g.sum(axis=reduce_axes)),
                   (x._node, grad_x))


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
    bias_input = ()
    if bias is not None:
        bias = _wrap(bias)
        if bias.shape != (O,):
            raise ShapeError(f"conv2d bias shape {bias.shape} != ({O},)")
        data = data + bias.data.reshape(1, O, 1, 1)
        bias_input = ((bias._node, lambda g: g.sum(axis=(0, 2, 3))),)
    xp_shape, k_shape = xp.shape, kernels.shape

    def cols(g):
        return g.transpose(1, 0, 2, 3).reshape(O, B * Ho * Wo)

    # the input's map runs first, so that its buffers are freed before the
    # kernels' map builds the patches again (they are not kept from forward)
    return _result(data,
                   (x._node, lambda g: _col2im(k2.T @ cols(g), xp_shape, kh, kw, stride)
                    [:, :, padding:padding + H, padding:padding + W]),
                   *bias_input,
                   (kernels._node,
                    lambda g: (cols(g) @ _patches(xp, kh, kw, stride).T).reshape(k_shape)))


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
    flat_shape, shape, dtype = flat.shape, x.data.shape, x.data.dtype

    def grad_x(g):
        gflat = np.zeros(flat_shape, dtype)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gwin = gflat.reshape(B, C, Ho, Wo, size, size).transpose(0, 1, 2, 4, 3, 5)
        gx = np.zeros(shape, dtype)
        gx[:, :, :Ho * size, :Wo * size] = gwin.reshape(B, C, Ho * size, Wo * size)
        return gx

    return _result(data, (x._node, grad_x))
