"""Autodiff core: forward values against closed forms, gradients against
central finite differences, and the documented error behavior."""

import contextlib
import weakref

import numpy as np
import pytest

import trasr.tensor as T
from trasr import losses
from trasr.errors import MaskError, ShapeError
from trasr.tensor import Tensor

from gradcheck import grad_check

SEEDS = (0, 1, 2)


def check(f, x, tol, eps=1e-5):
    err = grad_check(f, x, eps=eps)
    assert err < tol, f"gradient error {err} >= {tol}"


# -- elementary ops ---------------------------------------------------------


def test_add_mul_forward():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    assert np.allclose((a + b).data, [4.0, 6.0])
    assert np.allclose((a * b).data, [3.0, 8.0])
    assert np.allclose((a - b).data, [-2.0, -2.0])
    assert np.allclose((-a).data, [-1.0, -2.0])
    assert np.allclose((a / 2.0).data, [0.5, 1.0])
    with pytest.raises(TypeError):
        a / b  # tensor/tensor division is deliberately unsupported


@pytest.mark.parametrize("seed", SEEDS)
def test_add_broadcast_grad(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=3)
    check(lambda x: T.tsum(T.exp(x + Tensor(b))), rng.normal(size=(2, 3)), 1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_grad(seed):
    rng = np.random.default_rng(seed)
    other = rng.normal(size=(4, 3))
    check(lambda x: T.tsum(x * Tensor(other)), rng.normal(size=(4, 3)), 1e-6)


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grad_3x4_4x2(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(4, 2))
    check(lambda x: T.tsum(T.matmul(x, Tensor(b))), rng.normal(size=(3, 4)), 1e-4)
    a = rng.normal(size=(3, 4))
    check(lambda x: T.tsum(T.matmul(Tensor(a), x)), rng.normal(size=(4, 2)), 1e-4)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))
    assert "(3, 4)" in str(e.value) and "(5, 2)" in str(e.value)


def test_relu_values_and_subgradient_at_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    y = T.relu(x)
    assert np.array_equal(y.data, [0.0, 0.0, 2.0])
    T.tsum(y).backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_log_grads(seed):
    rng = np.random.default_rng(seed)
    check(lambda x: T.tsum(T.exp(x)), rng.normal(size=5), 1e-6)
    check(lambda x: T.tsum(T.log(x)), rng.uniform(0.5, 2.0, size=5), 1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_mean_axis_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    check(lambda t: T.tsum(T.exp(T.tsum(t, axis=0))), x, 1e-6)
    check(lambda t: T.tsum(T.exp(T.tmean(t, axis=1))), x, 1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_transpose_take_concat_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 6))
    check(lambda t: T.tsum(T.exp(T.reshape(t, 3, 4))), x, 1e-6)
    check(lambda t: T.tsum(T.exp(T.transpose(t))), x, 1e-6)
    check(lambda t: T.tsum(T.exp(t[:, 1:4])), x, 1e-6)
    check(lambda t: T.tsum(T.exp(t)) + T.tsum(T.exp(t * 2.0)), x, 1e-6)


def test_take_scatter_accumulates_repeated_indices():
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = T.take(x, np.array([1, 1, 2]))
    T.tsum(y).backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_embedding_lookup_grad_accumulates_rows():
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    out = T.take(table, np.array([0, 2, 0]))
    T.tsum(out).backward()
    assert np.array_equal(table.grad, [[2, 2], [0, 0], [1, 1]])


# -- dtype rule -------------------------------------------------------------

SCALAR_EXPRESSIONS = {
    "t * 0.5": lambda t: t * 0.5,
    "0.5 * t": lambda t: 0.5 * t,
    "t * np.float64(0.5)": lambda t: t * np.float64(0.5),
    "t + 1": lambda t: t + 1,
    "t + 1.0": lambda t: t + 1.0,
    "1 - t": lambda t: 1 - t,
    "t - 1": lambda t: t - 1,
    "t / 2": lambda t: t / 2,
    "-t": lambda t: -t,
}


@pytest.mark.parametrize("expr", sorted(SCALAR_EXPRESSIONS))
def test_python_scalar_takes_the_tensor_dtype(expr):
    for dtype in (np.float32, np.float64):
        t = Tensor(np.array([1.5, -2.0], dtype=dtype), requires_grad=True)
        y = SCALAR_EXPRESSIONS[expr](t)
        assert y.dtype == dtype, f"{expr} on {dtype.__name__} gave {y.dtype}"
        T.tsum(y).backward()
        assert t.grad.dtype == dtype


OPS = {
    "add": lambda a, b: T.add(a, b),
    "mul": lambda a, b: T.mul(a, b),
    "scalar sugar": lambda a, b: (2.0 - a) / 4 + (-b) * 0.5,
    "matmul 2-d": lambda a, b: T.matmul(a, T.transpose(b[0], (1, 0))),
    "matmul batched": lambda a, b: T.matmul(a, T.transpose(b)),
    "relu": lambda a, b: T.relu(a),
    "exp": lambda a, b: T.exp(a),
    "log": lambda a, b: T.log(T.exp(a)),
    "tsum axis": lambda a, b: T.tsum(a, axis=1),
    "tsum 0-d": lambda a, b: T.tsum(a),
    "tmean 0-d": lambda a, b: T.tmean(a),
    "0-d times 0-d": lambda a, b: T.tsum(a) * T.tsum(b),
    "reshape": lambda a, b: T.reshape(a, -1),
    "transpose": lambda a, b: T.transpose(a, (2, 0, 1)),
    "take": lambda a, b: a[np.array([1, 0, 1])],
    "dropout": lambda a, b: T.dropout(a, 0.5, np.random.default_rng(0)),
    "masked_softmax": lambda a, b: T.masked_softmax(a),
    "masked_softmax mask": lambda a, b: T.masked_softmax(a, np.tril(np.ones((3, 4), bool))),
    "log_softmax": lambda a, b: T.log_softmax(a),
    "layer_norm": lambda a, b: T.layer_norm(a, b[0, 0], b[1, 1]),
    "conv2d": lambda a, b: T.conv2d(T.reshape(a, 1, 2, 3, 4), T.reshape(b, 3, 2, 2, 2)[:, :, :, :1],
                                    b[0, 0, :3], stride=1, padding=1),
    "max_pool2d": lambda a, b: T.max_pool2d(T.reshape(a, 1, 2, 3, 4), 2),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad", [True, False])
@pytest.mark.parametrize("op", sorted(OPS))
def test_op_returns_a_float_array_of_its_operand_dtype(op, grad, dtype):
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(2, 3, 4)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)).astype(dtype), requires_grad=True)
    with contextlib.nullcontext() if grad else T.no_grad():
        y = OPS[op](a, b)
    assert type(y.data) is np.ndarray and y.data.dtype == dtype
    assert y.requires_grad is grad and (y._backward is not None) is grad
    if grad:
        T.tsum(y).backward()
        for t in (a, b):
            assert t.grad is None or (type(t.grad) is np.ndarray and t.grad.dtype == dtype)


def test_tensor_operands_keep_numpy_promotion():
    a = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.ones(2, dtype=np.float64))
    assert (a * b).dtype == np.float64 and (a + b).dtype == np.float64
    assert (a - b).dtype == np.float64 and (b - a).dtype == np.float64


# -- dropout ----------------------------------------------------------------


def test_dropout_p0_identity_both_modes():
    x = Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert T.dropout(x, 0.0, rng) is x


def test_dropout_inverted_scaling_preserves_expectation():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((200, 200)))
    y = T.dropout(x, 0.3, rng)
    kept = y.data[y.data != 0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert abs(y.data.mean() - 1.0) < 0.02


# -- softmax / normalization ------------------------------------------------


def test_masked_softmax_simplex_and_masked_zero():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 6)))
    mask = rng.random((4, 6)) > 0.3
    mask[:, 0] = True  # keep every row valid
    y = T.masked_softmax(x, mask).data
    assert (y >= 0).all()
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert np.array_equal(y[~mask], np.zeros((~mask).sum()))


def test_masked_softmax_fully_masked_slice_raises():
    with pytest.raises(MaskError):
        T.masked_softmax(Tensor(np.zeros((2, 3))), np.zeros((2, 3), dtype=bool))


@pytest.mark.parametrize("seed", SEEDS)
def test_masked_softmax_grad(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(5, 1))
    mask = rng.random((2, 5)) > 0.3
    mask[:, 0] = True
    check(lambda x: T.tsum(T.matmul(T.masked_softmax(x, mask), Tensor(v))),
          rng.normal(size=(2, 5)), 1e-4)


def _softmax_reference(x, mask, axis=-1):
    """The all-purpose masked softmax formula, an all-true mask for None."""
    valid = np.broadcast_to(np.ones(x.shape, dtype=bool) if mask is None else mask, x.shape)
    shifted = np.where(valid, x, np.finfo(x.dtype).min)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    ex = np.exp(shifted) * valid
    return ex / ex.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
def test_masked_softmax_bitwise_equals_reference_formula(dtype, masked):
    rng = np.random.default_rng(3)
    x = (rng.normal(size=(2, 3, 4, 5)) * 4).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    mask = np.tril(np.ones((4, 5), dtype=bool), k=1) if masked else None
    t = Tensor(x, requires_grad=True)
    y = T.masked_softmax(t, mask)
    y.backward(g)
    want = _softmax_reference(x, mask)
    assert y.dtype == dtype and np.array_equal(y.data, want)
    assert np.array_equal(t.grad, want * (g - (g * want).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axes", [(), ((2, 0, 3, 1),), (1, 3, 0, 2)])
def test_transpose_bitwise_equals_reference_formula(dtype, axes):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
    perm = (0, 1, 3, 2) if not axes else tuple(axes[0]) if len(axes) == 1 else axes
    g = rng.normal(size=x.transpose(perm).shape).astype(dtype)
    t = Tensor(x, requires_grad=True)
    y = T.transpose(t, *axes)
    y.backward(g)
    assert np.array_equal(y.data, x.transpose(perm))
    assert t.grad.dtype == dtype and np.array_equal(t.grad, g.transpose(np.argsort(perm)))


@pytest.mark.parametrize("seed", SEEDS)
def test_log_softmax_grad_and_normalization(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5))
    y = T.log_softmax(Tensor(x)).data
    assert np.allclose(np.exp(y).sum(axis=-1), 1.0, atol=1e-6)
    w = rng.normal(size=(3, 5))
    check(lambda t: T.tsum(T.log_softmax(t) * Tensor(w)), x, 1e-5)


def test_layer_norm_closed_form():
    x = Tensor(np.array([[1.0, 3.0]]))
    y = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(y.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_constant_slice_is_zero_before_affine():
    x = Tensor(np.full((2, 4), 3.0))
    y = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(y.data, 0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grads(seed):
    rng = np.random.default_rng(seed)
    gain = Tensor(rng.normal(size=4))
    bias = Tensor(rng.normal(size=4))
    w = rng.normal(size=(3, 4))
    check(lambda x: T.tsum(T.layer_norm(x, gain, bias) * Tensor(w)),
          rng.normal(size=(3, 4)), 1e-4)
    x = Tensor(rng.normal(size=(3, 4)))
    check(lambda g: T.tsum(T.layer_norm(x, g, bias) * Tensor(w)), rng.normal(size=4), 1e-5)
    check(lambda b: T.tsum(T.layer_norm(x, gain, b) * Tensor(w)), rng.normal(size=4), 1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (10, 1, 64), (4, 200, 256), (2, 3, 5, 33)])
def test_layer_norm_bitwise_equals_reference_formula(dtype, shape):
    rng = np.random.default_rng(5)
    x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
    gain = rng.normal(size=shape[-1]).astype(dtype)
    bias = rng.normal(size=shape[-1]).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
    y = T.layer_norm(tx, tg, tb)
    y.backward(g)
    # the formula with ndarray.mean, as layer_norm computed it before
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-12)
    xhat = xc * inv
    assert y.dtype == dtype and np.array_equal(y.data, xhat * gain + bias)
    lead = tuple(range(len(shape) - 1))
    gq = g * gain
    want_x = inv * (gq - gq.mean(axis=-1, keepdims=True)
                    - xhat * (gq * xhat).mean(axis=-1, keepdims=True))
    assert tx.grad.dtype == dtype and np.array_equal(tx.grad, want_x)
    assert np.array_equal(tg.grad, (g * xhat).sum(axis=lead))
    assert np.array_equal(tb.grad, g.sum(axis=lead))


# -- convolution and pooling ------------------------------------------------


def test_conv2d_1x1_unit_kernel_is_identity():
    x = np.random.default_rng(0).normal(size=(1, 1, 4, 5))
    y = T.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))))
    assert np.allclose(y.data, x)


def test_conv2d_length_formula_19_to_9_to_4():
    x = Tensor(np.zeros((1, 1, 19, 19)))
    k = Tensor(np.zeros((1, 1, 3, 3)))
    y = T.conv2d(x, k, stride=2)
    assert y.shape == (1, 1, 9, 9)
    y2 = T.conv2d(y, k, stride=2)
    assert y2.shape == (1, 1, 4, 4)


def test_conv2d_too_short_raises():
    with pytest.raises(ShapeError):
        T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_grads(seed):
    rng = np.random.default_rng(seed)
    k = Tensor(rng.normal(size=(2, 1, 3, 3)))
    b = Tensor(rng.normal(size=2))
    x0 = rng.normal(size=(1, 1, 5, 5))
    check(lambda x: T.tsum(T.exp(T.conv2d(x, k, b, stride=1, padding=0) * 0.1)), x0, 1e-4)
    check(lambda kk: T.tsum(T.exp(T.conv2d(Tensor(x0), kk, b) * 0.1)),
          np.asarray(k.data), 1e-4)
    check(lambda x: T.tsum(T.exp(T.conv2d(x, k, b, stride=2, padding=1) * 0.1)), x0, 1e-4)


def _conv2d_reference(x, k, b, g, stride, padding):
    """Output and gradients (x, kernels, bias) of conv2d by the einsum formula."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k.shape[2:], axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [B, C, Ho, Wo, kh, kw]
    y = np.einsum("bchwij,ocij->bohw", win, k) + b.reshape(1, -1, 1, 1)
    gk = np.einsum("bohw,bchwij->ocij", g, win)
    gwin = np.einsum("bohw,ocij->bchwij", g, k)
    gx = np.zeros_like(xp)
    Ho, Wo = g.shape[2:]
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            gx[:, :, i:i + stride * Ho:stride, j:j + stride * Wo:stride] += gwin[..., i, j]
    gx = gx[:, :, padding:xp.shape[2] - padding, padding:xp.shape[3] - padding]
    return y, gx, gk, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("stride,padding", [(2, 0), (1, 1)])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv2d_matches_einsum_formula(dtype, rtol, stride, padding, batch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(batch, 3, 11, 9)).astype(dtype)
    k = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    b = rng.normal(size=4).astype(dtype)
    tx, tk, tb = (Tensor(a, requires_grad=True) for a in (x, k, b))
    y = T.conv2d(tx, tk, tb, stride=stride, padding=padding)
    g = rng.normal(size=y.shape).astype(dtype)
    y.backward(g)
    for got, want in zip((y.data, tx.grad, tk.grad, tb.grad),
                         _conv2d_reference(x, k, b, g, stride, padding)):
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


def test_max_pool2d_forward_2x2():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    y = T.max_pool2d(x, 2)
    assert y.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 4.0


@pytest.mark.parametrize("seed", SEEDS)
def test_max_pool2d_grad(seed):
    rng = np.random.default_rng(seed)
    # distinct values so the argmax is stable under the probe perturbation
    x = rng.permutation(36).reshape(1, 1, 6, 6) * 0.1
    check(lambda t: T.tsum(T.exp(T.max_pool2d(t, 2) * 0.1)), x, 1e-5)


# -- graph mechanics --------------------------------------------------------


def test_backward_accumulates_through_shared_node():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x  # dy/dx = 2x via two paths
    y.backward()
    assert np.allclose(x.grad, [4.0])


def test_no_grad_blocks_graph_construction():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.tsum(x * 2.0)
    assert y.requires_grad is False


def test_detach_stops_gradients():
    x = Tensor(np.ones(3), requires_grad=True)
    T.tsum(Tensor(x.data) * 2.0 + x).backward()
    assert np.allclose(x.grad, np.ones(3))


def test_second_backward_through_a_used_up_graph_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = T.exp(x) * 3.0
    loss = T.tsum(y)
    loss.backward()
    assert loss._node._parents == ()  # the returned loss holds no graph
    with pytest.raises(RuntimeError, match="used up"):
        loss.backward()
    with pytest.raises(RuntimeError, match="used up"):
        T.tsum(y * 2.0).backward()  # a new graph over a used-up node
    x.grad = None
    T.tsum(T.exp(x) * 3.0).backward()  # a leaf starts a fresh graph
    np.testing.assert_array_equal(x.grad, np.exp(x.data) * 3.0)


def test_backward_frees_an_activation_once_its_consumers_are_done():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    y = T.exp(T.matmul(x, w))
    ref = weakref.ref(y.data)
    e = y.data.copy()
    loss = T.tsum(y * 2.0)
    del y
    assert ref() is not None  # the graph still holds the activation
    loss.backward()
    assert ref() is None
    g = 2.0 * e  # d loss / d (x @ w)
    np.testing.assert_array_equal(x.grad, g @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ g)
    check(lambda t: T.tsum(T.exp(T.matmul(t, Tensor(w.data))) * 2.0), x.data, 1e-6)


def test_forward_frees_the_arrays_that_no_backward_reads():
    # add reads neither operand and relu reads its own output, so the matmul
    # output and the relu input are gone once forward drops its locals
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)

    def forward():
        h = T.matmul(x, w)
        z = h + b
        return T.tsum(T.relu(z) * 2.0), (weakref.ref(h.data), weakref.ref(z.data))

    loss, refs = forward()
    assert [r() for r in refs] == [None, None]
    loss.backward()
    g = 2.0 * (x.data @ w.data + b.data > 0)
    np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)
    check(lambda t: T.tsum(T.relu(T.matmul(t, Tensor(w.data)) + Tensor(b.data)) * 2.0),
          x.data, 1e-6)


def test_a_softmax_output_stays_alive_until_backward():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 5)), requires_grad=True)
    y = T.masked_softmax(x)
    ref = weakref.ref(y.data)
    loss = T.tsum(y * Tensor(np.arange(5.0)))
    del y
    assert ref() is not None  # its backward reads it
    loss.backward()
    assert ref() is None


def test_each_leaf_is_visited_once_right_after_its_last_consumer():
    events = []

    def op(name, *inputs):
        """The sum of `inputs`, logging when its backward runs."""
        def first(g):
            events.append(name)
            return g

        return T._result(sum(t.data for t in inputs), (inputs[0]._node, first),
                         *((t._node, lambda g: g) for t in inputs[1:]))

    a, b, c = (Tensor(np.ones(2), requires_grad=True) for _ in range(3))
    leaves = {id(a._node): "a", id(b._node): "b", id(c._node): "c"}
    u = op("u", a, b)
    v = op("v", u, a, u)
    w = op("w", v, b, c)  # a plain depth-first order visits c only after v's and u's backward
    T.tsum(op("top", w, u)).backward(on_leaf=lambda node: events.append(leaves[id(node)]))

    consumers = {"a": ["u", "v"], "b": ["u", "w"], "c": ["w"]}
    assert sorted(e for e in events if e in consumers) == ["a", "b", "c"]
    for leaf, users in consumers.items():
        at = events.index(leaf)
        last = max(events.index(user) for user in users)
        assert last < at and all(e in consumers for e in events[last + 1:at]), events
    # the gradients are the number of paths from each leaf to the root
    assert [t.grad.tolist() for t in (a, b, c)] == [[4.0] * 2, [4.0] * 2, [1.0] * 2]


# -- what a graph keeps of its operands -------------------------------------


ONE_SIDE = {  # an op of two operands, and the shapes it takes
    "mul": (T.mul, (3, 4), (3, 4)),
    "matmul shared matrix": (T.matmul, (2, 3, 4), (4, 5)),
    "matmul batched": (T.matmul, (2, 3, 4), (2, 4, 5)),
    "conv2d": (T.conv2d, (2, 2, 5, 6), (3, 2, 2, 3)),
}


@pytest.mark.parametrize("tracked", [0, 1])
@pytest.mark.parametrize("op", sorted(ONE_SIDE))
def test_the_graph_keeps_only_what_the_tracked_operands_gradient_reads(op, tracked):
    f, *shapes = ONE_SIDE[op]
    rng = np.random.default_rng(7)
    leaf = Tensor(rng.normal(size=shapes[tracked]), requires_grad=True)
    const = rng.normal(size=shapes[1 - tracked])

    def forward():
        # both operands' arrays are held by forward alone; the tracked one is
        # an op output over `leaf`, the other a value that tracks nothing
        operands = [None, None]
        operands[tracked] = leaf * 1.0
        operands[1 - tracked] = Tensor(const.copy())
        return T.tsum(f(*operands)), [weakref.ref(t.data) for t in operands]

    loss, refs = forward()
    read, unread = refs[1 - tracked], refs[tracked]
    assert read() is not None  # the tracked operand's gradient reads it
    assert unread() is None  # only the untracked operand's gradient would
    loss.backward()
    assert read() is None

    both = [Tensor(leaf.data.copy(), requires_grad=True), Tensor(const, requires_grad=True)]
    T.tsum(f(*(both if tracked == 0 else both[::-1]))).backward()
    np.testing.assert_array_equal(leaf.grad, both[0].grad)


def test_a_conv2d_input_that_tracks_no_gradient_builds_no_input_gradient(monkeypatch):
    # the front-end's first conv: its input is the features, which track nothing
    def col2im(*args):
        raise AssertionError("the input's gradient was built")

    monkeypatch.setattr(T, "_col2im", col2im)
    rng = np.random.default_rng(8)
    features = Tensor(rng.normal(size=(2, 1, 9, 8)))
    kernels = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    T.tsum(T.relu(T.conv2d(features, kernels, bias, stride=2))).backward()
    assert kernels.grad.shape == kernels.shape and bias.grad.shape == bias.shape


@pytest.mark.parametrize("op", sorted(OPS) + ["ctc_loss"])
def test_under_no_grad_an_op_output_has_no_node(op):
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    with T.no_grad():
        if op == "ctc_loss":
            y = losses.ctc_loss(T.log_softmax(a[0]), [1, 2])
        else:
            y = OPS[op](a, b)
    assert y._node is T._UNTRACKED
