"""Autodiff core: forward values against closed forms, gradients against
central finite differences, and the documented error behavior."""

import numpy as np
import pytest

import trasr.tensor as T
from trasr.errors import MaskError, ShapeError
from trasr.gradcheck import grad_check
from trasr.tensor import Tensor

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


def test_tensor_operands_keep_numpy_promotion():
    a = Tensor(np.ones(2, dtype=np.float32))
    b = Tensor(np.ones(2, dtype=np.float64))
    assert (a * b).dtype == np.float64 and (a + b).dtype == np.float64
    assert (a - b).dtype == np.float64 and (b - a).dtype == np.float64


# -- dropout ----------------------------------------------------------------


def test_dropout_p0_identity_both_modes():
    x = Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert T.dropout(x, 0.0, rng, True) is x
    assert T.dropout(x, 0.5, rng, False) is x


def test_dropout_inverted_scaling_preserves_expectation():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((200, 200)))
    y = T.dropout(x, 0.3, rng, True)
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


def test_max_pool2d_rejects_other_strides():
    with pytest.raises(ShapeError):
        T.max_pool2d(Tensor(np.zeros((1, 1, 4, 4))), size=2, stride=1)


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
