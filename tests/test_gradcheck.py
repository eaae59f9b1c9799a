"""The finite-difference checker itself: known-good gradients and failure modes."""

import numpy as np
import pytest

import trasr.tensor as T
from trasr.tensor import Tensor

from gradcheck import GradCheckError, grad_check


def test_sum_relu_all_positive_error_below_1e8():
    x = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
    assert grad_check(lambda t: T.tsum(T.relu(t)), x) < 1e-8


def test_masked_softmax_dot_v_error_below_1e4():
    rng = np.random.default_rng(1)
    v = Tensor(rng.normal(size=(5, 1)))
    x = rng.normal(size=(3, 5))
    assert grad_check(lambda t: T.tsum(T.matmul(T.masked_softmax(t), v)), x) < 1e-4


def test_non_scalar_function_rejected():
    with pytest.raises(ValueError):
        grad_check(lambda t: t, np.zeros(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_reports_coordinate():
    def f(t):
        # 1e-6 scales to 3e153, whose square is finite; 1e-6 ± 1e-5 scales
        # to about 3e154, whose square overflows
        s = t * 3e159
        return T.tsum(s * s)

    with pytest.raises(GradCheckError, match="coordinate"):
        grad_check(f, np.full(3, 1e-6))


def test_runs_in_float64_even_for_float32_input():
    x = np.random.default_rng(2).normal(size=4).astype(np.float32)
    err = grad_check(lambda t: T.tsum(t * t), x)
    assert err < 1e-8  # float32 arithmetic could not reach this
