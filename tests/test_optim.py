"""Parameter store, warmup schedule, and Adam against a hand-rolled reference."""

import numpy as np
import pytest

import trasr.tensor as T
from trasr.checkpoint import snapshot_teacher
from trasr.errors import NotBackpropagatedError, ShapeError
from trasr.optim import (ADAM_SLICE, BETA1, BETA2, EPSILON, AdamState, ParameterStore,
                         _adam_update, adam_step, warmup_lr)
from trasr.tensor import Tensor


def make_store(values):
    store = ParameterStore()
    for name, v in values.items():
        store.add(name, Tensor(np.asarray(v, dtype=np.float64)))
    return store


# -- warmup schedule --------------------------------------------------------


def test_warmup_lr_closed_form_value():
    # scale * d_att^-1/2 * min(s^-1/2, s * warmup^-3/2) at s = warmup = 25000
    lr = warmup_lr(25000, 5.0, 256, 25000)
    assert abs(lr - 5.0 * (1 / 16) * 25000 ** -0.5) < 1e-15
    assert abs(lr - 1.976e-3) < 1e-5


def test_warmup_lr_continuous_at_warmup():
    w = 400
    ramp = warmup_lr(w, 1.0, 64, w)
    assert abs(ramp - 1.0 * 64 ** -0.5 * w ** -0.5) < 1e-15


def test_warmup_lr_positive_and_shape():
    for s in (1, 10, 399, 400, 401, 10_000):
        assert warmup_lr(s, 1.0, 64, 400) > 0.0
    # increasing during warmup, decreasing after
    assert warmup_lr(10, 1.0, 64, 400) < warmup_lr(100, 1.0, 64, 400)
    assert warmup_lr(800, 1.0, 64, 400) < warmup_lr(400, 1.0, 64, 400)


def test_warmup_lr_rejects_step_zero():
    with pytest.raises(ValueError):
        warmup_lr(0, 1.0, 64, 400)


# -- Adam -------------------------------------------------------------------


def reference_adam(x, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Straight transcription of the Adam update rule."""
    m = v = 0.0
    for step, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** step)
        vhat = v / (1 - b2 ** step)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x


def test_adam_two_steps_match_reference():
    store = make_store({"w": 1.0})
    state = AdamState(lambda step: 0.01)
    for _ in range(2):
        adam_step(store, state, T.tsum(store["w"] * np.asarray(1.0)))
    expected = reference_adam(1.0, [1.0, 1.0], 0.01)
    assert abs(store["w"].data - expected) < 1e-12
    assert state.step == 2


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = make_store({"w": np.array([1.0, -2.0])})
    state = AdamState(lambda step: 0.01)
    adam_step(store, state, T.tsum(store["w"] * np.zeros(2)))
    assert np.array_equal(store["w"].data, [1.0, -2.0])
    assert state.step == 1
    assert store["w"].grad is None  # grads are consumed


def test_adam_deterministic_across_runs():
    def run():
        store = make_store({"w": np.linspace(-1, 1, 5)})
        state = AdamState(lambda step: warmup_lr(step, 1.0, 64, 10))
        rng = np.random.default_rng(3)
        for _ in range(5):
            adam_step(store, state, T.tsum(store["w"] * rng.normal(size=5)))
        return store["w"].data.copy()

    assert np.array_equal(run(), run())


def test_adam_in_place_three_steps_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(0)
    init = {"w": rng.normal(size=(4, 3)).astype(np.float32),
            "b": rng.normal(size=3).astype(np.float32)}
    grads = [{name: rng.normal(size=v.shape).astype(np.float32) for name, v in init.items()}
             for _ in range(3)]
    store = ParameterStore()
    for name, v in init.items():
        store.add(name, Tensor(v.copy()))
    state = AdamState(lambda step: warmup_lr(step, 1.0, 64, 10))
    live = {name: t.data for name, t in store.items()}
    for g in grads:
        # the gradient of sum(x * g) with respect to x is g, bit for bit
        adam_step(store, state, sum(T.tsum(t * g[name]) for name, t in store.items()))

    # the out-of-place update, one new array per term
    ref = AdamState(lambda step: warmup_lr(step, 1.0, 64, 10))
    b1, b2, eps = BETA1, BETA2, EPSILON
    for name, x in init.items():
        m = v = np.zeros_like(x)
        for step, g in enumerate(grads, start=1):
            lr = ref.lr(step)
            m = b1 * m + (1.0 - b1) * g[name]
            v = b2 * v + (1.0 - b2) * g[name] * g[name]
            mhat = m / (1.0 - b1 ** step)
            vhat = v / (1.0 - b2 ** step)
            x = x - (lr * mhat / (np.sqrt(vhat) + eps)).astype(x.dtype)
        assert store[name].data is live[name]  # updated in place
        assert store[name].data.dtype == np.float32
        assert np.array_equal(store[name].data, x)
        assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)


@pytest.mark.parametrize("shape, order", [((3 * ADAM_SLICE + 5,), "C"),
                                          ((ADAM_SLICE + 3, 2), "F")], ids=["flat", "fortran"])
def test_adam_over_slices_bit_identical_to_the_whole_array_formula(shape, order):
    # a Fortran-ordered parameter has no flat view; it is sliced by rows
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=shape).astype(np.float32)
    x = np.array(x0, order=order)
    state = AdamState(lambda step: 0.01)
    b1, b2, eps, lr = BETA1, BETA2, EPSILON, 0.01
    ref_x, m, v = x0, np.zeros_like(x0), np.zeros_like(x0)
    for step in (1, 2, 3):
        g = rng.normal(size=shape).astype(np.float32)
        _adam_update(state, "w", x, g, step, lr)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        ref_x = ref_x - lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
    assert ref_x.dtype == np.float32
    assert np.array_equal(x, ref_x)
    assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)


# -- parameter store --------------------------------------------------------


def test_store_iterates_sorted_and_rejects_duplicates():
    store = make_store({"b": 1.0, "a": 2.0})
    assert store.names() == ["a", "b"]
    with pytest.raises(ValueError):
        store.add("a", Tensor(np.asarray(0.0)))


def test_state_dict_round_trip():
    store = make_store({"a": [1.0, 2.0], "b": 3.0})
    state = store.state_dict()
    other = make_store({"a": [0.0, 0.0], "b": 0.0})
    other.load_state_dict(state)
    assert np.array_equal(other["a"].data, [1.0, 2.0])


def test_load_state_dict_does_not_alias_its_input():
    store = make_store({"a": [0.0, 0.0]})
    src = np.array([1.0, 2.0])  # the parameter's own dtype
    store.load_state_dict({"a": src})
    src[0] = 99.0
    assert not np.shares_memory(store["a"].data, src)
    assert np.array_equal(store["a"].data, [1.0, 2.0])


def test_load_state_dict_reports_missing_and_extra():
    store = make_store({"a": 1.0})
    with pytest.raises(ShapeError) as e:
        store.load_state_dict({"b": np.asarray(1.0)})
    assert "a" in str(e.value) and "b" in str(e.value)


def test_load_state_dict_shape_mismatch():
    store = make_store({"a": [1.0, 2.0]})
    with pytest.raises(ShapeError, match="a"):
        store.load_state_dict({"a": np.zeros(3)})


def test_clone_frozen_is_isolated():
    store = make_store({"a": [1.0, 2.0]})
    with snapshot_teacher(store) as clone:
        store["a"].data[0] = 99.0
        assert np.array_equal(clone["a"], [1.0, 2.0])


def test_fused_step_with_an_unreached_parameter_changes_nothing():
    store = make_store({"used": [1.0, -1.0], "lonely": [2.0]})
    state = AdamState(lambda step: 0.01)
    adam_step(store, state, T.tsum(store["used"] * store["used"]) + store["lonely"])
    before = ({name: t.data.copy() for name, t in store.items()},
              {k: a.copy() for k, a in state.m.items()}, {k: a.copy() for k, a in state.v.items()})

    loss = T.tsum(store["used"] * 3.0)
    with pytest.raises(NotBackpropagatedError, match="lonely"):
        adam_step(store, state, loss)
    assert state.step == 1
    assert store["used"].grad is None  # the raise came before backward ran
    after = ({name: t.data for name, t in store.items()}, state.m, state.v)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(np.array_equal(old[k], new[k]) for k in old)
