"""Objectives: CTC against exhaustive enumeration, smoothed CE, distillation,
and the combined-loss algebra."""

import numpy as np
import pytest

import trasr.tensor as T
from trasr.checkpoint import snapshot_teacher
from trasr.errors import InfeasibleAlignmentError, MaskError, ShapeError
from trasr.losses import (KDConfig, ce_label_smoothed, ctc_loss, ctc_min_frames,
                          finetune_loss, joint_loss, phi_schedule, skd_loss,
                          teacher_entropy)
from trasr.optim import ParameterStore
from trasr.tensor import Tensor

from gradcheck import grad_check
from conftest import brute_force_ctc, random_log_probs


# -- CTC --------------------------------------------------------------------


def test_ctc_worked_example_ln_075():
    # V = {blank, a}, T'=2, uniform 0.5 frames; paths (a,a), (a,-), (-,a)
    lp = np.log(np.full((2, 2), 0.5))
    loss = ctc_loss(Tensor(lp), [1])
    assert abs(loss.item() - (-np.log(0.75))) < 1e-12


def test_ctc_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 60:
        n_frames = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 5))
        tgt_len = int(rng.integers(0, 4))
        target = list(rng.integers(1, vocab, size=tgt_len))
        if ctc_min_frames(target) > n_frames:
            continue
        lp = random_log_probs(rng, n_frames, vocab)
        got = ctc_loss(Tensor(lp), target).item()
        want = brute_force_ctc(lp, target)
        assert abs(got - want) < 1e-6
        checked += 1


def test_ctc_min_frames():
    assert ctc_min_frames([]) == 0
    assert ctc_min_frames([1, 2, 3]) == 3
    assert ctc_min_frames([1, 1]) == 3
    assert ctc_min_frames([1, 1, 1]) == 5


def test_ctc_infeasible_target_raises():
    lp = random_log_probs(np.random.default_rng(0), 2, 3)
    with pytest.raises(InfeasibleAlignmentError):
        ctc_loss(Tensor(lp), [1, 1])  # needs 3 frames


def test_ctc_rejects_blank_in_target():
    lp = random_log_probs(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError):
        ctc_loss(Tensor(lp), [0])


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_ctc_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 4))

    def f(logits):
        return ctc_loss(T.log_softmax(logits, axis=-1), [1, 2])

    assert grad_check(f, x) < 1e-3


def test_ctc_gradient_is_negative_occupancy():
    # gradient wrt log-probs sums to -(expected path length) = -T' per frame row
    lp = Tensor(random_log_probs(np.random.default_rng(3), 4, 3), requires_grad=True)
    ctc_loss(lp, [1, 2]).backward()
    assert np.allclose(lp.grad.sum(axis=-1), -1.0, atol=1e-9)


def _ctc_batch(rng):
    """Three rows of 5, 3 and 6 true frames padded to 7, padding frames filled
    with garbage log-probabilities; targets with a repeat and an empty one."""
    lengths = [5, 3, 6]
    targets = [[1, 1, 2], [], [3, 2, 1]]
    lp = random_log_probs(rng, 3 * 7, 4).reshape(3, 7, 4)
    for row, n in enumerate(lengths):
        lp[row, n:] = rng.normal(size=(7 - n, 4))
    return lp, targets, lengths


def test_batched_ctc_equals_sum_of_single_losses():
    lp, targets, lengths = _ctc_batch(np.random.default_rng(4))
    batch = Tensor(lp, requires_grad=True)
    loss = ctc_loss(batch, targets, lengths=lengths)
    loss.backward()
    want = 0.0
    for row, (tgt, n) in enumerate(zip(targets, lengths)):
        single = Tensor(lp[row, :n], requires_grad=True)
        one = ctc_loss(single, tgt)
        one.backward()
        want += one.item()
        np.testing.assert_allclose(batch.grad[row, :n], single.grad, rtol=0, atol=1e-9)
        assert not batch.grad[row, n:].any()  # padding frames get no gradient
    assert abs(loss.item() - want) < 1e-9


def test_batched_ctc_gradient():
    lp, targets, lengths = _ctc_batch(np.random.default_rng(5))

    def f(logits):
        return ctc_loss(T.log_softmax(logits, axis=-1), targets, lengths=lengths)

    assert grad_check(f, lp) < 1e-3


def test_batched_ctc_infeasible_row_raises():
    lp, targets, _ = _ctc_batch(np.random.default_rng(6))
    with pytest.raises(InfeasibleAlignmentError):
        ctc_loss(Tensor(lp), targets, lengths=[5, 3, 2])  # row 2 needs 3 frames


# -- label-smoothed CE ------------------------------------------------------


def test_ce_epsilon_zero_is_standard_cross_entropy():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 6))
    targets = [1, 0, 5, 2]
    got = ce_label_smoothed(Tensor(logits), targets, 0.0).item()
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    want = -sum(lp[i, t] for i, t in enumerate(targets))
    assert abs(got - want) < 1e-9


def test_ce_smoothing_mixes_uniform():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(3, 5))
    eps = 0.1
    got = ce_label_smoothed(Tensor(logits), [0, 1, 2], eps).item()
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    want = 0.0
    for i, t in enumerate([0, 1, 2]):
        want += -(1 - eps) * lp[i, t] - eps * lp[i].mean()
    assert abs(got - want) < 1e-9


def test_ce_mask_weights_rows():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 4))
    full = ce_label_smoothed(Tensor(logits), [1, 2, 3], 0.0).item()
    first_two = ce_label_smoothed(Tensor(logits), [1, 2, 3], 0.0,
                                  mask=[1, 1, 0]).item()
    last_only = ce_label_smoothed(Tensor(logits), [1, 2, 3], 0.0,
                                  mask=[0, 0, 1]).item()
    assert abs(full - first_two - last_only) < 1e-9


def test_ce_all_masked_raises():
    with pytest.raises(MaskError):
        ce_label_smoothed(Tensor(np.zeros((2, 3))), [0, 1], mask=[0, 0])


def test_ce_bad_epsilon_and_target_shape():
    with pytest.raises(ValueError):
        ce_label_smoothed(Tensor(np.zeros((2, 3))), [0, 1], epsilon=1.0)
    with pytest.raises(ShapeError):
        ce_label_smoothed(Tensor(np.zeros((2, 3))), [0])


# -- distillation -----------------------------------------------------------


def test_skd_one_hot_teacher_reduces_to_ce():
    rng = np.random.default_rng(0)
    student = rng.normal(size=(3, 5))
    teacher = np.full((3, 5), -1e9)
    argmaxes = [2, 0, 4]
    for i, a in enumerate(argmaxes):
        teacher[i, a] = 0.0
    got = skd_loss(Tensor(teacher), Tensor(student)).item()
    want = ce_label_smoothed(Tensor(student), argmaxes, 0.0).item()
    assert abs(got - want) < 1e-6


def test_skd_equals_entropy_at_student_equals_teacher():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 6))
    loss = skd_loss(Tensor(logits), Tensor(logits)).item() / len(logits)
    ent = teacher_entropy(Tensor(logits))
    assert abs(loss - ent) < 1e-6


def test_skd_gibbs_inequality_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        t = rng.normal(size=(2, 5)) * rng.uniform(0.5, 3)
        s = rng.normal(size=(2, 5)) * rng.uniform(0.5, 3)
        loss = skd_loss(Tensor(t), Tensor(s)).item() / len(t)
        ent = teacher_entropy(Tensor(t))
        assert loss - ent >= -1e-9


def test_skd_gradient_flows_to_student_only():
    rng = np.random.default_rng(3)
    teacher = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    student = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    skd_loss(teacher, student).backward()
    assert student.grad is not None
    assert teacher.grad is None


def test_skd_shape_mismatch():
    with pytest.raises(ShapeError):
        skd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# -- combined losses --------------------------------------------------------


def test_joint_loss_endpoints():
    ctc, s2s = Tensor(2.0), Tensor(6.0)
    assert joint_loss(ctc, s2s, 0.0).item() == 6.0
    assert joint_loss(ctc, s2s, 1.0).item() == 2.0
    assert abs(joint_loss(ctc, s2s, 0.3).item() - (0.3 * 2 + 0.7 * 6)) < 1e-12
    with pytest.raises(ValueError):
        joint_loss(ctc, s2s, 1.5)


def test_finetune_phi_zero_reduces_to_joint_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ctc, s2s, skd = (Tensor(v) for v in rng.normal(size=3))
        alpha = float(rng.uniform(0, 1))
        a = finetune_loss(ctc, s2s, skd, alpha, 0.0).item()
        b = joint_loss(ctc, s2s, alpha).item()
        assert a == b  # bit-exact, not approximately


def test_finetune_phi_one_drops_ground_truth_ce():
    ctc, s2s, skd = Tensor(1.0), Tensor(100.0), Tensor(3.0)
    got = finetune_loss(ctc, s2s, skd, 0.25, 1.0).item()
    assert abs(got - (0.25 * 1.0 + 0.75 * 3.0)) < 1e-12


# -- phi schedule -----------------------------------------------------------


def test_phi_schedule_paper_values():
    assert abs(phi_schedule("skd", 100, 200, 0.7) - 0.35) < 1e-12
    assert all(phi_schedule("finetune", t, 99, 0.5) == 0.5 for t in (1, 50, 99))
    assert abs(phi_schedule("skd", 1, 150, 0.5) - 0.5 / 150) < 1e-12
    assert phi_schedule("skd", 150, 150, 0.5) == 0.5


def test_phi_schedule_nondecreasing_and_bounds():
    vals = [phi_schedule("skd", t, 40, 0.8) for t in range(1, 41)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        phi_schedule("skd", 0, 40, 0.8)
    with pytest.raises(ValueError):
        phi_schedule("skd", 41, 40, 0.8)


def test_kd_config_validation():
    with pytest.raises(ValueError):
        KDConfig(phi_final=1.5)
    with pytest.raises(ValueError):
        KDConfig(cadence=0)


# -- teacher snapshots ------------------------------------------------------


def test_snapshot_teacher_isolated_and_reproducible():
    store = ParameterStore()
    store.add("w", Tensor(np.ones(3)))
    with snapshot_teacher(store) as t1, snapshot_teacher(store) as t2:
        assert np.array_equal(t1["w"], t2["w"])
        store["w"].data[:] = 5.0
        assert np.array_equal(t1["w"], np.ones(3))
