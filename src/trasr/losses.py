"""Training objectives: CTC forward-backward, label-smoothed cross-entropy,
the joint CTC/attention loss, self-distillation, and its epoch schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InfeasibleAlignmentError, MaskError, ShapeError, bounded, check_fields
from .tensor import Tensor, _result


@dataclass
class KDConfig:
    phi_final: float = bounded(0.5, 0, 1)
    cadence: int = bounded(1, 1)  # epochs between teacher refreshes
    temperature: float = bounded(1.0, 1e-3)

    __post_init__ = check_fields


def ctc_min_frames(target) -> int:
    """Frames required: |target| plus one per adjacent repeated label."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(log_probs: Tensor, target, blank_id: int = 0, lengths=None) -> Tensor:
    """Negative log-probability of all blank-augmented alignments of each
    row's target, summed over the batch.

    `log_probs` is a padded batch [B, T', V] with log-simplex rows, `target`
    its B label sequences and `lengths` the rows' true frame counts (default:
    all T'); one forward-backward recursion over [B, S] scores every row.
    Differentiable; the gradient is the negative posterior symbol occupancy.
    The recursion runs in float64; loss and gradient take log_probs' dtype.
    """
    if log_probs.ndim != 3:
        raise ShapeError(f"ctc_loss needs log-probs [B, T', V], got {log_probs.shape}")
    lp = log_probs.data.astype(np.float64)
    targets = list(target)
    B, Tn, V = lp.shape
    frames = np.full(B, Tn) if lengths is None else np.asarray(lengths, dtype=np.int64)
    if len(targets) != B or frames.shape != (B,):
        raise ShapeError(f"{len(targets)} targets and lengths {frames.shape} for batch {B}")
    targets = [[int(t) for t in tgt] for tgt in targets]
    for tgt, n in zip(targets, frames):
        if any(t == blank_id or not 0 <= t < V for t in tgt):
            raise ValueError(f"target contains blank or out-of-range ids: {tgt}")
        need = ctc_min_frames(tgt)
        if n < need:
            raise InfeasibleAlignmentError(
                f"target of length {len(tgt)} (with repeats) needs {need} frames, have {n}")

    # blank-augmented targets, padded with blanks past each row's S_b states
    n_states = np.array([2 * len(tgt) + 1 for tgt in targets])
    S = int(n_states.max())
    ext = np.full((B, S), blank_id)
    for b, tgt in enumerate(targets):
        ext[b, 1:2 * len(tgt):2] = tgt
    rows = np.arange(B)
    at_states = (rows[:, None, None], np.arange(Tn)[None, :, None], ext[:, None, :])
    lp_ext = lp[at_states]  # [B, T, S]
    # transitions into state s: from s, s-1, and s-2 when labels differ
    skip_ok = np.zeros((B, S), dtype=bool)
    skip_ok[:, 2:] = (ext[:, 2:] != blank_id) & (ext[:, 2:] != ext[:, :-2])

    neg = -np.inf

    def step(prev, shift):
        """logaddexp of the stay, one-step and (allowed) two-step moves; shift
        +1 runs forward in time (alpha), -1 backward (beta)."""
        diag = np.full((B, S), neg)
        skip = np.full((B, S), neg)
        if shift > 0:
            diag[:, 1:] = prev[:, :-1]
            skip[:, 2:] = np.where(skip_ok[:, 2:], prev[:, :-2], neg)
        else:
            diag[:, :-1] = prev[:, 1:]
            skip[:, :-2] = np.where(skip_ok[:, 2:], prev[:, 2:], neg)
        return np.logaddexp(np.logaddexp(prev, diag), skip)

    alpha = np.full((B, Tn, S), neg)
    alpha[:, 0, :2] = lp_ext[:, 0, :2]  # for an empty target, state 1 is padding
    for t in range(1, Tn):
        alpha[:, t] = step(alpha[:, t - 1], +1) + lp_ext[:, t]

    last = frames - 1
    final = np.full((B, S), neg)  # 0 at the two accepting states of each row
    final[rows, n_states - 1] = 0.0
    final[rows[n_states > 1], n_states[n_states > 1] - 2] = 0.0
    log_p = np.logaddexp.reduce(alpha[rows, last] + final, axis=-1)

    # beta stays -inf past each row's last frame, so padding frames add nothing
    beta = np.full((B, Tn + 1, S), neg)
    for t in range(Tn - 1, -1, -1):
        beta[:, t] = np.where((last == t)[:, None], final, step(beta[:, t + 1], -1)) \
            + lp_ext[:, t]

    # occupancy posterior: alpha*beta double-counts the emission at t
    occ = np.exp(alpha + beta[:, :Tn] - lp_ext - log_p[:, None, None])
    grad = np.zeros_like(lp)
    np.add.at(grad, at_states, -occ)
    grad = grad.astype(log_probs.dtype, copy=False)

    loss = np.asarray(-log_p.sum(), dtype=log_probs.dtype)
    return _result(loss, (log_probs._node, lambda g: float(g) * grad))


def ce_label_smoothed(logits: Tensor, targets, epsilon: float = 0.1,
                      mask=None) -> Tensor:
    """Cross-entropy against (1-eps) one-hot + eps uniform, summed over
    unmasked rows."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {epsilon}")
    targets = np.asarray(targets, dtype=np.int64)
    n, vocab = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match logits rows {n}")
    weights = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    if weights.sum() == 0:
        raise MaskError("all positions masked in cross-entropy")
    lp = T.log_softmax(logits, axis=-1)
    picked = lp[np.arange(n), targets]
    per_pos = -(1.0 - epsilon) * picked - epsilon * (T.tsum(lp, axis=-1) * (1.0 / vocab))
    return T.tsum(per_pos * Tensor(weights.astype(lp.dtype)))


def _teacher_probs(teacher_logits, temperature: float) -> np.ndarray:
    """Float64 softmax of the detached teacher logits at `temperature`."""
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    z = t_data.astype(np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def skd_loss(teacher_logits, student_logits: Tensor, mask=None,
             temperature: float = 1.0) -> Tensor:
    """Cross-entropy of the student against the (detached) teacher distribution,
    summed over unmasked rows."""
    p_t = _teacher_probs(teacher_logits, temperature)
    if p_t.shape != student_logits.shape:
        raise ShapeError(
            f"teacher/student shape mismatch: {p_t.shape} vs {student_logits.shape}")
    n = p_t.shape[0]
    weights = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    if weights.sum() == 0:
        raise MaskError("all positions masked in distillation loss")
    lp_s = T.log_softmax(student_logits * (1.0 / temperature), axis=-1)
    per_pos = -T.tsum(lp_s * Tensor(p_t.astype(lp_s.dtype)), axis=-1)
    return T.tsum(per_pos * Tensor(weights.astype(lp_s.dtype)))


def teacher_entropy(teacher_logits, mask=None, temperature: float = 1.0) -> float:
    """Mean entropy of the teacher distribution over unmasked positions."""
    p = _teacher_probs(teacher_logits, temperature)
    # a probability that underflowed to 0 adds 0 log 0 = 0
    ent = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=-1)
    weights = np.ones(len(ent)) if mask is None else np.asarray(mask, dtype=np.float64)
    return float((ent * weights).sum() / weights.sum())


def joint_loss(l_ctc, l_s2s, alpha: float):
    """(1 - alpha) * s2s + alpha * ctc."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return (1.0 - alpha) * l_s2s + alpha * l_ctc


def finetune_loss(l_ctc, l_s2s, l_skd, alpha: float, phi: float):
    """alpha * ctc + (1 - alpha) * (phi * skd + (1 - phi) * s2s)."""
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= phi <= 1.0:
        raise ValueError(f"weights must be in [0, 1], got alpha={alpha}, phi={phi}")
    return alpha * l_ctc + (1.0 - alpha) * (phi * l_skd + (1.0 - phi) * l_s2s)


def phi_schedule(mode: str, t: int, n_epochs: int, phi_final: float) -> float:
    """Distillation weight for epoch t (1-based) of a run of n_epochs in a
    training mode: none for "plain", ramped to phi_final for "skd" (S-KD from
    scratch), held at phi_final for "finetune" (FS-KD)."""
    if not 1 <= t <= n_epochs:
        raise ValueError(f"epoch {t} outside [1, {n_epochs}]")
    return {"plain": 0.0, "skd": phi_final * t / n_epochs, "finetune": phi_final}[mode]
