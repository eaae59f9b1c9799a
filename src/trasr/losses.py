"""Training objectives: CTC forward-backward, label-smoothed cross-entropy,
the joint CTC/attention loss, self-distillation, and its epoch schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import InfeasibleAlignmentError, MaskError, ShapeError
from .optim import ParameterStore
from .tensor import Tensor, _accum, _result


@dataclass
class KDConfig:
    phi_final: float = 0.5
    total_epochs: int = 150
    mode: str = "linear"  # "linear" ramps to phi_final; "fixed" holds it
    teacher_snapshot_cadence: int = 1  # epochs between teacher refreshes
    freeze_teacher: bool = False
    temperature: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.phi_final <= 1.0:
            raise ValueError(f"phi_final must be in [0, 1], got {self.phi_final}")
        if self.teacher_snapshot_cadence < 1:
            raise ValueError("teacher snapshot cadence must be >= 1")
        if self.mode not in ("fixed", "linear"):
            raise ValueError(f"unknown KD mode {self.mode!r}")
        if not self.temperature > 0.0:
            raise ValueError(f"KD temperature must be > 0, got {self.temperature}")


def ctc_min_frames(target) -> int:
    """Frames required: |target| plus one per adjacent repeated label."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(log_probs: Tensor, target, blank_id: int = 0) -> Tensor:
    """Negative log-probability of all blank-augmented alignments of `target`.

    `log_probs` is [T', V] with log-simplex rows. Differentiable; the
    gradient is the negative posterior symbol occupancy.
    """
    lp = log_probs.data.astype(np.float64)
    Tn, V = lp.shape
    target = [int(t) for t in target]
    if any(t == blank_id or not 0 <= t < V for t in target):
        raise ValueError(f"target contains blank or out-of-range ids: {target}")
    need = ctc_min_frames(target)
    if Tn < need:
        raise InfeasibleAlignmentError(
            f"target of length {len(target)} (with repeats) needs {need} frames, have {Tn}")

    ext = [blank_id]
    for t in target:
        ext += [t, blank_id]
    S = len(ext)
    ext = np.asarray(ext)
    # transitions into state s: from s, s-1, and s-2 when labels differ
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != blank_id) & (ext[2:] != ext[:-2])

    neg = -np.inf
    alpha = np.full((Tn, S), neg)
    alpha[0, 0] = lp[0, ext[0]]
    if S > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, Tn):
        prev = alpha[t - 1]
        diag = np.full(S, neg)
        diag[1:] = prev[:-1]
        skip = np.full(S, neg)
        skip[2:] = np.where(skip_ok[2:], prev[:-2], neg)
        alpha[t] = np.logaddexp(np.logaddexp(prev, diag), skip) + lp[t, ext]

    log_p = np.logaddexp(alpha[Tn - 1, S - 1], alpha[Tn - 1, S - 2] if S > 1 else neg)

    beta = np.full((Tn, S), neg)
    beta[Tn - 1, S - 1] = lp[Tn - 1, ext[S - 1]]
    if S > 1:
        beta[Tn - 1, S - 2] = lp[Tn - 1, ext[S - 2]]
    for t in range(Tn - 2, -1, -1):
        nxt = beta[t + 1]
        diag = np.full(S, neg)
        diag[:-1] = nxt[1:]
        skip = np.full(S, neg)
        if S > 2:
            skip[:-2] = np.where(skip_ok[2:], nxt[2:], neg)
        beta[t] = np.logaddexp(np.logaddexp(nxt, diag), skip) + lp[t, ext]

    # occupancy posterior: alpha*beta double-counts the emission at t
    log_occ = alpha + beta - lp[:, ext] - log_p
    grad = np.zeros((Tn, V))
    for s in range(S):
        grad[:, ext[s]] -= np.exp(log_occ[:, s])

    loss = np.asarray(-log_p, dtype=log_probs.dtype)

    def backward(g):
        _accum(log_probs, float(g) * grad)

    return _result(loss, (log_probs,), backward)


def ce_label_smoothed(logits: Tensor, targets, epsilon: float = 0.1,
                      mask=None, reduce: str = "mean") -> Tensor:
    """Cross-entropy against (1-eps) one-hot + eps uniform, over unmasked rows."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {epsilon}")
    targets = np.asarray(targets, dtype=np.int64)
    n, vocab = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match logits rows {n}")
    weights = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    total = weights.sum()
    if total == 0:
        raise MaskError("all positions masked in cross-entropy")
    lp = T.log_softmax(logits, axis=-1)
    picked = lp[np.arange(n), targets]
    per_pos = -(1.0 - epsilon) * picked - epsilon * T.tmean(lp, axis=-1)
    w = Tensor(weights.astype(lp.dtype))
    summed = T.tsum(per_pos * w)
    if reduce == "sum":
        return summed
    return summed * (1.0 / float(total))


def _teacher_probs(teacher_logits, temperature: float) -> np.ndarray:
    """Float64 softmax of the detached teacher logits at `temperature`."""
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    z = t_data.astype(np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def skd_loss(teacher_logits, student_logits: Tensor, mask=None,
             temperature: float = 1.0, reduce: str = "mean") -> Tensor:
    """Cross-entropy of the student against the (detached) teacher distribution."""
    p_t = _teacher_probs(teacher_logits, temperature)
    if p_t.shape != student_logits.shape:
        raise ShapeError(
            f"teacher/student shape mismatch: {p_t.shape} vs {student_logits.shape}")
    n = p_t.shape[0]
    weights = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    total = weights.sum()
    if total == 0:
        raise MaskError("all positions masked in distillation loss")
    lp_s = T.log_softmax(student_logits * (1.0 / temperature), axis=-1)
    per_pos = -T.tsum(lp_s * Tensor(p_t.astype(lp_s.dtype)), axis=-1)
    summed = T.tsum(per_pos * Tensor(weights.astype(lp_s.dtype)))
    if reduce == "sum":
        return summed
    return summed * (1.0 / float(total))


def teacher_entropy(teacher_logits, mask=None, temperature: float = 1.0) -> float:
    """Mean entropy of the teacher distribution over unmasked positions."""
    p = _teacher_probs(teacher_logits, temperature)
    ent = -(p * np.log(p)).sum(axis=-1)
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


def phi_schedule(t: int, cfg: KDConfig) -> float:
    """Distillation weight for epoch t (1-based)."""
    if not 1 <= t <= cfg.total_epochs:
        raise ValueError(f"epoch {t} outside [1, {cfg.total_epochs}]")
    if cfg.mode == "fixed":
        return cfg.phi_final
    return cfg.phi_final * t / cfg.total_epochs


def snapshot_teacher(params: ParameterStore) -> ParameterStore:
    """Deep-copy the student's parameters as a frozen teacher."""
    return params.clone_frozen()
