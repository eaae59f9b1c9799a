"""Joint CTC/attention beam search with shallow LM fusion.

Hypotheses are scored by
    (1 - lambda) * s2s + lambda * ctc_prefix + gamma * lm + penalty * n_tokens
and moved to a finished pool when they emit eos; at that point the CTC term
becomes the probability of the prefix as a complete output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import VocabularyError


@dataclass
class BeamConfig:
    beam_size: int = 20
    ctc_weight: float = 0.5       # lambda
    lm_weight: float = 0.7        # gamma
    insertion_penalty: float = 2.0  # additive log-score bonus per emitted token
    max_len_ratio: float = 1.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam size must be >= 1, got {self.beam_size}")
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError(f"ctc weight must be in [0, 1], got {self.ctc_weight}")


class CtcPrefixScorer:
    """Incremental prefix log-probabilities over a [T', V] CTC log-prob grid.

    State per hypothesis is a [T', 2] array of (non-blank, blank) forward
    log-probabilities for the current prefix.
    """

    def __init__(self, log_probs: np.ndarray, blank_id: int = 0):
        self.lp = np.asarray(log_probs, dtype=np.float64)
        if self.lp.ndim != 2:
            raise ValueError(f"CTC log-probs must be 2-d, got shape {self.lp.shape}")
        self.n_frames, self.vocab = self.lp.shape
        self.blank = blank_id

    def initial_state(self) -> np.ndarray:
        r = np.full((self.n_frames, 2), -np.inf)
        r[0, 1] = self.lp[0, self.blank]
        for t in range(1, self.n_frames):
            r[t, 1] = r[t - 1, 1] + self.lp[t, self.blank]
        return r

    def extend(self, state: np.ndarray, prefix_len: int, last_token: int | None,
               candidates) -> tuple[np.ndarray, list[np.ndarray]]:
        """Prefix log-scores and new states for each candidate extension.

        `prefix_len` counts emitted tokens so far (0 for the bare sos prefix);
        `last_token` is the most recent emitted token, None if none.
        """
        cands = np.asarray(candidates, dtype=np.int64)
        if np.any(cands == self.blank):
            raise ValueError("blank cannot be a search candidate")
        Tn = self.n_frames
        if prefix_len + 1 > Tn:  # more tokens than frames: no alignment exists
            dead = np.full((Tn, 2), -np.inf)
            return np.full(len(cands), -np.inf), [dead.copy() for _ in cands]
        xs = self.lp[:, cands]  # [T, C]
        C = len(cands)
        r = np.full((Tn, 2, C), -np.inf)
        if prefix_len == 0:
            r[0, 0] = xs[0]
        r_sum = np.logaddexp(state[:, 0], state[:, 1])
        phi = np.repeat(r_sum[:, None], C, axis=1)
        if last_token is not None:
            same = cands == last_token
            phi[:, same] = state[:, 1:2]  # repeated token must cross a blank
        start = max(prefix_len, 1)
        log_psi = r[start - 1, 0].copy()
        for t in range(start, Tn):
            r[t, 0] = np.logaddexp(r[t - 1, 0], phi[t - 1]) + xs[t]
            r[t, 1] = np.logaddexp(r[t - 1, 1], r[t - 1, 0]) + self.lp[t, self.blank]
            log_psi = np.logaddexp(log_psi, phi[t - 1] + xs[t])
        return log_psi, [r[:, :, i].copy() for i in range(C)]

    def final_score(self, state: np.ndarray) -> float:
        """Log-probability of the prefix as a complete CTC output."""
        return float(np.logaddexp(state[-1, 0], state[-1, 1]))


@dataclass
class Hypothesis:
    tokens: list[int]              # starts with sos; body tokens follow
    s2s_logp: float = 0.0
    lm_logp: float = 0.0
    ctc_logp: float = 0.0
    ctc_state: np.ndarray | None = None
    finished: bool = False


def combined_score(hyp: Hypothesis, cfg: BeamConfig) -> float:
    n_tokens = len(hyp.tokens) - 1
    score = (1.0 - cfg.ctc_weight) * hyp.s2s_logp + cfg.lm_weight * hyp.lm_logp
    score += cfg.ctc_weight * hyp.ctc_logp
    return score + cfg.insertion_penalty * n_tokens


@dataclass
class SearchResult:
    tokens: list[int]  # body tokens, no sos/eos
    score: float
    finished: bool
    n_expanded: int = 0


def beam_search(s2s_fn, cfg: BeamConfig, sos_id: int, eos_id: int, candidates,
                n_frames: int, ctc_scorer: CtcPrefixScorer | None = None,
                lm_fn=None) -> SearchResult:
    """Best token sequence under the combined score.

    `s2s_fn(prefix)` (and `lm_fn`, when gamma != 0) return log-probability
    vectors over the vocabulary for the next token after `prefix`.
    """
    candidates = [int(c) for c in candidates if c not in (sos_id, eos_id)]
    if cfg.ctc_weight > 0.0 and ctc_scorer is None:
        raise ValueError("ctc_weight > 0 requires a CTC prefix scorer")
    if cfg.lm_weight != 0.0 and lm_fn is None:
        raise ValueError("lm_weight != 0 requires a language model")

    def check_vocab(vec, what):
        needed = max(candidates + [eos_id]) + 1
        if len(vec) < needed:
            raise VocabularyError(f"{what} returned {len(vec)} scores, need >= {needed}")
        return vec

    root = Hypothesis(tokens=[sos_id],
                      ctc_state=ctc_scorer.initial_state() if ctc_scorer else None)
    max_len = max(1, int(cfg.max_len_ratio * n_frames))
    active = [root]
    finished: list[Hypothesis] = []
    expanded = 0

    # one step past max_len scores eos for hypotheses of max_len tokens
    for step in range(max_len + 1):
        extensions: list[Hypothesis] = []
        for hyp in active:
            s2s = check_vocab(np.asarray(s2s_fn(hyp.tokens), dtype=np.float64), "s2s model")
            lm = None
            if cfg.lm_weight != 0.0:
                lm = check_vocab(np.asarray(lm_fn(hyp.tokens), dtype=np.float64), "LM")
            expanded += 1

            done = replace(
                hyp,
                tokens=list(hyp.tokens),
                s2s_logp=hyp.s2s_logp + s2s[eos_id],
                lm_logp=hyp.lm_logp + (lm[eos_id] if lm is not None else 0.0),
                ctc_logp=ctc_scorer.final_score(hyp.ctc_state) if ctc_scorer else 0.0,
                finished=True,
            )
            finished.append(done)
            if step == max_len:
                continue

            if ctc_scorer is not None:
                last = hyp.tokens[-1] if len(hyp.tokens) > 1 else None
                ctc_scores, ctc_states = ctc_scorer.extend(
                    hyp.ctc_state, len(hyp.tokens) - 1, last, candidates)
            for idx, c in enumerate(candidates):
                ext = Hypothesis(
                    tokens=hyp.tokens + [c],
                    s2s_logp=hyp.s2s_logp + s2s[c],
                    lm_logp=hyp.lm_logp + (lm[c] if lm is not None else 0.0),
                    ctc_logp=float(ctc_scores[idx]) if ctc_scorer else 0.0,
                    ctc_state=ctc_states[idx] if ctc_scorer else None,
                )
                extensions.append(ext)

        if not extensions:
            break
        extensions.sort(key=lambda h: (-combined_score(h, cfg), h.tokens))
        active = extensions[: cfg.beam_size]
        if finished:
            best_fin = max(combined_score(h, cfg) for h in finished)
            remaining = max_len - (step + 1)
            # s2s, CTC and (for gamma >= 0) LM terms only fall as a hypothesis
            # grows; a negative LM weight makes the LM term rise without bound
            optimistic = max(0.0, cfg.insertion_penalty) * remaining \
                if cfg.lm_weight >= 0.0 else math.inf
            best_act = combined_score(active[0], cfg)
            if best_fin >= best_act + optimistic:
                break

    if finished:
        best = max(finished, key=lambda h: (combined_score(h, cfg), h.tokens))
        return SearchResult(best.tokens[1:], combined_score(best, cfg), True, expanded)
    best = max(active, key=lambda h: (combined_score(h, cfg), h.tokens))
    return SearchResult(best.tokens[1:], combined_score(best, cfg), False, expanded)
