"""Joint CTC/attention beam search with shallow LM fusion.

Hypotheses are scored by
    (1 - lambda) * s2s + lambda * ctc_prefix + gamma * lm + penalty * n_tokens
and moved to a finished pool when they emit eos; at that point the CTC term
becomes the probability of the prefix as a complete output.

The beam is arrays only: prefixes [B, s + 1] at step s, running s2s and LM
log-probabilities and scores [B], CTC states [B, T', 2]. Each step makes one
call per scorer (`s2s_fn`, `lm_fn`: (prefixes [B, s + 1], parents) -> [B, V],
where row i extends row parents[i] of the previous step's prefixes, None at
step 0, so a scorer can carry state per hypothesis; `CtcPrefixScorer.extend`
scores all B x C extensions), drops extensions scoring -inf (a prefix longer
than the frames allow never recovers), and picks the next beam with one
lexsort on (-score, tokens). A result is unfinished when the length cap, not
the score, ended the search (`report.json`'s `unfinished`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VocabularyError, bounded, check_fields


@dataclass
class BeamConfig:
    beam_size: int = bounded(20, 1)
    ctc_weight: float = bounded(0.5, 0, 1)  # lambda
    lm_weight: float = 0.7        # gamma
    insertion_penalty: float = 2.0  # additive log-score bonus per emitted token
    max_len_ratio: float = bounded(1.0, 0, open_low=True)

    __post_init__ = check_fields


class CtcPrefixScorer:
    """Incremental prefix log-probabilities over a [T', V] CTC log-prob grid.

    State per hypothesis is a [T', 2] array of (non-blank, blank) forward
    log-probabilities for the current prefix; `extend` takes the states of
    every active hypothesis stacked as [B, T', 2].
    """

    def __init__(self, log_probs: np.ndarray, blank_id: int = 0):
        self.lp = np.asarray(log_probs, dtype=np.float64)
        if self.lp.ndim != 2:
            raise ValueError(f"CTC log-probs must be 2-d, got shape {self.lp.shape}")
        self.n_frames = len(self.lp)
        self.blank = blank_id

    def initial_state(self) -> np.ndarray:
        r = np.full((self.n_frames, 2), -np.inf)
        r[0, 1] = self.lp[0, self.blank]
        for t in range(1, self.n_frames):
            r[t, 1] = r[t - 1, 1] + self.lp[t, self.blank]
        return r

    def extend(self, states: np.ndarray, prefix_len: int, last_tokens,
               candidates) -> tuple[np.ndarray, np.ndarray]:
        """Prefix log-scores [B, C] and new states [B, C, T', 2] for every
        candidate extension of B hypotheses of `prefix_len` emitted tokens.

        `states` is [B, T', 2]; `last_tokens` [B] holds each prefix's last
        token (sos, which is never a candidate, for the bare sos prefix).
        """
        cands = np.asarray(candidates, dtype=np.int64)
        if np.any(cands == self.blank):
            raise ValueError("blank cannot be a search candidate")
        Tn = self.n_frames
        B, C = len(states), len(cands)
        if prefix_len + 1 > Tn:  # more tokens than frames: no alignment exists
            return np.full((B, C), -np.inf), np.full((B, C, Tn, 2), -np.inf)
        xs = self.lp[:, None, cands]  # [T, 1, C]
        r = np.full((Tn, 2, B, C), -np.inf)
        if prefix_len == 0:
            r[0, 0] = xs[0]
        # phi[t, b, c]: mass of prefix b ending by frame t that may emit c next;
        # a repeated token must cross a blank
        r_sum = np.logaddexp(states[:, :, 0], states[:, :, 1]).T  # [T, B]
        same = cands[None, :] == np.asarray(last_tokens)[:, None]  # [B, C]
        phi = np.where(same, states[:, :, 1].T[:, :, None], r_sum[:, :, None])
        start = max(prefix_len, 1)
        log_psi = r[start - 1, 0].copy()
        for t in range(start, Tn):
            r[t, 0] = np.logaddexp(r[t - 1, 0], phi[t - 1]) + xs[t]
            r[t, 1] = np.logaddexp(r[t - 1, 1], r[t - 1, 0]) + self.lp[t, self.blank]
            log_psi = np.logaddexp(log_psi, phi[t - 1] + xs[t])
        return log_psi, r.transpose(2, 3, 0, 1)

    def final_score(self, state: np.ndarray):
        """Log-probability of the prefix as a complete CTC output; `state` is
        [T', 2], or stacked [..., T', 2] for one score per hypothesis."""
        return np.logaddexp(state[..., -1, 0], state[..., -1, 1])


def combined_score(s2s, ctc, lm, n_tokens, cfg: BeamConfig):
    """Elementwise (1 - lambda) * s2s + lambda * ctc + gamma * lm
    + penalty * n_tokens over scalars or arrays of log-probabilities."""
    score = (1.0 - cfg.ctc_weight) * s2s + cfg.lm_weight * lm
    score += cfg.ctc_weight * ctc
    return score + cfg.insertion_penalty * n_tokens


@dataclass
class SearchResult:
    tokens: list[int]  # body tokens, no sos/eos
    score: float
    finished: bool     # False: the length cap, not the score, ended the search
    n_expanded: int = 0


def beam_search(s2s_fn, cfg: BeamConfig, sos_id: int, eos_id: int, candidates,
                n_frames: int, ctc_scorer: CtcPrefixScorer | None = None,
                lm_fn=None) -> SearchResult:
    """Best token sequence under the combined score.

    `s2s_fn` (and `lm_fn`, when gamma != 0) map the beam's prefixes [B, n]
    and their parents [B] (row indices into the previous call's prefixes,
    None on the first call) to next-token log-probabilities [B, V]. The
    result is unfinished when a prefix cut off at the length cap outscores
    the best finished hypothesis.
    """
    cands = np.array([c for c in candidates if c not in (sos_id, eos_id)], dtype=np.int64)
    needed = max([eos_id, *cands]) + 1
    if cfg.ctc_weight > 0.0 and ctc_scorer is None:
        raise ValueError("ctc_weight > 0 requires a CTC prefix scorer")
    if cfg.lm_weight != 0.0 and lm_fn is None:
        raise ValueError("lm_weight != 0 requires a language model")
    if cfg.ctc_weight == 0.0:
        ctc_scorer = None  # 0 * (-inf) would make dead prefixes NaN

    def score_beam(fn, prefixes, parents, what):
        scores = np.asarray(fn(prefixes, parents), dtype=np.float64)
        if scores.shape[-1] < needed:
            raise VocabularyError(f"{what} returned {scores.shape[-1]} scores, need >= {needed}")
        return scores

    max_len = max(1, int(cfg.max_len_ratio * n_frames))
    prefixes, parents = np.array([[sos_id]], dtype=np.int64), None
    s2s_sum, lm_sum = np.zeros(1), np.zeros(1)
    ctc_states = ctc_scorer.initial_state()[None] if ctc_scorer else None
    finished: list[tuple[float, list[int]]] = []  # (score, body tokens)
    expanded = 0

    # one step past max_len scores eos for hypotheses of max_len tokens; its
    # extensions are only compared with the result
    for step in range(max_len + 1):
        s2s = score_beam(s2s_fn, prefixes, parents, "s2s model")
        lm = score_beam(lm_fn, prefixes, parents, "LM") if cfg.lm_weight != 0.0 \
            else np.zeros_like(s2s)
        expanded += len(prefixes)
        ctc_final = ctc_ext = 0.0
        if ctc_scorer is not None:
            ctc_final = ctc_scorer.final_score(ctc_states)
            ctc_ext, ctc_states = ctc_scorer.extend(ctc_states, step, prefixes[:, -1], cands)
        fin = combined_score(s2s_sum + s2s[:, eos_id], ctc_final, lm_sum + lm[:, eos_id],
                             step, cfg)
        finished.extend(zip(fin.tolist(), prefixes[:, 1:].tolist()))

        s2s_ext = s2s_sum[:, None] + s2s[:, cands]  # [B, C]
        lm_ext = lm_sum[:, None] + lm[:, cands]
        score = combined_score(s2s_ext, ctc_ext, lm_ext, step + 1, cfg).ravel()
        ext = np.column_stack([np.repeat(prefixes, len(cands), axis=0),
                               np.tile(cands, len(prefixes))])
        order = np.lexsort((*ext.T[::-1], -score))
        order = order[score[order] > -np.inf][: cfg.beam_size]
        parents, c = np.divmod(order, len(cands))
        prefixes, beam_score = ext[order], score[order]
        s2s_sum, lm_sum = s2s_ext[parents, c], lm_ext[parents, c]
        ctc_states = ctc_states[parents, c] if ctc_scorer else None
        if not len(order) or step == max_len:
            break
        # s2s, CTC and (for gamma >= 0) LM terms only fall as a hypothesis
        # grows; a negative LM weight makes the LM term rise without bound
        optimistic = max(0.0, cfg.insertion_penalty) * (max_len - step - 1) \
            if cfg.lm_weight >= 0.0 else math.inf
        if max(finished)[0] >= beam_score[0] + optimistic:
            break

    best_score, best_tokens = max(finished)
    capped = len(beam_score) > 0 and beam_score[0] > best_score
    return SearchResult(best_tokens, best_score, not capped, expanded)
