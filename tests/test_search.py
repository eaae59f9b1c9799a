"""Beam search and CTC prefix scoring against exhaustive oracles."""

import itertools
import warnings

import numpy as np
import pytest

from trasr.losses import ctc_loss
from trasr.model import (LMConfig, decode_forward, encode, init_lm_params, init_model_params,
                         lm_forward)
from trasr.search import BeamConfig, CtcPrefixScorer, beam_search, combined_score
from trasr.tensor import Tensor, log_softmax, no_grad
from trasr.training import _cached_scorer

from conftest import brute_force_prefix, random_features, random_log_probs, tiny_model_config

SOS, EOS = 2, 3


def table_s2s(trial):
    """Deterministic random next-token distribution per prefix."""
    cache = {}

    def fn(tokens):
        key = tuple(tokens)
        if key not in cache:
            r = np.random.default_rng(abs(hash((trial,) + key)) % (2 ** 31))
            z = r.normal(size=5)
            cache[key] = z - np.log(np.exp(z).sum())
        return cache[key]

    return fn


def batched(fn):
    """Beam scoring function, (prefixes [B, n], parents) -> [B, V], from a
    per-prefix one; it keeps no state, so it ignores `parents`."""
    def scores(prefixes, parents):
        return np.stack([fn([int(t) for t in p]) for p in prefixes])
    return scores


def extend_one(scorer, state, prefix_len, last, cands):
    """The batched CTC extend for one hypothesis: scores [C] and C states.
    `last` None (no token emitted yet) becomes an id that is never a candidate."""
    scores, states = scorer.extend(state[None], prefix_len,
                                   [-1 if last is None else last], cands)
    return scores[0], list(states[0])


def extend_reference(lp, blank, state, prefix_len, last_token, candidates):
    """Per-hypothesis CTC prefix recursion: scores [C] and C states [T', 2]."""
    cands = np.asarray(candidates)
    Tn, C = len(lp), len(cands)
    if prefix_len + 1 > Tn:
        return np.full(C, -np.inf), [np.full((Tn, 2), -np.inf) for _ in cands]
    xs = lp[:, cands]
    r = np.full((Tn, 2, C), -np.inf)
    if prefix_len == 0:
        r[0, 0] = xs[0]
    phi = np.repeat(np.logaddexp(state[:, 0], state[:, 1])[:, None], C, axis=1)
    if last_token is not None:
        phi[:, cands == last_token] = state[:, 1:2]
    start = max(prefix_len, 1)
    log_psi = r[start - 1, 0].copy()
    for t in range(start, Tn):
        r[t, 0] = np.logaddexp(r[t - 1, 0], phi[t - 1]) + xs[t]
        r[t, 1] = np.logaddexp(r[t - 1, 1], r[t - 1, 0]) + lp[t, blank]
        log_psi = np.logaddexp(log_psi, phi[t - 1] + xs[t])
    return log_psi, [r[:, :, i] for i in range(C)]


def exhaustive_best(s2s_fn, cfg, cands, lp, max_len, lm_fn=None):
    """Argmax over every finished body sequence up to max_len."""
    scorer = CtcPrefixScorer(lp) if cfg.ctc_weight > 0 else None
    best = (-np.inf, None)
    for L in range(0, max_len + 1):
        for body in itertools.product(cands, repeat=L):
            toks = [SOS] + list(body)
            s2s = sum(s2s_fn(toks[: i + 1])[tok] for i, tok in enumerate(body))
            s2s += s2s_fn(toks)[EOS]
            lm = 0.0
            if lm_fn is not None:
                lm = sum(lm_fn(toks[: i + 1])[tok] for i, tok in enumerate(body))
                lm += lm_fn(toks)[EOS]
            ctc = 0.0
            if scorer is not None:
                st = scorer.initial_state()
                plen, last = 0, None
                for tok in body:
                    _, states = extend_one(scorer, st, plen, last, [tok])
                    st, plen, last = states[0], plen + 1, tok
                ctc = scorer.final_score(st)
                if not np.isfinite(ctc):
                    continue
            score = ((1 - cfg.ctc_weight) * s2s + cfg.ctc_weight * ctc
                     + cfg.lm_weight * lm + cfg.insertion_penalty * L)
            if score > best[0] + 1e-12:
                best = (score, list(body))
    return best


# -- prefix scorer ----------------------------------------------------------


def test_prefix_score_matches_27_path_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lp = random_log_probs(rng, 3, 3)
        sc = CtcPrefixScorer(lp, blank_id=0)
        scores, states = extend_one(sc, sc.initial_state(), 0, None, [1, 2])
        for ci, c in enumerate([1, 2]):
            assert abs(scores[ci] - brute_force_prefix(lp, [c])) < 1e-9
        s2, _ = extend_one(sc, states[0], 1, 1, [1, 2])
        for ci, c in enumerate([1, 2]):
            want = brute_force_prefix(lp, [1, c])
            if np.isinf(want):
                assert np.isinf(s2[ci])
            else:
                assert abs(s2[ci] - want) < 1e-9


def test_one_hot_frames_forced_path():
    # frames spell "a b": prefix "a" has probability 1
    lp = np.full((2, 3), -1e9)
    lp[0, 1] = 0.0
    lp[1, 2] = 0.0
    sc = CtcPrefixScorer(lp, blank_id=0)
    scores, _ = extend_one(sc, sc.initial_state(), 0, None, [1, 2])
    assert abs(scores[0]) < 1e-6  # log 1


def test_incremental_state_equals_fresh_computation():
    rng = np.random.default_rng(1)
    lp = random_log_probs(rng, 6, 4)
    sc = CtcPrefixScorer(lp, blank_id=0)
    # incremental: extend one token at a time
    st, plen, last = sc.initial_state(), 0, None
    prefix = [1, 3, 1]
    for tok in prefix:
        scores, states = extend_one(sc, st, plen, last, [tok])
        st, plen, last = states[0], plen + 1, tok
    inc_final = sc.final_score(st)
    # fresh: score the same prefix as a complete CTC output via the loss
    want = -ctc_loss(Tensor(lp[None]), [prefix]).item()
    assert abs(inc_final - want) < 1e-9


def test_prefix_final_equals_full_sequence_ctc():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lp = random_log_probs(rng, 5, 4)
        sc = CtcPrefixScorer(lp, blank_id=0)
        target = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))]
        st, plen, last = sc.initial_state(), 0, None
        for tok in target:
            _, states = extend_one(sc, st, plen, last, [tok])
            st, plen, last = states[0], plen + 1, tok
        assert abs(sc.final_score(st) + ctc_loss(Tensor(lp[None]), [target]).item()) < 1e-6


def test_exhausted_frames_give_minus_infinity():
    lp = random_log_probs(np.random.default_rng(3), 2, 3)
    sc = CtcPrefixScorer(lp, blank_id=0)
    st, plen, last = sc.initial_state(), 0, None
    for tok in (1, 2):
        scores, states = extend_one(sc, st, plen, last, [tok])
        st, plen, last = states[0], plen + 1, tok
    scores, _ = extend_one(sc, st, 2, 2, [1])  # 3 tokens > 2 frames
    assert np.isinf(scores[0]) and scores[0] < 0


@pytest.mark.parametrize("n_frames", [6, 2])  # 2 frames: 3 tokens cannot align
def test_batched_extend_equals_per_hypothesis_recursion(n_frames):
    lp = random_log_probs(np.random.default_rng(5), n_frames, 5)
    sc = CtcPrefixScorer(lp, blank_id=0)
    cands = [1, 2, 3, 4]
    # B = 3 prefixes of 2 tokens; each last token is also a candidate
    prefixes = [[1, 2], [2, 2], [4, 1]]
    states = []
    for prefix in prefixes:
        st, last = sc.initial_state(), None
        for plen, tok in enumerate(prefix):
            _, nxt = extend_reference(lp, 0, st, plen, last, [tok])
            st, last = nxt[0], tok
        states.append(st)
    scores, new_states = sc.extend(np.stack(states), 2, [p[-1] for p in prefixes], cands)
    assert scores.shape == (3, 4) and new_states.shape == (3, 4, n_frames, 2)
    for b, prefix in enumerate(prefixes):
        want_scores, want_states = extend_reference(lp, 0, states[b], 2, prefix[-1], cands)
        np.testing.assert_allclose(scores[b], want_scores, rtol=0, atol=1e-12)
        for c in range(len(cands)):
            np.testing.assert_allclose(new_states[b, c], want_states[c], rtol=0, atol=1e-12)


def test_blank_candidate_rejected():
    sc = CtcPrefixScorer(random_log_probs(np.random.default_rng(0), 3, 3))
    with pytest.raises(ValueError):
        extend_one(sc, sc.initial_state(), 0, None, [0, 1])


# -- combined score ---------------------------------------------------------


def test_combined_score_arithmetic():
    cfg = BeamConfig(beam_size=1, ctc_weight=0.5, lm_weight=0.7,
                     insertion_penalty=0.0)
    assert abs(combined_score(-1.0, -2.0, -0.5, 1, cfg) - (-1.85)) < 1e-12
    bonus = BeamConfig(beam_size=1, ctc_weight=0.5, lm_weight=0.7,
                       insertion_penalty=2.0)
    assert abs(combined_score(-1.0, -2.0, -0.5, 1, bonus) - (-1.85 + 2.0)) < 1e-12
    # elementwise over [B, C] matrices, one n_tokens for all
    s2s = np.array([[-1.0, -3.0], [0.0, -0.4]])
    ctc = np.array([[-2.0, -1.0], [-0.2, 0.0]])
    lm = np.array([[-0.5, 0.0], [-1.0, -2.0]])
    got = combined_score(s2s, ctc, lm, 1, bonus)
    assert got.shape == (2, 2)
    for i, j in itertools.product(range(2), repeat=2):
        assert got[i, j] == combined_score(s2s[i, j], ctc[i, j], lm[i, j], 1, bonus)
    np.testing.assert_allclose(got, 0.5 * s2s + 0.5 * ctc + 0.7 * lm + 2.0,
                               rtol=0, atol=1e-12)


def test_insertion_penalty_shifts_by_p_times_length():
    base = BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.0, insertion_penalty=0.0)
    shifted = BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.0,
                         insertion_penalty=1.5)
    assert abs(combined_score(-3.0, 0.0, 0.0, 3, shifted)
               - combined_score(-3.0, 0.0, 0.0, 3, base) - 1.5 * 3) < 1e-12


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(beam_size=0)
    with pytest.raises(ValueError):
        BeamConfig(ctc_weight=1.5)


# -- beam search ------------------------------------------------------------


def test_beam_search_equals_exhaustive_enumeration():
    # gamma < 0 (internal-LM subtraction) makes the LM term grow with length
    rng = np.random.default_rng(7)
    for gamma in (0.0, -0.8):
        cfg = BeamConfig(beam_size=64, ctc_weight=0.4, lm_weight=gamma,
                         insertion_penalty=0.5, max_len_ratio=1.0)
        for trial in range(50):
            s2s = table_s2s(trial)
            lm = table_s2s(1000 + trial) if gamma else None
            lp = random_log_probs(rng, 4, 5)
            res = beam_search(batched(s2s), cfg, SOS, EOS, [4, 1], 4,
                              ctc_scorer=CtcPrefixScorer(lp),
                              lm_fn=batched(lm) if lm else None)
            want_score, want_body = exhaustive_best(s2s, cfg, [4, 1], lp, 4, lm_fn=lm)
            assert res.finished
            assert abs(res.score - want_score) < 1e-9
            assert res.tokens == want_body


@pytest.mark.parametrize("eos_logp, finished", [(-30.0, False), (np.log(0.6), True)])
def test_finished_false_only_when_length_cap_ends_search(eos_logp, finished):
    # letters 4 and 1 at 0.2 each; with an eos that is never preferred every
    # active prefix outscores every finished hypothesis until max_len (3)
    # cuts the search off
    vec = np.full(5, -30.0)
    vec[[1, 4]] = np.log(0.2)
    vec[EOS] = eos_logp
    cfg = BeamConfig(beam_size=4, ctc_weight=0.0, lm_weight=0.0,
                     insertion_penalty=0.0, max_len_ratio=1.0)
    res = beam_search(batched(lambda tokens: vec), cfg, SOS, EOS, [4, 1], 3)
    assert res.finished is finished


def test_beam_size_monotonicity_1_to_16():
    rng = np.random.default_rng(11)
    for trial in range(5):
        s2s = table_s2s(100 + trial)
        lp = random_log_probs(rng, 5, 5)
        prev = -np.inf
        for beam in range(1, 17):
            cfg = BeamConfig(beam_size=beam, ctc_weight=0.3, lm_weight=0.0,
                             insertion_penalty=0.2, max_len_ratio=1.0)
            res = beam_search(batched(s2s), cfg, SOS, EOS, [4, 1], 5,
                              ctc_scorer=CtcPrefixScorer(lp), lm_fn=None)
            assert res.score >= prev - 1e-12
            prev = res.score


def test_greedy_degenerate_weights():
    # lambda=0, gamma=0, beam=1: the argmax chain of the decoder distribution
    s2s = table_s2s(999)
    cfg = BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.0,
                     insertion_penalty=0.0, max_len_ratio=1.0)
    res = beam_search(batched(s2s), cfg, SOS, EOS, [4, 1], 6)
    toks, score = [SOS], 0.0
    for _ in range(6):
        vec = s2s(toks)
        allowed = {EOS: vec[EOS], 4: vec[4], 1: vec[1]}
        nxt = max(allowed, key=lambda k: (allowed[k], -k))
        score += allowed[nxt]
        if nxt == EOS:
            break
        toks.append(nxt)
    # greedy beam may stop earlier via its bound, but never scores below the chain
    assert res.score >= score - 1e-9


def test_uniform_lm_does_not_change_argmax():
    s2s = table_s2s(5)
    lp = random_log_probs(np.random.default_rng(4), 4, 5)
    uniform = np.log(np.full(5, 0.2))

    def lm_fn(tokens):
        return uniform

    base = BeamConfig(beam_size=64, ctc_weight=0.4, lm_weight=0.0,
                      insertion_penalty=0.5)
    fused = BeamConfig(beam_size=64, ctc_weight=0.4, lm_weight=0.7,
                       insertion_penalty=0.5)
    a = beam_search(batched(s2s), base, SOS, EOS, [4, 1], 4,
                    ctc_scorer=CtcPrefixScorer(lp))
    b = beam_search(batched(s2s), fused, SOS, EOS, [4, 1], 4,
                    ctc_scorer=CtcPrefixScorer(lp), lm_fn=batched(lm_fn))
    assert a.tokens == b.tokens


def test_missing_scorer_or_lm_raises():
    s2s = batched(table_s2s(0))
    with pytest.raises(ValueError):
        beam_search(s2s, BeamConfig(beam_size=1, ctc_weight=0.5, lm_weight=0.0),
                    SOS, EOS, [4], 4)
    with pytest.raises(ValueError):
        beam_search(s2s, BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.7),
                    SOS, EOS, [4], 4)


def test_vocab_mismatch_raises():
    from trasr.errors import VocabularyError

    def tiny_s2s(tokens):
        return np.zeros(2)  # fewer scores than eos id + 1

    cfg = BeamConfig(beam_size=1, ctc_weight=0.0, lm_weight=0.0, insertion_penalty=0.0)
    with pytest.raises(VocabularyError):
        beam_search(batched(tiny_s2s), cfg, SOS, EOS, [4], 3)


def test_deterministic_tie_break():
    # letters 4 and 1 at 0.4 each, eos after a letter at 0.9: the finished
    # bodies [4] and [1] tie exactly, and the larger tokens win
    def table(tokens):
        vec = np.full(5, -30.0)
        vec[[1, 4]] = np.log(0.4)
        if len(tokens) > 1:
            vec[EOS] = np.log(0.9)
        return vec

    cfg = BeamConfig(beam_size=4, ctc_weight=0.0, lm_weight=0.0,
                     insertion_penalty=0.0, max_len_ratio=1.0)
    a = beam_search(batched(table), cfg, SOS, EOS, [4, 1], 3)
    b = beam_search(batched(table), cfg, SOS, EOS, [4, 1], 3)
    assert a.tokens == b.tokens == [4]
    assert a.score == b.score
    assert abs(a.score - (np.log(0.4) + np.log(0.9))) < 1e-12
    assert a.n_expanded == 3


def test_dead_prefixes_dropped_without_warning():
    # gamma < 0 makes the early-stop bound infinite; with max_len twice the
    # frames every prefix longer than 3 tokens has CTC score -inf
    rng = np.random.default_rng(13)
    cfg = BeamConfig(beam_size=4, ctc_weight=0.4, lm_weight=-0.8,
                     insertion_penalty=0.5, max_len_ratio=2.0)
    for trial in range(10):
        s2s, lm = table_s2s(300 + trial), table_s2s(1300 + trial)
        lp = random_log_probs(rng, 3, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = beam_search(batched(s2s), cfg, SOS, EOS, [4, 1], 3,
                              ctc_scorer=CtcPrefixScorer(lp), lm_fn=batched(lm))
        want_score, want_body = exhaustive_best(s2s, cfg, [4, 1], lp, 6, lm_fn=lm)
        assert abs(res.score - want_score) < 1e-9
        assert res.tokens == want_body


def test_ctc_scorer_at_weight_zero_is_ignored():
    # at weight 0 a passed scorer must not change the search: 0 * (-inf) for
    # prefixes longer than the 2 frames would be NaN and drop hypotheses
    cfg = BeamConfig(beam_size=4, ctc_weight=0.0, lm_weight=0.0,
                     insertion_penalty=0.5, max_len_ratio=2.0)
    lp = random_log_probs(np.random.default_rng(5), 2, 5)
    for trial in range(5):
        s2s = batched(table_s2s(400 + trial))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beam_search(s2s, cfg, SOS, EOS, [4, 1], 2, ctc_scorer=CtcPrefixScorer(lp))
        want = beam_search(s2s, cfg, SOS, EOS, [4, 1], 2)
        assert (got.tokens, got.score, got.n_expanded) == \
            (want.tokens, want.score, want.n_expanded)


def recording(fn, calls):
    """A `batched(fn)` scorer that appends each call's (prefixes, parents)."""
    inner = batched(fn)

    def scores(prefixes, parents):
        calls.append((prefixes.copy(), parents))
        return inner(prefixes, parents)
    return scores


@pytest.mark.parametrize("beam", [1, 3, 8])
def test_scorers_get_parents_of_each_prefix(beam):
    rng = np.random.default_rng(beam)
    cfg = BeamConfig(beam_size=beam, ctc_weight=0.4, lm_weight=0.5,
                     insertion_penalty=0.5, max_len_ratio=1.5)
    for trial in range(5):
        s2s_calls, lm_calls = [], []
        beam_search(recording(table_s2s(500 + trial), s2s_calls), cfg, SOS, EOS, [4, 1], 4,
                    ctc_scorer=CtcPrefixScorer(random_log_probs(rng, 4, 5)),
                    lm_fn=recording(table_s2s(600 + trial), lm_calls))
        assert len(s2s_calls) == len(lm_calls) > 1
        for calls in (s2s_calls, lm_calls):
            (first, parents), *rest = calls
            assert parents is None and first.tolist() == [[SOS]]
            previous = first
            for prefixes, parents in rest:
                assert np.array_equal(prefixes[:, :-1], previous[parents])
                previous = prefixes
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                   for a, b in zip(s2s_calls[1:], lm_calls[1:]))


def test_cached_model_scorers_search_like_full_prefix_ones():
    """Beam search over a float64 decoder and LM: the decoding scorers, which
    keep one KVCache each and gather it by `parents`, find the same
    hypotheses as scorers that re-run every prefix in full."""
    cfg = tiny_model_config(dec_layers=2, heads=4)
    params = init_model_params(cfg, seed=0, dtype=np.float64)
    lm_cfg = LMConfig(layers=2, d_att=16, d_ff=32, heads=2, vocab_size=7)
    lm_params = init_lm_params(lm_cfg, seed=0, dtype=np.float64)
    bc = BeamConfig(beam_size=4, ctc_weight=0.3, lm_weight=0.4, insertion_penalty=0.5)

    def full_prefix(forward):
        def score(prefixes, parents):
            with no_grad():
                return log_softmax(forward(prefixes, None), axis=-1).data[:, -1]
        return score

    for trial in range(4):
        seq = random_features(np.random.default_rng(trial), 12, 16, dtype=np.float64)
        with no_grad():
            x_e, _ = encode(seq.features[None], [seq.length], cfg, params)
        lp = random_log_probs(np.random.default_rng(50 + trial), x_e.shape[1], 7)

        def dec(p, c):
            return decode_forward(p, x_e, cfg, params, cache=c)

        def lm(p, c):
            return lm_forward(p, lm_cfg, lm_params, cache=c)

        full, cached = [beam_search(wrap(dec), bc, SOS, EOS, [4, 5, 6], x_e.shape[1],
                                    ctc_scorer=CtcPrefixScorer(lp), lm_fn=wrap(lm))
                        for wrap in (full_prefix, _cached_scorer)]
        assert cached.n_expanded > 4
        assert (cached.tokens, cached.finished, cached.n_expanded) == \
            (full.tokens, full.finished, full.n_expanded)
        assert abs(cached.score - full.score) < 1e-10
