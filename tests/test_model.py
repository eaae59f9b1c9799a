"""Transformer encoder/decoder, time reduction, MAC counting, and the LM."""

import math
import re
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

import trasr.losses as losses
import trasr.tensor as T
from trasr.checkpoint import open_checkpoint, save_checkpoint, snapshot_teacher
from trasr.config import resolve
from trasr.data import Batch
from trasr.errors import MaskError, SequenceTooShortError, ShapeError
from trasr.frontend import KINDS, FeatureSequence, output_length
from trasr.model import (EVAL_CTX, REDUCTIONS, ForwardCtx, KVCache, LMConfig, MacCounter,
                         ModelConfig, attention, count_attention_macs, ctc_log_probs,
                         decode_forward, encode, encoder_layer, encoder_layer_lengths,
                         init_lm_params, init_model_params, lm_forward, load_model_params,
                         multi_head_attention, param_table, position_wise_ffn, time_reduce)
from trasr.losses import ce_label_smoothed, ctc_loss
from trasr.optim import ParameterStore
from trasr.rng import StreamCache
from trasr.tensor import Tensor
from trasr.training import batch_loss

from gradcheck import grad_check
from conftest import encode_one, random_features, refuse_init_draws, tiny_model_config

SEEDS = (0, 1, 2)


# -- config invariants ------------------------------------------------------


def test_model_config_defaults_and_validation():
    cfg = ModelConfig()
    assert (cfg.e1, cfg.e2, cfg.dec_layers) == (2, 10, 6)
    assert (cfg.d_att, cfg.d_ff, cfg.heads) == (256, 2048, 4)
    assert cfg.num_encoder_layers == 12
    with pytest.raises(ValueError):
        ModelConfig(d_att=10, heads=4)
    assert cfg.reduction == "tr" and cfg.reductions == {2: "enc.tr"}
    with pytest.raises(ValueError, match="^reduction must be one of none, tr, pyramidal, got"):
        ModelConfig(reduction="both")
    with pytest.raises(ValueError, match="at least 3 layers"):
        ModelConfig(e1=1, e2=1, reduction="pyramidal")


# -- attention --------------------------------------------------------------


def test_attention_records_macs():
    rng = np.random.default_rng(0)
    q = Tensor(rng.normal(size=(8, 4)))
    counter = MacCounter()
    attention(q, q, q, counter=counter)
    assert counter.total == 2 * 8 * 8 * 4 == 512


def test_attention_leading_batch_axis_equals_per_slice_calls():
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(3, 5, 4)))
    kv = Tensor(rng.normal(size=(3, 6, 4)))
    shared = Tensor(rng.normal(size=(6, 4)))  # one k/v for every query stack
    mask = np.tril(np.ones((5, 6), dtype=bool))
    for k in (kv, shared):
        counter, single = MacCounter(), MacCounter()
        got = attention(q, k, k, mask=mask, counter=counter).data
        for b in range(3):
            kb = k[b] if k.ndim == 3 else k
            want = attention(q[b], kb, kb, mask=mask, counter=single).data
            np.testing.assert_allclose(got[b], want, rtol=0, atol=1e-12)
        assert counter.total == single.total == 3 * 2 * 5 * 6 * 4


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                  Tensor(np.zeros((4, 5))))


def test_attention_fully_masked_row_raises():
    x = Tensor(np.zeros((2, 4)))
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(MaskError):
        attention(x[:, :], x, x, mask=mask)


def test_attention_uniform_when_scores_equal():
    v = Tensor(np.arange(6.0).reshape(3, 2))
    q = Tensor(np.zeros((2, 2)))
    out = attention(q, Tensor(np.zeros((3, 2))), v)
    assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)))


# one encoder layer, 'lm.layer0', of width 8 (d_ff 16, 2 heads)
ONE_LAYER = LMConfig(layers=1, d_att=8, d_ff=16, heads=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_mha_gradient(seed):
    rng = np.random.default_rng(seed)
    store = init_lm_params(ONE_LAYER, seed, np.float64)
    w = rng.normal(size=(5, 8))

    def f(x):
        out = multi_head_attention(x, x, store, "lm.layer0.mha", heads=2)
        return T.tsum(out * Tensor(w))

    assert grad_check(f, rng.normal(size=(5, 8))) < 1e-3


def test_mha_single_head_equals_plain_attention():
    rng = np.random.default_rng(0)
    store = init_lm_params(LMConfig(layers=1, d_att=6, heads=1), 0, np.float64)
    x = Tensor(rng.normal(size=(4, 6)))
    got = multi_head_attention(x, x, store, "lm.layer0.mha", heads=1)
    q = T.matmul(x, store["lm.layer0.mha.wq"])
    k = T.matmul(x, store["lm.layer0.mha.wk"])
    v = T.matmul(x, store["lm.layer0.mha.wv"])
    want = T.matmul(attention(q, k, v), store["lm.layer0.mha.wo"])
    assert np.allclose(got.data, want.data, atol=1e-12)


# -- FFN and encoder layer --------------------------------------------------


def test_ffn_zero_weights_gives_constant_b2():
    store = ParameterStore()
    store.add("ffn.w1", Tensor(np.zeros((4, 8))))
    store.add("ffn.b1", Tensor(np.zeros(8)))
    store.add("ffn.w2", Tensor(np.zeros((8, 4))))
    store.add("ffn.b2", Tensor(np.arange(4.0)))
    out = position_wise_ffn(Tensor(np.random.default_rng(0).normal(size=(3, 4))),
                            store, "ffn")
    assert np.allclose(out.data, np.tile(np.arange(4.0), (3, 1)))


@pytest.mark.parametrize("batched", [False, True])
def test_encoder_layer_output_shape_and_identity_residual(batched):
    """One sequence [5, 8], or a padded batch [2, 5, 8] with its key mask."""
    store = init_lm_params(ONE_LAYER, 0, np.float64)
    shape, mask = (5, 8), None
    if batched:  # the second row's last 2 frames are padding
        shape, mask = (2, 5, 8), (np.arange(5) < np.array([[5], [3]]))[:, None, None, :]
    x = Tensor(np.random.default_rng(0).normal(size=shape))
    out = encoder_layer(x, store, "lm.layer0", heads=2, mask=mask)
    assert out.shape == shape
    # zero the sublayer output projections: pre-norm layers become the identity
    store["lm.layer0.mha.wo"].data[:] = 0.0
    store["lm.layer0.ffn.w2"].data[:] = 0.0
    store["lm.layer0.ffn.b2"].data[:] = 0.0
    out = encoder_layer(x, store, "lm.layer0", heads=2, mask=mask)
    assert np.array_equal(out.data, x.data)


@pytest.mark.parametrize("seed", SEEDS)
def test_encoder_layer_gradient(seed):
    store = init_lm_params(ONE_LAYER, seed, np.float64)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 8))

    def f(x):
        return T.tsum(encoder_layer(x, store, "lm.layer0", heads=2) * Tensor(w))

    assert grad_check(f, rng.normal(size=(4, 8))) < 1e-3


# -- time reduction ---------------------------------------------------------


def test_time_reduce_halves_and_drops_odd_tail():
    store = ParameterStore()
    d = 4
    store.add("tr.w", Tensor(np.eye(2 * d)[:, :d]))  # picks the first frame of each pair
    store.add("tr.b", Tensor(np.zeros(d)))
    x = Tensor(np.arange(7.0 * d).reshape(7, d))
    out, _ = time_reduce(x, 7, store, "tr")
    assert out.shape == (3, d)
    assert np.array_equal(out.data, x.data[[0, 2, 4]])


def test_time_reduce_concatenates_adjacent_pairs():
    store = ParameterStore()
    d = 3
    store.add("tr.w", Tensor(np.eye(2 * d)[:, d:]))  # picks the second frame
    store.add("tr.b", Tensor(np.zeros(d)))
    x = Tensor(np.arange(4.0 * d).reshape(4, d))
    out, _ = time_reduce(x, 4, store, "tr")
    assert np.array_equal(out.data, x.data[[1, 3]])


def test_time_reduce_too_short():
    store = ParameterStore()
    store.add("tr.w", Tensor(np.zeros((8, 4))))
    store.add("tr.b", Tensor(np.zeros(4)))
    with pytest.raises(SequenceTooShortError):
        time_reduce(Tensor(np.zeros((1, 4))), 1, store, "tr")


# -- full encoder -----------------------------------------------------------


def test_encode_conv2d4_plus_tr_total_factor_8():
    # TR0 and TR2 placements, 200 random lengths: n_out == (conv4 length) // 2
    rng = np.random.default_rng(0)
    for e1, e2 in ((0, 2), (2, 1)):
        cfg = tiny_model_config(e1=e1, e2=e2, frontend="conv2d4", d_att=16,
                                feature_dim=16)
        params = init_model_params(cfg, seed=0)
        for T_in in rng.integers(20, 200, size=10):
            seq = random_features(rng, int(T_in), 16)
            _, n = encode_one(seq, cfg, params)
            assert n == output_length("conv2d4", int(T_in)) // 2


def test_encode_length_contract_200_random_lengths():
    for e1, e2 in ((0, 2), (2, 1)):
        cfg = tiny_model_config(e1=e1, e2=e2, frontend="conv2d4", d_att=16,
                                feature_dim=16)
        for T_in in range(9, 209):
            n4 = output_length("conv2d4", T_in)
            _, final = encoder_layer_lengths(cfg, T_in)
            assert final == n4 // 2


def test_encode_collapse_to_zero_raises():
    cfg = tiny_model_config(frontend="conv2d4", d_att=16, feature_dim=16)
    params = init_model_params(cfg, seed=0)
    seq = random_features(np.random.default_rng(0), 7, 16)  # conv4 -> 1 -> TR fails
    with pytest.raises(SequenceTooShortError):
        encode_one(seq, cfg, params)


def test_pyramidal_three_halvings():
    cfg = tiny_model_config(e1=0, e2=3, reduction="pyramidal")
    params = init_model_params(cfg, seed=0)
    seq = random_features(np.random.default_rng(0), 40, 16)
    _, n = encode_one(seq, cfg, params)
    assert n == ((40 // 2) // 2) // 2 == 5


def test_padding_invariance_of_encoder():
    cfg = tiny_model_config()
    params = init_model_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    body = rng.normal(size=(9, 16)).astype(np.float32)
    alloc = np.concatenate([body, 55.0 * np.ones((4, 16), dtype=np.float32)])
    out1, _ = encode_one(FeatureSequence(body, 9), cfg, params)
    out2, _ = encode_one(FeatureSequence(alloc, 9), cfg, params)
    assert np.allclose(out1.data, out2.data, atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_model_composed_gradient(seed):
    from trasr.losses import ce_label_smoothed, ctc_loss, joint_loss

    cfg = tiny_model_config()
    params = init_model_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    seq = random_features(rng, 9, 16, dtype=np.float64)

    def forward():
        x_e, _ = encode_one(seq, cfg, params)
        l1 = ctc_loss(ctc_log_probs(x_e, params), [5, 6])
        logits = decode_forward([2, 5, 6], x_e, cfg, params)
        l2 = ce_label_smoothed(logits, [5, 6, 3])
        return joint_loss(l1, l2, 0.3)

    forward().backward()
    for name in ("enc.layer0.mha.wq", "enc.tr.w", "dec.layer0.src.wk", "ctc.w",
                 "dec.embed", "frontend.proj.w"):
        w = params[name]
        g = w.grad
        idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
        eps = 1e-5
        orig = float(w.data[idx])
        w.data[idx] = orig + eps
        hi = forward().item()
        w.data[idx] = orig - eps
        lo = forward().item()
        w.data[idx] = orig
        rel = abs((hi - lo) / (2 * eps) - g[idx]) / max(1.0, abs(g[idx]))
        assert rel < 1e-3, f"{name}: rel err {rel}"
    for _, t in params.items():
        t.grad = None


# -- batch-first forward ----------------------------------------------------


def _row_terms(cfg, params, feats, lengths, targets, row):
    """CTC and CE terms of batch row `row` from one batched forward, and the
    gradient of their sum with respect to every parameter."""
    for _, t in params.items():
        t.grad = None
    x_e, x_len = encode(feats, lengths, cfg, params)
    lp = ctc_log_probs(x_e, params)
    l_ctc = ctc_loss(lp[row:row + 1], [targets[row]], lengths=x_len[row:row + 1])
    width = 1 + max(len(t) for t in targets)
    prefix = np.full((len(targets), width), 4)
    for b, t in enumerate(targets):
        prefix[b, : len(t) + 1] = [2] + t
    dec_len = np.array([len(t) + 1 for t in targets])
    logits = decode_forward(prefix, x_e, cfg, params, lengths=dec_len, x_lengths=x_len)
    l_ce = ce_label_smoothed(logits[row, : dec_len[row]], targets[row] + [3], 0.1)
    (l_ctc + l_ce).backward()
    grads = {name: t.grad.copy() for name, t in params.items() if t.grad is not None}
    return l_ctc.item(), l_ce.item(), grads


ARCHS = {"tr": dict(e1=1, e2=1),
         "pyramidal": dict(e1=0, e2=3, reduction="pyramidal")}


@pytest.mark.parametrize("short_target", [False, True])
@pytest.mark.parametrize("arch", sorted(ARCHS))
@pytest.mark.parametrize("kind", ["conv2d4", "vggconv2d4", "identity"])
def test_row_loss_and_gradient_independent_of_batchmates_and_padding(kind, arch, short_target):
    """With `short_target`, the row's decoder prefix is padded in the batch too."""
    cfg = tiny_model_config(frontend=kind, feature_dim=16, **ARCHS[arch])
    params = init_model_params(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(3)
    lengths = [85, 77, 81]  # the middle row is the shortest, with odd lengths
    feats = rng.normal(size=(3, 92, 16))  # frames past each length are garbage
    targets = [[6], [5], [6, 5, 6]] if short_target else [[6], [5, 6], [6, 5]]
    alone = _row_terms(cfg, params, feats[1:2, :77], [77], targets[1:2], 0)
    in_batch = _row_terms(cfg, params, feats, lengths, targets, 1)
    assert abs(alone[0] - in_batch[0]) < 1e-5 and abs(alone[1] - in_batch[1]) < 1e-5
    assert alone[2].keys() == in_batch[2].keys()
    for name, g in alone[2].items():
        np.testing.assert_allclose(in_batch[2][name], g, rtol=0, atol=1e-5, err_msg=name)


def test_dropout_rows_draw_like_unpadded_calls():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 6, 4)).astype(np.float32))
    lengths = [4, 6, 1]
    batched = ForwardCtx(dropout=0.3, streams=StreamCache(7))
    got = batched.drop(x, "enc.layer0.mha", lengths).data
    per_row = ForwardCtx(dropout=0.3, streams=StreamCache(7))
    for row, n in enumerate(lengths):
        want = per_row.drop(Tensor(x.data[row, :n]), "enc.layer0.mha").data
        assert np.array_equal(got[row, :n], want)
        assert np.array_equal(got[row, n:], x.data[row, n:])  # padding keeps scale 1


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_heads_axis_macs_equal_analytic_count(heads):
    cfg = tiny_model_config(heads=heads, frontend="conv2d4", feature_dim=16)
    params = init_model_params(cfg, seed=0)
    feats = np.random.default_rng(0).normal(size=(2, 60, 16)).astype(np.float32)
    for batch in (feats[:1], feats):
        counter = MacCounter()
        encode(batch, [60] * len(batch), cfg, params, ForwardCtx(counter=counter))
        assert counter.total == len(batch) * count_attention_macs(cfg, 60)["total_macs"]


# -- decoder ----------------------------------------------------------------


def test_decoder_causality_bit_exact(tiny_model):
    cfg, params = tiny_model
    seq = random_features(np.random.default_rng(0), 9, 16)
    x_e, _ = encode_one(seq, cfg, params)
    base = decode_forward([2, 5, 6, 5], x_e, cfg, params).data
    perturbed = decode_forward([2, 5, 6, 6], x_e, cfg, params).data
    assert np.array_equal(base[:2], perturbed[:2])  # positions before the change
    assert not np.array_equal(base[3], perturbed[3])


def test_decoder_empty_prefix_rejected(tiny_model):
    cfg, params = tiny_model
    seq = random_features(np.random.default_rng(0), 9, 16)
    x_e, _ = encode_one(seq, cfg, params)
    with pytest.raises(ValueError):
        decode_forward([], x_e, cfg, params)


def test_decoder_and_lm_on_prefix_stack_equal_row_calls(tiny_model):
    cfg, params = tiny_model
    seq = random_features(np.random.default_rng(0), 9, 16)
    x_e, _ = encode_one(seq, cfg, params)
    lm_cfg = LMConfig(layers=2, d_att=8, d_ff=16, heads=2, vocab_size=7)
    lm_params = init_lm_params(lm_cfg, seed=0)
    stack = np.array([[2, 5, 6, 5], [2, 6, 6, 4], [2, 4, 5, 6]])
    dec = decode_forward(stack, x_e, cfg, params).data
    lm = lm_forward(stack, lm_cfg, lm_params).data
    assert dec.shape == (3, 4, cfg.vocab_size) and lm.shape == (3, 4, 7)
    for b, row in enumerate(stack):
        np.testing.assert_allclose(dec[b], decode_forward(row, x_e, cfg, params).data,
                                   rtol=0, atol=1e-5)
        np.testing.assert_allclose(lm[b], lm_forward(row, lm_cfg, lm_params).data,
                                   rtol=0, atol=1e-5)


# Beam steps (parents, new tokens): the first call feeds sos and 2 tokens
# into an empty cache, later calls feed 1 or 2 tokens per row. Row i of a
# step extends row parents[i] of the step before; the third step repeats
# hypothesis 0 and drops hypothesis 1.
STEPS = [(None, 2), ([0, 1, 2], 1), ([2, 0, 0], 2), ([1, 2, 0], 1)]


def _check_cached_steps(forward, steps=STEPS):
    """Run `forward(prefixes, cache)` over beam `steps` on random tokens: the cached
    logits of the new positions equal the full-prefix ones. Returns the cache."""
    rng = np.random.default_rng(0)
    cache, prefixes = KVCache(), np.full((3, 1), 2)
    for parents, width in steps:
        if parents is not None:
            prefixes = prefixes[parents]
            cache.select(parents)
        prefixes = np.hstack([prefixes, rng.integers(4, 7, size=(3, width))])
        fed = prefixes.shape[1] - cache.length
        with T.no_grad():
            got = forward(prefixes, cache).data
            want = forward(prefixes, None).data[:, -fed:]
        assert got.shape == want.shape and cache.length == prefixes.shape[1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    return cache


@pytest.mark.parametrize("dec_layers", [0, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("padded_encoder", [False, True])
def test_cached_decoder_steps_equal_full_prefix(padded_encoder, heads, dec_layers):
    """The rows share one encoder output, or each has its own in a padded
    batch with true frame counts (then the cross-attention keys are masked)."""
    cfg = tiny_model_config(heads=heads, dec_layers=dec_layers)
    params = init_model_params(cfg, seed=0, dtype=np.float64)
    lengths, steps = [9], STEPS
    if padded_encoder:  # a row keeps its utterance: beams do not cross rows
        lengths, steps = [9, 6, 7], [(None if p is None else [0, 1, 2], w) for p, w in STEPS]
    feats = np.random.default_rng(1).normal(size=(len(lengths), 9, 16))
    x_e, x_len = encode(feats, lengths, cfg, params)
    cache = _check_cached_steps(
        lambda p, c: decode_forward(p, x_e, cfg, params, x_lengths=x_len, cache=c), steps)
    # cross-attention K/V: one projection of the encoder output per layer
    assert sorted(cache.src_kv) == [f"dec.layer{j}.src" for j in range(dec_layers)]
    d_k = cfg.d_att // heads
    for k, v in cache.src_kv.values():
        assert k.shape == v.shape == (x_e.shape[0], heads, x_e.shape[1], d_k)
    for k, v in cache.self_kv.values():
        assert k.shape == v.shape == (3, heads, cache.length, d_k)


@pytest.mark.parametrize("layers", [0, 2])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_cached_lm_steps_equal_full_prefix(heads, layers):
    cfg = LMConfig(layers=layers, d_att=16, d_ff=32, heads=heads, vocab_size=7)
    params = init_lm_params(cfg, seed=0, dtype=np.float64)
    cache = _check_cached_steps(lambda p, c: lm_forward(p, cfg, params, cache=c))
    assert sorted(cache.self_kv) == [f"lm.layer{i}.mha" for i in range(layers)]
    assert not cache.src_kv


def test_cache_with_gradients_enabled_raises(tiny_model):
    cfg, params = tiny_model
    x_e, _ = encode_one(random_features(np.random.default_rng(0), 9, 16), cfg, params)
    lm_cfg = LMConfig(layers=1, d_att=8, d_ff=16, heads=2, vocab_size=7)
    lm_params = init_lm_params(lm_cfg, seed=0)
    with pytest.raises(RuntimeError, match="inference-only"):
        decode_forward([[2, 5]], x_e, cfg, params, cache=KVCache())
    with pytest.raises(RuntimeError, match="inference-only"):
        lm_forward([[2, 5]], lm_cfg, lm_params, cache=KVCache())


@pytest.mark.parametrize("prefix, held", [([], 0), ([[2, 5, 6]], 3)], ids=["empty", "cached"])
@pytest.mark.parametrize("stack", ["dec", "lm"])
def test_a_prefix_with_no_position_to_feed_raises(stack, prefix, held, tiny_model):
    """An empty prefix without a cache, or a prefix no longer than what a
    cache holds, is a ValueError naming the stack's embedding."""
    cfg, params = tiny_model
    if stack == "dec":
        x_e, _ = encode_one(random_features(np.random.default_rng(0), 9, 16), cfg, params)
        forward = lambda p, c: decode_forward(p, x_e, cfg, params, cache=c)
    else:
        lm_cfg = LMConfig(layers=1, d_att=8, d_ff=16, heads=2, vocab_size=7)
        lm_params = init_lm_params(lm_cfg, seed=0)
        forward = lambda p, c: lm_forward(p, lm_cfg, lm_params, cache=c)
    cache = KVCache() if held else None
    with T.no_grad():
        if cache is not None:
            forward(prefix, cache)
        n = np.shape(prefix)[-1]
        with pytest.raises(ValueError, match=rf"^{stack}\.embed: prefix has {n} positions, "
                                             rf"need more than {held}$"):
            forward(prefix, cache)


def test_decoder_logit_shape(tiny_model):
    cfg, params = tiny_model
    seq = random_features(np.random.default_rng(0), 9, 16)
    x_e, _ = encode_one(seq, cfg, params)
    assert decode_forward([2, 5], x_e, cfg, params).shape == (2, cfg.vocab_size)


# -- MAC counting -----------------------------------------------------------


def test_count_attention_macs_piecewise():
    cfg = tiny_model_config(e1=2, e2=10, d_att=256, d_ff=16, heads=4, feature_dim=256)
    macs = count_attention_macs(cfg, 64)
    lengths = [l["length"] for l in macs["layers"]]
    assert lengths == [64, 64] + [32] * 10
    for l in macs["layers"]:
        assert l["score_macs"] == l["length"] ** 2 * 256
        assert l["total_macs"] == 2 * l["score_macs"]


def test_measured_macs_equal_analytic_all_archs():
    rng = np.random.default_rng(0)
    for kind in ("identity", "conv2d4"):
        for e1, e2, reduction in ((0, 3, "none"), (0, 3, "tr"), (2, 1, "tr"),
                                  (0, 3, "pyramidal")):
            cfg = tiny_model_config(e1=e1, e2=e2, reduction=reduction,
                                    frontend=kind, feature_dim=16)
            params = init_model_params(cfg, seed=0)
            T_in = 60
            seq = random_features(rng, T_in, 16)
            counter = MacCounter()
            encode_one(seq, cfg, params, ForwardCtx(counter=counter))
            assert counter.total == count_attention_macs(cfg, T_in)["total_macs"]


def test_halved_length_score_macs_ratio_exactly_4():
    no_tr = tiny_model_config(e1=0, e2=2, reduction="none")
    tr0 = tiny_model_config(e1=0, e2=2, reduction="tr")
    n = 32  # even post-frontend length
    a = count_attention_macs(no_tr, n)["score_macs"]
    b = count_attention_macs(tr0, n)["score_macs"]
    assert a / b == 4.0


def test_doubling_length_quadruples_score_macs():
    cfg = tiny_model_config(e1=0, e2=2, reduction="none")
    a = count_attention_macs(cfg, 16)["score_macs"]
    b = count_attention_macs(cfg, 32)["score_macs"]
    assert b == 4 * a


# -- language model ---------------------------------------------------------


def test_lm_forward_shape_and_causality():
    cfg = LMConfig(layers=1, d_att=8, d_ff=16, heads=2, vocab_size=7)
    params = init_lm_params(cfg, seed=0)
    a = lm_forward([2, 5, 6], cfg, params).data
    b = lm_forward([2, 5, 5], cfg, params).data
    assert a.shape == (3, 7)
    assert np.array_equal(a[:1], b[:1])


# -- dropout / determinism --------------------------------------------------


def test_forward_deterministic_in_eval_mode(tiny_model):
    cfg, params = tiny_model
    seq = random_features(np.random.default_rng(0), 9, 16)
    a, _ = encode_one(seq, cfg, params, EVAL_CTX)
    b, _ = encode_one(seq, cfg, params, EVAL_CTX)
    assert np.array_equal(a.data, b.data)


def test_init_deterministic_and_stream_isolated():
    cfg = tiny_model_config()
    a = init_model_params(cfg, seed=0)
    b = init_model_params(cfg, seed=0)
    c = init_model_params(cfg, seed=1)
    assert np.array_equal(a["enc.layer0.mha.wq"].data, b["enc.layer0.mha.wq"].data)
    assert not np.array_equal(a["enc.layer0.mha.wq"].data, c["enc.layer0.mha.wq"].data)


# -- parameter table ---------------------------------------------------------


@pytest.mark.parametrize("cfg, count", [(ModelConfig(), 26_568_512),
                                         (resolve({}).model, 26_569_282)],
                         ids=["ModelConfig()", "resolve({})"])
def test_the_table_gives_the_paper_size_parameter_count(cfg, count):
    tracemalloc.start()
    try:
        assert sum(math.prod(shape) for shape, _ in param_table(cfg).values()) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no array: the parameters take 106 MB
    assert sum(t.data.size for _, t in init_model_params(cfg, seed=0).items()) == count


TABLE_CONFIGS = [
    *(ModelConfig(frontend=kind, reduction=reduction, dec_layers=dec_layers, e1=1, e2=2,
                  d_att=16, d_ff=24, heads=2, feature_dim=20, vocab_size=7)
      for kind in KINDS for reduction in REDUCTIONS for dec_layers in (0, 2)),
    LMConfig(layers=0), LMConfig(layers=2),
]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=repr)
def test_the_table_declares_each_drawn_entry(cfg):
    store = init_model_params(cfg, seed=0)
    table = param_table(cfg)
    assert {name: shape for name, (shape, _) in table.items()} == \
        {name: t.shape for name, t in store.items()}
    for name, (shape, init) in table.items():
        data = store[name].data
        if init == "xavier":
            bound = math.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            assert np.abs(data).max() <= bound and np.unique(data).size > 1, name
        else:
            assert (data == {"zeros": 0.0, "ones": 1.0}[init]).all(), name


LOAD_CONFIGS = [tiny_model_config(), LMConfig(layers=1, d_att=8, d_ff=16, heads=2)]


@pytest.mark.parametrize("cfg", LOAD_CONFIGS, ids=["model", "lm"])
def test_a_table_load_reads_the_checkpoint_and_draws_nothing(cfg, tmp_path, monkeypatch):
    saved = init_model_params(cfg, seed=3)
    save_checkpoint(tmp_path / "m.ckpt", saved.state_dict())
    refuse_init_draws(monkeypatch)
    with open_checkpoint(tmp_path / "m.ckpt") as ckpt:
        loaded = load_model_params(cfg, ckpt)
    assert loaded.names() == saved.names()
    for name, t in saved.items():
        assert loaded[name].requires_grad and loaded[name].data.dtype == np.float32
        assert np.array_equal(loaded[name].data, t.data), name


@pytest.mark.parametrize("cfg", LOAD_CONFIGS, ids=["model", "lm"])
def test_a_table_load_keeps_the_stores_errors(cfg):
    state = init_model_params(cfg, seed=0).state_dict()
    name = next(iter(state))
    shape = state[name].shape
    with pytest.raises(ShapeError, match=re.escape(
            f"parameter set mismatch: missing=[{name!r}] extra=['bogus']")):
        load_model_params(cfg, {**{k: v for k, v in state.items() if k != name},
                                "bogus": state[name]})
    with pytest.raises(ShapeError, match=re.escape(
            f"shape mismatch for {name!r}: {shape} vs {shape + (1,)}")):
        load_model_params(cfg, {**state, name: state[name][..., None]})


# -- dtype ------------------------------------------------------------------


@pytest.fixture
def op_dtypes(monkeypatch):
    """The dtypes of every op output and of every gradient handed to a node
    that tracks one, in the tensor ops and the losses."""
    seen = set()
    result, accum = T._result, T._accum

    def record_result(data, *inputs):
        seen.add(np.dtype(data.dtype))
        return result(data, *inputs)

    def record_accum(t, g):
        if t.requires_grad:
            seen.add(np.asarray(g).dtype)
        accum(t, g)

    for module in (T, losses):
        monkeypatch.setattr(module, "_result", record_result)
    monkeypatch.setattr(T, "_accum", record_accum)
    return seen


def _desk_model(dtype):
    cfg = ModelConfig(e1=2, e2=4, dec_layers=2, d_att=64, d_ff=256, heads=4,
                      vocab_size=9, dropout=0.1, frontend="conv2d4", feature_dim=16)
    return cfg, init_model_params(cfg, seed=0, dtype=dtype)


def _desk_batch(dtype):
    feats = np.random.default_rng(0).normal(size=(2, 64, 16)).astype(dtype)
    targets = np.array([[5, 6, 7], [8, 5, 4]])
    return Batch(["a", "b"], feats, np.array([64, 56]), targets, np.array([3, 2]))


def _run_entry(entry, dtype):
    """One training-mode forward and backward through `entry`; returns the
    outputs and the parameter stores whose gradients it filled."""
    ctx = ForwardCtx(dropout=0.1, streams=StreamCache(0))
    prefix = np.array([[2, 5, 6], [2, 8, 5]])
    if entry == "lm_forward":
        lm_cfg = LMConfig(layers=2, d_att=32, d_ff=64, heads=2, vocab_size=9, dropout=0.1)
        lm_params = init_lm_params(lm_cfg, seed=0, dtype=dtype)
        logits = lm_forward(prefix, lm_cfg, lm_params, ctx, lengths=[3, 2])
        T.tsum(logits).backward()
        return [logits], lm_params
    cfg, params = _desk_model(dtype)
    batch = _desk_batch(dtype)
    if entry.startswith("batch_loss"):
        with snapshot_teacher(params) if entry == "batch_loss+skd" else nullcontext() as teacher:
            total, _ = batch_loss(batch, cfg, params, ctx, 0.3, 0.1, phi=0.5,
                                  teacher=teacher, temperature=2.0)
            total.backward()
        return [total], params
    x_e, x_len = encode(batch.features, batch.feature_lengths, cfg, params, ctx)
    outs = [x_e]
    if entry == "decode_forward":
        outs.append(decode_forward(prefix, x_e, cfg, params, ctx, [3, 2], x_len))
    T.tsum(outs[-1]).backward()
    return outs, params


@pytest.mark.parametrize("entry", ["encode", "decode_forward", "lm_forward",
                                   "batch_loss", "batch_loss+skd"])
def test_model_runs_in_its_parameter_dtype(entry, op_dtypes):
    """A float32 model keeps float32 activations, logits and gradients; the
    same model in float64 stays float64 (CTC and the teacher distribution
    compute in float64 internally and hand back the model's dtype)."""
    for dtype in (np.float32, np.float64):
        op_dtypes.clear()
        outs, params = _run_entry(entry, dtype)
        assert op_dtypes == {np.dtype(dtype)}, f"{dtype.__name__}: {op_dtypes}"
        assert all(out.dtype == dtype for out in outs)
        grads = [t.grad for _, t in params.items() if t.grad is not None]
        assert grads and all(g.dtype == dtype for g in grads)
