"""Encoder with time-reduction layers placed by one reduction schedule (the
paper's single in-encoder TR layer, or the pyramidal baseline), the decoder,
the CTC head, and a decoder-only language model.

All forward functions take a ParameterStore plus a ForwardCtx carrying
the dropout rate (dropout is on exactly when it is above 0) and streams, and
the optional attention MAC counter.
Activations are padded batches [B, T, D] with per-row lengths; attention
runs on [..., H, T, d_k] with the heads as an array axis, and padded keys
are masked out, so a row's result does not depend on its batchmates.

In search, `decode_forward` and `lm_forward` take a `KVCache` and feed only
the positions it has not seen; training passes none and feeds the whole
prefix through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import SequenceTooShortError, ShapeError
from .frontend import KINDS, output_length, positional_encoding, stage_shapes, subsample
from .optim import ParameterStore
from .rng import StreamCache, stream
from .tensor import Tensor


REDUCTIONS = ("none", "tr", "pyramidal")


def _check_shape(what: str, d_att: int, d_ff: int, heads: int, dropout: float) -> None:
    """The layer-shape checks `ModelConfig` and `LMConfig` share; `what`
    prefixes each message."""
    if d_att < 2 or d_att % 2:
        raise ValueError(f"{what} d_att must be even and >= 2, got {d_att}")
    if d_ff < 1:
        raise ValueError(f"{what} d_ff must be >= 1, got {d_ff}")
    if heads < 1:
        raise ValueError(f"{what} heads must be >= 1, got {heads}")
    if d_att % heads != 0:
        raise ValueError(f"{what} d_att={d_att} not divisible by heads={heads}")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"{what} dropout must be in [0, 1), got {dropout}")


@dataclass
class ModelConfig:
    e1: int = 2
    e2: int = 10
    dec_layers: int = 6
    d_att: int = 256
    d_ff: int = 2048
    heads: int = 4
    reduction: str = "tr"  # "tr": halve before layer e1; "pyramidal": before 1, 2, 3
    vocab_size: int = 32
    dropout: float = 0.1
    frontend: str = "conv2d4"
    feature_dim: int = 40

    def __post_init__(self):
        if self.frontend not in KINDS:
            raise ValueError(f"unknown front-end kind {self.frontend!r}; choose from {KINDS}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}; choose from {REDUCTIONS}")
        if min(self.e1, self.e2, self.dec_layers) < 0:
            raise ValueError(f"model e1, e2 and dec_layers must be >= 0, got "
                             f"{self.e1}, {self.e2}, {self.dec_layers}")
        if self.feature_dim < 1:
            raise ValueError(f"model feature_dim must be >= 1, got {self.feature_dim}")
        _check_shape("model", self.d_att, self.d_ff, self.heads, self.dropout)
        if self.reduction == "pyramidal" and self.num_encoder_layers < 3:
            raise ValueError("pyramidal encoder needs at least 3 layers")

    @property
    def num_encoder_layers(self) -> int:
        return self.e1 + self.e2

    @property
    def reductions(self) -> dict[int, str]:
        """Encoder layer index -> time-reduction parameter prefix. Frames are
        halved just before that layer; index num_encoder_layers means before
        the final norm."""
        if self.reduction == "pyramidal":
            return {i + 1: f"enc.tr{i}" for i in range(3)}
        return {self.e1: "enc.tr"} if self.reduction == "tr" else {}


class MacCounter:
    """Accumulates attention multiply-adds (scores + weighted sum)."""

    def __init__(self):
        self.total = 0

    def add(self, n_q: int, n_k: int, d_k: int, batch: int = 1) -> None:
        self.total += 2 * batch * n_q * n_k * d_k


@dataclass
class ForwardCtx:
    dropout: float = 0.0
    streams: StreamCache | None = None
    counter: MacCounter | None = None

    def drop(self, x: Tensor, name: str, lengths=None) -> Tensor:
        """Dropout from the stream `name`; with `lengths`, one draw per row of
        its true length, in batch order (see `tensor.dropout`)."""
        if self.dropout == 0.0:
            return x
        return T.dropout(x, self.dropout, self.streams.get(f"dropout/{name}"), lengths)


EVAL_CTX = ForwardCtx()


class KVCache:
    """Keys and values [B, H, n, d_k] of the `length` positions already fed,
    per attention block (by parameter prefix): inference only. A
    self-attention block's K/V (raw arrays) grow by the positions of each
    call; a cross-attention block's K/V of the encoder output (Tensors) are
    projected on the first call and reused after."""

    def __init__(self):
        self.length = 0
        self.self_kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.src_kv: dict[str, tuple[Tensor, Tensor]] = {}

    def select(self, rows) -> None:
        """Keep the self-attention rows `rows` (beam back-pointers), in order."""
        self.self_kv = {p: (k[rows], v[rows]) for p, (k, v) in self.self_kv.items()}


def _cache_start(cache: KVCache | None) -> int:
    """Positions a forward can skip: those `cache` already holds."""
    if cache is None:
        return 0
    if T.grad_enabled():
        raise RuntimeError("a KVCache is inference-only: call under tensor.no_grad()")
    return cache.length


# -- parameter initialization ---------------------------------------------


def _xavier(store: ParameterStore, seed: int, name: str, shape, dtype):
    """Glorot-uniform weights; a conv kernel [O, C, kh, kw] has fans O and C
    times its kernel area."""
    rng = stream(seed, f"init/{name}")
    bound = math.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
    store.add(name, Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype)))


def _zeros(store, name, shape, dtype):
    store.add(name, Tensor(np.zeros(shape, dtype=dtype)))


def _ln(store, prefix, n, dtype):
    store.add(f"{prefix}.gain", Tensor(np.ones(n, dtype=dtype)))
    store.add(f"{prefix}.bias", Tensor(np.zeros(n, dtype=dtype)))


def _init_mha(store, seed, prefix, d_att, dtype):
    for w in ("wq", "wk", "wv", "wo"):
        _xavier(store, seed, f"{prefix}.{w}", (d_att, d_att), dtype)


def _init_ffn(store, seed, prefix, d_att, d_ff, dtype):
    _xavier(store, seed, f"{prefix}.w1", (d_att, d_ff), dtype)
    _zeros(store, f"{prefix}.b1", (d_ff,), dtype)
    _xavier(store, seed, f"{prefix}.w2", (d_ff, d_att), dtype)
    _zeros(store, f"{prefix}.b2", (d_att,), dtype)


def init_encoder_layer_params(store, seed, prefix, d_att, d_ff, dtype=np.float32):
    _ln(store, f"{prefix}.ln1", d_att, dtype)
    _init_mha(store, seed, f"{prefix}.mha", d_att, dtype)
    _ln(store, f"{prefix}.ln2", d_att, dtype)
    _init_ffn(store, seed, f"{prefix}.ffn", d_att, d_ff, dtype)


def init_time_reduction_params(store, seed, prefix, d_att, dtype=np.float32):
    _xavier(store, seed, f"{prefix}.w", (2 * d_att, d_att), dtype)
    _zeros(store, f"{prefix}.b", (d_att,), dtype)


def init_frontend_params(cfg: ModelConfig, store: ParameterStore, seed: int,
                         dtype=np.float32) -> None:
    """The parameters `frontend.subsample` reads, under 'frontend.'."""
    c_in, f = 1, cfg.feature_dim  # channels and feature bins into the projection
    for s, (c_out, f) in enumerate(stage_shapes(cfg.frontend, cfg.d_att, cfg.feature_dim)):
        if cfg.frontend.startswith("conv"):
            _xavier(store, seed, f"frontend.conv{s}.w", (c_out, c_in, 3, 3), dtype)
            _zeros(store, f"frontend.conv{s}.b", (c_out,), dtype)
        else:
            p = f"frontend.stage{s}"
            _xavier(store, seed, f"{p}.conv0.w", (c_out, c_in, 3, 3), dtype)
            _zeros(store, f"{p}.conv0.b", (c_out,), dtype)
            _xavier(store, seed, f"{p}.conv1.w", (c_out, c_out, 3, 3), dtype)
            _zeros(store, f"{p}.conv1.b", (c_out,), dtype)
            _ln(store, f"{p}.ln", c_out * f, dtype)
        c_in = c_out
    _xavier(store, seed, "frontend.proj.w", (c_in * f, cfg.d_att), dtype)
    _zeros(store, "frontend.proj.b", (cfg.d_att,), dtype)


def init_model_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParameterStore:
    store = ParameterStore()
    init_frontend_params(cfg, store, seed, dtype)
    for i in range(cfg.num_encoder_layers):
        init_encoder_layer_params(store, seed, f"enc.layer{i}", cfg.d_att, cfg.d_ff, dtype)
    for prefix in cfg.reductions.values():
        init_time_reduction_params(store, seed, prefix, cfg.d_att, dtype)
    _ln(store, "enc.ln_out", cfg.d_att, dtype)
    _xavier(store, seed, "ctc.w", (cfg.d_att, cfg.vocab_size), dtype)
    _zeros(store, "ctc.b", (cfg.vocab_size,), dtype)
    _xavier(store, seed, "dec.embed", (cfg.vocab_size, cfg.d_att), dtype)
    for j in range(cfg.dec_layers):
        p = f"dec.layer{j}"
        _ln(store, f"{p}.ln1", cfg.d_att, dtype)
        _init_mha(store, seed, f"{p}.self", cfg.d_att, dtype)
        _ln(store, f"{p}.ln2", cfg.d_att, dtype)
        _init_mha(store, seed, f"{p}.src", cfg.d_att, dtype)
        _ln(store, f"{p}.ln3", cfg.d_att, dtype)
        _init_ffn(store, seed, f"{p}.ffn", cfg.d_att, cfg.d_ff, dtype)
    _ln(store, "dec.ln_out", cfg.d_att, dtype)
    _xavier(store, seed, "dec.out.w", (cfg.d_att, cfg.vocab_size), dtype)
    _zeros(store, "dec.out.b", (cfg.vocab_size,), dtype)
    return store


# -- attention blocks ------------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              counter: MacCounter | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d_k)) v over the last two axes; leading axes are
    batch axes and broadcast (one shared k/v serves a stack of queries)."""
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    if min(len(q_shape), len(k_shape), len(v_shape)) < 2:
        raise ShapeError(f"attention expects >= 2-d inputs, got {q_shape}, {k_shape}, {v_shape}")
    if q_shape[-1] != k_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ShapeError(f"attention shape mismatch: q={q_shape} k={k_shape} v={v_shape}")
    d_k = q_shape[-1]
    if counter is not None:
        batch = math.prod(np.broadcast_shapes(q_shape[:-2], k_shape[:-2]))
        counter.add(q_shape[-2], k_shape[-2], d_k, batch)
    scores = T.matmul(q, T.transpose(k)) * (1.0 / math.sqrt(d_k))
    weights = T.masked_softmax(scores, mask, axis=-1)
    return T.matmul(weights, v)


def _swap_heads(x: Tensor) -> Tensor:
    """[..., n, H, d_k] <-> [..., H, n, d_k]."""
    nd = x.data.ndim
    return T.transpose(x, tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1))


def multi_head_attention(x_q: Tensor, x_kv: Tensor, params: ParameterStore, prefix: str,
                         heads: int, mask: np.ndarray | None = None,
                         counter: MacCounter | None = None,
                         cache: KVCache | None = None) -> Tensor:
    """One attention call over [..., H, n, d_k]; `mask` broadcasts over H.

    With a `cache`, self-attention (`x_kv is x_q`, the new positions) attends
    over the cached K/V extended by those of x_q, and cross-attention reuses
    the cached projection of `x_kv`."""

    def project(x, w):
        h = T.matmul(x, params[f"{prefix}.{w}"])
        return _swap_heads(T.reshape(h, *h.shape[:-1], heads, h.shape[-1] // heads))

    if cache is None:
        k, v = project(x_kv, "wk"), project(x_kv, "wv")
    elif x_kv is x_q:
        k, v = project(x_kv, "wk").data, project(x_kv, "wv").data
        if prefix in cache.self_kv:
            k_old, v_old = cache.self_kv[prefix]
            k, v = np.concatenate([k_old, k], axis=-2), np.concatenate([v_old, v], axis=-2)
        cache.self_kv[prefix] = k, v
        k, v = Tensor(k), Tensor(v)
    else:
        if prefix not in cache.src_kv:
            cache.src_kv[prefix] = project(x_kv, "wk"), project(x_kv, "wv")
        k, v = cache.src_kv[prefix]
    out = _swap_heads(attention(project(x_q, "wq"), k, v, mask, counter))
    return T.matmul(T.reshape(out, *out.shape[:-2], -1), params[f"{prefix}.wo"])


def position_wise_ffn(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    h = T.relu(T.matmul(x, params[f"{prefix}.w1"]) + params[f"{prefix}.b1"])
    return T.matmul(h, params[f"{prefix}.w2"]) + params[f"{prefix}.b2"]


def _ln_apply(x, params, prefix):
    return T.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _residual(x: Tensor, sublayer, params: ParameterStore, ln: str, name: str,
              ctx: ForwardCtx, lengths=None) -> Tensor:
    """The pre-norm residual x + drop(f(LN(x))); `name` is the sublayer's
    dropout stream and `lengths` the true row lengths of x."""
    return x + ctx.drop(sublayer(_ln_apply(x, params, ln)), name, lengths)


def encoder_layer(x: Tensor, params: ParameterStore, prefix: str, heads: int,
                  ctx: ForwardCtx = EVAL_CTX, mask: np.ndarray | None = None,
                  lengths=None, cache: KVCache | None = None) -> Tensor:
    mha, ffn = f"{prefix}.mha", f"{prefix}.ffn"
    x = _residual(x, lambda h: multi_head_attention(h, h, params, mha, heads, mask,
                                                    ctx.counter, cache),
                  params, f"{prefix}.ln1", mha, ctx, lengths)
    return _residual(x, lambda h: position_wise_ffn(h, params, ffn),
                     params, f"{prefix}.ln2", ffn, ctx, lengths)


def time_reduce(x: Tensor, lengths, params: ParameterStore,
                prefix: str) -> tuple[Tensor, np.ndarray]:
    """Concatenate adjacent frame pairs of x [..., n, D] and project back to D.
    `lengths` holds each row's true frame count; each becomes n // 2 (an odd
    tail is dropped)."""
    lengths = np.asarray(lengths)
    if lengths.min() < 2:
        raise SequenceTooShortError(
            f"time reduction needs >= 2 frames, got {int(lengths.min())}")
    *lead, n, d = x.shape
    m = n // 2
    pairs = T.reshape(x[..., : 2 * m, :], *lead, m, 2 * d)
    return T.matmul(pairs, params[f"{prefix}.w"]) + params[f"{prefix}.b"], lengths // 2


# -- full encoder / decoder ------------------------------------------------


def _key_mask(lengths, n: int) -> np.ndarray | None:
    """[B, 1, 1, n] mask of each row's true keys for [B, H, n_q, n] scores,
    or None when no row is padded."""
    lengths = np.asarray(lengths)
    if (lengths == n).all():
        return None
    return (np.arange(n) < lengths[:, None])[:, None, None, :]


def encode(feats: np.ndarray, lengths, cfg: ModelConfig, params: ParameterStore,
           ctx: ForwardCtx = EVAL_CTX) -> tuple[Tensor, np.ndarray]:
    """Front-end, encoder layers with frames halved where `cfg.reductions`
    says, final norm, over padded features [B, T, F] with true frame counts
    `lengths` [B]. Returns (x_e [B, T', D], true output lengths [B])."""
    h, n = subsample(feats, lengths, cfg.frontend, params)
    h = ctx.drop(h, "frontend", n)
    reductions = cfg.reductions
    mask = _key_mask(n, h.shape[-2])
    for i in range(cfg.num_encoder_layers + 1):
        if i in reductions:
            h, n = time_reduce(h, n, params, reductions[i])
            mask = _key_mask(n, h.shape[-2])
        if i < cfg.num_encoder_layers:
            h = encoder_layer(h, params, f"enc.layer{i}", cfg.heads, ctx, mask, n)
    return _ln_apply(h, params, "enc.ln_out"), n


def ctc_log_probs(x_e: Tensor, params: ParameterStore) -> Tensor:
    """Per-frame log distribution over the vocabulary from the CTC head."""
    return T.log_softmax(T.matmul(x_e, params["ctc.w"]) + params["ctc.b"], axis=-1)


def _causal_mask(n: int, start: int = 0) -> np.ndarray | None:
    """Rows start..n-1 of the n x n causal mask, or None for one row (the
    last, which sees every key)."""
    if n - start == 1:
        return None
    return np.tril(np.ones((n - start, n), dtype=bool), k=start)


def _embed(prefix, table: Tensor, d_att: int, ctx: ForwardCtx, name: str,
           lengths=None, start: int = 0) -> Tensor:
    """Positions start..n-1 of a token prefix [n] -> [n - start, d_att], or of
    prefixes [B, n] -> [B, n - start, d_att] (right-padded when `lengths`
    gives their true lengths)."""
    ids = np.asarray(prefix, dtype=np.int64)
    n = ids.shape[-1]
    if n <= start:
        raise ValueError(f"{name}: prefix has {n} positions, need more than {start}")
    e = T.take(table, ids[..., start:]) * math.sqrt(d_att)
    e = e + Tensor(positional_encoding(n, d_att, dtype=e.dtype)[start:])
    return ctx.drop(e, name, lengths)


def decode_forward(prefix, x_e: Tensor, cfg: ModelConfig, params: ParameterStore,
                   ctx: ForwardCtx = EVAL_CTX, lengths=None, x_lengths=None,
                   cache: KVCache | None = None) -> Tensor:
    """Next-token logits for every position of a sos-led prefix [n] -> [n, V],
    or of a stack of prefixes [B, n] -> [B, n, V]. A stack may share one
    encoder output, or be right-padded to true `lengths` against a padded
    encoder batch x_e [B, T', D] with true frame counts `x_lengths`; under
    the causal mask padding only follows a row's true positions. With a
    `cache` holding the first m positions, only positions m.. are fed and
    their logits [B, n - m, V] returned."""
    start = _cache_start(cache)
    y = _embed(prefix, params["dec.embed"], cfg.d_att, ctx, "dec.embed", lengths, start)
    n = start + y.shape[-2]
    mask = _causal_mask(n, start)
    x_mask = None if x_lengths is None else _key_mask(x_lengths, x_e.shape[-2])
    for j in range(cfg.dec_layers):
        p = f"dec.layer{j}"
        sa, ca, ffn = f"{p}.self", f"{p}.src", f"{p}.ffn"
        y = _residual(y, lambda h: multi_head_attention(h, h, params, sa, cfg.heads, mask,
                                                        ctx.counter, cache),
                      params, f"{p}.ln1", sa, ctx, lengths)
        y = _residual(y, lambda h: multi_head_attention(h, x_e, params, ca, cfg.heads,
                                                        x_mask, ctx.counter, cache),
                      params, f"{p}.ln2", ca, ctx, lengths)
        y = _residual(y, lambda h: position_wise_ffn(h, params, ffn),
                      params, f"{p}.ln3", ffn, ctx, lengths)
    if cache is not None:
        cache.length = n
    y = _ln_apply(y, params, "dec.ln_out")
    return T.matmul(y, params["dec.out.w"]) + params["dec.out.b"]


# -- analytic attention cost ----------------------------------------------


def encoder_layer_lengths(cfg: ModelConfig, T_in: int) -> tuple[list[int], int]:
    """(per-layer input lengths, final length)."""
    n = output_length(cfg.frontend, T_in)
    reductions, lengths = cfg.reductions, []
    for i in range(cfg.num_encoder_layers + 1):
        if i in reductions:
            n //= 2
        lengths.append(n)
    return lengths[:-1], lengths[-1]


def count_attention_macs(cfg: ModelConfig, T_in: int) -> dict:
    """Analytic encoder self-attention MACs at each layer's actual length."""
    lengths, final = encoder_layer_lengths(cfg, T_in)
    layers = []
    for n in lengths:
        score = n * n * cfg.d_att
        layers.append({"length": n, "score_macs": score, "total_macs": 2 * score})
    return {
        "final_length": final,
        "layers": layers,
        "score_macs": sum(l["score_macs"] for l in layers),
        "total_macs": sum(l["total_macs"] for l in layers),
    }


# -- decoder-only language model -------------------------------------------


@dataclass
class LMConfig:
    layers: int = 2
    d_att: int = 64
    d_ff: int = 256
    heads: int = 2
    vocab_size: int = 32
    dropout: float = 0.0

    def __post_init__(self):
        if self.layers < 0:
            raise ValueError(f"LM layers must be >= 0, got {self.layers}")
        _check_shape("LM", self.d_att, self.d_ff, self.heads, self.dropout)


def init_lm_params(cfg: LMConfig, seed: int, dtype=np.float32) -> ParameterStore:
    store = ParameterStore()
    _xavier(store, seed, "lm.embed", (cfg.vocab_size, cfg.d_att), dtype)
    for i in range(cfg.layers):
        init_encoder_layer_params(store, seed, f"lm.layer{i}", cfg.d_att, cfg.d_ff, dtype)
    _ln(store, "lm.ln_out", cfg.d_att, dtype)
    _xavier(store, seed, "lm.out.w", (cfg.d_att, cfg.vocab_size), dtype)
    _zeros(store, "lm.out.b", (cfg.vocab_size,), dtype)
    return store


def lm_forward(prefix, cfg: LMConfig, params: ParameterStore,
               ctx: ForwardCtx = EVAL_CTX, lengths=None,
               cache: KVCache | None = None) -> Tensor:
    """Next-token logits from a causal self-attention stack (no cross-attention)
    for a prefix [n] -> [n, V] or a stack of prefixes [B, n] -> [B, n, V],
    right-padded when `lengths` gives their true lengths; with a `cache`, as
    in `decode_forward`, only for the positions it does not hold."""
    start = _cache_start(cache)
    y = _embed(prefix, params["lm.embed"], cfg.d_att, ctx, "lm.embed", lengths, start)
    n = start + y.shape[-2]
    mask = _causal_mask(n, start)
    for i in range(cfg.layers):
        y = encoder_layer(y, params, f"lm.layer{i}", cfg.heads, ctx, mask, lengths=lengths,
                          cache=cache)
    if cache is not None:
        cache.length = n
    y = _ln_apply(y, params, "lm.ln_out")
    return T.matmul(y, params["lm.out.w"]) + params["lm.out.b"]
