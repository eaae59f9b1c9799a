"""Encoder with time-reduction layers placed by one reduction schedule (the
paper's single in-encoder TR layer, or the pyramidal baseline), the decoder,
the CTC head, and a decoder-only language model.

All forward functions take a ParameterStore plus a ForwardCtx carrying
train/eval mode, dropout streams, and the optional attention MAC counter.
Activations are padded batches [B, T, D] with per-row lengths; attention
runs on [..., H, T, d_k] with the heads as an array axis, and padded keys
are masked out, so a row's result does not depend on its batchmates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import SequenceTooShortError, ShapeError
from .frontend import (FrontendConfig, output_length, positional_encoding,
                       init_frontend_params, subsample)
from .optim import ParameterStore
from .rng import StreamCache, stream
from .tensor import Tensor


@dataclass
class ModelConfig:
    e1: int = 2
    e2: int = 10
    dec_layers: int = 6
    d_att: int = 256
    d_ff: int = 2048
    heads: int = 4
    tr_enabled: bool = True
    pyramidal: bool = False
    post_norm: bool = False
    vocab_size: int = 32
    dropout: float = 0.1
    frontend: FrontendConfig | None = None

    def __post_init__(self):
        if min(self.e1, self.e2, self.dec_layers) < 0:
            raise ValueError(f"model e1, e2 and dec_layers must be >= 0, got "
                             f"{self.e1}, {self.e2}, {self.dec_layers}")
        if self.heads < 1:
            raise ValueError(f"model heads must be >= 1, got {self.heads}")
        if self.d_att % self.heads != 0:
            raise ValueError(f"d_att={self.d_att} not divisible by heads={self.heads}")
        if self.tr_enabled and self.pyramidal:
            raise ValueError("tr_enabled and pyramidal are mutually exclusive")
        if self.pyramidal and self.num_encoder_layers < 3:
            raise ValueError("pyramidal encoder needs at least 3 layers")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"model dropout must be in [0, 1), got {self.dropout}")
        if self.frontend is None:
            self.frontend = FrontendConfig(d_att=self.d_att)
        if self.frontend.d_att != self.d_att:
            raise ValueError("front-end output width must equal d_att")

    @property
    def num_encoder_layers(self) -> int:
        return self.e1 + self.e2

    @property
    def reductions(self) -> dict[int, str]:
        """Encoder layer index -> time-reduction parameter prefix. Frames are
        halved just before that layer; index num_encoder_layers means before
        the final norm."""
        if self.pyramidal:
            return {i + 1: f"enc.tr{i}" for i in range(3)}
        return {self.e1: "enc.tr"} if self.tr_enabled else {}


class MacCounter:
    """Accumulates attention multiply-adds (scores + weighted sum)."""

    def __init__(self):
        self.total = 0

    def add(self, n_q: int, n_k: int, d_k: int, batch: int = 1) -> None:
        self.total += 2 * batch * n_q * n_k * d_k


@dataclass
class ForwardCtx:
    train: bool = False
    dropout: float = 0.0
    streams: StreamCache | None = None
    counter: MacCounter | None = None

    def drop(self, x: Tensor, name: str, lengths=None) -> Tensor:
        """Dropout from the stream `name`; with `lengths`, one draw per row of
        its true length, in batch order (see `tensor.dropout`)."""
        if not self.train or self.dropout == 0.0:
            return x
        return T.dropout(x, self.dropout, self.streams.get(f"dropout/{name}"), True,
                         lengths)


EVAL_CTX = ForwardCtx()


# -- parameter initialization ---------------------------------------------


def _xavier(store: ParameterStore, seed: int, name: str, shape, dtype):
    rng = stream(seed, f"init/{name}")
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
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


def init_model_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParameterStore:
    store = ParameterStore()
    init_frontend_params(cfg.frontend, store, seed, prefix="frontend", dtype=dtype)
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
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"attention expects >= 2-d inputs, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention shape mismatch: q={q.shape} k={k.shape} v={v.shape}")
    d_k = q.shape[-1]
    if counter is not None:
        batch = math.prod(np.broadcast_shapes(q.shape[:-2], k.shape[:-2]))
        counter.add(q.shape[-2], k.shape[-2], d_k, batch)
    scores = T.matmul(q, T.transpose(k)) * (1.0 / math.sqrt(d_k))
    weights = T.masked_softmax(scores, mask, axis=-1)
    return T.matmul(weights, v)


def _swap_heads(x: Tensor) -> Tensor:
    """[..., n, H, d_k] <-> [..., H, n, d_k]."""
    lead = tuple(range(x.ndim - 3))
    return T.transpose(x, lead + (x.ndim - 2, x.ndim - 3, x.ndim - 1))


def multi_head_attention(x_q: Tensor, x_kv: Tensor, params: ParameterStore, prefix: str,
                         heads: int, mask: np.ndarray | None = None,
                         counter: MacCounter | None = None) -> Tensor:
    """One attention call over [..., H, n, d_k]; `mask` broadcasts over H."""

    def project(x, w):
        h = T.matmul(x, params[f"{prefix}.{w}"])
        return _swap_heads(T.reshape(h, *h.shape[:-1], heads, h.shape[-1] // heads))

    out = _swap_heads(attention(project(x_q, "wq"), project(x_kv, "wk"),
                                project(x_kv, "wv"), mask, counter))
    return T.matmul(T.reshape(out, *out.shape[:-2], -1), params[f"{prefix}.wo"])


def position_wise_ffn(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    h = T.relu(T.matmul(x, params[f"{prefix}.w1"]) + params[f"{prefix}.b1"])
    return T.matmul(h, params[f"{prefix}.w2"]) + params[f"{prefix}.b2"]


def _ln_apply(x, params, prefix):
    return T.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _residual(x: Tensor, sublayer, params: ParameterStore, ln: str, name: str,
              ctx: ForwardCtx, post_norm: bool, lengths=None) -> Tensor:
    """LN(x + drop(f(x))) after the sublayer (post-norm), or x + drop(f(LN(x)))
    around it (pre-norm); `name` is the sublayer's dropout stream and
    `lengths` the true row lengths of x."""
    if post_norm:
        return _ln_apply(x + ctx.drop(sublayer(x), name, lengths), params, ln)
    return x + ctx.drop(sublayer(_ln_apply(x, params, ln)), name, lengths)


def encoder_layer(x: Tensor, params: ParameterStore, prefix: str, heads: int,
                  ctx: ForwardCtx = EVAL_CTX, mask: np.ndarray | None = None,
                  post_norm: bool = False, lengths=None) -> Tensor:
    mha, ffn = f"{prefix}.mha", f"{prefix}.ffn"
    x = _residual(x, lambda h: multi_head_attention(h, h, params, mha, heads, mask,
                                                    ctx.counter),
                  params, f"{prefix}.ln1", mha, ctx, post_norm, lengths)
    return _residual(x, lambda h: position_wise_ffn(h, params, ffn),
                     params, f"{prefix}.ln2", ffn, ctx, post_norm, lengths)


def time_reduce(x: Tensor, lengths, params: ParameterStore,
                prefix: str = "enc.tr") -> tuple[Tensor, np.ndarray]:
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
            h = encoder_layer(h, params, f"enc.layer{i}", cfg.heads, ctx, mask,
                              cfg.post_norm, n)
    return _ln_apply(h, params, "enc.ln_out"), n


def ctc_log_probs(x_e: Tensor, params: ParameterStore) -> Tensor:
    """Per-frame log distribution over the vocabulary from the CTC head."""
    return T.log_softmax(T.matmul(x_e, params["ctc.w"]) + params["ctc.b"], axis=-1)


def _causal_mask(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=bool))


def _embed(prefix, table: Tensor, d_att: int, ctx: ForwardCtx, name: str,
           lengths=None) -> Tensor:
    """A token prefix [n] -> [n, d_att], or prefixes [B, n] -> [B, n, d_att]
    (right-padded when `lengths` gives their true lengths)."""
    ids = np.asarray(prefix, dtype=np.int64)
    if ids.shape[-1] == 0:
        raise ValueError(f"{name}: prefix must not be empty")
    e = T.take(table, ids) * math.sqrt(d_att)
    e = e + Tensor(positional_encoding(ids.shape[-1], d_att, dtype=e.dtype))
    return ctx.drop(e, name, lengths)


def decode_forward(prefix, x_e: Tensor, cfg: ModelConfig, params: ParameterStore,
                   ctx: ForwardCtx = EVAL_CTX, lengths=None, x_lengths=None) -> Tensor:
    """Next-token logits for every position of a sos-led prefix [n] -> [n, V],
    or of a stack of prefixes [B, n] -> [B, n, V]. A stack may share one
    encoder output, or be right-padded to true `lengths` against a padded
    encoder batch x_e [B, T', D] with true frame counts `x_lengths`; under
    the causal mask padding only follows a row's true positions."""
    y = _embed(prefix, params["dec.embed"], cfg.d_att, ctx, "dec.embed", lengths)
    mask = _causal_mask(y.shape[-2])
    x_mask = None if x_lengths is None else _key_mask(x_lengths, x_e.shape[-2])
    for j in range(cfg.dec_layers):
        p = f"dec.layer{j}"
        sa, ca, ffn = f"{p}.self", f"{p}.src", f"{p}.ffn"
        y = _residual(y, lambda h: multi_head_attention(h, h, params, sa, cfg.heads, mask,
                                                        ctx.counter),
                      params, f"{p}.ln1", sa, ctx, cfg.post_norm, lengths)
        y = _residual(y, lambda h: multi_head_attention(h, x_e, params, ca, cfg.heads,
                                                        x_mask, ctx.counter),
                      params, f"{p}.ln2", ca, ctx, cfg.post_norm, lengths)
        y = _residual(y, lambda h: position_wise_ffn(h, params, ffn),
                      params, f"{p}.ln3", ffn, ctx, cfg.post_norm, lengths)
    y = _ln_apply(y, params, "dec.ln_out")
    return T.matmul(y, params["dec.out.w"]) + params["dec.out.b"]


# -- analytic attention cost ----------------------------------------------


def encoder_layer_lengths(cfg: ModelConfig, T_in: int) -> tuple[int, list[int], int]:
    """(front-end output length, per-layer input lengths, final length)."""
    n = n0 = output_length(cfg.frontend.kind, T_in)
    reductions, lengths = cfg.reductions, []
    for i in range(cfg.num_encoder_layers + 1):
        if i in reductions:
            n //= 2
        lengths.append(n)
    return n0, lengths[:-1], lengths[-1]


def count_attention_macs(cfg: ModelConfig, T_in: int) -> dict:
    """Analytic encoder self-attention MACs at each layer's actual length."""
    n0, lengths, final = encoder_layer_lengths(cfg, T_in)
    layers = []
    for n in lengths:
        score = n * n * cfg.d_att
        layers.append({"length": n, "score_macs": score, "total_macs": 2 * score})
    return {
        "frontend_length": n0,
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
        if self.heads < 1:
            raise ValueError(f"LM heads must be >= 1, got {self.heads}")
        if self.d_att % self.heads != 0:
            raise ValueError(f"d_att={self.d_att} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"LM dropout must be in [0, 1), got {self.dropout}")


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
               ctx: ForwardCtx = EVAL_CTX, lengths=None) -> Tensor:
    """Next-token logits from a causal self-attention stack (no cross-attention)
    for a prefix [n] -> [n, V] or a stack of prefixes [B, n] -> [B, n, V],
    right-padded when `lengths` gives their true lengths."""
    y = _embed(prefix, params["lm.embed"], cfg.d_att, ctx, "lm.embed", lengths)
    mask = _causal_mask(y.shape[-2])
    for i in range(cfg.layers):
        y = encoder_layer(y, params, f"lm.layer{i}", cfg.heads, ctx, mask, lengths=lengths)
    y = _ln_apply(y, params, "lm.ln_out")
    return T.matmul(y, params["lm.out.w"]) + params["lm.out.b"]
