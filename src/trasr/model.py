"""Encoder with time-reduction layers placed by one reduction schedule (the
paper's single in-encoder TR layer, or the pyramidal baseline), the CTC
head, and one causal token stack (`_causal_stack`) that is both the decoder
and a decoder-only language model. All three stacks run one layer body,
`encoder_layer`; only the decoder's also attends to the encoder output.

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
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import SequenceTooShortError, ShapeError, bounded, check_fields, one_of
from .frontend import KINDS, output_length, positional_encoding, stage_shapes, subsample
from .optim import ParameterStore
from .rng import StreamCache, stream
from .tensor import Tensor


REDUCTIONS = ("none", "tr", "pyramidal")


def _check_width(cfg) -> None:
    """The width rules beyond their ranges that `ModelConfig` and `LMConfig` share."""
    if cfg.d_att % 2:
        raise ValueError(f"d_att must be even, got {cfg.d_att}")
    if cfg.d_att % cfg.heads:
        raise ValueError(f"d_att must be a multiple of heads ({cfg.heads}), got {cfg.d_att}")


@dataclass
class ModelConfig:
    e1: int = bounded(2, 0)
    e2: int = bounded(10, 0)
    dec_layers: int = bounded(6, 0)
    d_att: int = bounded(256, 2)
    d_ff: int = bounded(2048, 1)
    heads: int = bounded(4, 1)
    # "tr": halve before layer e1; "pyramidal": before 1, 2, 3
    reduction: str = one_of("tr", REDUCTIONS)
    vocab_size: int = bounded(32, 1)
    dropout: float = bounded(0.1, 0, 1, open_high=True)
    frontend: str = one_of("conv2d4", KINDS)
    feature_dim: int = bounded(40, 1)

    def __post_init__(self):
        check_fields(self)
        _check_width(self)
        if self.reduction == "pyramidal" and self.num_encoder_layers < 3:
            raise ValueError("reduction 'pyramidal' needs at least 3 layers, got "
                             f"{self.num_encoder_layers}")

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


@dataclass
class LMConfig:
    layers: int = bounded(2, 0)
    d_att: int = bounded(64, 2)
    d_ff: int = bounded(256, 1)
    heads: int = bounded(2, 1)
    vocab_size: int = bounded(32, 1)
    dropout: float = bounded(0.0, 0, 1, open_high=True)

    def __post_init__(self):
        check_fields(self)
        _check_width(self)


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


# -- parameters -------------------------------------------------------------


def param_table(cfg: ModelConfig | LMConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Name -> (shape, initializer) of every parameter of the model that `cfg`
    describes, the ASR model or the LM; these are the entries of its
    checkpoint. The initializer is 'xavier', 'zeros' or 'ones'."""
    d, table = cfg.d_att, {}

    def add(name, shape, init="xavier"):
        table[name] = (shape, init)

    def affine(p, shape, k=""):  # a weight (a conv kernel [O, C, kh, kw]) and its bias
        add(f"{p}.w{k}", shape)
        add(f"{p}.b{k}", (shape[0] if len(shape) == 4 else shape[1],), "zeros")

    def norm(p, n):
        add(f"{p}.gain", (n,), "ones")
        add(f"{p}.bias", (n,), "zeros")

    def layer(p, *blocks):
        """Pre-norm attention `blocks`, then the FFN; `encoder_layer` is the
        forward of both lists, ('mha',) and the decoder's ('self', 'src')."""
        for k, block in enumerate(blocks, 1):
            norm(f"{p}.ln{k}", d)
            for w in ("wq", "wk", "wv", "wo"):
                add(f"{p}.{block}.{w}", (d, d))
        norm(f"{p}.ln{len(blocks) + 1}", d)
        affine(f"{p}.ffn", (d, cfg.d_ff), "1")
        affine(f"{p}.ffn", (cfg.d_ff, d), "2")

    def token_stack(name, n_layers, *blocks):  # what `_causal_stack` reads
        add(f"{name}.embed", (cfg.vocab_size, d))
        for i in range(n_layers):
            layer(f"{name}.layer{i}", *blocks)
        norm(f"{name}.ln_out", d)
        affine(f"{name}.out", (d, cfg.vocab_size))

    if isinstance(cfg, LMConfig):
        token_stack("lm", cfg.layers, "mha")
        return table
    c_in, f = 1, cfg.feature_dim  # channels and feature bins into the projection
    for s, (c_out, f) in enumerate(stage_shapes(cfg.frontend, d, cfg.feature_dim)):
        if cfg.frontend.startswith("conv"):
            affine(f"frontend.conv{s}", (c_out, c_in, 3, 3))
        else:
            affine(f"frontend.stage{s}.conv0", (c_out, c_in, 3, 3))
            affine(f"frontend.stage{s}.conv1", (c_out, c_out, 3, 3))
            norm(f"frontend.stage{s}.ln", c_out * f)
        c_in = c_out
    affine("frontend.proj", (c_in * f, d))
    for i in range(cfg.num_encoder_layers):
        layer(f"enc.layer{i}", "mha")
    for p in cfg.reductions.values():
        affine(p, (2 * d, d))
    norm("enc.ln_out", d)
    affine("ctc", (d, cfg.vocab_size))
    token_stack("dec", cfg.dec_layers, "self", "src")
    return table


def init_model_params(cfg: ModelConfig | LMConfig, seed: int,
                      dtype=np.float32) -> ParameterStore:
    """`param_table(cfg)` drawn, for the ASR model or the LM: Glorot-uniform
    weights, each from the stream 'init/<name>' (a conv kernel [O, C, kh, kw]
    has fans O and C times its kernel area), and zero or unit vectors."""
    store = ParameterStore()
    for name, (shape, init) in param_table(cfg).items():
        if init == "xavier":
            bound = math.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            arr = stream(seed, f"init/{name}").uniform(-bound, bound, size=shape).astype(dtype)
        else:
            arr = (np.ones if init == "ones" else np.zeros)(shape, dtype=dtype)
        store.add(name, Tensor(arr))
    return store


init_lm_params = init_model_params


def load_model_params(cfg: ModelConfig | LMConfig,
                      state: Mapping[str, np.ndarray]) -> ParameterStore:
    """`param_table(cfg)` read from `state`, such as an open checkpoint, one
    entry at a time by `ParameterStore.load_state_dict`; nothing is drawn."""
    store = ParameterStore()
    for name, (shape, _) in param_table(cfg).items():
        store.add(name, Tensor(np.empty(shape, np.float32)))
    store.load_state_dict(state)
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


def encoder_layer(x: Tensor, params: ParameterStore, prefix: str, heads: int,
                  ctx: ForwardCtx = EVAL_CTX, mask: np.ndarray | None = None,
                  lengths=None, cache: KVCache | None = None, memory: Tensor | None = None,
                  memory_mask: np.ndarray | None = None) -> Tensor:
    """The one pre-norm layer of the encoder, the decoder and the LM, over x
    with true row `lengths`: self-attention under `mask` (`.mha`, or `.self`
    in a layer that also attends to `memory`), then attention to `memory`
    under `memory_mask` (`.src`) when it is given, then the FFN (`.ffn`).
    Sublayer k computes x + drop(f(`.ln<k>`(x))), its dropout drawn from the
    stream 'dropout/<prefix>.<mha|self|src|ffn>'."""
    sa = f"{prefix}.mha" if memory is None else f"{prefix}.self"
    h = _ln_apply(x, params, f"{prefix}.ln1")
    x = x + ctx.drop(multi_head_attention(h, h, params, sa, heads, mask, ctx.counter, cache),
                     sa, lengths)
    ln = f"{prefix}.ln2"
    if memory is not None:
        ca = f"{prefix}.src"
        h = _ln_apply(x, params, ln)
        x = x + ctx.drop(multi_head_attention(h, memory, params, ca, heads, memory_mask,
                                              ctx.counter, cache), ca, lengths)
        ln = f"{prefix}.ln3"
    ffn = f"{prefix}.ffn"
    return x + ctx.drop(position_wise_ffn(_ln_apply(x, params, ln), params, ffn), ffn, lengths)


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


def _causal_stack(prefix, params: ParameterStore, name: str, cfg: ModelConfig | LMConfig,
                  n_layers: int, ctx: ForwardCtx, lengths, cache: KVCache | None,
                  memory: Tensor | None = None, memory_mask: np.ndarray | None = None) -> Tensor:
    """Next-token logits [..., n - m, V] of a prefix [n] or right-padded [B, n]
    (true `lengths`) whose first m positions `cache` holds (m = 0 without
    one): `{name}.embed` with positions, `encoder_layer` `{name}.layer{i}`
    under the causal mask (attending to `memory` too, when it is given) for
    i < n_layers, `{name}.ln_out`, `{name}.out`."""
    start, d_att = 0, cfg.d_att
    if cache is not None:
        if T.grad_enabled():
            raise RuntimeError("a KVCache is inference-only: call under tensor.no_grad()")
        start = cache.length
    ids = np.asarray(prefix, dtype=np.int64)
    n = ids.shape[-1]
    if n <= start:
        raise ValueError(f"{name}.embed: prefix has {n} positions, need more than {start}")
    y = T.take(params[f"{name}.embed"], ids[..., start:]) * math.sqrt(d_att)
    y = y + Tensor(positional_encoding(n, d_att, dtype=y.dtype)[start:])
    y = ctx.drop(y, f"{name}.embed", lengths)
    mask = None if n - start == 1 else np.tril(np.ones((n - start, n), dtype=bool), k=start)
    for i in range(n_layers):
        y = encoder_layer(y, params, f"{name}.layer{i}", cfg.heads, ctx, mask, lengths, cache,
                          memory, memory_mask)
    if cache is not None:
        cache.length = n
    y = _ln_apply(y, params, f"{name}.ln_out")
    return T.matmul(y, params[f"{name}.out.w"]) + params[f"{name}.out.b"]


def decode_forward(prefix, x_e: Tensor, cfg: ModelConfig, params: ParameterStore,
                   ctx: ForwardCtx = EVAL_CTX, lengths=None, x_lengths=None,
                   cache: KVCache | None = None) -> Tensor:
    """`_causal_stack` under 'dec.' whose layers also attend to x_e: one
    encoder output shared by every prefix, or a padded batch [B, T', D] with
    true frame counts `x_lengths`, one row per prefix."""
    x_mask = None if x_lengths is None else _key_mask(x_lengths, x_e.shape[-2])
    return _causal_stack(prefix, params, "dec", cfg, cfg.dec_layers, ctx, lengths, cache,
                         x_e, x_mask)


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


def lm_forward(prefix, cfg: LMConfig, params: ParameterStore,
               ctx: ForwardCtx = EVAL_CTX, lengths=None,
               cache: KVCache | None = None) -> Tensor:
    """`_causal_stack` under 'lm.': causal self-attention, no encoder output."""
    return _causal_stack(prefix, params, "lm", cfg, cfg.layers, ctx, lengths, cache)
