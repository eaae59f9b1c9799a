"""Front-ends that map raw feature sequences to the encoder's frame rate.

Five kinds are supported: conv2d4 / conv2d8 (valid 3x3 convolutions with
stride 2, one stage per halving), vggconv2d4 / vggconv2d8 (two 3x3 stride-1
convolutions with padding 1, a 2x2 max-pool, and a layer norm per stage),
and identity (a plain linear projection, no length change).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import SequenceTooShortError
from .optim import ParameterStore
from .tensor import Tensor

KINDS = ("conv2d4", "conv2d8", "vggconv2d4", "vggconv2d8", "identity")

# Halving stages per kind; `stage_shapes` gives their channels.
_N_STAGES = {"conv2d4": 2, "conv2d8": 3, "vggconv2d4": 2, "vggconv2d8": 3, "identity": 0}


@dataclass
class FeatureSequence:
    """One utterance's T x F feature frames, T >= 1; padding lives only in a
    batch (`data.Batch`)."""

    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"features must be T x F with T >= 1, got shape "
                             f"{self.features.shape}")

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _conv_len(L: int) -> int:
    return max(0, (L - 3) // 2 + 1)


def output_length(kind: str, T_in: int) -> int:
    """Frames coming out of the front-end; 0 means the input is too short."""
    if T_in < 1:
        raise ValueError(f"sequence length must be >= 1, got {T_in}")
    n = T_in
    if kind.startswith("conv"):
        for _ in range(_N_STAGES[kind]):
            n = _conv_len(n)
    elif kind.startswith("vgg"):
        for _ in range(_N_STAGES[kind]):
            n = n // 2
    elif kind != "identity":
        raise ValueError(f"unknown front-end kind {kind!r}")
    return n


def stage_shapes(kind: str, d_att: int, feature_dim: int) -> list[tuple[int, int]]:
    """(channels, feature bins) coming out of each of `kind`'s stages."""
    vgg = kind.startswith("vgg")
    channels = (64, 128, 256) if vgg else (d_att,) * 3
    shapes, f = [], feature_dim
    for c in channels[: _N_STAGES[kind]]:
        f = f // 2 if vgg else _conv_len(f)
        shapes.append((c, f))
    return shapes


def minimum_input_length(kind: str) -> int:
    t = 1
    while output_length(kind, t) < 1:
        t += 1
    return t


_PE_TABLES: dict[tuple[int, np.dtype], np.ndarray] = {}


def positional_encoding(n: int, d: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: PE[t, 2i] = sin(t / 10000^(2i/d)), PE[t, 2i+1] = cos.

    Returns the first n rows of one read-only table per (d, dtype), which is
    computed again, at least twice as long, when a longer one is asked for;
    a row does not depend on the table's length."""
    if d % 2 != 0:
        raise ValueError(f"positional encoding needs an even width, got {d}")
    key = (d, np.dtype(dtype))
    table = _PE_TABLES.get(key)
    if table is None or len(table) < n:
        rows = n if table is None else max(n, 2 * len(table))
        t = np.arange(rows, dtype=np.float64)[:, None]
        inv = np.power(10000.0, -np.arange(0, d, 2, dtype=np.float64) / d)[None, :]
        pe = np.empty((rows, d), dtype=np.float64)
        pe[:, 0::2] = np.sin(t * inv)
        pe[:, 1::2] = np.cos(t * inv)
        table = _PE_TABLES[key] = pe.astype(dtype)
        table.flags.writeable = False
    return table[:n]


def _zero_padding(h: Tensor, lengths: np.ndarray) -> Tensor:
    """Zero the frames (axis 2) of h [B, C, T, F] beyond each row's length."""
    valid = np.arange(h.shape[2]) < lengths[:, None]
    if valid.all():
        return h
    return h * Tensor(valid[:, None, :, None].astype(h.dtype))


def subsample(feats: np.ndarray, lengths, kind: str,
              params: ParameterStore) -> tuple[Tensor, np.ndarray]:
    """Map padded features [B, T, F] with true frame counts `lengths` [B]
    through the `kind` front-end's 'frontend.*' parameters to (X_0 of shape
    [B, n, d_att], true output lengths [B]); frames beyond a row's length
    never influence its output. The positional encoding is added unless the
    kind is VGG."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n_sub = np.array([output_length(kind, int(t)) for t in lengths], dtype=np.int64)
    if n_sub.min() < 1:
        raise SequenceTooShortError(
            f"{kind} needs at least {minimum_input_length(kind)} frames, "
            f"got {int(lengths[n_sub.argmin()])}")
    feats = np.asarray(feats)[:, : lengths.max()]
    valid = np.arange(feats.shape[1]) < lengths[:, None]
    h = Tensor(np.where(valid[..., None], feats, 0))

    if kind != "identity":
        B, t, f = h.shape
        h = T.reshape(h, B, 1, t, f)
        if kind.startswith("conv"):
            # valid convolutions: an output frame reads only frames at or before
            # its row's last true frame, so padding needs no masking
            for s in range(_N_STAGES[kind]):
                h = T.relu(T.conv2d(h, params[f"frontend.conv{s}.w"],
                                    params[f"frontend.conv{s}.b"], stride=2, padding=0))
        else:
            # padding-1 convolutions read one frame past a row's end, which
            # must be zero as for an unpadded sequence
            t_len = lengths
            for s in range(_N_STAGES[kind]):
                for conv in ("conv0", "conv1"):
                    h = T.relu(T.conv2d(_zero_padding(h, t_len),
                                        params[f"frontend.stage{s}.{conv}.w"],
                                        params[f"frontend.stage{s}.{conv}.b"],
                                        stride=1, padding=1))
                h = T.max_pool2d(h, 2)
                t_len = t_len // 2
                _, c, t, f = h.shape
                h = T.reshape(T.transpose(h, (0, 2, 1, 3)), B, t, c * f)
                h = T.layer_norm(h, params[f"frontend.stage{s}.ln.gain"],
                                 params[f"frontend.stage{s}.ln.bias"])
                h = T.transpose(T.reshape(h, B, t, c, f), (0, 2, 1, 3))
        _, c, t, f = h.shape
        h = T.reshape(T.transpose(h, (0, 2, 1, 3)), B, t, c * f)
    out = T.matmul(h, params["frontend.proj.w"]) + params["frontend.proj.b"]

    if not kind.startswith("vgg"):
        _, n, d_att = out.shape
        out = out + Tensor(positional_encoding(n, d_att, dtype=out.dtype))
    return out, n_sub


def spec_augment(feats: np.ndarray, rng: np.random.Generator, n_freq_masks: int,
                 freq_mask_max: int, n_time_masks: int, time_mask_max: int) -> None:
    """Zero n_freq_masks random frequency bands of at most freq_mask_max bins
    and n_time_masks time bands of at most time_mask_max frames in the frames
    `feats` [n, F], in place; train-time augmentation."""
    n, F = feats.shape
    f_cap = min(freq_mask_max, max(0, F - 1))
    t_cap = min(time_mask_max, max(0, n - 1))
    for _ in range(n_freq_masks):
        f = int(rng.integers(0, f_cap + 1))
        f0 = int(rng.integers(0, F - f + 1))
        feats[:, f0:f0 + f] = 0.0
    for _ in range(n_time_masks):
        t = int(rng.integers(0, t_cap + 1))
        t0 = int(rng.integers(0, n - t + 1))
        feats[t0:t0 + t] = 0.0
