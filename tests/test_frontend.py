"""Front-end length arithmetic, positional encoding, sub-sampling, SpecAugment."""

import numpy as np
import pytest

from trasr import frontend
from trasr.errors import SequenceTooShortError
from trasr.frontend import (KINDS, FeatureSequence, minimum_input_length, output_length,
                            positional_encoding, spec_augment, subsample)
from trasr.model import ModelConfig, init_model_params
from trasr.rng import stream

from conftest import subsample_one


def make_frontend(kind, d_att=16, feature_dim=8):
    """A model of a front-end alone: no encoder or decoder layers."""
    cfg = ModelConfig(frontend=kind, d_att=d_att, feature_dim=feature_dim, heads=2,
                      e1=0, e2=0, dec_layers=0)
    return cfg, init_model_params(cfg, seed=0)


# -- length arithmetic ------------------------------------------------------


def test_output_length_worked_examples():
    assert output_length("conv2d4", 19) == 4       # 19 -> 9 -> 4
    assert output_length("conv2d8", 83) == 9       # 83 -> 41 -> 20 -> 9
    assert output_length("vggconv2d4", 20) == 5    # 20 -> 10 -> 5
    assert output_length("vggconv2d8", 40) == 5    # floor-halve three times
    assert output_length("identity", 7) == 7


def test_conv_length_formula_applied_per_stage():
    for T_in in range(7, 120):
        n = T_in
        for _ in range(2):
            n = (n - 3) // 2 + 1
        assert output_length("conv2d4", T_in) == n


def test_conv4_vs_conv8_factor_two_relation():
    # exact relation everywhere: the 8x front-end is one more stride-2 stage
    for T_in in range(20, 401):
        n4 = output_length("conv2d4", T_in)
        assert output_length("conv2d8", T_in) == (n4 - 3) // 2 + 1
    # the nominal factor-2 band holds once the -3/+1 edge effects are small
    rng = np.random.default_rng(0)
    for T_in in rng.integers(120, 401, size=100):
        r = output_length("conv2d4", int(T_in)) / output_length("conv2d8", int(T_in))
        assert 1.8 <= r <= 2.2


def test_minimum_input_length_consistent():
    for kind in ("conv2d4", "conv2d8", "vggconv2d4", "vggconv2d8", "identity"):
        m = minimum_input_length(kind)
        assert output_length(kind, m) >= 1
        if m > 1:
            assert output_length(kind, m - 1) < 1


# -- positional encoding ----------------------------------------------------


def test_positional_encoding_position_zero():
    pe = positional_encoding(3, 8)
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)


def test_positional_encoding_values():
    pe = positional_encoding(5, 4, dtype=np.float64)
    t = np.arange(5)
    assert np.allclose(pe[:, 0], np.sin(t))
    assert np.allclose(pe[:, 1], np.cos(t))
    assert np.allclose(pe[:, 2], np.sin(t / 100.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_positional_encoding_table_is_read_only_and_exact(monkeypatch, d, dtype):
    monkeypatch.setattr(frontend, "_PE_TABLES", {})
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 7, 233):
        t = np.arange(n, dtype=np.float64)[:, None]
        inv = np.power(10000.0, -np.arange(0, d, 2, dtype=np.float64) / d)[None, :]
        want = np.empty((n, d), dtype=np.float64)
        want[:, 0::2] = np.sin(t * inv)
        want[:, 1::2] = np.cos(t * inv)
        pe = positional_encoding(n, d, dtype=dtype)
        assert pe.dtype == dtype and np.array_equal(pe, want.astype(dtype))
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
    assert len(frontend._PE_TABLES) == 1


def test_positional_encoding_odd_width_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


# -- subsample --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["conv2d4", "conv2d8", "vggconv2d4", "vggconv2d8",
                                  "identity"])
def test_subsample_shape_contract(kind):
    # conv2d8 applies three stride-2 valid convs along frequency too, so the
    # feature axis needs headroom
    cfg, store = make_frontend(kind, feature_dim=16)
    T_in = max(40, minimum_input_length(kind))
    seq = FeatureSequence(np.random.default_rng(0).normal(size=(T_in, 16)).astype(np.float32))
    out, n = subsample_one(seq, kind, store)
    assert n == output_length(kind, T_in)
    assert out.shape == (n, cfg.d_att)


def test_identity_kind_is_linear_projection():
    cfg, store = make_frontend("identity", d_att=6, feature_dim=4)
    x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)
    out, n = subsample_one(FeatureSequence(x), "identity", store)
    assert n == 5
    expect = x @ store["frontend.proj.w"].data + store["frontend.proj.b"].data
    pe = positional_encoding(5, 6)
    assert np.allclose(out.data, expect + pe, atol=1e-6)


def test_too_short_input_names_minimum():
    _, store = make_frontend("conv2d4")
    seq = FeatureSequence(np.zeros((3, 8), dtype=np.float32))
    with pytest.raises(SequenceTooShortError) as e:
        subsample_one(seq, "conv2d4", store)
    assert str(minimum_input_length("conv2d4")) in str(e.value)


def test_padding_rows_never_influence_output():
    _, store = make_frontend("conv2d4")
    rng = np.random.default_rng(2)
    body = rng.normal(size=(21, 8)).astype(np.float32)
    padded = np.concatenate([body, np.zeros((7, 8), dtype=np.float32)])
    garbage = np.concatenate([body, 99.0 * np.ones((7, 8), dtype=np.float32)])
    out1, _ = subsample(padded[None], [21], "conv2d4", store)
    out2, _ = subsample(garbage[None], [21], "conv2d4", store)
    assert np.array_equal(out1.data, out2.data)


@pytest.mark.parametrize("kind", KINDS)
def test_positional_encoding_added_for_conv_and_identity_not_vgg(kind):
    # with a zero projection the output is exactly what is added after it
    _, store = make_frontend(kind, feature_dim=16)
    store["frontend.proj.w"].data[...] = 0.0
    store["frontend.proj.b"].data[...] = 0.0
    x = np.random.default_rng(3).normal(size=(40, 16)).astype(np.float32)
    out, n = subsample_one(FeatureSequence(x), kind, store)
    want = np.zeros((n, 16), np.float32) if kind.startswith("vgg") else positional_encoding(n, 16)
    assert np.array_equal(out.data, want)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ModelConfig(frontend="wavelet")


# -- SpecAugment ------------------------------------------------------------


def test_spec_augment_zero_masks_identity():
    x = np.random.default_rng(0).normal(size=(10, 6)).astype(np.float32)
    out = x.copy()
    spec_augment(out, np.random.default_rng(0), 0, 0, 0, 0)
    assert np.array_equal(out, x)


def test_spec_augment_masks_are_zeroed_bands():
    x = np.ones((30, 12), dtype=np.float32)
    assert spec_augment(x, np.random.default_rng(5), 1, 4, 1, 8) is None
    assert x.shape == (30, 12)
    assert set(np.unique(x)) <= {0.0, 1.0}


def test_spec_augment_deterministic_given_stream():
    a, b = np.ones((2, 30, 12), dtype=np.float32)
    for x in (a, b):
        spec_augment(x, stream(7, "specaug/utt1"), 2, 10, 2, 20)
    assert np.array_equal(a, b)


def test_spec_augment_masks_only_the_frames_it_is_given():
    # a view of a padded row's true frames: the padding is never touched
    padded = np.ones((30, 12), dtype=np.float32)
    alone = np.ones((20, 12), dtype=np.float32)
    for x in (padded[:20], alone):
        spec_augment(x, stream(3, "specaug/utt1"), 2, 6, 3, 15)
    assert not alone.all()
    assert np.array_equal(padded[:20], alone)
    assert padded[20:].all()
