"""Tests for affine uniform quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.quant.uniform as uniform
from repro.kvpool.codecs import PerChannelCodec, PerTokenCodec, PerTokenGroupCodec
from repro.quant.dtypes import BitWidth
from repro.quant.uniform import (
    dequantize,
    fake_quantize,
    quantization_step,
    quantize_uniform,
)


class TestQuantizeUniform:
    def test_codes_within_range(self, rng):
        x = rng.normal(0, 3, (16, 8)).astype(np.float32)
        for bits in (BitWidth.INT2, BitWidth.INT4, BitWidth.INT8):
            qt = quantize_uniform(x, bits)
            assert qt.codes.dtype == np.uint8
            assert qt.codes.max() <= bits.qmax
            assert qt.codes.min() >= 0

    def test_reconstruction_error_bounded_by_half_step(self, rng):
        x = rng.normal(0, 1, (32, 16)).astype(np.float32)
        for bits in (BitWidth.INT2, BitWidth.INT4, BitWidth.INT8):
            qt = quantize_uniform(x, bits, axis=-1)
            err = np.abs(dequantize(qt) - x)
            half_step = qt.scale / 2 + 1e-6
            assert np.all(err <= half_step)

    def test_more_bits_lower_error(self, rng):
        x = rng.normal(0, 1, (64, 32)).astype(np.float32)
        errors = []
        for bits in (BitWidth.INT2, BitWidth.INT4, BitWidth.INT8):
            err = np.mean((fake_quantize(x, bits, axis=-1) - x) ** 2)
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]

    def test_per_axis_scales_shape(self, rng):
        x = rng.normal(0, 1, (10, 6)).astype(np.float32)
        qt = quantize_uniform(x, BitWidth.INT4, axis=1)
        assert qt.scale.shape == (10, 1)
        qt0 = quantize_uniform(x, BitWidth.INT4, axis=0)
        assert qt0.scale.shape == (1, 6)

    def test_constant_input_is_exact(self):
        x = np.full((4, 4), 3.25, dtype=np.float32)
        qt = quantize_uniform(x, BitWidth.INT4)
        np.testing.assert_allclose(dequantize(qt), x, atol=1e-4)

    def test_symmetric_zero_point_is_midrange(self, rng):
        x = rng.normal(0, 1, (8, 8)).astype(np.float32)
        qt = quantize_uniform(x, BitWidth.INT8, symmetric=True)
        assert qt.symmetric
        np.testing.assert_allclose(qt.zero_point, BitWidth.INT8.qmax / 2)

    def test_rejects_fp16(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(4), BitWidth.FP16)

    def test_properties(self, rng):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        qt = quantize_uniform(x, BitWidth.INT4)
        assert qt.shape == (3, 5)
        assert qt.n_elements == 15
        assert qt.bits is BitWidth.INT4

    def test_quantization_step_matches_scale(self, rng):
        x = rng.normal(0, 2, (6, 12)).astype(np.float32)
        step = quantization_step(x, BitWidth.INT4, axis=-1)
        qt = quantize_uniform(x, BitWidth.INT4, axis=-1)
        np.testing.assert_allclose(step, qt.scale, rtol=1e-5)


def _out_of_place_dequantize(qt):
    """The expression ``dequantize`` computed before it worked in place."""
    return ((qt.codes.astype(np.float32) - qt.zero_point) * qt.scale).astype(np.float32)


class TestDequantizeInPlace:
    """The in-place dequantization is bit-identical to the out-of-place one
    on every path that reaches it: each codec's ``decode`` and
    ``fake_quantize``."""

    @staticmethod
    def both(monkeypatch, fn):
        fresh = fn()
        with monkeypatch.context() as patch:
            patch.setattr(uniform, "dequantize", _out_of_place_dequantize)
            reference = fn()
        assert fresh.dtype == reference.dtype == np.float32
        assert fresh.shape == reference.shape
        assert fresh.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("bits", [BitWidth.INT2, BitWidth.INT4, BitWidth.INT8])
    def test_codec_decodes_are_bit_identical(self, rng, monkeypatch, bits):
        x = rng.normal(0, 2, (250, 4, 64)).astype(np.float32)
        codecs = [
            PerTokenGroupCodec(bits, 4, 64, 64),
            PerTokenGroupCodec(bits, 4, 64, 24),  # padded groups
            PerTokenCodec(bits, 4, 64),
        ]
        for codec in codecs:
            codes, meta = codec.encode(x)
            self.both(monkeypatch, lambda: codec.decode(codes, meta))
        channel = PerChannelCodec(x, bits)
        self.both(monkeypatch, lambda: channel.decode(channel.take_codes(), None))

    @pytest.mark.parametrize("axis", [None, -1, 0])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_fake_quantize_is_bit_identical(self, rng, monkeypatch, axis, symmetric):
        x = rng.normal(0, 3, (33, 17)).astype(np.float32)
        for bits in (BitWidth.INT2, BitWidth.INT4, BitWidth.INT8):
            self.both(
                monkeypatch,
                lambda: fake_quantize(x, bits, axis=axis, symmetric=symmetric),
            )


@settings(max_examples=40, deadline=None)
@given(
    x=hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
        elements=st.floats(-1e3, 1e3, width=32),
    ),
    bits=st.sampled_from([BitWidth.INT2, BitWidth.INT4, BitWidth.INT8]),
)
def test_property_roundtrip_error_bounded(x, bits):
    """Quantize-dequantize error never exceeds half a step (global scale)."""
    qt = quantize_uniform(x, bits)
    err = np.abs(dequantize(qt) - x)
    assert np.all(err <= qt.scale / 2 + 1e-3)


@settings(max_examples=40, deadline=None)
@given(
    x=hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(st.integers(1, 10), st.integers(1, 16)),
        elements=st.floats(-50, 50, width=32),
    )
)
def test_property_fake_quant_idempotent(x):
    """Fake-quantizing an already fake-quantized tensor changes nothing."""
    once = fake_quantize(x, BitWidth.INT4, axis=-1)
    twice = fake_quantize(once, BitWidth.INT4, axis=-1)
    np.testing.assert_allclose(once, twice, atol=1e-4)
