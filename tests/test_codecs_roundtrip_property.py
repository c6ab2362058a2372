"""Property-based round-trips: packed storage == fake quantization, always.

The paged pool's whole correctness story rests on one invariant: for every
codec, decoding the bit-packed codes + metadata reproduces the fake-quant
floats **bit for bit**, across arbitrary shapes, group sizes and bitwidths.
These tests drive randomized configurations (seeded, so failures replay)
through ``quant.packing``/``quant.schemes`` and the
:class:`~repro.kvpool.codecs` encoders, decoding both directly and through
:class:`~repro.kvpool.pool.PackedRun` — the exact storage object pages hold
— via :func:`~repro.kvpool.pool.decode_runs`, the one dequantization path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvpool.codecs import (
    NuqChannelNormCodec,
    PerChannelCodec,
    PerTokenCodec,
    PerTokenGroupCodec,
)
from repro.kvpool.pool import PackedRun, decode_runs
from repro.quant.dtypes import BitWidth
from repro.quant.group import group_quantize
from repro.quant.nonuniform import nuq_quantize
from repro.quant.packing import (
    pack_code_rows,
    pack_codes,
    unpack_code_rows,
    unpack_codes,
)
from repro.quant.schemes import (
    fake_quantize_per_channel,
    fake_quantize_per_token,
)

N_CASES = 25
QUANT_BITS = (2, 4, 8)


def random_case(seed: int):
    """One randomized (tensor, geometry) configuration."""
    rng = np.random.default_rng(seed)
    n_tokens = int(rng.integers(1, 40))
    h = int(rng.integers(1, 5))
    d = int(rng.choice([1, 2, 3, 4, 8, 16, 24]))
    scale = float(rng.choice([1e-3, 1.0, 37.5]))
    x = (rng.normal(size=(n_tokens, h, d)) * scale).astype(np.float32)
    if rng.random() < 0.2:
        x[rng.integers(0, n_tokens)] = 0.0  # degenerate all-zero token rows
    bits = BitWidth.from_bits(int(rng.choice(QUANT_BITS)))
    return rng, x, bits


def roundtrip_through_packed_run(codec, codes, meta, bits) -> np.ndarray:
    """Decode via PackedRuns, i.e. the exact path a gather takes.

    The rows are split over two runs at an arbitrary point, as two pages
    would hold them: batching must not change a bit.
    """
    n_rows = codes.shape[0]
    packed = pack_code_rows(codes, bits)
    cut = n_rows // 3
    runs = [
        PackedRun(
            bits=bits,
            rows=np.arange(lo, hi, dtype=np.int64),
            packed_codes=packed[lo:hi],
            meta=meta[lo:hi],
            codec=codec,
        )
        for lo, hi in ((0, cut), (cut, n_rows))
        if hi > lo
    ]
    return decode_runs(runs)


@pytest.mark.parametrize("seed", range(N_CASES))
class TestRandomizedRoundTrips:
    def test_pack_unpack_is_lossless(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.choice(QUANT_BITS))
        n = int(rng.integers(0, 500))
        codes = rng.integers(0, 2**bits, size=n).astype(np.uint8)
        packed = pack_codes(codes, bits)
        assert packed.nbytes == -(-n * bits // 8)  # tight bit packing
        np.testing.assert_array_equal(unpack_codes(packed, bits, n), codes)

    def test_row_packing_is_lossless_and_sliceable(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.choice(QUANT_BITS))
        m, width = int(rng.integers(0, 30)), int(rng.integers(1, 40))
        codes = rng.integers(0, 2**bits, size=(m, width)).astype(np.uint8)
        packed = pack_code_rows(codes, bits)
        assert packed.shape == (m, -(-width * bits // 8))  # rows byte-aligned
        np.testing.assert_array_equal(unpack_code_rows(packed, bits, width), codes)
        # Whole-byte rows pack to the same bytes as the flat per-run packer.
        if (width * bits) % 8 == 0:
            lo, hi = sorted(rng.integers(0, m + 1, size=2).tolist())
            assert packed[lo:hi].tobytes() == pack_codes(codes[lo:hi], bits).tobytes()

    def test_per_token_group_codec(self, seed):
        rng, x, bits = random_case(seed)
        d = x.shape[-1]
        group = int(rng.choice([g for g in (1, 2, 4, 8, d) if g <= d]))
        codec = PerTokenGroupCodec(bits, x.shape[1], d, group)
        codes, meta = codec.encode(x)
        reference = group_quantize(x, bits, group).dequantize()
        np.testing.assert_array_equal(codec.decode(codes, meta), reference)
        np.testing.assert_array_equal(
            roundtrip_through_packed_run(codec, codes, meta, bits), reference
        )

    def test_per_token_codec(self, seed):
        rng, x, bits = random_case(seed)
        codec = PerTokenCodec(bits, x.shape[1], x.shape[2])
        codes, meta = codec.encode(x)
        reference = fake_quantize_per_token(x, bits)
        np.testing.assert_array_equal(codec.decode(codes, meta), reference)
        np.testing.assert_array_equal(
            roundtrip_through_packed_run(codec, codes, meta, bits), reference
        )

    def test_per_channel_codec(self, seed):
        rng, x, bits = random_case(seed)
        codec = PerChannelCodec(x, bits)
        codes = codec.take_codes()
        meta = np.zeros((x.shape[0], 0), dtype=np.float32)
        reference = fake_quantize_per_channel(x, bits)
        np.testing.assert_array_equal(codec.decode(codes, None), reference)
        np.testing.assert_array_equal(
            roundtrip_through_packed_run(codec, codes, meta, bits), reference
        )

    def test_nuq_channel_norm_codec(self, seed):
        rng, x, bits = random_case(seed)
        codec = NuqChannelNormCodec(x, bits)
        codes = codec.take_codes()
        meta = np.zeros((x.shape[0], 0), dtype=np.float32)
        # Reference: the KVQuant fake-quant recipe, recomputed by hand.
        centered = x - x.mean(axis=0, keepdims=True)
        scale = np.maximum(np.max(np.abs(centered), axis=0, keepdims=True), 1e-12)
        nq = nuq_quantize(centered / scale, bits)
        reference = (
            nq.codebook[nq.codes.reshape(x.shape)].astype(np.float32) * scale
            + x.mean(axis=0, keepdims=True)
        )
        np.testing.assert_array_equal(codec.decode(codes, None), reference)
        np.testing.assert_array_equal(
            roundtrip_through_packed_run(codec, codes, meta, bits), reference
        )

    def test_subset_decode_equals_full_decode(self, seed):
        """Decoding any row subset equals decoding everything and slicing —
        the property page-level gathers rely on (pages hold row subsets)."""
        rng, x, bits = random_case(seed)
        codec = PerTokenGroupCodec(bits, x.shape[1], x.shape[2], x.shape[2])
        codes, meta = codec.encode(x)
        full = codec.decode(codes, meta)
        n = x.shape[0]
        take = rng.permutation(n)[: max(1, n // 2)]
        np.testing.assert_array_equal(codec.decode(codes[take], meta[take]), full[take])
