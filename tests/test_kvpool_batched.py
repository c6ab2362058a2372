"""Batched pack/dequant == the per-page formulation, byte for byte.

``PagedKVCache.pack_context`` bit-packs each tensor's rows of one bitwidth
once and hands pages slices; ``gather_context`` decodes every same-codec run
of a layer in one call.  The page-at-a-time versions they replaced live on
here as the reference: every page must hold the bytes a per-page packer
would have produced, and every gathered row must equal a per-page decode —
for all four codecs, mixed bitwidths plus FP16 rows, a partial last context
page, warm requests (``first_block > 0``) whose leading pages carry another
request's codec objects, and across a swap round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kvpool.cache as cache_module
from repro.kvpool import (
    BlockPool,
    NuqChannelNormCodec,
    PagedKVCache,
    PerChannelCodec,
    PerTokenCodec,
    TensorEncoding,
    encode_fitted,
    encode_per_token_groups,
)
from repro.kvpool.codecs import META_VALUE_BYTES
from repro.quant.dtypes import BitWidth, bytes_for_elements
from repro.quant.packing import pack_codes, unpack_codes

N_LAYERS, H, D, BS = 2, 2, 8, 16
FP16 = int(BitWidth.FP16)
#: 4 full pages + a 6-row partial context page, then 5 decode rows.
N_CONTEXT, N_TOKENS = 4 * BS + 6, 4 * BS + 11
KINDS = ("group", "token", "channel", "nuq")


def token_bits_for(kind: str, rng) -> np.ndarray:
    """Per-token precisions: every page mixes its bitwidths with FP16 rows."""
    quantized = (2, 4) if kind in ("group", "token") else (4,)
    return rng.choice([*quantized, FP16], size=N_CONTEXT).astype(np.int64)


def encode_tensor_per_token(x, token_bits, start):
    codecs = {
        bits: PerTokenCodec(bits, H, D)
        for bits in sorted(set(token_bits.tolist()) - {FP16})
    }
    width = next(iter(codecs.values()))
    codes = np.zeros((x.shape[0], width.code_width), dtype=np.uint8)
    meta = np.zeros((x.shape[0], width.meta_width), dtype=np.float32)
    for bits, codec in codecs.items():
        mask = token_bits == bits
        mask[:start] = False
        codes[mask], meta[mask] = codec.encode(x[mask])
    return TensorEncoding(x.shape[0], H, D, token_bits, codes, meta, codecs)


def encode(kind: str, cache, token_bits, start: int = 0):
    """Fresh codec objects every call, as each request's encoder makes them."""
    encodings = []
    for layer in range(N_LAYERS):
        k, v = (rows[:N_CONTEXT] for rows in cache.gather_layer(layer))
        if kind == "group":
            pair = encode_per_token_groups(k, v, token_bits, D, start=start)
        elif kind == "token":
            pair = tuple(encode_tensor_per_token(x, token_bits, start) for x in (k, v))
        else:
            cls = PerChannelCodec if kind == "channel" else NuqChannelNormCodec
            pair = tuple(encode_fitted(x, token_bits, cls, 4, start=start) for x in (k, v))
        encodings.append(pair)
    return encodings


def filled_cache(pool, k, v) -> PagedKVCache:
    cache = PagedKVCache(pool, capacity=N_TOKENS + BS)
    for layer in range(N_LAYERS):
        cache.append_layer(layer, k[layer], v[layer])
    cache.mark_context(N_CONTEXT)
    return cache


# -- the per-page reference ------------------------------------------------------


def reference_page_runs(enc: TensorEncoding, page: int):
    """What the page-at-a-time packer stored: one flat payload per bitwidth."""
    lo, hi = page * BS, min((page + 1) * BS, enc.n_tokens)
    bits_here = enc.token_bits[lo:hi]
    runs = []
    for bits in sorted(set(bits_here.tolist()) - {FP16}):
        mask = bits_here == bits
        runs.append(
            (
                bits,
                np.flatnonzero(mask),
                pack_codes(enc.codes[lo:hi][mask].reshape(-1), bits),
                enc.meta[lo:hi][mask],
                enc.codecs[bits],
            )
        )
    return runs


def reference_gather(page_encodings: list[TensorEncoding], fp_rows: np.ndarray):
    """Decode page by page, run by run, from each page's own encoding."""
    out = fp_rows.copy()
    for page, enc in enumerate(page_encodings):
        for bits, rows, payload, meta, codec in reference_page_runs(enc, page):
            codes = unpack_codes(payload, bits, rows.size * codec.code_width)
            out[page * BS + rows] = codec.decode(
                codes.reshape(rows.size, codec.code_width), meta
            )
    return out[: page_encodings[0].n_tokens]


def assert_pages_hold_reference_bytes(cache, encodings, first_block=0):
    n_pages = -(-N_CONTEXT // BS)
    expected_bytes = 0
    for page in range(first_block, n_pages):
        block = cache.pool.get(cache.table.block_ids[page])
        for layer, pair in enumerate(encodings):
            for held, enc in zip((block.packed_k[layer], block.packed_v[layer]), pair):
                reference = reference_page_runs(enc, page)
                assert len(held) == len(reference)
                for run, (bits, rows, payload, meta, codec) in zip(held, reference):
                    assert int(run.bits) == bits and run.codec is codec
                    np.testing.assert_array_equal(run.rows, rows)
                    assert run.packed_codes.tobytes() == payload.tobytes()
                    np.testing.assert_array_equal(run.meta, meta)
                    expected_bytes += payload.nbytes + meta.size * META_VALUE_BYTES
    return expected_bytes


def assert_gathers_match(cache, page_encodings_of, k, v):
    """``gather_context`` and the full-layer read against the reference."""
    n_full = (N_CONTEXT // BS) * BS
    for layer in range(N_LAYERS):
        for index, full in enumerate((k[layer], v[layer])):
            fp = full.copy()
            bits = page_encodings_of(layer, index)[0].token_bits
            fp[:N_CONTEXT][bits != FP16] = 0.0  # sealed: only the codes remain
            reference = reference_gather(page_encodings_of(layer, index), fp)
            np.testing.assert_array_equal(
                cache.gather_context(layer)[index], reference[:n_full]
            )
            gathered = cache.gather_layer(layer)[index]
            np.testing.assert_array_equal(gathered[:N_CONTEXT], reference)
            np.testing.assert_array_equal(gathered[N_CONTEXT:], full[N_CONTEXT:])


@pytest.fixture()
def kv(rng):
    shape = (N_LAYERS, N_TOKENS, H, D)
    return (
        rng.standard_normal(shape, dtype=np.float32),
        rng.standard_normal(shape, dtype=np.float32),
    )


@pytest.fixture()
def decode_calls(monkeypatch):
    """Sizes of every ``decode_runs`` batch the context gather issues.

    (The straddling page decodes through ``Block.gather``, not seen here.)
    """
    calls: list[int] = []
    real = cache_module.decode_runs

    def counting(runs):
        calls.append(len(runs))
        return real(runs)

    monkeypatch.setattr(cache_module, "decode_runs", counting)
    return calls


@pytest.mark.parametrize("kind", KINDS)
class TestBatchedPackAndGather:
    def test_cold_request(self, kind, rng, kv, decode_calls):
        k, v = kv
        pool = BlockPool(N_LAYERS, H, D, block_size=BS)
        cache = filled_cache(pool, k, v)
        token_bits = token_bits_for(kind, rng)
        encodings = encode(kind, cache, token_bits)
        fp_page_bytes = pool.allocated_bytes() // pool.n_allocated
        cache.pack_context(encodings)

        packed_bytes = assert_pages_hold_reference_bytes(cache, encodings)
        row_bytes = bytes_for_elements(2 * N_LAYERS * H * D, BitWidth.FP16)
        n_quantized = int((token_bits != FP16).sum())
        assert pool.allocated_bytes() == (
            pool.n_allocated * fp_page_bytes - n_quantized * row_bytes + packed_bytes
        )
        pool.assert_consistent()

        assert_gathers_match(cache, lambda layer, i: [encodings[layer][i]] * 5, k, v)
        # One decode per (layer, tensor, bitwidth), each over all four full pages.
        n_bitwidths = len(set(token_bits.tolist()) - {FP16})
        assert decode_calls == [4] * (N_LAYERS * 2 * n_bitwidths)

    def test_warm_request_adopts_another_requests_pages(
        self, kind, rng, kv, decode_calls
    ):
        k, v = kv
        pool = BlockPool(N_LAYERS, H, D, block_size=BS)
        token_bits = token_bits_for(kind, rng)
        donor = filled_cache(pool, k, v)
        donor_encodings = encode(kind, donor, token_bits)
        donor.pack_context(donor_encodings)

        first_block = 2
        adopted = donor.table.block_ids[:first_block]
        for block_id in adopted:
            pool.retain(block_id)
        warm = PagedKVCache(pool, capacity=N_TOKENS + BS)
        warm.adopt_blocks(adopted, first_block * BS)
        for layer in range(N_LAYERS):
            warm.append_layer(
                layer, k[layer][first_block * BS :], v[layer][first_block * BS :]
            )
        warm.mark_context(N_CONTEXT)
        # The encoder sees the full-precision scratch rows, not the pool's.
        scratch = filled_cache(BlockPool(N_LAYERS, H, D, block_size=BS), k, v)
        encodings = encode(kind, scratch, token_bits, start=first_block * BS)
        warm.pack_context(encodings, first_block=first_block)

        assert warm.table.block_ids[:first_block] == adopted  # no copy-on-write
        assert_pages_hold_reference_bytes(warm, encodings, first_block)
        pool.assert_consistent()

        def page_encodings(layer, index):
            return [donor_encodings[layer][index]] * first_block + [
                encodings[layer][index]
            ] * 3

        decode_calls.clear()
        assert_gathers_match(warm, page_encodings, k, v)
        # Token-local codecs batch across both requests' codec objects (same
        # geometry); fitted ones only with their own object's runs.
        n_bitwidths = len(set(token_bits.tolist()) - {FP16})
        if kind in ("group", "token"):
            assert decode_calls == [4] * (N_LAYERS * 2 * n_bitwidths)
        else:
            assert decode_calls == [2] * (N_LAYERS * 2 * 2)
        # And the donor still reads its own pages unchanged.
        assert_gathers_match(
            donor, lambda layer, i: [donor_encodings[layer][i]] * 5, k, v
        )

    def test_swap_round_trip(self, kind, rng, kv):
        k, v = kv
        pool = BlockPool(N_LAYERS, H, D, block_size=BS)
        cache = filled_cache(pool, k, v)
        encodings = encode(kind, cache, token_bits_for(kind, rng))
        cache.pack_context(encodings)
        before = [cache.gather_layer(layer) for layer in range(N_LAYERS)]
        resident = pool.allocated_bytes()
        measured = cache.measured_bytes()
        cache.swap_out()
        assert pool.allocated_bytes() == 0 and cache.measured_bytes() == measured
        cache.swap_in()
        assert pool.allocated_bytes() == resident
        pool.assert_consistent()
        assert_pages_hold_reference_bytes(cache, encodings)
        for layer in range(N_LAYERS):
            for index in range(2):
                np.testing.assert_array_equal(
                    cache.gather_layer(layer)[index], before[layer][index]
                )
        assert_gathers_match(cache, lambda layer, i: [encodings[layer][i]] * 5, k, v)
