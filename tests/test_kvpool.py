"""Unit tests for the paged KV-cache pool: allocator, pages, packing, swap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpu import GPUSpec
from repro.kvpool import (
    BlockPool,
    BlockTable,
    PagedKVCache,
    PoolExhausted,
    encode_per_token_groups,
)
from repro.quant.dtypes import BitWidth, bytes_for_elements
from repro.quant.group import group_quantize

N_LAYERS, H, D, BS = 2, 2, 8, 16


def make_pool(capacity_blocks=None, block_size=BS) -> BlockPool:
    return BlockPool(
        N_LAYERS, H, D, block_size=block_size, capacity_blocks=capacity_blocks
    )


def fill_cache(cache: PagedKVCache, rng, n_tokens: int):
    k = rng.normal(size=(n_tokens, H, D)).astype(np.float32)
    v = rng.normal(size=(n_tokens, H, D)).astype(np.float32)
    for layer in range(N_LAYERS):
        cache.append_layer(layer, k, v)
    return k, v


class TestBlockPool:
    def test_alloc_free_roundtrip(self):
        pool = make_pool(capacity_blocks=2)
        a = pool.allocate()
        b = pool.allocate()
        assert pool.n_allocated == 2 and pool.n_free_blocks == 0
        assert not pool.can_allocate(1)
        pool.release(a)
        assert pool.n_free_blocks == 1 and pool.can_allocate(1)
        pool.release(b)
        assert pool.n_allocated == 0

    def test_exhaustion_raises(self):
        pool = make_pool(capacity_blocks=1)
        pool.allocate()
        with pytest.raises(PoolExhausted):
            pool.allocate()

    def test_double_free_raises(self):
        pool = make_pool()
        block_id = pool.allocate()
        pool.release(block_id)
        with pytest.raises(ValueError, match="double free"):
            pool.release(block_id)
        with pytest.raises(ValueError, match="not allocated"):
            pool.release(12345)

    def test_unbounded_pool_grows(self):
        pool = make_pool(capacity_blocks=None)
        ids = [pool.allocate() for _ in range(100)]
        assert pool.n_free_blocks is None and len(set(ids)) == 100

    def test_byte_accounting_page_granular(self):
        pool = make_pool()
        block_id = pool.allocate()
        row_bytes = bytes_for_elements(2 * N_LAYERS * H * D, BitWidth.FP16)
        # A fresh (even empty) page charges all of its reserved rows.
        assert pool.get(block_id).storage_bytes() == BS * row_bytes
        assert pool.allocated_bytes() == BS * row_bytes
        assert pool.reserved_tokens() == BS
        pool.release(block_id)
        assert pool.allocated_bytes() == 0

    def test_peak_tracking(self):
        pool = make_pool()
        ids = [pool.allocate() for _ in range(3)]
        for block_id in ids:
            pool.release(block_id)
        assert pool.peak_allocated_blocks == 3
        assert pool.peak_bytes > 0 and pool.allocated_bytes() == 0

    def test_for_gpu_gates_capacity(self):
        page_bytes = BS * bytes_for_elements(2 * N_LAYERS * H * D, BitWidth.FP16)
        tiny = GPUSpec(
            name="tiny", memory_bytes=10 * page_bytes, hbm_bandwidth_bytes_per_s=1.0
        )
        pool = BlockPool.for_gpu(
            tiny, n_layers=N_LAYERS, n_kv_heads=H, head_dim=D, block_size=BS
        )
        assert pool.capacity_blocks == 9  # 90% memory fraction
        smaller = GPUSpec(
            name="nano", memory_bytes=page_bytes // 2, hbm_bandwidth_bytes_per_s=1.0
        )
        with pytest.raises(ValueError, match="cannot hold"):
            BlockPool.for_gpu(
                smaller, n_layers=N_LAYERS, n_kv_heads=H, head_dim=D, block_size=BS
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            make_pool(block_size=0)
        with pytest.raises(ValueError, match="capacity_blocks"):
            make_pool(capacity_blocks=0)


class TestBlockTable:
    def test_locate_and_blocks_for_tokens(self):
        table = BlockTable(block_size=16)
        assert table.locate(0) == (0, 0)
        assert table.locate(15) == (0, 15)
        assert table.locate(16) == (1, 0)
        assert BlockTable.blocks_for_tokens(0, 16) == 0
        assert BlockTable.blocks_for_tokens(16, 16) == 1
        assert BlockTable.blocks_for_tokens(17, 16) == 2


class TestPagedKVCache:
    def test_append_and_gather_parity_with_dense(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=64)
        k, v = fill_cache(cache, rng, 37)
        assert cache.length == 37
        assert cache.n_blocks == BlockTable.blocks_for_tokens(37, BS)
        for layer in range(N_LAYERS):
            np.testing.assert_array_equal(cache.layers[layer].keys(), k)
            np.testing.assert_array_equal(cache.layers[layer].values(), v)

    def test_overflow_and_pool_capacity(self, rng):
        pool = make_pool(capacity_blocks=1)
        cache = PagedKVCache(pool, capacity=BS)
        fill_cache(cache, rng, BS)
        assert not cache.has_capacity()
        with pytest.raises(ValueError, match="overflow"):
            cache.append_layer(0, np.zeros((1, H, D)), np.zeros((1, H, D)))
        other = PagedKVCache(pool, capacity=BS)
        with pytest.raises(PoolExhausted):
            other.append_layer(0, np.zeros((1, H, D)), np.zeros((1, H, D)))

    def test_pack_context_bit_for_bit_and_fragmentation(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=64)
        k, v = fill_cache(cache, rng, 37)
        n_context = 35
        cache.mark_context(n_context)
        token_bits = np.array([2] * 16 + [4] * 16 + [16] * 3, dtype=np.int64)
        encodings = [
            encode_per_token_groups(k[:n_context], v[:n_context], token_bits, D)
            for _ in range(N_LAYERS)
        ]
        before = pool.allocated_bytes()
        cache.pack_context(encodings)
        assert pool.allocated_bytes() < before  # packing compacts the pages

        # Gathered rows equal the dense fake-quant reference bit for bit.
        reference = k.copy()
        for bits in (2, 4):
            idx = np.nonzero(token_bits == bits)[0]
            reference[idx] = group_quantize(k[idx], bits, D).dequantize()
        np.testing.assert_array_equal(cache.layers[0].keys(), reference)

        measured = cache.measured_bytes()
        row_bytes = bytes_for_elements(2 * N_LAYERS * H * D, BitWidth.FP16)
        # 3 FP16-kept context rows, 2 decode rows + 11 reserved-but-empty
        # rows in the last page (internal fragmentation).
        assert measured["generated_bytes"] == (BS - 3) * row_bytes
        assert measured["context_bytes"] < measured["context_fp16_bytes"]
        assert measured["total_bytes"] == pool.allocated_bytes()
        # A packed context cannot be packed again.
        with pytest.raises(RuntimeError, match="already packed"):
            cache.pack_context(encodings)

    def test_pack_context_rejects_mismatched_token_bits(self, rng):
        """A per-layer/per-tensor disagreement about which rows are
        quantized must fail loudly: compaction is per page row, so it would
        silently zero float rows another tensor still reads."""
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=32)
        k, v = fill_cache(cache, rng, 20)
        cache.mark_context(20)
        bits_a = np.array([4] * 10 + [16] * 10, dtype=np.int64)
        bits_b = np.array([16] * 10 + [4] * 10, dtype=np.int64)
        encodings = [
            encode_per_token_groups(k, v, bits, D) for bits in (bits_a, bits_b)
        ]
        with pytest.raises(ValueError, match="share one per-token bit"):
            cache.pack_context(encodings)

    def test_incremental_byte_counter_matches_walk(self, rng):
        """allocated_bytes() is O(1) incremental; it must track a fresh
        walk over the pages exactly through alloc/pack/swap/free."""
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=64)
        k, v = fill_cache(cache, rng, 37)
        cache.mark_context(32)
        token_bits = np.array([2] * 16 + [4] * 16, dtype=np.int64)
        encodings = [
            encode_per_token_groups(k[:32], v[:32], token_bits, D)
            for _ in range(N_LAYERS)
        ]

        def walk():
            return sum(
                pool.get(bid).storage_bytes() for bid in cache.table.block_ids
            )

        assert pool.allocated_bytes() == walk()
        cache.pack_context(encodings)
        assert pool.allocated_bytes() == walk()
        cache.swap_out()
        assert pool.allocated_bytes() == 0
        cache.swap_in()
        assert pool.allocated_bytes() == walk()
        cache.release()
        assert pool.allocated_bytes() == 0

    def test_gather_memo_invalidated_by_writes(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=64)
        k, v = fill_cache(cache, rng, 10)
        first = cache.gather_layer(0)
        assert cache.gather_layer(0) is first  # memo hit, same tuple
        cache.mark_context(10)
        token_bits = np.full(10, 4, dtype=np.int64)
        cache.pack_context(
            [encode_per_token_groups(k, v, token_bits, D) for _ in range(N_LAYERS)]
        )
        np.testing.assert_array_equal(
            cache.gather_layer(0)[0], group_quantize(k, 4, D).dequantize()
        )  # repack visible: memo invalidated
        cache.append_layer(0, k[:1], v[:1])
        assert cache.gather_layer(0)[0].shape[0] == 11  # growth visible

    def test_swap_roundtrip_preserves_bytes_and_contents(self, rng):
        pool = make_pool(capacity_blocks=4)
        cache = PagedKVCache(pool, capacity=48)
        k, _ = fill_cache(cache, rng, 40)
        before_bytes = cache.measured_bytes()
        before_rows = cache.gather_layer(1)
        cache.swap_out()
        assert cache.is_swapped and cache.live_tokens() == 0
        assert pool.n_allocated == 0  # capacity freed for other sequences
        assert cache.measured_bytes() == before_bytes  # host copy accounted
        with pytest.raises(RuntimeError, match="swapped"):
            cache.gather_layer(0)
        cache.swap_in()
        assert not cache.is_swapped and cache.live_tokens() == 40
        np.testing.assert_array_equal(cache.gather_layer(1)[0], before_rows[0])
        assert pool.n_swap_outs == 3 and pool.n_swap_ins == 3

    def test_swap_in_rejected_when_pool_full(self, rng):
        pool = make_pool(capacity_blocks=3)
        cache = PagedKVCache(pool, capacity=48)
        fill_cache(cache, rng, 40)
        cache.swap_out()
        squatter = PagedKVCache(pool, capacity=48)
        fill_cache(squatter, rng, 20)  # takes 2 of the 3 pages
        with pytest.raises(PoolExhausted):
            cache.swap_in()
        assert cache.is_swapped  # rolled back, retryable
        squatter.release()
        cache.swap_in()
        assert cache.live_tokens() == 40

    def test_release_is_idempotent_and_frees_pages(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=64)
        fill_cache(cache, rng, 20)
        assert pool.n_allocated == 2
        cache.release()
        assert pool.n_allocated == 0
        cache.release()  # idempotent
        with pytest.raises(RuntimeError, match="released"):
            cache.gather_layer(0)
