"""Paged KV-cache pool: shared block allocator with packed quantized storage.

The subsystem the serving engine stores every sequence's KV cache in:

* :class:`~repro.kvpool.pool.BlockPool` — fixed-size pages, free-list
  allocation, measured byte accounting, swap-out/swap-in.
* :class:`~repro.kvpool.cache.PagedKVCache` / ``BlockTable`` — a sequence's
  view onto the pool, drop-in for the dense ``ModelKVCache``.
* :mod:`~repro.kvpool.codecs` — token-row codecs that store each
  quantization method's *actual* packed codes + scales, bit-for-bit
  equivalent to the fake-quant simulation path.
* :mod:`~repro.kvpool.prefix` — the cross-request reuse layer: chained
  block hashes and the :class:`~repro.kvpool.prefix.PrefixCache` radix
  index that lets warm requests adopt already-packed pages instead of
  re-quantizing a repeated context.
* :mod:`~repro.kvpool.rows` — the tier under it:
  :class:`~repro.kvpool.rows.ContextRowCache` keeps full-precision context
  rows by the same hash chain, so a prefill job on a repeated document
  skips the forward over them.
"""

from repro.kvpool.cache import BlockTable, PagedKVCache, PagedLayerView
from repro.kvpool.prefix import (
    PrefixCache,
    PrefixCacheStats,
    block_hashes,
    content_hash,
)
from repro.kvpool.codecs import (
    NuqChannelNormCodec,
    PerChannelCodec,
    PerTokenCodec,
    PerTokenGroupCodec,
    TensorEncoding,
    TokenRowCodec,
    encode_fitted,
    encode_per_token_groups,
)
from repro.kvpool.pool import Block, BlockPool, PackedRun, PoolExhausted
from repro.kvpool.rows import CONTEXT_ROW_BYTES, ContextRowCache

__all__ = [
    "Block",
    "BlockPool",
    "BlockTable",
    "CONTEXT_ROW_BYTES",
    "ContextRowCache",
    "NuqChannelNormCodec",
    "PackedRun",
    "PagedKVCache",
    "PagedLayerView",
    "PerChannelCodec",
    "PerTokenCodec",
    "PerTokenGroupCodec",
    "PoolExhausted",
    "PrefixCache",
    "PrefixCacheStats",
    "TensorEncoding",
    "TokenRowCodec",
    "block_hashes",
    "content_hash",
    "encode_fitted",
    "encode_per_token_groups",
]
