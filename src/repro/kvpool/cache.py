"""Paged KV cache: a sequence's view onto the shared block pool.

:class:`PagedKVCache` is the decode-time counterpart of
:class:`~repro.model.kv_cache.ModelKVCache` whose storage lives in a shared
:class:`~repro.kvpool.pool.BlockPool` instead of private contiguous arrays.
Each sequence holds a :class:`BlockTable` mapping logical token positions to
pages; per-layer :class:`PagedLayerView` objects expose the same
``append``/``keys``/``values`` surface the attention layer drives, so the
transformer runs unmodified on either cache.

The serving backend fills it from a request's full-precision prefill
scratch — adopted pages first, then the unmatched rows — and packs the
context region
(:meth:`PagedKVCache.pack_context`): quantized token rows become bit-packed
codes + scales inside their pages, FP16-marked rows and all generated
tokens stay full precision — matching the paper, which never quantizes
decode-phase tokens.  Both directions work at the granularity the paper's
chunk reordering exists for — one dense call per precision, not per page:
packing bit-packs each tensor's rows of one bitwidth once and hands pages
their slices, and decoding turns every same-codec run of a layer's pages
into floats in one call (:meth:`PagedKVCache.gather_context`), bit-for-bit
identical to the dense fake-quant cache (see :mod:`repro.kvpool.codecs`).

The only per-sequence float copy is one pair of head-major *mirrors* per
layer — ``(h, d, capacity)`` keys and ``(h, capacity, d)`` values, the
operand layout of attention's per-head GEMMs.  The serving backend builds
them at admission from rows it already holds
(:meth:`PagedKVCache.build_mirrors`: the prefill scratch's float rows,
packed rows decoded from the encoder's in-memory codes), so a freshly
prepared sequence's first decode step decodes nothing.  Otherwise a
rebuild (first read, after packing, after a swap) decodes the pages
straight into them and drops the decoded rows; an append writes its
full-precision rows into the mirror beside their page.

Preemption uses the pool's swap interface: :meth:`swap_out` detaches every
*exclusively-owned* page to a host-side store (freeing pool capacity for
other sequences) and :meth:`swap_in` restores them, so a preempted request
resumes without any recomputation.  Pages shared with other sequences or
the prefix index stay resident across the round trip — they are someone
else's storage too and are never evicted under a live reader.

Cross-request reuse enters through :meth:`PagedKVCache.adopt_blocks`: a
warm request starts its block table with retained references to already
packed pages from the prefix index (:mod:`repro.kvpool.prefix`) and only
allocates fresh pages for the unmatched tail.  All writes are
copy-on-write: touching a row of a shared page first gives this sequence a
private copy, so one sequence's decode tail can never corrupt a page
another request is still reading.
"""

from __future__ import annotations

import numpy as np

from repro.kvpool.codecs import TensorEncoding
from repro.kvpool.pool import Block, BlockPool, PackedRun, PoolExhausted, decode_runs
from repro.profiling import span as profiling_span
from repro.quant.dtypes import BitWidth, bytes_for_elements
from repro.quant.packing import pack_code_rows


class _Mirror:
    """One layer's float working copy: head-major K/V with growth headroom.

    ``k_t`` is ``(h, d, capacity)`` and ``v_t`` ``(h, capacity, d)``; the
    first ``valid`` token columns/rows equal the layer's pages (packed runs
    decoded), and ``valid`` is the layer's length.  Columns past ``valid``
    are scratch the next append overwrites in place, so
    handed-out views are valid until the cache's next write.
    """

    __slots__ = ("k_t", "v_t", "valid")

    def __init__(self, h: int, d: int, capacity: int):
        self.k_t = np.empty((h, d, capacity), dtype=np.float32)
        self.v_t = np.empty((h, capacity, d), dtype=np.float32)
        self.valid = 0

    @property
    def capacity(self) -> int:
        return self.k_t.shape[2]


#: Token rows per block of a mirror write.  The key mirror's ``(rows, h, d)``
#: → ``(h, d, rows)`` transpose runs about twice as fast in 32-row blocks,
#: whose source rows stay cache-resident, as in one strided copy.
_WRITE_BLOCK = 32


def _write_rows(mirror: _Mirror, start: int, k: np.ndarray, v: np.ndarray) -> None:
    """Write ``(n, h, d)`` K/V rows into a mirror's token slots ``[start, start + n)``."""
    n = k.shape[0]
    for lo in range(0, n, _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, n)
        mirror.k_t[:, :, start + lo : start + hi] = k[lo:hi].transpose(1, 2, 0)
    mirror.v_t[:, start : start + n, :] = v.transpose(1, 0, 2)


def _decode_codes(rows: np.ndarray, enc: TensorEncoding, start: int) -> np.ndarray:
    """``rows`` (an encoded tensor's float rows from ``start`` on) with every
    packed row replaced by the decode of its in-memory code and meta rows."""
    out = np.array(rows, dtype=np.float32)
    token_bits = enc.token_bits[start:]
    for bits, codec in enc.codecs.items():
        selected = np.flatnonzero(token_bits == bits)
        if selected.size:
            with profiling_span("dequant"):
                decoded = codec.decode(enc.codes[start + selected], enc.meta[start + selected])
            out[selected] = decoded
    return out


class BlockTable:
    """Maps a sequence's logical token positions to pool pages."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self.block_ids: list[int] = []

    def __len__(self) -> int:
        return len(self.block_ids)

    @staticmethod
    def blocks_for_tokens(n_tokens: int, block_size: int) -> int:
        """Pages needed to hold ``n_tokens`` rows."""
        return -(-n_tokens // block_size)

    def locate(self, position: int) -> tuple[int, int]:
        """``(table index, row offset)`` of a logical token position."""
        return position // self.block_size, position % self.block_size

    def reserved_tokens(self) -> int:
        """Token rows reserved by the mapped pages."""
        return len(self.block_ids) * self.block_size


class PagedLayerView:
    """One layer's :class:`~repro.model.kv_cache.LayerKVCache`-shaped view."""

    def __init__(self, cache: "PagedKVCache", layer_index: int):
        self._cache = cache
        self._layer = layer_index

    @property
    def n_kv_heads(self) -> int:
        return self._cache.n_kv_heads

    @property
    def head_dim(self) -> int:
        return self._cache.head_dim

    @property
    def capacity(self) -> int:
        return self._cache.capacity

    @property
    def length(self) -> int:
        return self._cache.layer_length(self._layer)

    @property
    def k(self) -> np.ndarray:
        """Valid K rows, gathered (and dequantized) from the pages."""
        return self.keys()

    @property
    def v(self) -> np.ndarray:
        """Valid V rows, gathered (and dequantized) from the pages."""
        return self.values()

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append ``(n, n_kv_heads, head_dim)`` rows to this layer's pages."""
        self._cache.append_layer(self._layer, k_new, v_new)

    def keys(self) -> np.ndarray:
        """Valid K rows ``(length, h, d)``: a transient contiguous copy of the mirror."""
        return np.ascontiguousarray(self.kv_mirrors()[0].transpose(2, 0, 1))

    def values(self) -> np.ndarray:
        """Valid V rows ``(length, h, d)``: a transient contiguous copy of the mirror."""
        return np.ascontiguousarray(self.kv_mirrors()[1].transpose(1, 0, 2))

    def kv_mirrors(self) -> tuple[np.ndarray, np.ndarray]:
        """Head-major transposed K/V views (see :meth:`PagedKVCache.layer_mirrors`)."""
        return self._cache.layer_mirrors(self._layer)


class PagedKVCache:
    """KV cache of one sequence, stored as pages of a shared block pool."""

    def __init__(self, pool: BlockPool, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.pool = pool
        self.capacity = capacity
        self.n_layers = pool.n_layers
        self.n_kv_heads = pool.n_kv_heads
        self.head_dim = pool.head_dim
        self.table = BlockTable(pool.block_size)
        self.layers = [PagedLayerView(self, i) for i in range(pool.n_layers)]
        self.n_context = 0
        self._layer_lengths = [0] * pool.n_layers
        self._packed = False
        self._shared_metadata_bytes = 0
        #: While swapped out: one entry per table slot, either
        #: ``("host", Block)`` for a detached exclusive page or
        #: ``("pool", block_id)`` for a shared page that stayed resident.
        self._swap_state: list[tuple[str, Block | int]] | None = None
        self._released = False
        #: Leading pages adopted from the prefix index (shared, pre-packed).
        self.n_adopted_blocks = 0
        #: Per-layer head-major float working copy, built at admission
        #: (:meth:`build_mirrors`) or on first read, and dropped when packing
        #: changes row values or a swap frees the pages — see
        #: :meth:`layer_mirrors`.
        self._mirrors: dict[int, _Mirror] = {}

    # -- geometry ------------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of cached tokens (the most-advanced layer during a pass)."""
        return max(self._layer_lengths)

    @property
    def n_blocks(self) -> int:
        return len(self.table)

    @property
    def is_swapped(self) -> bool:
        """Whether the pages currently live in the host-side swap store."""
        return self._swap_state is not None

    def layer_length(self, layer_index: int) -> int:
        return self._layer_lengths[layer_index]

    def layer(self, index: int) -> PagedLayerView:
        """Return the view of layer ``index``."""
        return self.layers[index]

    def has_capacity(self) -> bool:
        """Whether one more decode token can be absorbed."""
        if self._released or self.is_swapped or self.length >= self.capacity:
            return False
        return self.length < self.table.reserved_tokens() or self.pool.can_allocate(1)

    def next_token_block_cost(self) -> int:
        """Pool pages the *next* decode token will newly allocate (0 or 1).

        The batched decode round reserves this many pages between a
        sequence's capacity check and its deferred fused forward, so later
        sequences in the round observe the same pool availability the
        sequential check-then-allocate interleaving would produce.
        """
        needed = BlockTable.blocks_for_tokens(self.length + 1, self.table.block_size)
        return max(0, needed - len(self.table.block_ids))

    def live_tokens(self) -> int:
        """KV rows currently resident in the pool (0 while swapped out)."""
        return 0 if self.is_swapped or self._released else self.length

    # -- adoption (cross-request reuse) --------------------------------------

    def adopt_blocks(self, block_ids: list[int], n_tokens: int) -> None:
        """Seed an empty cache with shared pages from the prefix index.

        The caller (the warm-prepare path) has already taken one reference
        per page on this cache's behalf; adoption transfers those references
        into the block table and declares the covered token rows valid in
        every layer.  Only page-aligned full pages can be adopted.
        """
        if self.table.block_ids or self.length or self._packed:
            raise RuntimeError("blocks can only be adopted into an empty cache")
        if n_tokens != len(block_ids) * self.table.block_size:
            raise ValueError(
                f"{len(block_ids)} adopted pages cover "
                f"{len(block_ids) * self.table.block_size} rows, not {n_tokens}"
            )
        if n_tokens > self.capacity:
            raise ValueError(f"adopted rows exceed capacity {self.capacity}")
        for block_id in block_ids:
            self.pool.get(block_id)  # fail fast on unknown ids
        self.table.block_ids = list(block_ids)
        self._layer_lengths = [n_tokens] * self.n_layers
        self.n_adopted_blocks = len(block_ids)
        self._mirrors.clear()  # an empty cache's mirrors cannot see packed rows

    # -- writes --------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._released:
            raise RuntimeError("cache was released back to the pool")
        if self.is_swapped:
            raise RuntimeError("cache is swapped out; swap it in before use")

    def _writable_block(self, index: int) -> Block:
        """The page behind table slot ``index``, privately owned.

        Writing to a shared page first copies it (copy-on-write), so a decode
        tail or a repack can never mutate storage another sequence or the
        prefix index still reads.  The copy holds the same values, so the
        mirrors stay valid.
        """
        block_id = self.table.block_ids[index]
        new_id = self.pool.copy_on_write(block_id)
        self.table.block_ids[index] = new_id
        return self.pool.get(new_id)

    def append_layer(self, layer_index: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append rows to one layer, allocating pages on demand."""
        self._check_writable()
        k_new = np.asarray(k_new, dtype=np.float32)
        v_new = np.asarray(v_new, dtype=np.float32)
        if k_new.shape != v_new.shape:
            raise ValueError(f"K/V shape mismatch: {k_new.shape} vs {v_new.shape}")
        n = k_new.shape[0]
        start = self._layer_lengths[layer_index]
        if start + n > self.capacity:
            raise ValueError(
                f"cache overflow: length {start} + {n} exceeds capacity {self.capacity}"
            )
        needed = BlockTable.blocks_for_tokens(start + n, self.table.block_size)
        while len(self.table.block_ids) < needed:
            self.table.block_ids.append(self.pool.allocate())
        written = 0
        while written < n:
            index, offset = self.table.locate(start + written)
            take = min(n - written, self.table.block_size - offset)
            block = self._writable_block(index)
            block.write(
                layer_index,
                offset,
                k_new[written : written + take],
                v_new[written : written + take],
            )
            written += take
        self._layer_lengths[layer_index] = start + n
        mirror = self._mirrors.get(layer_index)
        if mirror is not None:  # synced: a mirror's valid rows are the layer's rows
            if start + n > mirror.capacity:
                mirror = self._mirrors[layer_index] = self._resized_mirror(mirror, start + n)
            _write_rows(mirror, start, k_new, v_new)
            mirror.valid = start + n

    # -- reads ---------------------------------------------------------------

    def _check_readable(self) -> None:
        if self._released:
            raise RuntimeError("cache was released back to the pool")
        if self.is_swapped:
            raise RuntimeError("cache is swapped out; swap it in before use")

    def gather_context(self, layer_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode one layer's context-region pages into fresh arrays.

        Returns float32 ``(n, h, d)`` K and V covering every page that lies
        wholly inside the context region (``n`` is ``n_context`` rounded
        down to a page boundary).  Nothing is memoized: decode reads the
        mirrors (:meth:`layer_mirrors`), whose rebuild runs the same
        decoder over all of the layer's pages.
        """
        self._check_readable()
        n_rows = min(self.n_context, self._layer_lengths[layer_index])
        return self._decode_pages(layer_index, n_rows // self.table.block_size)

    def _decode_pages(self, layer_index: int, n_pages: int) -> tuple[np.ndarray, np.ndarray]:
        """One layer's float rows of the first ``n_pages`` pages, runs decoded.

        Dequantizes per codec, not per page: each tensor's packed runs are
        grouped by :meth:`~repro.kvpool.codecs.TokenRowCodec.batch_key`
        across all pages (adopted pages carry another request's codec
        objects), decoded by one :func:`~repro.kvpool.pool.decode_runs`
        call per group and scattered over the pages' float rows.
        """
        if n_pages == 0:
            empty = np.empty((0, self.n_kv_heads, self.head_dim), dtype=np.float32)
            return empty, empty
        with profiling_span("gather"):
            blocks = [self.pool.get(bid) for bid in self.table.block_ids[:n_pages]]
            return (
                self._gather_tensor(
                    [block.fp_k[layer_index] for block in blocks],
                    [block.packed_k[layer_index] for block in blocks],
                ),
                self._gather_tensor(
                    [block.fp_v[layer_index] for block in blocks],
                    [block.packed_v[layer_index] for block in blocks],
                ),
            )

    def _gather_tensor(
        self, page_rows: list[np.ndarray], page_runs: list[list[PackedRun]]
    ) -> np.ndarray:
        """Pages' float rows with every packed run decoded over them."""
        bs = self.table.block_size
        out = np.concatenate(page_rows)
        groups: dict[object, tuple[list[PackedRun], list[np.ndarray]]] = {}
        for index, runs in enumerate(page_runs):
            for run in runs:
                members, rows = groups.setdefault(run.codec.batch_key(), ([], []))
                members.append(run)
                rows.append(run.rows + index * bs)
        for members, rows in groups.values():
            out[np.concatenate(rows)] = decode_runs(members)
        return out

    def gather_layer(self, layer_index: int) -> tuple[np.ndarray, np.ndarray]:
        """One layer's valid rows as float32 ``(length, h, d)`` copies of the mirrors."""
        view = self.layers[layer_index]
        return view.keys(), view.values()

    def layer_mirrors(self, layer_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Head-major views of one layer's valid K/V: the decode read.

        Returns ``(h, d, length)`` keys and ``(h, length, d)`` values — the
        exact operand layout of attention's per-head GEMMs — as views into
        the layer's :class:`_Mirror`, the sequence's only float copy of its
        history.  The first read of a layer without one (never built at
        admission, or dropped by packing or a swap) decodes the pages
        straight into a fresh mirror; from then on
        :meth:`append_layer` writes each new row into the mirror as well as
        its page (growing into a larger mirror, valid prefix copied, once
        the headroom is used up), so later reads copy nothing.  The views
        are read-only and valid until the cache's next write.
        """
        self._check_readable()
        length = self._layer_lengths[layer_index]
        mirror = self._mirrors.get(layer_index)
        if mirror is None:
            with profiling_span("gather"):
                mirror = self._mirrors[layer_index] = self._build_mirror(layer_index, length)
        return mirror.k_t[:, :, :length], mirror.v_t[:, :length, :]

    def _mirror_capacity(self, length: int) -> int:
        """Token columns of a mirror sized at ``length`` rows.

        Geometric headroom of half the current length, so a long decode
        grows O(log n) times while the mirror never holds more than 1.5x
        its rows; never more than the cache's own capacity.
        """
        return max(length, min(self.capacity, length + length // 2))

    def _build_mirror(self, layer_index: int, length: int) -> _Mirror:
        """Decode the layer's pages into a fresh mirror."""
        k, v = self._decode_pages(
            layer_index, BlockTable.blocks_for_tokens(length, self.table.block_size)
        )
        mirror = _Mirror(self.n_kv_heads, self.head_dim, self._mirror_capacity(length))
        _write_rows(mirror, 0, k[:length], v[:length])
        mirror.valid = length
        return mirror

    def build_mirrors(
        self,
        rows: list[tuple[np.ndarray, np.ndarray]],
        encodings: list[tuple[TensorEncoding, TensorEncoding]] | None,
    ) -> None:
        """Build every layer's mirror from rows the caller holds, not the pages.

        ``rows[i]`` are layer ``i``'s float K/V rows past the adopted pages
        (what :meth:`append_layer` was handed) and ``encodings`` what
        :meth:`pack_context` packed, if anything.  Adopted pages decode
        through the page decoder; every packed row decodes from the
        encoding's in-memory codes and metadata, the ``codec.decode`` call a
        rebuild makes after unpacking.  The mirrors are therefore the ones
        :meth:`layer_mirrors` would rebuild from the pages, byte for byte,
        and the first decode step reads no page.
        """
        self._check_readable()
        lo = self.n_adopted_blocks * self.table.block_size
        for layer_index, (k_rows, v_rows) in enumerate(rows):
            length = self._layer_lengths[layer_index]
            if lo + k_rows.shape[0] != length:
                raise ValueError(
                    f"layer {layer_index}: {k_rows.shape[0]} rows past {lo} adopted "
                    f"rows, but the layer holds {length}"
                )
            with profiling_span("gather"):
                k, v = self._decode_pages(layer_index, self.n_adopted_blocks)
                if encodings is not None:
                    k_enc, v_enc = encodings[layer_index]
                    k_rows = _decode_codes(k_rows, k_enc, lo)
                    v_rows = _decode_codes(v_rows, v_enc, lo)
                mirror = _Mirror(self.n_kv_heads, self.head_dim, self._mirror_capacity(length))
                _write_rows(mirror, 0, k, v)
                _write_rows(mirror, lo, k_rows, v_rows)
                mirror.valid = length
            self._mirrors[layer_index] = mirror

    def _resized_mirror(self, mirror: _Mirror, length: int) -> _Mirror:
        """A mirror sized for ``length`` rows holding ``mirror``'s valid prefix.

        Growth copies floats; it never re-decodes.
        """
        resized = _Mirror(self.n_kv_heads, self.head_dim, self._mirror_capacity(length))
        valid = resized.valid = mirror.valid
        resized.k_t[:, :, :valid] = mirror.k_t[:, :, :valid]
        resized.v_t[:, :valid, :] = mirror.v_t[:, :valid, :]
        return resized

    def working_set_bytes(self) -> int:
        """Host bytes of the sequence's float working copy (the mirrors)."""
        return sum(m.k_t.nbytes + m.v_t.nbytes for m in list(self._mirrors.values()))

    # -- context region ------------------------------------------------------

    def mark_context(self, n_context: int) -> None:
        """Record how many leading tokens belong to the (quantizable) context."""
        if n_context < 0 or n_context > self.length:
            raise ValueError(f"n_context must be in [0, {self.length}], got {n_context}")
        self.n_context = n_context

    # -- packing -------------------------------------------------------------

    def pack_context(
        self,
        encodings: list[tuple[TensorEncoding, TensorEncoding]],
        *,
        first_block: int = 0,
    ) -> None:
        """Convert the context region's pages to packed quantized storage.

        ``encodings`` holds one ``(K, V)`` :class:`TensorEncoding` pair per
        layer, covering exactly the ``n_context`` leading tokens.  Each
        tensor's rows of one bitwidth are bit-packed in a single call and
        every page overlapping the context receives its slice of the result
        as one :class:`~repro.kvpool.pool.PackedRun`; FP16-marked rows stay
        as float rows inside the page.

        ``first_block`` skips the leading pages — a warm request whose
        prefix matched the index adopted those pages already packed, so only
        the unmatched tail is encoded and compacted (the encodings' code
        rows below ``first_block * block_size`` may be blank).

        Every encoding must carry the *same* ``token_bits`` (the plan's
        per-token precision assignment): a page row's full-precision copy is
        compacted for all layers and tensors at once, so a per-tensor
        disagreement about which rows are quantized would silently zero
        rows some tensor still reads as floats.
        """
        self._check_writable()
        if self._packed:
            raise RuntimeError("context is already packed")
        if not 0 <= first_block <= len(self.table.block_ids):
            raise ValueError(f"first_block {first_block} outside the block table")
        if len(encodings) != self.n_layers:
            raise ValueError(f"expected {self.n_layers} layer encodings, got {len(encodings)}")
        reference_bits = encodings[0][0].token_bits
        for k_enc, v_enc in encodings:
            for enc in (k_enc, v_enc):
                if enc.n_tokens != self.n_context:
                    raise ValueError(
                        f"encoding covers {enc.n_tokens} tokens; context has {self.n_context}"
                    )
                if not np.array_equal(enc.token_bits, reference_bits):
                    raise ValueError(
                        "all context encodings must share one per-token bit "
                        "assignment (per-layer/per-tensor disagreement would "
                        "compact rows another tensor still stores as floats)"
                    )
        bs = self.table.block_size
        lo = first_block * bs
        n_pages = BlockTable.blocks_for_tokens(self.n_context, bs) - first_block
        blocks = [self._writable_block(first_block + page) for page in range(n_pages)]
        bytes_before = [block.storage_bytes() for block in blocks]
        token_bits = reference_bits[lo:]
        page_edges = np.arange(n_pages + 1) * bs
        for bits in sorted(set(token_bits.tolist()) - {int(BitWidth.FP16)}):
            rows = np.flatnonzero(token_bits == bits)
            cuts = np.searchsorted(rows, page_edges).tolist()
            for layer_index, pair in enumerate(encodings):
                for tensor, enc in zip("kv", pair):
                    codec = enc.codecs[bits]
                    packed = pack_code_rows(enc.codes[lo + rows], bits)
                    meta = enc.meta[lo + rows]
                    for page, (a, b) in enumerate(zip(cuts, cuts[1:])):
                        if a < b:
                            run = PackedRun(
                                codec.bits, rows[a:b] - page * bs, packed[a:b], meta[a:b], codec
                            )
                            blocks[page].add_packed_run(layer_index, tensor, run)
        for page, block in enumerate(blocks):
            page_bits = token_bits[page * bs : (page + 1) * bs]
            quantized = np.flatnonzero(page_bits != int(BitWidth.FP16))
            block.seal_quantized_rows(quantized, page_bits.size)
            self.pool.note_block_repacked(block.storage_bytes() - bytes_before[page])
        self._shared_metadata_bytes = sum(
            enc.shared_bytes() for pair in encodings for enc in pair
        )
        self._packed = True
        self._mirrors.clear()  # packed rows now read back dequantized

    # -- preemption: swap and release ----------------------------------------

    def swap_out(self) -> None:
        """Detach exclusively-owned pages to the host store, freeing capacity.

        Pages shared with other sequences or the prefix index (refcount
        above one) stay resident: they are live storage of another reader,
        and this sequence's reference alone keeps them addressable for the
        later :meth:`swap_in`.  Only the private pages move to host memory.
        """
        self._check_writable()
        state: list[tuple[str, Block | int]] = []
        for block_id in self.table.block_ids:
            if self.pool.refcount(block_id) > 1:
                state.append(("pool", block_id))
            else:
                state.append(("host", self.pool.swap_out(block_id)))
        self._swap_state = state
        self.table.block_ids = []
        # A preempted sequence gives back its host working copy too; the
        # first read after swap_in rebuilds it from the restored pages.
        self._mirrors.clear()

    def swap_in(self) -> None:
        """Restore the swapped pages into the pool (fresh ids for host pages).

        Capacity is checked up front so the restore is all-or-nothing: a
        pool without room for every detached page raises before any page
        (or swap counter) moves, leaving the cache swapped and retryable.
        Shared pages that never left the pool are re-linked in place.
        """
        if self._released:
            raise RuntimeError("cache was released back to the pool")
        if not self.is_swapped:
            raise RuntimeError("cache is not swapped out")
        n_host = sum(1 for kind, _ in self._swap_state if kind == "host")
        if not self.pool.can_allocate(n_host):
            raise PoolExhausted(
                f"pool cannot hold the {n_host} swapped pages of this sequence"
            )
        self.table.block_ids = [
            entry if kind == "pool" else self.pool.swap_in(entry)
            for kind, entry in self._swap_state
        ]
        self._swap_state = None

    def release(self) -> None:
        """Return every page reference (or drop the swap copy); idempotent.

        Shared pages survive as long as another sequence or the prefix
        index still holds them — release only drops *this* sequence's
        references.
        """
        if self._released:
            return
        if self.is_swapped:
            for kind, entry in self._swap_state:
                if kind == "pool":
                    self.pool.release(entry)
            self._swap_state = None
        else:
            for block_id in self.table.block_ids:
                self.pool.release(block_id)
        self.table.block_ids = []
        self._mirrors.clear()
        self._released = True

    # -- measured accounting -------------------------------------------------

    def _row_fp16_bytes(self) -> int:
        return bytes_for_elements(
            2 * self.n_layers * self.n_kv_heads * self.head_dim, BitWidth.FP16
        )

    def measured_bytes(self) -> dict[str, int]:
        """Walk this sequence's pages and report measured resident bytes.

        Returns a breakdown under the device storage model:

        ``context_bytes``
            Packed payload + per-token metadata + FP16-kept context rows +
            once-per-sequence shared metadata (per-channel scales, nuq
            codebooks).
        ``generated_bytes``
            FP16-charged rows past the context — query/generated tokens plus
            the reserved-but-unfilled tail of the last page (internal
            fragmentation, which the analytic estimate cannot see).
        ``context_fp16_bytes``
            What the same context rows would cost entirely at FP16, for
            compression ratios.  Row-granular like ``context_bytes`` (the
            page-granularity overhead of the straddling last page sits in
            ``generated_bytes`` for every method), so an unquantized cache
            reports a ratio of exactly 1.0 against itself.
        """
        row_bytes = self._row_fp16_bytes()
        bs = self.table.block_size
        context_bytes = self._shared_metadata_bytes if self._packed else 0
        generated_bytes = 0
        if self.is_swapped:
            blocks = [
                entry if kind == "host" else self.pool.get(entry)
                for kind, entry in self._swap_state
            ]
        else:
            blocks = [self.pool.get(bid) for bid in self.table.block_ids]
        for index, block in enumerate(blocks):
            start = index * bs
            ctx_rows = min(max(self.n_context - start, 0), bs)
            ctx_fp_rows = ctx_rows - block.n_quantized_rows
            context_bytes += block.packed_bytes() + ctx_fp_rows * row_bytes
            generated_bytes += (bs - ctx_rows) * row_bytes
        return {
            "context_bytes": context_bytes,
            "generated_bytes": generated_bytes,
            "total_bytes": context_bytes + generated_bytes,
            "context_fp16_bytes": self.n_context * row_bytes,
            "n_blocks": len(blocks),
        }
