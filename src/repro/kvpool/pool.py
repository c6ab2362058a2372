"""The shared paged block pool.

A :class:`BlockPool` owns fixed-size pages ("blocks") of KV storage.  One
block reserves ``block_size`` token rows across *all* layers of the model
(``2 × n_layers × block_size × n_kv_heads × head_dim`` elements counting K
and V), so a sequence needs a single block table regardless of depth.

Blocks start in full-precision form (token rows are appended during prefill
and decode).  When a request's context region is quantized, the covering
blocks are *packed*: the quantized rows' ``uint8`` codes are bit-packed
(:func:`repro.quant.packing.pack_code_rows`, once per tensor — each page
holds its rows of the result) and the full-precision copies are zeroed
out, so the pool's byte accounting reflects what a real device allocation
would hold.  Bytes follow the repo-wide device model: FP16 rows are charged
2 bytes per element (the NumPy substrate computes in float32), packed
payloads are charged their actual buffer size, and scale/zero-point
metadata is charged at FP16 per value.

Accounting is *page-granular* for full-precision storage: an allocated
block charges all ``block_size`` rows it reserves even when only some are
filled.  That internal fragmentation is exactly what the analytic memory
model cannot see and what the measured tables surface.

Blocks are **reference counted**: :meth:`BlockPool.allocate` hands out a
page with one reference, additional readers :meth:`~BlockPool.retain` it,
and :meth:`~BlockPool.release` returns a reference — the page is only freed
when the count reaches zero.  This is what lets the prefix index
(:mod:`repro.kvpool.prefix`) and several concurrent sequences share one
physical copy of a packed context page.  Writers that touch a shared page
go through :meth:`~BlockPool.copy_on_write`; swap-out refuses shared pages
outright (a live reader must never lose its storage).  Bounded pools can
additionally register *reclaimers* — holders of pages nobody is actively
reading (the prefix index's cached-but-idle pages) that can be asked to
give pages back when an allocation would otherwise fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.kvpool.codecs import META_VALUE_BYTES, TokenRowCodec
from repro.profiling import span as profiling_span
from repro.quant.dtypes import BitWidth, bytes_for_elements
from repro.quant.packing import unpack_code_rows

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.hardware.gpu import GPUSpec


class PoolExhausted(RuntimeError):
    """Raised when the pool has no free block to satisfy an allocation."""


class BlockReclaimer(Protocol):
    """A holder of idle pages a bounded pool can ask to give pages back.

    The prefix index implements this: its cached pages are only reclaimable
    while no sequence holds a reference to them, so reclaiming never evicts
    a page under a live reader.
    """

    def reclaimable_blocks(self) -> int:
        """How many pages this holder could free right now."""

    def reclaim(self, n_blocks: int) -> int:
        """Free up to ``n_blocks`` pages; returns how many were freed."""


@dataclass
class PackedRun:
    """A same-precision run of packed token rows inside one block.

    Runs are immutable once built, so clones of a page share them.

    Attributes
    ----------
    bits:
        Storage precision of the run.
    rows:
        Row offsets within the block, in encoding order.
    packed_codes:
        ``(n_rows, row_bytes)`` bit-packed ``uint8`` payload — the run's
        rows of :func:`repro.quant.packing.pack_code_rows`.
    meta:
        ``(n_rows, meta_width)`` float32 per-token metadata rows.
    codec:
        Decoder turning unpacked code rows + metadata back into floats.
    """

    bits: BitWidth
    rows: np.ndarray
    packed_codes: np.ndarray
    meta: np.ndarray
    codec: TokenRowCodec

    @property
    def n_rows(self) -> int:
        return int(self.rows.size)

    def storage_bytes(self) -> int:
        """Packed payload plus per-token metadata bytes."""
        return int(self.packed_codes.nbytes) + self.meta.size * META_VALUE_BYTES


def decode_runs(runs: Sequence[PackedRun]) -> np.ndarray:
    """Dequantize runs sharing one codec ``batch_key`` with a single decode.

    Returns the ``(total rows, h, d)`` float rows in run order.  This is
    the only dequantization path: the paged cache's decoder passes one
    codec group of a tensor's runs from every page at once.
    """
    first = runs[0]
    with profiling_span("dequant"):
        packed = np.concatenate([run.packed_codes for run in runs])
        meta = np.concatenate([run.meta for run in runs])
        codes = unpack_code_rows(packed, first.bits, first.codec.code_width)
        return first.codec.decode(codes, meta)


class Block:
    """One fixed-size page: ``block_size`` token rows across all layers."""

    def __init__(self, n_layers: int, block_size: int, n_kv_heads: int, head_dim: int):
        self.n_layers = n_layers
        self.block_size = block_size
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        shape = (n_layers, block_size, n_kv_heads, head_dim)
        self.fp_k = np.zeros(shape, dtype=np.float32)
        self.fp_v = np.zeros(shape, dtype=np.float32)
        #: Packed runs per layer for K and V (empty until the block is packed).
        self.packed_k: list[list[PackedRun]] = [[] for _ in range(n_layers)]
        self.packed_v: list[list[PackedRun]] = [[] for _ in range(n_layers)]
        #: Number of rows whose full-precision storage was compacted away.
        self.n_quantized_rows: int = 0
        #: Context rows of this block covered by packing (write guard): rows
        #: below this offset are frozen, even the FP16 ones kept as floats.
        self.packed_upto: int = 0

    # -- writes --------------------------------------------------------------

    def write(self, layer: int, start_row: int, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Write full-precision rows ``[start_row, start_row + n)`` of one layer."""
        n = k_rows.shape[0]
        end = start_row + n
        if end > self.block_size:
            raise ValueError(f"write of rows [{start_row}, {end}) exceeds the page")
        if start_row < self.packed_upto:
            raise ValueError("cannot overwrite rows that were packed")
        self.fp_k[layer, start_row:end] = k_rows
        self.fp_v[layer, start_row:end] = v_rows

    def add_packed_run(self, layer: int, tensor: str, run: PackedRun) -> None:
        """Attach a packed run to one layer's K or V storage."""
        (self.packed_k if tensor == "k" else self.packed_v)[layer].append(run)

    def seal_quantized_rows(self, rows: np.ndarray, packed_upto: int) -> None:
        """Zero the full-precision copies of rows now held as packed runs.

        Called once per block after packing; gathers must come from the
        packed codes from then on, so a decode bug cannot silently fall back
        to the original floats.  ``packed_upto`` freezes the block's context
        rows against later writes.
        """
        if rows.size:
            self.fp_k[:, rows] = 0.0
            self.fp_v[:, rows] = 0.0
        self.n_quantized_rows += int(rows.size)
        self.packed_upto = max(self.packed_upto, packed_upto)

    def clone(self) -> "Block":
        """Private deep copy of this page (the copy-on-write target).

        Full-precision storage is copied; packed runs are immutable and can
        be shared between the original and the clone.
        """
        copy = Block(self.n_layers, self.block_size, self.n_kv_heads, self.head_dim)
        copy.fp_k = self.fp_k.copy()
        copy.fp_v = self.fp_v.copy()
        copy.packed_k = [list(runs) for runs in self.packed_k]
        copy.packed_v = [list(runs) for runs in self.packed_v]
        copy.n_quantized_rows = self.n_quantized_rows
        copy.packed_upto = self.packed_upto
        return copy

    # -- accounting ----------------------------------------------------------

    def fp_row_bytes(self) -> int:
        """Accounted bytes of one full-precision token row (K + V, all layers)."""
        return bytes_for_elements(
            2 * self.n_layers * self.n_kv_heads * self.head_dim, BitWidth.FP16
        )

    def packed_bytes(self) -> int:
        """Bytes of all packed runs held by this block."""
        return sum(
            run.storage_bytes()
            for runs in (*self.packed_k, *self.packed_v)
            for run in runs
        )

    def storage_bytes(self) -> int:
        """Resident bytes of the page under the device storage model.

        Full-precision storage is charged at page granularity — every
        reserved row that was not compacted by packing counts, filled or
        not — plus the packed payload/metadata.
        """
        fp_rows = self.block_size - self.n_quantized_rows
        return fp_rows * self.fp_row_bytes() + self.packed_bytes()


class BlockPool:
    """Free-list allocator over fixed-size KV pages with byte accounting.

    Parameters
    ----------
    n_layers, n_kv_heads, head_dim:
        Geometry every page is sized for (must match the model).
    block_size:
        Token rows per page.
    capacity_blocks:
        Maximum number of simultaneously allocated pages; ``None`` means
        unbounded (the pool grows on demand).
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        *,
        block_size: int = 16,
        capacity_blocks: int | None = None,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if capacity_blocks is not None and capacity_blocks < 1:
            raise ValueError(f"capacity_blocks must be >= 1, got {capacity_blocks}")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._blocks: dict[int, Block] = {}
        self._refcounts: dict[int, int] = {}
        self._reclaimers: list[BlockReclaimer] = []
        self._next_id = 0
        self._resident_bytes = 0
        self._reserved_blocks = 0
        self.n_swap_outs = 0
        self.n_swap_ins = 0
        self.n_cow_copies = 0
        self.peak_allocated_blocks = 0
        self.peak_bytes = 0

    @classmethod
    def for_gpu(
        cls,
        gpu: "GPUSpec",
        *,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        block_size: int = 16,
        memory_fraction: float = 0.9,
    ) -> "BlockPool":
        """Size a pool from a :class:`~repro.hardware.gpu.GPUSpec`.

        ``memory_fraction`` of the device's HBM is granted to the KV pool
        and divided by the full-precision page size; a device too small for
        even one page is rejected.
        """
        if not 0.0 < memory_fraction <= 1.0:
            raise ValueError(f"memory_fraction must be in (0, 1], got {memory_fraction}")
        page_bytes = block_size * bytes_for_elements(
            2 * n_layers * n_kv_heads * head_dim, BitWidth.FP16
        )
        capacity = int(gpu.memory_bytes * memory_fraction) // page_bytes
        if capacity < 1:
            raise ValueError(
                f"{gpu.name} cannot hold a single {page_bytes}-byte KV page"
            )
        return cls(
            n_layers,
            n_kv_heads,
            head_dim,
            block_size=block_size,
            capacity_blocks=capacity,
        )

    # -- queries -------------------------------------------------------------

    @property
    def n_allocated(self) -> int:
        """Number of currently allocated pages."""
        return len(self._blocks)

    @property
    def n_free_blocks(self) -> int | None:
        """Free pages remaining, or ``None`` for an unbounded pool."""
        if self.capacity_blocks is None:
            return None
        return self.capacity_blocks - len(self._blocks)

    def reclaimable_blocks(self) -> int:
        """Pages the registered reclaimers could give back right now."""
        return sum(source.reclaimable_blocks() for source in self._reclaimers)

    def available_blocks(self) -> int | None:
        """Free pages plus reclaimable ones, or ``None`` for unbounded.

        This is the number the scheduler budgets against: a page held only
        by the prefix index is *available* — allocating simply reclaims it —
        so idle cached pages never block admission or trigger preemption.
        Pages temporarily held by a :meth:`reserve` ledger (the batched
        decode round's deferred allocations) are subtracted.
        """
        free = self.n_free_blocks
        if free is None:
            return None
        return free + self.reclaimable_blocks() - self._reserved_blocks

    # -- reservations ---------------------------------------------------------

    @property
    def reserved_blocks(self) -> int:
        """Pages currently held back from availability queries."""
        return self._reserved_blocks

    def reserve(self, n_blocks: int) -> None:
        """Hold ``n_blocks`` pages back from :meth:`available_blocks`.

        The batched decode round defers its forwards (and therefore their
        page allocations) until every session's capacity check has run; the
        reservation ledger makes those checks observe the pool exactly as
        the sequential round — check, allocate, check, allocate … — would
        have left it.  Reservations are bookkeeping only: the allocation
        path (:meth:`allocate` / :meth:`copy_on_write` / :meth:`swap_in`)
        ignores them, since the reserver is the one coming back to claim
        the pages.
        """
        if n_blocks < 0:
            raise ValueError(f"cannot reserve {n_blocks} blocks")
        self._reserved_blocks += n_blocks

    def unreserve(self, n_blocks: int) -> None:
        """Return ``n_blocks`` reserved pages to availability queries."""
        if n_blocks < 0 or n_blocks > self._reserved_blocks:
            raise ValueError(
                f"cannot unreserve {n_blocks} of {self._reserved_blocks} reserved blocks"
            )
        self._reserved_blocks -= n_blocks

    def can_allocate(self, n_blocks: int) -> bool:
        """Whether ``n_blocks`` more pages fit right now (reclaiming if needed)."""
        available = self.available_blocks()
        return available is None or n_blocks <= available

    def add_reclaimer(self, source: BlockReclaimer) -> None:
        """Register a holder of idle pages to ask when the pool runs full."""
        if source not in self._reclaimers:
            self._reclaimers.append(source)

    def refcount(self, block_id: int) -> int:
        """Current reference count of an allocated page."""
        self.get(block_id)  # raise uniformly on unknown ids
        return self._refcounts[block_id]

    def get(self, block_id: int) -> Block:
        """The allocated page behind ``block_id``."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise ValueError(f"block {block_id} is not allocated") from None

    def allocated_bytes(self) -> int:
        """Measured resident bytes of every allocated page.

        Maintained incrementally (allocation, free, swap and repacking all
        adjust a running counter), so the query — and the peak tracking on
        every allocation — is O(1) instead of a walk over the pool.
        """
        return self._resident_bytes

    def physical_bytes(self) -> int:
        """Host bytes the allocated pages actually hold.

        Unlike :meth:`allocated_bytes` (the device storage model), this is
        ``nbytes`` as held: every page's float32 K/V shadow of all its rows
        — packed rows included — plus its packed runs' codes and metadata.
        Runs shared between a page and its copy-on-write clone count once.
        """
        runs: dict[int, PackedRun] = {}
        total = 0
        for block in list(self._blocks.values()):
            total += block.fp_k.nbytes + block.fp_v.nbytes
            for layer_runs in (*block.packed_k, *block.packed_v):
                runs.update((id(run), run) for run in layer_runs)
        return total + sum(run.packed_codes.nbytes + run.meta.nbytes for run in runs.values())

    def note_block_repacked(self, byte_delta: int) -> None:
        """Adjust the resident-byte counter after a page's storage changed
        in place (packing compacts full-precision rows into coded runs)."""
        self._resident_bytes += byte_delta

    def reserved_tokens(self) -> int:
        """Token rows reserved by all allocated pages."""
        return len(self._blocks) * self.block_size

    # -- allocation ----------------------------------------------------------

    def _ensure_free_slot(self) -> None:
        """Guarantee one raw free slot, reclaiming idle cached pages if needed."""
        if self.n_free_blocks is None or self.n_free_blocks >= 1:
            return
        for source in self._reclaimers:
            if source.reclaim(1 - (self.n_free_blocks or 0)) and self.n_free_blocks >= 1:
                return
        if self.n_free_blocks < 1:
            raise PoolExhausted(
                f"pool is full ({self.capacity_blocks} blocks of {self.block_size} tokens)"
            )

    def allocate(self) -> int:
        """Allocate one page (refcount 1); raises :class:`PoolExhausted` when full."""
        self._ensure_free_slot()
        block = Block(self.n_layers, self.block_size, self.n_kv_heads, self.head_dim)
        return self._attach(block)

    def retain(self, block_id: int) -> int:
        """Take one more reference on an allocated page; returns the new count."""
        self.get(block_id)
        self._refcounts[block_id] += 1
        return self._refcounts[block_id]

    def release(self, block_id: int) -> None:
        """Return one reference; the page is freed when the count hits zero.

        Releasing an unknown (or already-freed) id raises, preserving the
        old ``free``-path double-free guard.
        """
        if block_id not in self._blocks:
            raise ValueError(f"block {block_id} is not allocated (double free?)")
        self._refcounts[block_id] -= 1
        if self._refcounts[block_id] == 0:
            self._resident_bytes -= self._blocks[block_id].storage_bytes()
            del self._blocks[block_id]
            del self._refcounts[block_id]

    def copy_on_write(self, block_id: int) -> int:
        """Give the caller a private copy of a shared page.

        When the page is exclusively owned (refcount 1) it is returned
        unchanged; otherwise one reference is returned and a deep copy is
        attached under a fresh id.  The caller must swap the returned id
        into its block table before writing.
        """
        if self.refcount(block_id) == 1:
            return block_id
        clone = self.get(block_id).clone()
        self._ensure_free_slot()
        self._refcounts[block_id] -= 1
        self.n_cow_copies += 1
        return self._attach(clone)

    def _attach(self, block: Block) -> int:
        block_id = self._next_id
        self._next_id += 1
        self._blocks[block_id] = block
        self._refcounts[block_id] = 1
        self._resident_bytes += block.storage_bytes()
        self.peak_allocated_blocks = max(self.peak_allocated_blocks, len(self._blocks))
        self.peak_bytes = max(self.peak_bytes, self._resident_bytes)
        return block_id

    # -- swap ----------------------------------------------------------------

    def swap_out(self, block_id: int) -> Block:
        """Detach an exclusively-owned page to host memory, freeing its slot.

        Shared pages (refcount > 1) are refused: another sequence or the
        prefix index is still reading them, and evicting storage under a
        live reader would corrupt it.  Callers keep shared pages resident
        and swap only their private tail.
        """
        if self.refcount(block_id) > 1:
            raise ValueError(
                f"block {block_id} is shared ({self.refcount(block_id)} refs); "
                "only exclusively-owned pages can be swapped out"
            )
        block = self.get(block_id)
        self.release(block_id)
        self.n_swap_outs += 1
        return block

    def swap_in(self, block: Block) -> int:
        """Re-attach a host-side page under a fresh id (refcount 1)."""
        if block.block_size != self.block_size or block.n_layers != self.n_layers:
            raise ValueError("swapped block geometry does not match this pool")
        self._ensure_free_slot()
        self.n_swap_ins += 1
        return self._attach(block)

    # -- invariants ----------------------------------------------------------

    def assert_consistent(self) -> None:
        """Cheap structural invariants, asserted by the stress tests.

        Every allocated page has a positive refcount, the refcount map and
        the block map agree, the incremental byte counter matches a fresh
        walk over the pages, and a bounded pool never exceeds its capacity.
        """
        assert set(self._blocks) == set(self._refcounts)
        assert all(count >= 1 for count in self._refcounts.values())
        walked = sum(block.storage_bytes() for block in self._blocks.values())
        assert walked == self._resident_bytes
        if self.capacity_blocks is not None:
            assert len(self._blocks) <= self.capacity_blocks
