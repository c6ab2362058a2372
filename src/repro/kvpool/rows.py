"""Full-precision context rows: the host-side tier under the page index.

The page index (:mod:`repro.kvpool.prefix`) shares *quantized* pages, and
Cocktail's chunk-level search consults the query, so the pages of one
document differ from query to query and every request first needs the
document's K/V at full precision.  Those rows are causal — row ``i`` depends
on tokens ``0..i`` only, never on the query or the method — so they can be
computed once per document.  :class:`ContextRowCache` keeps them, keyed by
the same chained block hashes (one constant fingerprint, uniform FP16 bits:
the chain covers token ids alone), and a
:class:`~repro.serving.backends.PrefillJob` starts from the longest stored
run instead of running the prefill forward over it; its one prefill call
covers the rest of the prompt, and it then publishes the context rows.

The two tiers side by side: *rows* save the forward, *pages* save encode,
pack and pool bytes.  A request may hit either, both or neither.

Storage is one preallocated float32 arena of fixed block slots, never freed
and untouched until written: long-lived per-document heap arrays pin the
allocator's heap under the prefill's transients, an arena does not.  A block
is admitted on its *second* sighting, so traffic that never repeats a
context writes no slot and copies no row.  Eviction is LRU over blocks,
chain tails first, which keeps every resident block reachable from its
chain's head.  Readers get copies (``quantizer.apply`` mutates a scratch in
place), so evicting a block never disturbs a job that was seeded from it.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.kvpool.prefix import block_hashes
from repro.quant.dtypes import BitWidth

#: Host bytes of the row arena (96 slots of 128 KiB for the simulated
#: models' 4 layers x 4 KV heads x 64 dims at 16-token blocks).
CONTEXT_ROW_BYTES = 12 << 20

#: Block hashes remembered for the second-sighting rule, oldest dropped first.
SEEN_HASHES = 4096

_FINGERPRINT = "context-rows"


@dataclass
class ContextRowStats:
    """Counters accumulated over the lifetime of one :class:`ContextRowCache`."""

    hit_blocks: int = 0
    miss_blocks: int = 0
    admitted_blocks: int = 0
    evicted_blocks: int = 0


class _Entry:
    """One resident block: its slot and its place in the hash chain."""

    __slots__ = ("slot", "parent", "n_children", "stamp")

    def __init__(self, slot: int, parent: str | None, stamp: int):
        self.slot = slot
        self.parent = parent
        self.n_children = 0
        self.stamp = stamp


class ContextRowCache:
    """Block-granular store of full-precision context K/V rows.

    Parameters
    ----------
    n_layers, n_kv_heads, head_dim, block_size:
        Geometry of one slot: ``block_size`` rows of every layer's K and V.
    capacity_bytes:
        Arena size; ``capacity_bytes // slot bytes`` slots are usable.
    """

    def __init__(
        self,
        n_layers: int,
        n_kv_heads: int,
        head_dim: int,
        block_size: int,
        *,
        capacity_bytes: int = CONTEXT_ROW_BYTES,
    ):
        slot_shape = (n_layers, 2, block_size, n_kv_heads, head_dim)
        self.block_size = block_size
        self.slot_bytes = 4 * math.prod(slot_shape)
        n_slots = capacity_bytes // self.slot_bytes
        if n_slots < 1:
            raise ValueError(
                f"capacity_bytes={capacity_bytes} holds no {self.slot_bytes}-byte slot"
            )
        # An anonymous mapping, not ``np.empty``: pages cost nothing until
        # written, and dropping the engine unmaps them without going through
        # malloc (freeing a 12 MiB malloc chunk would raise glibc's mmap and
        # trim thresholds for every later allocation in the process).
        self._arena = np.frombuffer(
            mmap.mmap(-1, n_slots * self.slot_bytes), dtype=np.float32
        ).reshape(n_slots, *slot_shape)
        # Lowest slot first, so the touched part of the arena stays compact.
        self._free = list(range(n_slots - 1, -1, -1))
        self._entries: dict[str, _Entry] = {}
        self._seen: dict[str, None] = {}
        self._clock = 0
        self.stats = ContextRowStats()

    # -- queries -------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return self._arena.shape[0]

    @property
    def n_blocks(self) -> int:
        """Blocks currently resident."""
        return len(self._entries)

    @property
    def capacity_bytes(self) -> int:
        return self.n_slots * self.slot_bytes

    @property
    def resident_bytes(self) -> int:
        return self.n_blocks * self.slot_bytes

    def hashes(self, context_token_ids: Sequence[int]) -> list[str]:
        """Chained hashes of the context's full blocks (query- and method-free)."""
        bits = np.full(len(context_token_ids), int(BitWidth.FP16), dtype=np.int64)
        return block_hashes(_FINGERPRINT, context_token_ids, bits, self.block_size)

    def match(self, hashes: Sequence[str]) -> int:
        """Blocks of the longest resident run of ``hashes``; touches nothing."""
        n = 0
        for key in hashes:
            if key not in self._entries:
                break
            n += 1
        return n

    def block_rows(self, key: str) -> np.ndarray:
        """Read-only ``(layer, K|V, row, head, dim)`` view of one resident block."""
        view = self._arena[self._entries[key].slot]
        view.flags.writeable = False
        return view

    def stats_payload(self) -> dict:
        """The ``context_rows`` block of ``/v1/stats``."""
        return {
            "hit_blocks": self.stats.hit_blocks,
            "miss_blocks": self.stats.miss_blocks,
            "admitted_blocks": self.stats.admitted_blocks,
            "evicted_blocks": self.stats.evicted_blocks,
            "resident_bytes": self.resident_bytes,
            "capacity_bytes": self.capacity_bytes,
        }

    # -- the warm path -------------------------------------------------------

    def seed(self, cache, hashes: Sequence[str], n_final: int) -> int:
        """Copy the longest resident run into the empty dense ``cache``.

        ``n_final`` is the row count the finished prefill will hold; storage
        is reserved for it once, so seeding costs one copy per block and no
        regrowth.  Returns the number of tokens seeded; the run is stamped
        most recently used.
        """
        n_matched = self.match(hashes)
        self.stats.hit_blocks += n_matched
        self.stats.miss_blocks += len(hashes) - n_matched
        if not n_matched:
            return 0
        self._clock += 1
        for layer in cache.layers:
            layer.reserve(n_final)
        for key in hashes[:n_matched]:
            entry = self._entries[key]
            entry.stamp = self._clock
            block = self._arena[entry.slot]
            for layer, (k, v) in zip(cache.layers, block):
                layer.append(k, v)  # copies: the scratch never aliases the arena
        return n_matched * self.block_size

    def publish(self, cache, hashes: Sequence[str]) -> int:
        """Store the not-yet-resident blocks of a finished prefill's context rows.

        ``cache`` is the job's dense scratch *before* ``prepare`` touches it.
        A block is stored on its second sighting and only behind a resident
        parent, so the stored run stops at the first block that is new (or
        that finds no slot).  Returns the number of blocks stored.
        """
        self._clock += 1
        n_resident = self.match(hashes)
        for key in hashes[:n_resident]:
            self._entries[key].stamp = self._clock
        parent = hashes[n_resident - 1] if n_resident else None
        closed = True
        stored = 0
        for index in range(n_resident, len(hashes)):
            key = hashes[index]
            sighted = key in self._seen
            self._sight(key)
            closed = closed and sighted and self._store(key, parent, cache, index)
            stored += closed
            parent = key
        self.stats.admitted_blocks += stored
        return stored

    def _store(self, key: str, parent: str | None, cache, index: int) -> bool:
        """Copy block ``index`` of ``cache`` into a slot; ``False`` if none is free.

        When the arena is full the LRU chain tail makes room, unless every
        evictable tail belongs to the run being published (one document
        longer than the arena).
        """
        if not self._free and not self._evict_one(self._clock):
            return False
        slot = self._free.pop()
        lo = index * self.block_size
        hi = lo + self.block_size
        for layer_index, layer in enumerate(cache.layers):
            self._arena[slot, layer_index, 0] = layer.k[lo:hi]
            self._arena[slot, layer_index, 1] = layer.v[lo:hi]
        self._entries[key] = _Entry(slot, parent, self._clock)
        if parent is not None:
            self._entries[parent].n_children += 1
        return True

    def _sight(self, key: str) -> None:
        self._seen[key] = None
        if len(self._seen) > SEEN_HASHES:
            del self._seen[next(iter(self._seen))]

    # -- eviction ------------------------------------------------------------

    def _evict_one(self, before: int) -> bool:
        """Drop the LRU chain tail among blocks last touched before ``before``."""
        victim_key, victim = None, None
        for key, entry in self._entries.items():
            if entry.n_children or entry.stamp >= before:
                continue
            if victim is None or entry.stamp < victim.stamp:
                victim_key, victim = key, entry
        if victim is None:
            return False
        del self._entries[victim_key]
        if victim.parent is not None:
            self._entries[victim.parent].n_children -= 1
        self._free.append(victim.slot)
        self.stats.evicted_blocks += 1
        return True

    def evict(self, n_blocks: int) -> int:
        """Drop up to ``n_blocks`` least-recently-used blocks, chain tails first."""
        freed = 0
        while freed < n_blocks and self._evict_one(self._clock + 1):
            freed += 1
        return freed

    def assert_consistent(self) -> None:
        """Structural invariants: slot/hash bijection, chain-closed, in capacity."""
        slots = [entry.slot for entry in self._entries.values()]
        assert len(set(slots)) == len(slots), "two hashes share a slot"
        assert not set(slots) & set(self._free), "a resident slot is on the free list"
        assert len(slots) + len(self._free) == self.n_slots
        assert self.resident_bytes <= self.capacity_bytes
        children: dict[str, int] = {}
        for entry in self._entries.values():
            if entry.parent is not None:
                assert entry.parent in self._entries, "resident block with evicted parent"
                children[entry.parent] = children.get(entry.parent, 0) + 1
        for key, entry in self._entries.items():
            assert entry.n_children == children.get(key, 0)
        assert len(self._seen) <= SEEN_HASHES

