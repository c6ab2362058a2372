"""Cross-request prefix/chunk KV reuse: a radix index over packed pages.

Serving traffic repeats itself: hundreds of concurrent requests query the
same document, retrieval pipelines prepend the same instructions, and the
paper's chunk-level treatment of the context (equal-length chunks, per-chunk
bitwidths) makes the *packed quantized* context KV naturally shareable —
two requests whose leading tokens and per-token precision assignment agree
produce byte-identical pages.  :class:`PrefixCache` exploits that: after a
request's context pages are packed, its page-aligned full-context pages are
inserted into a radix tree keyed by *chained block hashes*; a later request
walks the tree before prefill storage is allocated and adopts the longest
matching run of pages instead of re-packing them.

Why a chained hash?  A context token's K/V rows depend on **every** token
before it (causal attention mixes the whole prefix into each hidden state),
so page ``i`` is only reusable when tokens ``[0, (i+1)·block_size)`` match
exactly.  Hashing each page together with its parent's hash encodes exactly
that dependency, the same construction vLLM uses for its prefix cache.  The
per-page hash additionally covers the page's per-token *bitwidths* — two
requests may agree on tokens but disagree on a chunk's precision (the
chunk-level search consults the query), and then the packed bytes differ.
Everything else the packed bytes depend on (method numerics, group sizes,
context-fitted scales) is folded into the *fingerprint* that roots the
tree — see :meth:`repro.baselines.base.KVCacheQuantizer.reuse_fingerprint`.

Eviction is reference-count aware: the index holds one pool reference per
cached page, so a page is only *evictable* while no sequence is reading it
(refcount exactly one).  The index registers itself as the pool's
reclaimer: when a bounded pool runs out of raw free pages, least-recently
used idle entries are dropped leaf-first — shared pages under a live reader
are never touched.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.kvpool.pool import BlockPool


def content_hash(*parts) -> str:
    """Stable hex digest of strings / ints / numpy arrays (order-sensitive).

    Used both for the chained per-page hashes and for the context-fitted
    methods' fingerprints; Python's builtin ``hash`` is salted per process
    and therefore useless for anything meant to be reproducible.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            digest.update(part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            digest.update(int(part).to_bytes(8, "little", signed=True))
        elif isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (list, tuple)):
            digest.update(np.asarray(part, dtype=np.int64).tobytes())
        else:
            raise TypeError(f"cannot hash {type(part).__name__}")
        digest.update(b"\x1f")  # unambiguous separator between parts
    return digest.hexdigest()


def block_hashes(
    fingerprint: str,
    context_token_ids: Sequence[int],
    token_bits: np.ndarray,
    block_size: int,
) -> list[str]:
    """Chained hashes of every *full* context page of one request.

    ``hashes[i]`` identifies page ``i`` — it covers the quantization
    fingerprint, the token ids **and** per-token bitwidths of pages
    ``0..i``.  Pages straddling the context boundary (partially filled with
    query rows) are never shared and get no hash.
    """
    ids = np.asarray(list(context_token_ids), dtype=np.int64)
    bits = np.asarray(token_bits, dtype=np.int64)
    if ids.shape != bits.shape:
        raise ValueError(f"{ids.size} token ids but {bits.size} token bits")
    n_full = ids.size // block_size
    hashes: list[str] = []
    parent = content_hash(fingerprint)
    for i in range(n_full):
        lo, hi = i * block_size, (i + 1) * block_size
        parent = content_hash(parent, ids[lo:hi], bits[lo:hi])
        hashes.append(parent)
    return hashes


@dataclass
class PrefixCacheStats:
    """Counters accumulated over the lifetime of one :class:`PrefixCache`."""

    n_lookups: int = 0
    n_hit_blocks: int = 0
    n_missed_blocks: int = 0
    n_inserted_blocks: int = 0
    n_evicted_blocks: int = 0
    #: Measured bytes of matched pages the warm requests did not re-create.
    saved_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up pages served from the index."""
        total = self.n_hit_blocks + self.n_missed_blocks
        return self.n_hit_blocks / total if total else 0.0


class _RadixNode:
    """One cached page: a node of the per-fingerprint radix tree."""

    __slots__ = ("key", "block_id", "parent", "children", "stamp")

    def __init__(self, key: str, block_id: int, parent: "_RadixNode | None"):
        self.key = key
        self.block_id = block_id
        self.parent = parent
        self.children: dict[str, _RadixNode] = {}
        self.stamp = 0


class PrefixCache:
    """Radix index mapping chained block hashes to retained pool pages.

    Parameters
    ----------
    pool:
        The block pool the cached pages live in.  The index takes one
        reference per inserted page and registers itself as the pool's
        reclaimer so idle entries yield their pages under memory pressure.
    max_blocks:
        Optional cap on the number of cached pages; exceeding it evicts
        least-recently-used idle entries.  ``None`` leaves eviction entirely
        to pool pressure.
    """

    def __init__(self, pool: BlockPool, *, max_blocks: int | None = None):
        if max_blocks is not None and max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")
        self.pool = pool
        self.max_blocks = max_blocks
        self.stats = PrefixCacheStats()
        self._roots: dict[str, _RadixNode] = {}
        self._n_blocks = 0
        self._clock = 0
        #: Index-change subscribers (``on_insert(hashes)`` / ``on_evict(hashes)``).
        self._listeners: list = []
        pool.add_reclaimer(self)

    # -- change notification ---------------------------------------------------

    def add_listener(self, listener) -> None:
        """Subscribe to index membership changes.

        ``listener.on_insert(hashes)`` fires after pages are published under
        new hash keys; ``listener.on_evict(hashes)`` fires after entries are
        dropped (LRU eviction, pool-pressure reclaim or :meth:`clear`).  The
        chained hashes are globally unique (they cover the fingerprint), so
        a subscriber — e.g. a router's global prefix index — can mirror
        membership without knowing the tree structure.
        """
        self._listeners.append(listener)

    def _notify_insert(self, hashes: Sequence[str]) -> None:
        if hashes:
            for listener in self._listeners:
                listener.on_insert(list(hashes))

    def _notify_evict(self, hashes: Sequence[str]) -> None:
        if hashes:
            for listener in self._listeners:
                listener.on_evict(list(hashes))

    # -- queries -------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of pages currently held by the index."""
        return self._n_blocks

    def _walk(self, fingerprint: str, hashes: Sequence[str]) -> list[_RadixNode]:
        """Nodes along the longest cached prefix of ``hashes``."""
        node = self._roots.get(fingerprint)
        path: list[_RadixNode] = []
        for key in hashes:
            if node is None:
                break
            node = node.children.get(key)
            if node is None:
                break
            path.append(node)
        return path

    def peek(self, fingerprint: str, hashes: Sequence[str]) -> int:
        """Length (in pages) of the cached prefix, without touching state.

        The admission probe uses this: no references are taken and no LRU
        stamps move, so peeking never pins or rejuvenates entries.
        """
        return len(self._walk(fingerprint, hashes))

    # -- the warm path -------------------------------------------------------

    def match(self, fingerprint: str, hashes: Sequence[str]) -> list[int]:
        """Claim the longest cached prefix for one request.

        Returns the page ids of the matched run, **with one pool reference
        taken per page on the caller's behalf** — the caller adopts them
        into its block table and releases them through the normal cache
        release path.  Matched entries are stamped most-recently used.
        """
        self.stats.n_lookups += 1
        path = self._walk(fingerprint, hashes)
        self._clock += 1
        for node in path:
            self.pool.retain(node.block_id)
            node.stamp = self._clock
        self.stats.n_hit_blocks += len(path)
        self.stats.n_missed_blocks += len(hashes) - len(path)
        self.stats.saved_bytes += sum(
            self.pool.get(node.block_id).storage_bytes() for node in path
        )
        return [node.block_id for node in path]

    def insert(
        self, fingerprint: str, hashes: Sequence[str], block_ids: Sequence[int]
    ) -> int:
        """Publish a request's full-context pages under their hash chain.

        ``block_ids[i]`` must be the page whose content ``hashes[i]``
        describes.  Pages already present are left in place (first writer
        wins — both copies are byte-identical by construction); new entries
        take one pool reference each.  Returns the number of pages added.
        """
        if len(hashes) != len(block_ids):
            raise ValueError(f"{len(hashes)} hashes but {len(block_ids)} block ids")
        node = self._roots.get(fingerprint)
        if node is None and hashes:
            node = self._roots[fingerprint] = _RadixNode(fingerprint, -1, None)
        self._clock += 1
        inserted = 0
        fresh_keys: list[str] = []
        for key, block_id in zip(hashes, block_ids):
            child = node.children.get(key)
            if child is None:
                self.pool.retain(block_id)
                child = _RadixNode(key, block_id, node)
                node.children[key] = child
                self._n_blocks += 1
                inserted += 1
                fresh_keys.append(key)
            child.stamp = self._clock
            node = child
        self.stats.n_inserted_blocks += inserted
        self._notify_insert(fresh_keys)
        if self.max_blocks is not None and self._n_blocks > self.max_blocks:
            self.evict(self._n_blocks - self.max_blocks)
        return inserted

    # -- eviction / reclaim --------------------------------------------------

    def _iter_nodes(self) -> Iterator[_RadixNode]:
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            if node.block_id != -1:  # roots are anchors, not entries
                yield node

    def _is_idle_leaf(self, node: _RadixNode) -> bool:
        """A leaf entry nobody is reading (the index holds the only reference)."""
        return not node.children and self.pool.refcount(node.block_id) == 1

    def reclaimable_blocks(self) -> int:
        """Pages that could be freed by cascading idle-leaf eviction.

        A page counts only when its whole subtree is idle: evicting an
        interior page under a still-referenced child would strand the child
        unreachable, so eviction always proceeds leaf-first.  The walk is
        iterative — cached contexts can chain thousands of pages deep,
        far past Python's recursion limit.
        """
        # Post-order over every entry node: children are folded before
        # their parent, tracked as (all idle?, freeable count) per node.
        total = 0
        for root in self._roots.values():
            results: dict[int, tuple[bool, int]] = {}
            stack: list[tuple[_RadixNode, bool]] = [
                (child, False) for child in root.children.values()
            ]
            while stack:
                node, expanded = stack.pop()
                if not expanded:
                    stack.append((node, True))
                    stack.extend((child, False) for child in node.children.values())
                    continue
                all_free, count = True, 0
                for child in node.children.values():
                    child_free, child_count = results.pop(id(child))
                    count += child_count
                    all_free = all_free and child_free
                if all_free and self.pool.refcount(node.block_id) == 1:
                    results[id(node)] = (True, count + 1)
                else:
                    results[id(node)] = (False, count)
            total += sum(count for _, count in results.values())
        return total

    def evict(self, n_blocks: int) -> int:
        """Drop up to ``n_blocks`` least-recently-used idle entries.

        Eviction cascades leaf-first: removing a leaf may expose its parent
        as the next candidate.  Entries under a live reader (pool refcount
        above one) are skipped — shared pages are never evicted.  The tree
        is walked once: idle leaves go on a heap by stamp, and a parent
        joins it when its last child is dropped (dropping changes nobody
        else's reference count, so nothing else can become a candidate).
        """
        heap = [
            (node.stamp, order, node)
            for order, node in enumerate(self._iter_nodes())
            if self._is_idle_leaf(node)
        ]
        heapq.heapify(heap)
        order = len(heap)  # tie-break: nodes themselves do not compare
        freed = 0
        while freed < n_blocks and heap:
            victim = heapq.heappop(heap)[2]
            parent = victim.parent
            self._drop(victim)
            freed += 1
            if parent.block_id != -1 and self._is_idle_leaf(parent):
                heapq.heappush(heap, (parent.stamp, order, parent))
                order += 1
        self.stats.n_evicted_blocks += freed
        return freed

    def reclaim(self, n_blocks: int) -> int:
        """Pool pressure hook: same as :meth:`evict`."""
        return self.evict(n_blocks)

    def _drop(self, node: _RadixNode) -> None:
        assert not node.children
        parent = node.parent
        parent.children.pop(node.key)
        self.pool.release(node.block_id)
        self._n_blocks -= 1
        if parent.parent is None and not parent.children:
            # Last entry under this fingerprint: prune the root anchor too,
            # or context-keyed fingerprints (KIVI/KVQuant) would leak one
            # dead anchor per distinct document ever evicted.
            self._roots.pop(parent.key, None)
        self._notify_evict([node.key])

    def clear(self) -> int:
        """Release every cached page (e.g. before draining the pool)."""
        dropped = 0
        dropped_keys: list[str] = []
        for node in list(self._iter_nodes()):
            self.pool.release(node.block_id)
            dropped_keys.append(node.key)
            dropped += 1
        self._roots.clear()
        self._n_blocks = 0
        self.stats.n_evicted_blocks += dropped
        self._notify_evict(dropped_keys)
        return dropped

    def assert_consistent(self) -> None:
        """Structural invariants, asserted by the stress tests."""
        count = 0
        for node in self._iter_nodes():
            count += 1
            assert self.pool.refcount(node.block_id) >= 1
        assert count == self._n_blocks
