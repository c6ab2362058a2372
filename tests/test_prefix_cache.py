"""Unit tests: ref-counted pages, copy-on-write, and the prefix radix index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvpool import (
    BlockPool,
    PagedKVCache,
    PoolExhausted,
    PrefixCache,
    block_hashes,
    content_hash,
)

N_LAYERS, H, D, BS = 2, 2, 8, 16


def make_pool(capacity_blocks=None) -> BlockPool:
    return BlockPool(N_LAYERS, H, D, block_size=BS, capacity_blocks=capacity_blocks)


def fill_cache(cache: PagedKVCache, rng, n_tokens: int):
    k = rng.normal(size=(n_tokens, H, D)).astype(np.float32)
    v = rng.normal(size=(n_tokens, H, D)).astype(np.float32)
    for layer in range(N_LAYERS):
        cache.append_layer(layer, k, v)
    return k, v


class TestRefCounting:
    def test_retain_release_lifecycle(self):
        pool = make_pool()
        block_id = pool.allocate()
        assert pool.refcount(block_id) == 1
        assert pool.retain(block_id) == 2
        pool.release(block_id)  # still held once
        assert pool.refcount(block_id) == 1
        assert pool.allocated_bytes() > 0
        pool.release(block_id)  # last reference frees the page
        assert pool.n_allocated == 0 and pool.allocated_bytes() == 0
        with pytest.raises(ValueError, match="double free"):
            pool.release(block_id)

    def test_shared_block_refuses_swap_out(self):
        pool = make_pool()
        block_id = pool.allocate()
        pool.retain(block_id)
        with pytest.raises(ValueError, match="shared"):
            pool.swap_out(block_id)
        pool.release(block_id)
        pool.swap_out(block_id)  # exclusive again: allowed
        assert pool.n_allocated == 0

    def test_copy_on_write_semantics(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=BS)
        k, v = fill_cache(cache, rng, 4)
        block_id = cache.table.block_ids[0]
        # Exclusive page: COW is the identity.
        assert pool.copy_on_write(block_id) == block_id
        pool.retain(block_id)  # simulate the prefix index holding it
        new_id = pool.copy_on_write(block_id)
        assert new_id != block_id
        assert pool.refcount(block_id) == 1 and pool.refcount(new_id) == 1
        assert pool.n_cow_copies == 1
        np.testing.assert_array_equal(
            pool.get(new_id).fp_k[0, :4], pool.get(block_id).fp_k[0, :4]
        )
        pool.release(block_id)

    def test_write_to_shared_page_copies_it(self, rng):
        """A sequence appending into a shared page must not corrupt it."""
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=2 * BS)
        k, v = fill_cache(cache, rng, 4)
        shared_id = cache.table.block_ids[0]
        pool.retain(shared_id)
        before = pool.get(shared_id).fp_k[0].copy()
        cache.append_layer(0, k[:2], v[:2])  # lands in the shared page
        assert cache.table.block_ids[0] != shared_id  # COW replaced it
        np.testing.assert_array_equal(pool.get(shared_id).fp_k[0], before)
        np.testing.assert_array_equal(pool.get(cache.table.block_ids[0]).fp_k[0, 4:6], k[:2])
        pool.release(shared_id)

    def test_release_drops_only_own_references(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=4 * BS)
        fill_cache(cache, rng, 3 * BS)
        keeper = cache.table.block_ids[0]
        pool.retain(keeper)
        cache.release()
        assert pool.n_allocated == 1  # the retained page survived
        assert pool.refcount(keeper) == 1
        pool.release(keeper)
        assert pool.n_allocated == 0

    def test_swap_keeps_shared_pages_resident(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=4 * BS)
        fill_cache(cache, rng, 3 * BS)
        shared = cache.table.block_ids[0]
        pool.retain(shared)
        reference = cache.gather_layer(0)[0].copy()
        bytes_before = cache.measured_bytes()
        cache.swap_out()
        # Two private pages moved to host; the shared one stayed allocated.
        assert pool.n_swap_outs == 2
        assert pool.n_allocated == 1
        assert cache.measured_bytes() == bytes_before
        cache.swap_in()
        assert pool.n_swap_ins == 2
        np.testing.assert_array_equal(cache.gather_layer(0)[0], reference)
        assert cache.table.block_ids[0] == shared  # re-linked in place
        pool.release(shared)
        cache.release()
        assert pool.n_allocated == 0

    def test_release_while_swapped_returns_shared_refs(self, rng):
        pool = make_pool()
        cache = PagedKVCache(pool, capacity=4 * BS)
        fill_cache(cache, rng, 2 * BS)
        shared = cache.table.block_ids[0]
        pool.retain(shared)
        cache.swap_out()
        cache.release()
        assert pool.refcount(shared) == 1  # cache's reference returned
        pool.release(shared)
        assert pool.n_allocated == 0

    def test_adopt_blocks_validation(self, rng):
        pool = make_pool()
        donor = PagedKVCache(pool, capacity=2 * BS)
        fill_cache(donor, rng, BS)
        page = donor.table.block_ids[0]
        pool.retain(page)
        adopter = PagedKVCache(pool, capacity=2 * BS)
        with pytest.raises(ValueError, match="rows"):
            adopter.adopt_blocks([page], BS + 1)
        adopter.adopt_blocks([page], BS)
        assert adopter.length == BS and adopter.n_adopted_blocks == 1
        np.testing.assert_array_equal(
            adopter.gather_layer(0)[0], donor.gather_layer(0)[0]
        )
        with pytest.raises(RuntimeError, match="empty"):
            adopter.adopt_blocks([page], BS)
        adopter.release()
        donor.release()
        assert pool.n_allocated == 0


class TestBlockHashes:
    IDS = list(range(40))
    BITS = np.asarray([4] * 40)

    def test_chained_prefix_property(self):
        full = block_hashes("fp", self.IDS, self.BITS, BS)
        assert len(full) == 2  # 40 tokens -> 2 full pages, tail unhashed
        again = block_hashes("fp", self.IDS, self.BITS, BS)
        assert full == again  # deterministic across calls/processes

    def test_any_prefix_change_breaks_the_chain(self):
        base = block_hashes("fp", self.IDS, self.BITS, BS)
        ids = list(self.IDS)
        ids[0] += 1  # first-page token change invalidates *every* page
        assert block_hashes("fp", ids, self.BITS, BS)[1] != base[1]
        bits = self.BITS.copy()
        bits[BS] = 8  # second-page precision change spares the first page
        changed = block_hashes("fp", self.IDS, bits, BS)
        assert changed[0] == base[0] and changed[1] != base[1]
        assert block_hashes("other", self.IDS, self.BITS, BS) != base

    def test_content_hash_rejects_unhashable(self):
        with pytest.raises(TypeError):
            content_hash(object())
        assert content_hash("a", 1) != content_hash("a1")  # separator matters


class TestPrefixCacheIndex:
    def hashed_pages(self, pool, rng, n_pages, fingerprint="fp", salt=0):
        cache = PagedKVCache(pool, capacity=(n_pages + 1) * BS)
        rng2 = np.random.default_rng(salt)
        k = rng2.normal(size=(n_pages * BS, H, D)).astype(np.float32)
        for layer in range(N_LAYERS):
            cache.append_layer(layer, k, k)
        ids = list(range(salt, salt + n_pages * BS))
        bits = np.full(n_pages * BS, 16)
        hashes = block_hashes(fingerprint, ids, bits, BS)
        return cache, hashes

    def test_insert_match_roundtrip(self, rng):
        pool = make_pool()
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 3)
        assert index.insert("fp", hashes, cache.table.block_ids) == 3
        assert index.n_blocks == 3
        matched = index.match("fp", hashes)
        assert matched == cache.table.block_ids
        assert all(pool.refcount(b) == 3 for b in matched)  # cache+index+match
        assert index.match("fp", hashes[:2]) == cache.table.block_ids[:2]
        assert index.stats.n_hit_blocks == 5
        assert index.stats.saved_bytes > 0
        # peek takes no references
        before = [pool.refcount(b) for b in cache.table.block_ids]
        assert index.peek("fp", hashes) == 3
        assert [pool.refcount(b) for b in cache.table.block_ids] == before

    def test_longest_prefix_match_stops_at_divergence(self, rng):
        pool = make_pool()
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 3)
        index.insert("fp", hashes, cache.table.block_ids)
        diverged = hashes[:1] + ["deadbeef", "cafebabe"]
        assert index.match("fp", diverged) == cache.table.block_ids[:1]
        assert index.match("other-fp", hashes) == []
        assert index.stats.n_missed_blocks == 5

    def test_duplicate_insert_keeps_first_writer(self, rng):
        pool = make_pool()
        index = PrefixCache(pool)
        cache_a, hashes = self.hashed_pages(pool, rng, 2)
        cache_b, _ = self.hashed_pages(pool, rng, 2)
        index.insert("fp", hashes, cache_a.table.block_ids)
        assert index.insert("fp", hashes, cache_b.table.block_ids) == 0
        assert index.match("fp", hashes) == cache_a.table.block_ids

    def test_eviction_is_lru_and_leaf_first(self, rng):
        pool = make_pool()
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 3)
        block_ids = list(cache.table.block_ids)
        index.insert("fp", hashes, block_ids)
        cache.release()  # index now holds the only references
        index.match("fp", hashes[:1])  # rejuvenate page 0... and retain it
        pool.release(block_ids[0])  # drop the match reference
        assert index.evict(1) == 1
        # Leaf-first: the deepest page went, not the LRU interior one.
        assert index.peek("fp", hashes) == 2
        assert index.evict(10) == 2  # cascades the rest
        assert index.n_blocks == 0 and pool.n_allocated == 0

    def test_shared_pages_are_never_evicted(self, rng):
        pool = make_pool()
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 2)
        index.insert("fp", hashes, cache.table.block_ids)
        # The cache still reads its pages: nothing is evictable.
        assert index.reclaimable_blocks() == 0
        assert index.evict(5) == 0
        cache.release()
        assert index.reclaimable_blocks() == 2
        assert index.evict(5) == 2

    def test_bounded_pool_reclaims_idle_index_pages(self, rng):
        pool = make_pool(capacity_blocks=3)
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 3)
        index.insert("fp", hashes, cache.table.block_ids)
        cache.release()
        # Pool full, but all three pages are idle index entries: an
        # allocation transparently reclaims instead of raising.
        assert pool.n_free_blocks == 0
        assert pool.available_blocks() == 3
        assert pool.can_allocate(2)
        fresh = pool.allocate()
        assert index.n_blocks == 2  # LRU entry was reclaimed
        assert index.stats.n_evicted_blocks == 1
        pool.release(fresh)

    def test_exhaustion_still_raises_when_nothing_reclaimable(self, rng):
        pool = make_pool(capacity_blocks=2)
        index = PrefixCache(pool)
        cache, hashes = self.hashed_pages(pool, rng, 2)
        index.insert("fp", hashes, cache.table.block_ids)
        # The cache still holds its pages: nothing reclaimable, pool full.
        with pytest.raises(PoolExhausted):
            pool.allocate()

    def test_deep_chain_beyond_recursion_limit(self, rng):
        """A single cached context can chain thousands of pages; counting
        and evicting must not recurse (regression: RecursionError)."""
        import sys

        depth = sys.getrecursionlimit() + 200
        pool = make_pool()
        index = PrefixCache(pool)
        block_ids = [pool.allocate() for _ in range(depth)]
        hashes = [f"h{i}" for i in range(depth)]
        index.insert("deep", hashes, block_ids)
        for block_id in block_ids:
            pool.release(block_id)  # index holds the only references
        assert index.reclaimable_blocks() == depth
        assert index.evict(2) == 2  # leaf-first, two deepest pages
        assert index.peek("deep", hashes) == depth - 2
        index.clear()
        assert pool.n_allocated == 0

    def test_empty_fingerprint_roots_are_pruned(self, rng):
        """Evicting a fingerprint's last page drops its root anchor too —
        context-keyed fingerprints would otherwise leak one per document."""
        pool = make_pool()
        index = PrefixCache(pool)
        for doc in range(5):
            cache, hashes = self.hashed_pages(
                pool, rng, 1, fingerprint=f"kivi/{doc}", salt=doc * 100
            )
            index.insert(f"kivi/{doc}", hashes, cache.table.block_ids)
            cache.release()
        assert len(index._roots) == 5
        assert index.evict(5) == 5
        assert index.n_blocks == 0
        assert index._roots == {}

    def test_max_blocks_cap(self, rng):
        pool = make_pool()
        index = PrefixCache(pool, max_blocks=2)
        cache, hashes = self.hashed_pages(pool, rng, 4)
        index.insert("fp", hashes, cache.table.block_ids)
        # The inserting request still reads its pages: the cap is deferred
        # (shared pages are never evicted under a live reader).
        assert index.n_blocks == 4
        cache.release()
        other, other_hashes = self.hashed_pages(pool, rng, 1, salt=1000)
        index.insert("fp2", other_hashes, other.table.block_ids)
        assert index.n_blocks == 2  # the next insert trims to the cap
        other.release()
        index.clear()
        assert index.n_blocks == 0 and pool.n_allocated == 0


def rewalking_evict(index: PrefixCache, n_blocks: int) -> int:
    """The implementation ``PrefixCache.evict`` replaced: one tree walk per victim."""
    freed = 0
    while freed < n_blocks:
        leaves = [
            node
            for node in index._iter_nodes()
            if not node.children and index.pool.refcount(node.block_id) == 1
        ]
        if not leaves:
            break
        index._drop(min(leaves, key=lambda node: node.stamp))
        freed += 1
    index.stats.n_evicted_blocks += freed
    return freed


class _EvictionLog:
    def __init__(self):
        self.victims: list[str] = []

    def on_insert(self, hashes):
        pass

    def on_evict(self, hashes):
        self.victims.extend(hashes)


class TestEvictionOrderReplay:
    """The single-walk heap eviction picks the re-walking version's victims."""

    def run_script(self, seed: int, evict):
        rng = np.random.default_rng(seed)
        pool = make_pool()
        index = PrefixCache(pool, max_blocks=40)
        if evict is not None:
            index.evict = lambda n: evict(index, n)
        log = _EvictionLog()
        index.add_listener(log)
        chains: list[tuple[str, list[str]]] = []
        held: list[list[int]] = []
        for step in range(400):
            op = rng.choice(["insert", "insert", "match", "unhold", "evict"])
            if op == "insert":
                # Branch off a random existing chain so the tree has forks.
                fingerprint, stem = f"fp{rng.integers(3)}", []
                if chains and rng.random() < 0.7:
                    fingerprint, chain = chains[rng.integers(len(chains))]
                    stem = chain[: rng.integers(len(chain) + 1)]
                hashes = stem + [f"{step}/{i}" for i in range(rng.integers(1, 9))]
                block_ids = [pool.allocate() for _ in hashes]
                index.insert(fingerprint, hashes, block_ids)
                for block_id in block_ids:
                    pool.release(block_id)
                chains.append((fingerprint, hashes))
            elif op == "match" and chains:
                fingerprint, chain = chains[rng.integers(len(chains))]
                matched = index.match(fingerprint, chain[: rng.integers(len(chain) + 1)])
                if rng.random() < 0.5:
                    held.append(matched)  # a live reader pins these pages
                else:
                    for block_id in matched:
                        pool.release(block_id)
            elif op == "unhold" and held:
                for block_id in held.pop(rng.integers(len(held))):
                    pool.release(block_id)
            elif op == "evict":
                index.evict(int(rng.integers(1, 7)))
            index.assert_consistent()
        return log.victims, index.n_blocks, index.stats.n_evicted_blocks

    @pytest.mark.parametrize("seed", range(5))
    def test_same_victims_in_the_same_order(self, seed):
        victims, n_blocks, n_evicted = self.run_script(seed, None)
        assert len(victims) > 100  # the script really evicts
        assert (victims, n_blocks, n_evicted) == self.run_script(seed, rewalking_evict)
