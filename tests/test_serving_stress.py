"""Randomized serving stress: pool invariants under chaotic scheduling.

Traffic here is generator-driven: every request list comes from a seeded
:class:`repro.workloads.WorkloadGenerator` trace with oracles attached by
sequential replay, so the chaos is reproducible from the seed alone and
every survivor is checked bit-for-bit — not just for "didn't crash".

Three pressure layers:

* :class:`TestPoolLevelStress` — pure allocator fuzz: random
  retain/release/COW/swap traffic against a mirror, and prefix-index
  insert/match/evict cycles with live readers on a tiny pool;
* :class:`TestEngineStress` — workload traces replayed through
  deliberately starved engines (tiny bounded pool, tight token budget,
  preemption forced on every seed) with ``BlockPool.assert_consistent``
  and the index walk recomputed at **every** step;
* :class:`TestScenarioMatrix` — every workload shape × the seed matrix on
  an unpressured engine: outputs bit-identical to the sequential replay,
  structural prefix-hit floors met, pool drained to zero at the end.

:class:`TestDisconnectStorm` additionally runs a generated cancel/
reconnect storm through the threaded :class:`ServerCore`, reconciling
server and tenant counters at drain.

CI runs this file standalone under a fixed seed matrix (see the
workflow); the seeds below keep the default suite fast while staying
deterministic.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool, PagedKVCache, PrefixCache, block_hashes
from repro.kvpool.pool import PoolExhausted
from repro.serving.engine import InferenceEngine
from repro.workloads import (
    SCENARIOS,
    EngineDriver,
    VirtualClock,
    WorkloadGenerator,
    attach_oracles,
    check_oracles,
)

#: The default seed matrix keeps the tier-1 suite fast; the nightly workflow
#: widens it (``REPRO_STRESS_SEEDS=0,1,..,9``) for the extended soak.
SEEDS = tuple(
    int(seed) for seed in os.environ.get("REPRO_STRESS_SEEDS", "0,1,2").split(",")
)

N_LAYERS, H, D, BS = 2, 2, 8, 8


def make_engine(retrieval_model, tokenizer, vocab, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        retrieval_model,
        tokenizer,
        CocktailConfig(chunk_size=16),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def starved_pool(config, capacity_blocks=13) -> BlockPool:
    return BlockPool(
        config.n_layers,
        config.n_kv_heads,
        config.head_dim,
        block_size=16,
        capacity_blocks=capacity_blocks,
    )


class TestPoolLevelStress:
    """Pure allocator fuzz: random retain/release/COW/swap against a mirror."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_keep_pool_consistent(self, seed):
        rng = np.random.default_rng(seed)
        pool = BlockPool(N_LAYERS, H, D, block_size=BS, capacity_blocks=24)
        refs: dict[int, int] = {}  # block_id -> references we hold
        swapped = []

        def spend_ref():
            candidates = [b for b, n in refs.items() if n > 0]
            return int(rng.choice(candidates)) if candidates else None

        for _ in range(400):
            op = rng.random()
            if op < 0.35:
                try:
                    block_id = pool.allocate()
                    refs[block_id] = 1
                except PoolExhausted:
                    assert pool.n_free_blocks == 0
            elif op < 0.5:
                if (block_id := spend_ref()) is not None:
                    pool.retain(block_id)
                    refs[block_id] += 1
            elif op < 0.75:
                if (block_id := spend_ref()) is not None:
                    pool.release(block_id)
                    refs[block_id] -= 1
                    if refs[block_id] == 0:
                        del refs[block_id]
                        with pytest.raises(ValueError):
                            pool.release(block_id)  # double free must raise
            elif op < 0.85:
                if (block_id := spend_ref()) is not None:
                    shared = pool.refcount(block_id) > 1
                    if shared and not pool.can_allocate(1):
                        with pytest.raises(PoolExhausted):
                            pool.copy_on_write(block_id)
                    else:
                        new_id = pool.copy_on_write(block_id)
                        if shared:
                            assert new_id != block_id
                            refs[block_id] -= 1
                            refs[new_id] = 1
                        else:
                            assert new_id == block_id
            elif op < 0.93:
                exclusive = [b for b, n in refs.items() if n == 1 and pool.refcount(b) == 1]
                if exclusive:
                    block_id = int(rng.choice(exclusive))
                    swapped.append(pool.swap_out(block_id))
                    del refs[block_id]
                shared = [b for b in refs if pool.refcount(b) > 1]
                if shared:
                    with pytest.raises(ValueError, match="shared"):
                        pool.swap_out(int(rng.choice(shared)))
            elif swapped and pool.n_free_blocks:
                refs[pool.swap_in(swapped.pop())] = 1
            pool.assert_consistent()
            for block_id, count in refs.items():
                assert pool.refcount(block_id) == count

        for block_id, count in list(refs.items()):
            for _ in range(count):
                pool.release(block_id)
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_index_traffic_under_bounded_pool(self, seed):
        """Insert/match/evict cycles with live readers on a tiny pool."""
        rng = np.random.default_rng(seed)
        pool = BlockPool(N_LAYERS, H, D, block_size=BS, capacity_blocks=16)
        index = PrefixCache(pool)
        documents = [
            [int(t) for t in rng.integers(0, 50, size=3 * BS)] for _ in range(4)
        ]
        live: list[PagedKVCache] = []
        for _ in range(150):
            action = rng.random()
            if action < 0.5 and pool.can_allocate(3):
                doc = documents[int(rng.integers(len(documents)))]
                bits = np.full(len(doc), 16)
                hashes = block_hashes("stress", doc, bits, BS)
                cache = PagedKVCache(pool, capacity=4 * BS)
                matched = index.match("stress", hashes)
                cache.adopt_blocks(matched, len(matched) * BS)
                missing = len(doc) - cache.length
                rows = rng.normal(size=(missing, H, D)).astype(np.float32)
                for layer in range(N_LAYERS):
                    cache.append_layer(layer, rows, rows)
                index.insert("stress", hashes, cache.table.block_ids[: len(hashes)])
                live.append(cache)
            elif action < 0.8 and live:
                live.pop(int(rng.integers(len(live)))).release()
            else:
                index.evict(int(rng.integers(1, 4)))
            pool.assert_consistent()
            index.assert_consistent()
        for cache in live:
            cache.release()
        index.clear()
        assert pool.n_allocated == 0 and pool.allocated_bytes() == 0


class TestEngineStress:
    """Generated traffic through starved engines: invariants every step.

    The pool is sized for ~2 sequences while the trace runs up to 3
    concurrently over shared documents, so swap preemption is
    guaranteed; fixed-length context slices
    make distinct requests collide on identical documents, keeping the
    prefix index hot under eviction pressure.  Hit *floors* are not
    asserted here — a starved index is allowed to evict — but outputs
    must still match the sequential-replay oracles bit for bit.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaotic_serving_with_prefix_reuse(
        self, vocab, tokenizer, retrieval_model, tiny_samples, seed
    ):
        generator = WorkloadGenerator(tiny_samples[:2], block_size=16)
        trace = generator.generate(
            "poisson",
            seed,
            n_requests=10,
            rate=2.0,
            context_range=(56, 56),  # fixed slices: heavy page collisions
            max_new_tokens=6,
            backends=("dense", "fp16", "kivi", "blockwise"),
        )
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))

        pool = starved_pool(retrieval_model.config)
        clock = VirtualClock()
        engine = make_engine(
            retrieval_model,
            tokenizer,
            vocab,
            max_running=3,
            pool=pool,
            # Two prompts fit, the third round of decode rows does not: the
            # token budget guarantees preemption traffic on every seed.
            max_live_tokens=132,
            clock=clock,
        )
        run = EngineDriver(engine, clock=clock).run(trace)
        assert run.n_steps > 15  # genuinely interleaved, not one mega-batch
        check_oracles(run, hit_floors=False)

        total_preemptions = sum(
            outcome.n_preemptions for outcome in run.outcomes.values()
        )
        # Under this much pressure the schedule must actually have preempted
        # (otherwise the stress proves nothing).
        assert total_preemptions >= 1

        # Drain: every refcount hits zero once the index lets go.
        assert pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaotic_serving_with_long_decodes(
        self, vocab, tokenizer, retrieval_model, tiny_samples, seed
    ):
        """The same pressure cooker with decodes that run past their stop
        token, over five backends (KVQuant's fitted codec included): decode
        rows claim pages from the starved pool, and every
        structural invariant — plus bit-identical outputs against the replay
        oracles — must survive."""
        generator = WorkloadGenerator(tiny_samples[:2], block_size=16)
        trace = generator.generate(
            "poisson",
            seed + 200,
            n_requests=8,
            rate=2.0,
            context_range=(56, 56),
            max_new_tokens=10,
            backends=("dense", "fp16", "cocktail", "kvquant", "blockwise"),
        )
        for request in trace:
            request.stop_on_special = False  # decode the full budget
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))

        pool = starved_pool(retrieval_model.config)
        clock = VirtualClock()
        engine = make_engine(
            retrieval_model,
            tokenizer,
            vocab,
            max_running=3,
            pool=pool,
            # As in the sibling test: two prompts fit, a third round of
            # decode rows does not, so every seed preempts.
            max_live_tokens=132,
            clock=clock,
        )
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run, hit_floors=False)
        assert engine.exec_stats.n_decode_tokens == sum(
            len(outcome.token_ids) for outcome in run.outcomes.values()
        )
        assert sum(outcome.n_preemptions for outcome in run.outcomes.values()) >= 1

        # Drain: every refcount hits zero once the index lets go.
        assert pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shared_prefix_floors_survive_a_bounded_pool(
        self, vocab, tokenizer, retrieval_model, tiny_samples, seed
    ):
        """A shared-document fleet on a pool with little slack: the hit
        floors are dependency-gated (followers wait for the leader), so
        they must hold even though the pool forces sequences to queue."""
        generator = WorkloadGenerator(tiny_samples, block_size=16)
        trace = generator.generate("shared_prefix", seed, context_len=64)
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))
        assert trace.metadata["hit_floor_total"] > 0

        pool = starved_pool(retrieval_model.config, capacity_blocks=24)
        clock = VirtualClock()
        engine = make_engine(
            retrieval_model, tokenizer, vocab,
            max_running=2, pool=pool, clock=clock,
        )
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)  # floors included
        assert any(o.cache_hit_blocks > 0 for o in run.outcomes.values())
        engine.prefix_cache.clear()
        assert pool.allocated_bytes() == 0


class TestScenarioMatrix:
    """Every workload shape × the seed matrix, fully self-checking.

    Each cell generates the scenario's trace, stamps oracles by
    sequential replay on a clean engine, replays it concurrently under
    the scenario's own engine hints with invariants recomputed every
    step, then asserts: bit-identical survivor outputs, cancelled streams
    are oracle prefixes, structural prefix-hit floors met (the pool here
    is unbounded, so floors are sound), and a full drain back to zero
    allocated bytes.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_is_self_checking(
        self, vocab, tokenizer, retrieval_model, tiny_samples, scenario, seed
    ):
        generator = WorkloadGenerator(tiny_samples, block_size=16)
        trace = generator.generate(scenario, seed)
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))

        clock = VirtualClock()
        engine = make_engine(
            retrieval_model, tokenizer, vocab,
            max_running=4, clock=clock,
        )
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)

        # Every request ended in a terminal state the trace explains.
        n_expected_cancels = sum(
            1 for r in trace if r.cancel_after_tokens is not None
        )
        assert run.n_completed + run.n_cancelled == len(trace)
        assert run.n_cancelled <= n_expected_cancels

        # Drain: only the prefix index may still hold pages.
        pool = engine.pool
        pool.assert_consistent()
        engine.prefix_cache.assert_consistent()
        assert pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0


class TestDisconnectStorm:
    """A generated cancel/reconnect storm against the serving front door.

    The ``cancel_storm`` trace is replayed through a threaded
    :class:`ServerCore` over a starved pool: trace-flagged requests are
    cancelled mid-decode (wall-clock staggered, so engine-thread
    retirement races the cancel commands), reconnects re-ask the same
    prompt afterwards.  Whatever the interleaving, at drain the server
    and tenant counters must reconcile exactly, no pool page may leak
    past the prefix index, and every survivor must match its replay
    oracle bit for bit.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cancel_churn_leaves_no_leaks(
        self, vocab, tokenizer, retrieval_model, tiny_samples, seed
    ):
        import time

        from repro.serving.server import ServerCore

        rng = np.random.default_rng(seed + 300)
        generator = WorkloadGenerator(tiny_samples, block_size=16)
        trace = generator.generate(
            "cancel_storm", seed, n_requests=12, max_new_tokens=12
        )
        attach_oracles(trace, make_engine(retrieval_model, tokenizer, vocab))

        pool = starved_pool(retrieval_model.config)
        engine = make_engine(
            retrieval_model,
            tokenizer,
            vocab,
            max_running=3,
            pool=pool,
            max_live_tokens=132,
        )

        core = ServerCore(engine).start()
        try:
            handles = []
            # Reconnects must trail the attempt they retry; the trace
            # orders them after their base request already.
            for request in trace:
                handles.append((core.submit(request.to_request()), request))
                # Stagger the storm: cancels land mid-decode of others.
                time.sleep(float(rng.random()) * 0.01)
                if request.cancel_after_tokens is not None:
                    core.cancel(handles[-1][0].request_id)

            results = [
                (core.join(handle, timeout=60.0), request)
                for handle, request in handles
            ]
        finally:
            core.close()

        n_cancelled = sum(
            1 for result, _ in results if result.stopped_by == "cancelled"
        )
        assert core.n_cancelled == n_cancelled
        assert core.n_finished == len(results) - n_cancelled
        usage = core.tenants.usage("anonymous")
        assert usage.n_cancelled == n_cancelled
        assert usage.n_active == 0
        assert usage.reserved_tokens == 0
        assert usage.completion_tokens == sum(
            len(result.token_ids) for result, _ in results
        )

        # Survivors decoded exactly what the sequential replay said; a
        # cancelled stream is a prefix of its oracle.
        for result, request in results:
            oracle = request.oracle
            if result.stopped_by == "cancelled":
                n = len(result.token_ids)
                assert result.token_ids == oracle.token_ids[:n]
                continue
            assert result.token_ids == oracle.token_ids
            assert result.stopped_by == oracle.stopped_by

        # Drain: the storm released every private page and refcount.
        pool.assert_consistent()
        engine.prefix_cache.assert_consistent()
        assert pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0
