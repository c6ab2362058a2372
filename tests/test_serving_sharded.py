"""Sharded execution: routing, oracle parity, churn and failure draining.

The contract under test is the ISSUE-9 tentpole: a
:class:`~repro.serving.sharded.ShardedEngine` pool must be
*indistinguishable* from one engine to every host that speaks the
EngineCore protocol — bit-identical outputs against the sequential-replay
oracles on every workload scenario — while the
:class:`~repro.serving.ShardRouter` keeps shared-prefix traffic on warm
workers and the pool survives cancels and worker loss with every page
accounted for.

Wall-clock time is never asserted; every replay runs under the
:class:`~repro.workloads.VirtualClock` and the threaded-mode test checks
*parity*, not speed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import CocktailConfig
from repro.serving import GlobalPrefixIndex, InferenceEngine, ShardedEngine
from repro.serving.engine import EngineCore
from repro.serving.request import GenerationRequest, SamplingParams
from repro.serving.server import ServerCore, ServingServer
from repro.serving.server.client import stream_completion
from repro.workloads import (
    SCENARIOS,
    EngineDriver,
    VirtualClock,
    WorkloadGenerator,
    attach_oracles,
    check_oracles,
)

BS = 16


@pytest.fixture()
def generator(tiny_samples) -> WorkloadGenerator:
    return WorkloadGenerator(tiny_samples, block_size=BS)


def make_factory(retrieval_model, tokenizer, vocab, **kwargs):
    def factory() -> InferenceEngine:
        return InferenceEngine(
            retrieval_model,
            tokenizer,
            CocktailConfig(chunk_size=16),
            lexicon=vocab.lexicon,
            **kwargs,
        )

    return factory


def fp16_request(words, query=("what", "now"), *, max_new_tokens=4) -> GenerationRequest:
    return GenerationRequest(
        tuple(words), tuple(query), max_new_tokens=max_new_tokens, backend="fp16"
    )


def drain(engine, max_rounds: int = 500) -> list:
    events = []
    rounds = 0
    while engine.has_runnable:
        events.extend(engine.step())
        rounds += 1
        assert rounds < max_rounds, "pool did not drain"
    return events


def assert_worker_pools_drained(engine: ShardedEngine) -> None:
    """The PR 8 pool-drain idiom, applied to every worker of the pool."""
    for worker in engine.workers:
        pool = worker.engine.pool
        assert pool.n_allocated == worker.engine.prefix_cache.n_blocks, (
            f"worker {worker.worker_id}: {pool.n_allocated} pages allocated "
            f"but only {worker.engine.prefix_cache.n_blocks} are published "
            "prefix pages"
        )


class TestGlobalPrefixIndex:
    def test_longest_match_is_a_leading_run(self):
        index = GlobalPrefixIndex()
        index.record_insert(0, ["a", "b", "c"])
        index.record_insert(1, ["a", "b"])
        index.record_insert(2, ["b", "c"])  # holds no leading page
        assert index.longest_match(["a", "b", "c", "d"]) == {0: 3, 1: 2}
        assert index.longest_match(["x"]) == {}

    def test_evict_notifications_keep_the_mirror_exact(self):
        index = GlobalPrefixIndex()
        index.record_insert(0, ["a", "b"])
        index.record_insert(1, ["a"])
        index.record_evict(0, ["a"])
        assert index.workers_for("a") == frozenset({1})
        # Evicting a key the worker never held is a no-op, not an error.
        index.record_evict(0, ["zzz"])
        index.record_evict(1, ["a"])
        assert index.longest_match(["a", "b"]) == {}
        assert index.n_keys == 1  # only "b" remains

    def test_drop_worker_forgets_every_entry(self):
        index = GlobalPrefixIndex()
        index.record_insert(0, ["a", "b"])
        index.record_insert(1, ["a"])
        assert index.drop_worker(0) == 2
        assert index.longest_match(["a", "b"]) == {1: 1}
        assert index.workers_for("b") == frozenset()


class TestShardedFacade:
    def test_rejects_bad_worker_counts(self, retrieval_model, tokenizer, vocab):
        factory = make_factory(retrieval_model, tokenizer, vocab)
        with pytest.raises(ValueError, match="n_workers"):
            ShardedEngine(factory, n_workers=0)

    def test_duplicate_request_id_rejected_pool_wide(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        words = tiny_samples[0].context_words[:32]
        rid = engine.submit(fp16_request(words))
        # Same id again must be refused even if it would land on the
        # *other* worker — the namespace is pool-wide.
        dup = fp16_request(words)
        dup.request_id = rid
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(dup)

    def test_exec_stats_aggregate_across_workers(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        for i in range(4):
            engine.submit(
                fp16_request(
                    tiny_samples[i % len(tiny_samples)].context_words[: 24 + i],
                    ("q", f"n{i}"),
                )
            )
        drain(engine)
        merged = engine.exec_stats
        assert merged.n_decode_tokens == sum(
            w.engine.exec_stats.n_decode_tokens for w in engine.workers
        )
        assert merged.n_steps == sum(
            w.engine.exec_stats.n_steps for w in engine.workers
        )
        results = engine.pop_results()
        assert len(results) == 4
        engine.assert_consistent()

    def test_sampled_requests_sum_every_counter_across_workers(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        """Seeded top-k requests on two workers: each counter of the merged
        stats is the workers' sum, and every decode token came from a fused
        forward row."""
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        for i in range(4):
            request = fp16_request(
                tiny_samples[i % len(tiny_samples)].context_words[: 24 + i],
                ("q", f"n{i}"),
            )
            request.sampling = SamplingParams(top_k=3, seed=i)
            engine.submit(request)
        drain(engine)
        per_worker = [w.engine.exec_stats for w in engine.workers]
        assert all(stats.n_decode_tokens for stats in per_worker)
        merged = engine.exec_stats
        for name in (
            "n_steps",
            "n_forward_calls",
            "n_fused_sequences",
            "n_decode_tokens",
            "n_prefill_tokens",
            "n_prefill_reused_tokens",
        ):
            assert getattr(merged, name) == sum(getattr(s, name) for s in per_worker), name
        assert merged.n_decode_tokens == sum(
            r.stats.n_generated for r in engine.pop_results().values()
        )
        assert merged.n_fused_sequences == merged.n_decode_tokens


class TestCacheAwareRouting:
    def test_shared_prefix_follows_the_warm_worker(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        words = tiny_samples[0].context_words[:48]
        leader = engine.submit(fp16_request(words, ("lead", "query")))
        home = engine.owner_of(leader)
        drain(engine)
        assert engine.index.n_keys > 0  # the leader published its pages
        placed_before = engine.router.n_prefix_placed
        followers = [
            engine.submit(fp16_request(words, ("probe", f"f{i}")))
            for i in range(3)
        ]
        assert engine.router.n_prefix_placed == placed_before + 3
        assert all(engine.owner_of(rid) == home for rid in followers)
        drain(engine)
        for rid in followers:
            stats = engine.result(rid).stats
            assert stats.cache_hit_blocks >= len(words) // BS

    def test_no_match_spreads_by_load(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        # Distinct cold contexts: no prefix signal, so the router must
        # balance on outstanding decode tokens alone.
        rids = [
            engine.submit(
                fp16_request(
                    tiny_samples[i % len(tiny_samples)].context_words[: 20 + 2 * i],
                    ("cold", f"c{i}"),
                )
            )
            for i in range(4)
        ]
        owners = {engine.owner_of(rid) for rid in rids}
        assert owners == {0, 1}
        per_worker = [w.n_routed for w in engine.workers]
        assert per_worker == [2, 2]
        drain(engine)

    def test_stale_index_entries_do_not_attract_traffic(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        words = tiny_samples[0].context_words[:48]
        leader = engine.submit(fp16_request(words, ("lead", "query")))
        home = engine.owner_of(leader)
        drain(engine)
        assert engine.index.n_keys > 0
        # Retire the warm worker's published pages.  The eviction
        # notifications must scrub the router-side mirror immediately —
        # an index entry for a page that no longer exists would send the
        # follower to a cold worker *and* count it as prefix-routed.
        engine.workers[home].engine.prefix_cache.clear()
        assert engine.index.n_keys == 0
        placed_before = engine.router.n_prefix_placed
        follower = engine.submit(fp16_request(words, ("probe", "after")))
        assert engine.router.n_prefix_placed == placed_before
        drain(engine)
        # The decode itself is placement-independent either way.
        assert engine.result(follower).token_ids
        engine.assert_consistent()


class TestChurn:
    def test_cancel_mid_dispatch_drains_the_target_worker(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        victim_rid = engine.submit(
            fp16_request(
                tiny_samples[0].context_words[:40], ("long", "one"),
                max_new_tokens=64,
            )
        )
        survivor_rid = engine.submit(
            fp16_request(
                tiny_samples[1].context_words[:36], ("other", "one"),
                max_new_tokens=4,
            )
        )
        for _ in range(3):
            engine.step()
        event = engine.cancel(victim_rid)
        assert event.is_last and event.stopped_by == "cancelled"
        assert engine.result(victim_rid).stopped_by == "cancelled"
        drain(engine)
        assert engine.result(survivor_rid).stopped_by is not None
        assert_worker_pools_drained(engine)
        engine.assert_consistent()

    def test_killed_workers_queue_completes_elsewhere_bit_identical(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        # Sequential oracle for the request that will be re-dispatched.
        reference = make_factory(retrieval_model, tokenizer, vocab)()
        queued_words = tiny_samples[2].context_words[:32]
        oracle = reference.run(
            fp16_request(queued_words, ("queued", "req"), max_new_tokens=6),
            pop=True,
        )

        factory = make_factory(
            retrieval_model, tokenizer, vocab, max_running=1
        )
        engine = ShardedEngine(factory, n_workers=2)
        # Two in-flight (one per worker), then a third that must queue
        # behind max_running=1 on its placed worker.
        first = engine.submit(
            fp16_request(
                tiny_samples[0].context_words[:40], ("busy", "a"),
                max_new_tokens=48,
            )
        )
        second = engine.submit(
            fp16_request(
                tiny_samples[1].context_words[:40], ("busy", "b"),
                max_new_tokens=6,
            )
        )
        for _ in range(2):
            engine.step()
        queued = engine.submit(
            fp16_request(queued_words, ("queued", "req"), max_new_tokens=6)
        )
        victim_id = engine.owner_of(queued)
        victim = engine.workers[victim_id]
        assert victim.queue_depth == 1  # still waiting behind max_running=1

        outcome = engine.kill_worker(victim_id)
        assert queued in outcome["redispatched"]
        survivor_id = engine.owner_of(queued)
        assert survivor_id != victim_id
        # In-flight work on the victim was cancelled with terminal events
        # and every page it held was released.
        assert {e.request_id for e in outcome["cancelled"]} <= {first, second}
        assert outcome["cancelled"], "the victim had an in-flight request"
        for event in outcome["cancelled"]:
            assert event.is_last and event.stopped_by == "cancelled"
        assert victim.engine.pool.n_allocated == (
            victim.engine.prefix_cache.n_blocks
        )
        # Dead workers take no further traffic.
        assert engine.index.drop_worker(victim_id) == 0  # already dropped

        drain(engine)
        result = engine.result(queued)
        assert result.token_ids == oracle.token_ids
        assert result.stopped_by == oracle.stopped_by
        # The surviving requests finished too (completed or cancelled on
        # the dead worker), and the pool stays structurally sound.
        engine.assert_consistent()

    def test_cannot_kill_the_last_worker(
        self, retrieval_model, tokenizer, vocab
    ):
        engine = ShardedEngine(
            make_factory(retrieval_model, tokenizer, vocab), n_workers=2
        )
        engine.kill_worker(0)
        with pytest.raises(RuntimeError, match="last alive worker"):
            engine.kill_worker(1)
        with pytest.raises(ValueError, match="already dead"):
            engine.kill_worker(0)


class TestOracleMatrix:
    """Every scenario, replayed through a 2-worker pool, bit-identical."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sharded_replay_matches_sequential_oracles(
        self, scenario, generator, retrieval_model, tokenizer, vocab
    ):
        trace = generator.generate(scenario, 1)
        attach_oracles(
            trace, make_factory(retrieval_model, tokenizer, vocab)()
        )
        clock = VirtualClock()
        factory = make_factory(
            retrieval_model, tokenizer, vocab,
            max_running=4, clock=clock,
        )
        engine = ShardedEngine(factory, n_workers=2)
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run, block_size=BS)
        assert_worker_pools_drained(engine)
        # Placement bookkeeping reconciles: every submission was granted
        # to exactly one worker and every grant was settled.
        assert sum(w.n_routed for w in engine.workers) >= len(trace)
        assert all(w.outstanding_tokens == 0 for w in engine.workers)


class TestThreadedParity:
    def test_threaded_rounds_match_sync_rounds(
        self, generator, retrieval_model, tokenizer, vocab
    ):
        trace = generator.generate("mixed", 2)
        attach_oracles(
            trace, make_factory(retrieval_model, tokenizer, vocab)()
        )
        outcomes = {}
        for threaded in (False, True):
            clock = VirtualClock()
            factory = make_factory(
                retrieval_model, tokenizer, vocab,
                max_running=4, clock=clock,
            )
            engine = ShardedEngine(factory, n_workers=2, threaded=threaded)
            try:
                run = EngineDriver(engine, clock=clock).run(trace)
                check_oracles(run, block_size=BS)
                outcomes[threaded] = {
                    key: (o.token_ids, o.status, o.stopped_by)
                    for key, o in run.outcomes.items()
                }
            finally:
                engine.close()
        assert outcomes[False] == outcomes[True]


class TestServerPoolMode:
    def test_requires_exactly_one_engine_source(
        self, retrieval_model, tokenizer, vocab
    ):
        factory = make_factory(retrieval_model, tokenizer, vocab)
        with pytest.raises(ValueError, match="exactly one"):
            ServerCore()
        with pytest.raises(ValueError, match="exactly one"):
            ServerCore(factory(), engine_factory=factory)

    def test_single_worker_factory_hosts_a_bare_engine(
        self, retrieval_model, tokenizer, vocab
    ):
        core = ServerCore(
            engine_factory=make_factory(retrieval_model, tokenizer, vocab),
            n_workers=1,
        )
        assert isinstance(core.engine, EngineCore)
        assert "workers" not in core.stats_payload()

    def test_http_requests_fan_out_and_stats_reconcile(
        self, retrieval_model, tokenizer, vocab, tiny_samples
    ):
        core = ServerCore(
            engine_factory=make_factory(
                retrieval_model, tokenizer, vocab, max_running=4
            ),
            n_workers=2,
        )

        async def scenario():
            async with ServingServer(core) as server:
                outs = await asyncio.gather(*(
                    stream_completion(server.host, server.port, {
                        "context": list(
                            tiny_samples[i % len(tiny_samples)]
                            .context_words[: 24 + i]
                        ),
                        "query": ["q", f"n{i}"],
                        "max_tokens": 4,
                        "backend": "fp16",
                    })
                    for i in range(6)
                ))
                return outs, core.stats_payload()

        outs, stats = asyncio.run(scenario())
        assert len(outs) == 6
        workers = stats["workers"]
        assert len(workers) == 2
        assert sum(w["n_routed"] for w in workers) == 6
        assert sum(w["n_decode_tokens"] for w in workers) == (
            stats["engine"]["n_decode_tokens"]
        )
        assert all(w["alive"] for w in workers)
        # Closing the core also parks the pool's worker threads (if any).
        core.close()
