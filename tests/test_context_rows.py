"""The full-precision context-row tier and the prefill jobs seeded from it.

Three layers of checks: :class:`ContextRowCache` on its own (admission,
eviction, a hypothesis walk over random request/evict sequences), a
:class:`PrefillJob` started from stored rows against a cold one (the
contract of a prefill continuing a cache: logits within 1e-5), and the
engine end to end —
all 7 backends token-identical to the ``oracle`` fixture and to a
``prefix_caching=False`` engine on first, second and third sightings, plus
the counters that make the reuse visible.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.atom import AtomQuantizer
from repro.baselines.base import KVCacheQuantizer
from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool
from repro.kvpool.pool import PoolExhausted
from repro.kvpool.rows import CONTEXT_ROW_BYTES, ContextRowCache
from repro.model.kv_cache import ModelKVCache
from repro.retrieval.base import Encoder
from repro.retrieval.registry import get_encoder
from repro.serving.backends import PrefillJob
from repro.serving.engine import EngineCore, InferenceEngine
from repro.serving.request import GenerationRequest
from repro.serving.sharded import ShardedEngine

CHUNK_SIZE = 16
BLOCK = 16
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def request_for(context, query, backend="dense", max_new_tokens=4):
    return GenerationRequest(
        context, query, max_new_tokens=max_new_tokens, backend=backend
    )


@pytest.fixture(scope="module")
def documents(tiny_samples):
    """Six-block documents: ``a``; ``b`` shares ``a``'s four leading blocks."""
    a = tiny_samples[0].context_words[: 6 * BLOCK]
    b = a[: 4 * BLOCK] + tiny_samples[1].context_words[: 2 * BLOCK]
    others = [s.context_words[100 : 100 + 6 * BLOCK] for s in tiny_samples]
    return {
        "a": a,
        "b": b,
        "others": others,
        "query": tiny_samples[0].query_words,
        "longer_query": tiny_samples[0].query_words + tiny_samples[1].query_words,
    }


# -- the tier on its own -----------------------------------------------------------


def toy_tier(n_slots: int) -> ContextRowCache:
    tier = ContextRowCache(1, 1, 2, 2, capacity_bytes=n_slots * 32)
    assert tier.n_slots == n_slots
    return tier


def toy_scratch(token_ids) -> ModelKVCache:
    """A finished prefill's scratch whose rows are causal in the token ids."""
    cache = ModelKVCache(n_layers=1, n_kv_heads=1, head_dim=2, capacity=64)
    rows = np.cumsum(np.asarray(token_ids, dtype=np.float32))
    k = np.stack([rows, -rows], axis=-1)[:, None, :]
    cache.layers[0].append(k, k + 0.5)
    return cache


def toy_request(tier: ContextRowCache, token_ids) -> ModelKVCache:
    """What a prefill job does: seed, check the seeded rows, publish."""
    hashes = tier.hashes(token_ids)
    seeded = ModelKVCache(n_layers=1, n_kv_heads=1, head_dim=2, capacity=64)
    n_seeded = tier.seed(seeded, hashes, len(token_ids))
    full = toy_scratch(token_ids)
    assert n_seeded % tier.block_size == 0 and n_seeded <= len(token_ids)
    np.testing.assert_array_equal(seeded.layers[0].keys(), full.layers[0].k[:n_seeded])
    np.testing.assert_array_equal(seeded.layers[0].values(), full.layers[0].v[:n_seeded])
    tier.publish(full, hashes)
    return seeded


class TestContextRowCache:
    def test_default_arena_is_96_slots_of_128_kib(self):
        tier = ContextRowCache(4, 4, 64, 16)
        assert tier.slot_bytes == 128 << 10
        assert tier.n_slots == 96
        assert tier.capacity_bytes == CONTEXT_ROW_BYTES
        assert tier.resident_bytes == 0

    def test_a_block_is_stored_on_its_second_sighting(self):
        tier = toy_tier(8)
        doc = [3, 1, 4, 1, 5, 9, 2]  # three full blocks of two + a tail token
        hashes = tier.hashes(doc)
        assert len(hashes) == 3
        toy_request(tier, doc)
        assert tier.n_blocks == 0 and tier.match(hashes) == 0
        toy_request(tier, doc)
        assert tier.n_blocks == 3 and tier.match(hashes) == 3
        seeded = toy_request(tier, doc)
        assert seeded.length == 6
        assert tier.stats_payload() == {
            "hit_blocks": 3,
            "miss_blocks": 6,
            "admitted_blocks": 3,
            "evicted_blocks": 0,
            "resident_bytes": 3 * tier.slot_bytes,
            "capacity_bytes": 8 * tier.slot_bytes,
        }
        tier.assert_consistent()

    def test_hashes_cover_token_ids_only_and_chain(self):
        tier = toy_tier(4)
        assert tier.hashes([1, 2, 3, 4]) == tier.hashes([1, 2, 3, 4, 5])
        assert tier.hashes([1, 2, 3, 4])[0] == tier.hashes([1, 2, 9, 9])[0]
        assert tier.hashes([9, 2, 3, 4])[1] != tier.hashes([1, 2, 3, 4])[1]

    def test_a_shared_leading_run_is_matched_and_the_tail_joins_it(self):
        tier = toy_tier(8)
        a, b = [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8]
        toy_request(tier, a)
        toy_request(tier, a)
        assert toy_request(tier, b).length == 4  # first sighting of b's tail
        assert tier.n_blocks == 3
        assert toy_request(tier, b).length == 4  # second: the tail is stored
        assert tier.n_blocks == 4
        assert toy_request(tier, b).length == 6
        tier.assert_consistent()

    def test_eviction_is_lru_and_takes_chain_tails_first(self):
        tier = toy_tier(4)
        old, new = [1, 2, 3, 4], [5, 6, 7, 8]
        for doc in (old, old, new, new):
            toy_request(tier, doc)
        assert tier.n_blocks == 4
        assert tier.evict(1) == 1
        assert tier.match(tier.hashes(old)) == 1  # the tail went, the head stays
        assert tier.match(tier.hashes(new)) == 2
        tier.assert_consistent()
        toy_request(tier, old)  # touches old's head: new is now the LRU chain
        assert tier.match(tier.hashes(old)) == 2
        assert tier.evict(2) == 2
        assert tier.match(tier.hashes(new)) == 0
        assert tier.match(tier.hashes(old)) == 2
        assert tier.evict(5) == 2 and tier.n_blocks == 0
        tier.assert_consistent()

    def test_a_full_arena_makes_room_for_a_repeated_document(self):
        tier = toy_tier(3)
        first, second = [1, 2, 3, 4, 5, 6], [7, 8, 9, 10]
        for doc in (first, first, second, second):
            toy_request(tier, doc)
        assert tier.n_blocks == 3
        assert tier.match(tier.hashes(second)) == 2
        assert tier.match(tier.hashes(first)) == 1
        assert tier.stats.evicted_blocks == 2
        tier.assert_consistent()

    def test_a_document_longer_than_the_arena_keeps_its_head(self):
        tier = toy_tier(2)
        doc = list(range(1, 9))  # four blocks, two slots
        for _ in range(3):
            toy_request(tier, doc)
            tier.assert_consistent()
        assert tier.match(tier.hashes(doc)) == 2
        assert tier.stats.evicted_blocks == 0

    def test_stored_blocks_are_read_only_views(self):
        tier = toy_tier(2)
        doc = [1, 2]
        toy_request(tier, doc)
        toy_request(tier, doc)
        view = tier.block_rows(tier.hashes(doc)[0])
        assert view.shape == (1, 2, 2, 1, 2)
        with pytest.raises(ValueError):
            view[...] = 0.0

    def test_an_arena_smaller_than_one_slot_is_rejected(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            ContextRowCache(4, 4, 64, 16, capacity_bytes=1024)


_DOCS = st.lists(st.integers(0, 2), min_size=2, max_size=9)
_OPS = st.lists(
    st.one_of(st.tuples(st.just("request"), _DOCS), st.tuples(st.just("evict"), st.integers(1, 3))),
    min_size=1,
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS, n_slots=st.integers(1, 6))
def test_random_request_and_evict_sequences_keep_the_tier_sound(ops, n_slots):
    """Never past the arena, matched runs chain-closed, live jobs unharmed.

    Token ids come from a three-letter alphabet so documents share leading
    runs; rows are causal in the ids (a cumulative sum), so a seeded scratch
    that does not equal its own document's rows means a slot was reused or
    overwritten under a hash that still pointed at it.
    """
    tier = toy_tier(n_slots)
    live: list[tuple[ModelKVCache, np.ndarray]] = []
    for op, arg in ops:
        if op == "request":
            seeded = toy_request(tier, arg)
            live.append((seeded, seeded.layers[0].keys().copy()))
            matched = tier.match(tier.hashes(arg))
            assert all(key in tier._entries for key in tier.hashes(arg)[:matched])
        else:
            tier.evict(arg)
        assert tier.n_blocks <= tier.n_slots
        assert tier.resident_bytes <= tier.capacity_bytes
        tier.assert_consistent()
        for seeded, snapshot in live:  # jobs hold copies: eviction is invisible
            np.testing.assert_array_equal(seeded.layers[0].keys(), snapshot)


# -- a job seeded from the tier ------------------------------------------------------


class TestSeededPrefillJob:
    def run_job(self, model, tokenizer, request, tier, chunk=None):
        job = PrefillJob(model, tokenizer, request, context_rows=tier)
        if chunk is None:
            job.run()
            return job
        # The seeded scratch continued by several ``Transformer.prefill``
        # calls of ``chunk`` tokens each.
        rest = job.prompt[job.n_reused :]
        for start in range(0, len(rest), chunk):
            job.first_logits = model.prefill(rest[start : start + chunk], job.cache)
        return job

    def test_warm_jobs_meet_the_chunked_prefill_contract(
        self, retrieval_model, tokenizer, documents
    ):
        """Cold, hit, hit with a longer query, partial hit, hit continued in
        48-token prefill calls: first-token logits within 1e-5 of a tier-less
        job's, context rows within 1e-5 of its rows."""
        model, config = retrieval_model, retrieval_model.config
        tier = ContextRowCache(config.n_layers, config.n_kv_heads, config.head_dim, BLOCK)
        cases = [
            ("first", documents["a"], documents["query"], None, 0),
            ("second", documents["a"], documents["query"], None, 0),
            ("hit", documents["a"], documents["query"], None, 6 * BLOCK),
            ("longer query", documents["a"], documents["longer_query"], None, 6 * BLOCK),
            ("partial", documents["b"], documents["query"], None, 4 * BLOCK),
            ("chunked", documents["a"], documents["query"], 48, 6 * BLOCK),
        ]
        for label, context, query, chunk, n_reused in cases:
            request = request_for(context, query)
            cold = self.run_job(model, tokenizer, request, None)
            warm = self.run_job(model, tokenizer, request, tier, chunk)
            assert warm.n_reused == n_reused, label
            assert warm.prompt == cold.prompt
            np.testing.assert_allclose(
                warm.first_logits, cold.first_logits, rtol=0, atol=1e-5, err_msg=label
            )
            for w, c in zip(warm.cache.layers, cold.cache.layers):
                np.testing.assert_allclose(w.keys(), c.keys(), rtol=0, atol=1e-5)
                np.testing.assert_allclose(w.values(), c.values(), rtol=0, atol=1e-5)
            tier.assert_consistent()

    def test_a_cold_job_makes_the_parent_prefill_call(
        self, retrieval_model, tokenizer, documents, monkeypatch
    ):
        """First sighting: one ``Transformer.prefill(whole prompt, empty cache)``."""
        config = retrieval_model.config
        tier = ContextRowCache(config.n_layers, config.n_kv_heads, config.head_dim, BLOCK)
        calls = []
        original = type(retrieval_model).prefill

        def spy(self, token_ids, cache):
            calls.append((list(token_ids), cache.length))
            return original(self, token_ids, cache)

        monkeypatch.setattr(type(retrieval_model), "prefill", spy)
        request = request_for(documents["a"], documents["query"])
        job = self.run_job(retrieval_model, tokenizer, request, tier)
        assert calls == [(job.prompt, 0)]


# -- the engine end to end -----------------------------------------------------------


def sightings(documents):
    """First, second, third = hit, hit with a longer query, partial hit."""
    a, b, q = documents["a"], documents["b"], documents["query"]
    return [
        ("first", a, q, 0),
        ("second", a, q, 0),
        ("hit", a, q, 6 * BLOCK),
        ("longer query", a, documents["longer_query"], 6 * BLOCK),
        ("partial", b, q, 4 * BLOCK),
    ]


class TestEngineParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_sightings_match_the_oracle_and_a_cacheless_engine(
        self, vocab, tokenizer, retrieval_model, documents, oracle, backend
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        cacheless = make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False)
        assert cacheless.context_rows is None
        for label, context, query, n_reused in sightings(documents):
            expected = oracle(engine, request_for(context, query, backend))[:2]
            plain = cacheless.run(request_for(context, query, backend))
            assert (plain.token_ids, plain.stopped_by) == expected, label
            assert plain.stats.prefill_reused_tokens == 0
            served = engine.run(request_for(context, query, backend))
            assert (served.token_ids, served.stopped_by) == expected, label
            assert served.stats.prefill_reused_tokens == n_reused, label
            engine.assert_consistent()
        tier = engine.context_rows.stats
        assert engine.exec_stats.n_prefill_reused_tokens == tier.hit_blocks * BLOCK
        assert tier.admitted_blocks == 6  # b's tail was sighted once only

    def test_apply_on_a_seeded_scratch_leaves_the_stored_rows_alone(
        self, vocab, tokenizer, retrieval_model, documents, oracle
    ):
        """A method without a packed encoder fake-quantizes the scratch in
        place; the scratch is a copy, so the arena keeps the exact rows."""

        class FakeQuantOnlyAtom(AtomQuantizer):
            name = "atom-fq"
            encode_context = KVCacheQuantizer.encode_context

        engine = make_engine(vocab, tokenizer, retrieval_model)
        engine.add_backend("atom-fq", FakeQuantOnlyAtom())
        def run():
            return engine.run(request_for(documents["a"], documents["query"], "atom-fq"))

        expected = oracle(engine, request_for(documents["a"], documents["query"], "atom-fq"))[:2]
        run()
        run()
        tier = engine.context_rows
        hashes = tier.hashes(tokenizer.encode(list(documents["a"])))
        before = [tier.block_rows(key).copy() for key in hashes]
        assert not tier.block_rows(hashes[0]).flags.writeable
        hit = run()
        assert hit.stats.prefill_reused_tokens == 6 * BLOCK
        assert (hit.token_ids, hit.stopped_by) == expected
        for key, rows in zip(hashes, before):
            assert tier.block_rows(key).tobytes() == rows.tobytes()


class TestSeededJobLifecycle:
    """Cancel, pause and a pool-exhausted ``prepare`` on a sequence whose
    job started from stored rows: tier and pool end drained and consistent."""

    def warm(self, engine, documents):
        reference = engine.run(request_for(documents["a"], documents["query"]))
        engine.run(request_for(documents["a"], documents["query"]))
        assert engine.context_rows.n_blocks == 6
        return reference

    def start_seeded(self, engine, documents):
        """Admit a warm repeat: one step seeds, prefills the rest and runs it."""
        request = request_for(documents["a"], documents["query"])
        before = engine.exec_stats.n_prefill_tokens
        rid = engine.submit(request)
        engine.step()
        assert engine.n_running == 1
        assert engine.request_stats(rid).prefill_reused_tokens == 6 * BLOCK
        assert engine.exec_stats.n_prefill_tokens - before == (
            request.n_prompt_tokens - 6 * BLOCK
        )
        return rid

    def assert_drained(self, engine):
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        assert engine.context_rows.n_blocks == 6
        engine.assert_consistent()

    def test_cancel(self, vocab, tokenizer, retrieval_model, documents):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        self.warm(engine, documents)
        rid = self.start_seeded(engine, documents)
        assert engine.cancel(rid).stopped_by == "cancelled"
        assert not engine.has_pending
        self.assert_drained(engine)

    def test_pause_and_resume(self, vocab, tokenizer, retrieval_model, documents):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        reference = self.warm(engine, documents)
        rid = self.start_seeded(engine, documents)
        prefilled = engine.exec_stats.n_prefill_tokens
        engine.pause(rid)
        assert engine.scheduler.live_tokens() == 0
        self.assert_drained(engine)
        engine.resume(rid)
        while engine.has_pending:
            engine.step()
        result = engine.result(rid)
        assert result.token_ids == reference.token_ids
        assert result.stats.prefill_reused_tokens == 6 * BLOCK
        # The swap-in restored the pages: nothing was prefilled again.
        assert result.stats.n_swap_ins == 1
        assert engine.exec_stats.n_prefill_tokens == prefilled
        self.assert_drained(engine)

    def test_pool_exhausted_at_prepare(self, vocab, tokenizer, retrieval_model, documents):
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim, block_size=BLOCK,
            capacity_blocks=12,
        )
        engine = make_engine(vocab, tokenizer, retrieval_model, pool=pool)
        reference = self.warm(engine, documents)
        hostages = [pool.allocate() for _ in range(pool.n_free_blocks)]
        rid = engine.submit(request_for(documents["a"], documents["query"]))
        with pytest.raises(PoolExhausted):
            engine.step()
        assert engine.request_stats(rid).prefill_reused_tokens == 6 * BLOCK
        assert pool.n_allocated == len(hostages) + engine.prefix_cache.n_blocks
        assert engine.context_rows.n_blocks == 6
        engine.assert_consistent()
        for block_id in hostages:
            pool.release(block_id)
        while engine.has_pending:
            engine.step()
        assert engine.result(rid).token_ids == reference.token_ids
        self.assert_drained(engine)


class TestReuseIsVisible:
    def test_repeated_documents_halve_the_prefill_and_distinct_ones_write_nothing(
        self, vocab, tokenizer, retrieval_model, documents, tiny_samples
    ):
        """The count guard: deterministic counters, no clock."""
        queries = [s.query_words for s in tiny_samples] + [documents["longer_query"]] * 2
        repeated = [
            request_for(doc, query)
            for doc in documents["others"][:3]
            for query in queries
        ]
        totals = {}
        for caching in (True, False):
            engine = make_engine(vocab, tokenizer, retrieval_model, prefix_caching=caching)
            engine.run_batch(repeated)
            stats = engine.exec_stats
            totals[caching] = stats.n_prefill_tokens
            assert stats.n_prefill_tokens + stats.n_prefill_reused_tokens == sum(
                r.n_prompt_tokens for r in repeated
            )
        assert totals[True] <= 0.5 * totals[False]

        engine = make_engine(vocab, tokenizer, retrieval_model)
        distinct = [request_for(doc, documents["query"]) for doc in documents["others"]]
        results = engine.run_batch(distinct)
        rows = engine.context_rows_stats()
        assert rows["admitted_blocks"] == 0 and rows["resident_bytes"] == 0
        assert rows["hit_blocks"] == 0 and rows["miss_blocks"] == 6 * len(distinct)
        assert engine.exec_stats.n_prefill_reused_tokens == 0
        assert engine.exec_stats.n_prefill_tokens == sum(r.n_prompt_tokens for r in results)

    def test_sharded_engines_sum_their_workers_tiers(
        self, vocab, tokenizer, retrieval_model, documents
    ):
        sharded = ShardedEngine(
            lambda: make_engine(vocab, tokenizer, retrieval_model), n_workers=2
        )
        for _ in range(3):
            rid = sharded.submit(request_for(documents["a"], documents["query"]))
            while not sharded.is_finished(rid):
                sharded.step()
        merged = sharded.context_rows_stats()
        per_worker = [w.engine.context_rows_stats() for w in sharded.workers]
        assert merged == {key: sum(p[key] for p in per_worker) for key in merged}
        assert merged["capacity_bytes"] == 2 * CONTEXT_ROW_BYTES
        assert merged["hit_blocks"] == 6 and merged["admitted_blocks"] == 6
        assert sharded.exec_stats.n_prefill_reused_tokens == 6 * BLOCK
        sharded.assert_consistent()

    def test_a_dropped_engine_frees_its_arena_without_the_cycle_collector(
        self, vocab, tokenizer, retrieval_model, documents
    ):
        import gc
        import weakref

        gc.disable()
        try:
            engine = make_engine(vocab, tokenizer, retrieval_model)
            engine.run(request_for(documents["a"], documents["query"], "cocktail"))
            tier = weakref.ref(engine.context_rows)
            del engine
            assert tier() is None
        finally:
            gc.enable()

    def test_no_new_constructor_parameter(self):
        parameters = inspect.signature(EngineCore.__init__).parameters.values()
        assert sum(p.kind is p.KEYWORD_ONLY for p in parameters) == 11


# -- routing keys and the carried plan ---------------------------------------------


class _InsertLog:
    def __init__(self):
        self.hashes: list[str] = []

    def on_insert(self, hashes):
        self.hashes.extend(hashes)

    def on_evict(self, hashes):
        pass


class _CountingEncoder(Encoder):
    def __init__(self, inner: Encoder):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def embed(self, texts):
        return self.inner.embed(texts)

    def similarity(self, query, chunk_texts):
        self.calls += 1
        return self.inner.similarity(query, chunk_texts)


class TestPlanOnceAndRouteKeys:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_route_keys_are_empty_or_what_prepare_publishes(
        self, vocab, tokenizer, retrieval_model, documents, backend
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        log = _InsertLog()
        engine.prefix_cache.add_listener(log)
        request = request_for(documents["a"], documents["query"], backend)
        fingerprint, keys = engine.get_backend(backend).prefix_route_keys(request)
        engine.run(request)
        if backend == "kvquant":
            assert (fingerprint, keys) == (None, [])
        else:
            assert fingerprint is not None and len(keys) == 6
        assert keys == [] or keys == log.hashes
        # The admission probe agrees with the keys, on a non-empty index too.
        pages, plan, route_keys = engine.get_backend(backend).probe_cached_blocks(
            request_for(documents["a"], documents["query"], backend)
        )
        assert pages == len(keys)
        assert (plan is None) == (not keys)
        assert route_keys == (fingerprint, keys)

    def test_kvquant_publishes_pages_it_cannot_be_routed_by(
        self, vocab, tokenizer, retrieval_model, documents
    ):
        """Its plan ranks outliers on the prefilled K rows: the published
        hashes carry FP16 bits no cache-free plan could have produced."""
        engine = make_engine(vocab, tokenizer, retrieval_model)
        log = _InsertLog()
        engine.prefix_cache.add_listener(log)
        cold = engine.run(request_for(documents["a"], documents["query"], "kvquant"))
        assert len(log.hashes) == 6
        assert set(cold.plan.token_bits.tolist()) == {4, 16}
        warm = engine.run(request_for(documents["a"], documents["query"], "kvquant"))
        assert warm.stats.cache_hit_blocks == 6  # prepare still finds its pages
        assert warm.token_ids == cold.token_ids

    def test_a_request_is_planned_once(self, vocab, tokenizer, retrieval_model, documents):
        encoder = _CountingEncoder(get_encoder(CocktailConfig().encoder_name, vocab.lexicon))
        engine = make_engine(vocab, tokenizer, retrieval_model, encoder=encoder)
        requests = [
            request_for(doc, documents["query"], backend)
            for doc in documents["others"]
            for backend in ("cocktail", "dense", "blockwise")
        ]
        for request in requests:  # one at a time: the index is warm from the second on
            engine.run(request)
        assert encoder.calls == len(requests)
