"""Batched decode execution: oracle parity, admission, cancel, retention.

The acceptance bar of the fused decode round: every backend decodes to the
per-request ``oracle``'s tokens — under plain concurrency, under mid-stream
preemption and under pool-exhausted admission rollback — while the engine
runs at most one model forward per round, so it issues at most half a
forward per generated token at batch size 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool
from repro.kvpool.cache import BlockTable
from repro.kvpool.codecs import encode_per_token_groups
from repro.model.decode import BatchedDecodeStep, DecodeSession
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

CHUNK_SIZE = 16

#: Every globally registered backend (the 7-backend parity matrix).
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")

#: The backends whose pages admission can probe ahead of prefill (KVQuant's
#: planner reads the prefilled cache, so its requests carry no page hint).
PROBED_BACKENDS = tuple(b for b in ALL_BACKENDS if b != "kvquant")

#: A four-backend mix for the fused-forward acceptance bar.
BATCHABLE = ("dense", "cocktail", "fp16", "atom")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def make_requests(samples, backends, max_new_tokens=6):
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=backend,
        )
        for sample, backend in zip((samples * 2)[: len(backends)], backends)
    ]


def assert_matches_oracle(engine, requests, results, oracle):
    """Every request decoded to the oracle's tokens and stop reason."""
    for request, result in zip(requests, results):
        token_ids, stopped_by, _ = oracle(engine, request)
        assert (result.token_ids, result.stopped_by) == (token_ids, stopped_by)


class TestOracleParity:
    def test_all_backends_concurrent(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """All 7 backends in one mixed batch decode to the oracle's tokens."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=8)
        requests = make_requests(tiny_samples, ALL_BACKENDS)
        results = engine.run_batch(requests)
        assert_matches_oracle(engine, requests, results, oracle)
        # Every prompt token was either prefilled or copied from the row tier.
        stats = engine.exec_stats
        assert stats.n_prefill_tokens + stats.n_prefill_reused_tokens == sum(
            r.n_prompt_tokens for r in results
        )
        assert engine.exec_stats.n_decode_tokens > 0
        assert engine.exec_stats.n_forward_calls > 0

    def test_batchable_mix_halves_forward_invocations(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Acceptance: at most one forward per round and <= 0.5 forwards per
        token — half of the one forward per token a per-sequence decode
        costs — at the oracle's tokens."""
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=4, prefix_caching=False
        )
        requests = make_requests(tiny_samples * 2, BATCHABLE * 2, max_new_tokens=12)
        results = engine.run_batch(requests)
        stats = engine.exec_stats
        assert stats.forwards_per_token <= 0.5
        assert stats.mean_batch_occupancy >= 2.0
        assert stats.n_forward_calls <= stats.n_steps
        assert_matches_oracle(engine, requests, results, oracle)

    def test_decode_batch_mix_matches_the_oracle(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """The e2e benchmark's decode mix — blockwise included — advances
        only through fused forwards, at the oracle's tokens."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=4)
        requests = make_requests(
            tiny_samples, ("cocktail", "blockwise", "fp16", "atom"), max_new_tokens=12
        )
        results = engine.run_batch(requests)
        assert engine.exec_stats.n_forward_calls > 0
        assert_matches_oracle(engine, requests, results, oracle)

    def test_parity_under_mid_stream_preemption(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """A token budget that forces preemption mid-stream swaps sequences
        out and back without changing a token, and the pool drains."""
        requests = make_requests(tiny_samples, ("dense", "fp16", "cocktail"), 8)
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=3,
            max_live_tokens=budget,
        )
        results = engine.run_batch(requests)
        assert sum(r.stats.n_preemptions for r in results) >= 1
        assert_matches_oracle(engine, requests, results, oracle)
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        engine.pool.assert_consistent()

class TestBatchedDecodeStepUnit:
    """Coordinator semantics over toy step functions (no model involved)."""

    @staticmethod
    def make_session(script, **kwargs):
        """A session whose sequential step returns scripted logits."""
        # Logits favouring token ``t`` are a one-hot at ``t``.
        def logits_for(token):
            row = np.zeros(8, dtype=np.float32)
            row[token] = 1.0
            return row

        calls = []

        def step_fn(token):
            calls.append(token)
            return logits_for(script[len(calls) % len(script)])

        session = DecodeSession(
            step_fn, logits_for(script[0]), max_new_tokens=4, **kwargs
        )
        return session, calls

    def test_fused_commit_matches_sequential_advance(self):
        script = [3, 5, 1, 2]
        fused, sequential = [], []
        for _ in range(3):
            session, _ = self.make_session(script)
            fused.append(session)
            session, _ = self.make_session(script)
            sequential.append(session)

        def step_batch(tokens, payloads):
            return [payload(token) for token, payload in zip(tokens, payloads)]

        # Drive both populations one round at a time until everyone stops.
        while not all(s.finished for s in fused):
            batch = BatchedDecodeStep(step_batch)
            for session in fused:
                if not session.finished:
                    batch.add(session, session._step_fn)
            batch.commit()
            for session in sequential:
                session.advance()
        for fused_session, sequential_session in zip(fused, sequential):
            assert fused_session.generated == sequential_session.generated
            assert fused_session.stopped_by == sequential_session.stopped_by

    def test_terminal_sessions_never_reach_the_fused_forward(self):
        session, _ = self.make_session([7], stop_ids=(7,))
        batch = BatchedDecodeStep(lambda tokens, payloads: [])
        token, needs_forward = batch.add(session)
        assert token is None and not needs_forward
        assert session.stopped_by == "stop_token"
        assert batch.n_pending == 0
        assert batch.commit() == 0  # no forward runs at all

    def test_cache_full_emits_but_skips_forward(self):
        session, calls = self.make_session([3, 5], has_capacity=lambda: False)
        batch = BatchedDecodeStep(lambda tokens, payloads: [])
        token, needs_forward = batch.add(session)
        assert token == 3 and not needs_forward
        assert session.stopped_by == "cache_full"
        assert batch.commit() == 0 and calls == []

    def test_reservation_callback_sees_step_costs(self):
        reserved = []
        session, _ = self.make_session([3, 5])
        session.step_cost = lambda: 1
        batch = BatchedDecodeStep(
            lambda tokens, payloads: [np.zeros(8, dtype=np.float32)],
            reserve=reserved.append,
        )
        batch.add(session)
        assert reserved == [1]
        assert batch.commit() == 1

    def test_mismatched_logits_count_raises(self):
        session, _ = self.make_session([3, 5])
        batch = BatchedDecodeStep(lambda tokens, payloads: [])
        batch.add(session)
        with pytest.raises(RuntimeError, match="logits rows"):
            batch.commit()

    def test_mixed_round_forwards_only_live_sessions(self):
        """One round holding a stopping, a cache-full and two live sessions:
        the fused forward sees only the live tokens and payloads, in the
        order they were added, and each live session gets its own row."""
        stopping, _ = self.make_session([7], stop_ids=(7,))
        full, _ = self.make_session([2, 5], has_capacity=lambda: False)
        first, _ = self.make_session([3, 1])
        second, _ = self.make_session([4, 6])
        seen = []

        def step_batch(tokens, payloads):
            seen.append((list(tokens), list(payloads)))
            rows = np.zeros((len(tokens), 8), dtype=np.float32)
            rows[0, 6], rows[1, 1] = 1.0, 1.0  # swapped on purpose
            return list(rows)

        batch = BatchedDecodeStep(step_batch)
        added = [
            batch.add(session, name)
            for session, name in [
                (first, "first"), (stopping, "stopping"), (full, "full"), (second, "second"),
            ]
        ]
        assert added == [(3, True), (None, False), (2, False), (4, True)]
        assert batch.n_pending == 2
        assert batch.commit() == 2
        assert seen == [([3, 4], ["first", "second"])]
        assert first.begin_step() == (6, True)
        assert second.begin_step() == (1, True)

    def test_commit_empties_the_batch(self):
        session, _ = self.make_session([3, 5])
        calls = []

        def step_batch(tokens, payloads):
            calls.append(tokens)
            return [np.zeros(8, dtype=np.float32)]

        batch = BatchedDecodeStep(step_batch)
        batch.add(session)
        assert batch.commit() == 1
        assert batch.n_pending == 0
        assert batch.commit() == 0
        assert calls == [[3]]

    def test_reservation_skips_free_and_terminal_steps(self):
        """Only a queued forward with a nonzero page cost is reserved."""
        reserved = []
        free, _ = self.make_session([3, 5])
        free.step_cost = lambda: 0
        stopping, _ = self.make_session([7], stop_ids=(7,))
        stopping.step_cost = lambda: 1
        full, _ = self.make_session([2, 5], has_capacity=lambda: False)
        full.step_cost = lambda: 1
        unprobed, _ = self.make_session([4, 5])
        batch = BatchedDecodeStep(
            lambda tokens, payloads: [np.zeros(8, dtype=np.float32)] * len(tokens),
            reserve=reserved.append,
        )
        for session in (free, stopping, full, unprobed):
            batch.add(session)
        assert reserved == []
        assert batch.commit() == 2


class TestModelBatchedForward:
    def test_decode_step_batch_matches_decode_step(self, retrieval_model, tokenizer):
        model = retrieval_model
        prompts = [
            tokenizer.encode(["the"] * n + ["<sep>", "the"]) for n in (20, 35, 50)
        ]
        sequential_caches, batched_caches = [], []
        for prompt in prompts:
            for caches in (sequential_caches, batched_caches):
                cache = model.new_cache()
                model.prefill(prompt, cache)
                caches.append(cache)
        tokens = [3, 5, 7]
        for _ in range(3):
            fused = model.decode_step_batch(tokens, batched_caches)
            for i, token in enumerate(tokens):
                reference = model.decode_step(token, sequential_caches[i])
                np.testing.assert_array_equal(fused[i], reference)
            tokens = [int(np.argmax(row)) % tokenizer.vocab_size for row in fused]
        for sequential, batched in zip(sequential_caches, batched_caches):
            assert sequential.length == batched.length

    def test_decode_step_batch_validates_inputs(self, retrieval_model, tokenizer):
        model = retrieval_model
        assert model.decode_step_batch([], []) == []
        cache = model.new_cache()
        model.prefill(tokenizer.encode(["the", "<sep>", "the"]), cache)
        with pytest.raises(ValueError, match="caches"):
            model.decode_step_batch([1, 2], [cache])
        full = model.new_cache(capacity=3)
        model.prefill(tokenizer.encode(["the", "<sep>", "the"]), full)
        with pytest.raises(ValueError, match="does not fit"):
            model.decode_step_batch([1], [full])

    def test_next_token_block_cost(self, retrieval_model, tokenizer):
        """The page a decode row will claim: 0 while its page has room."""
        config = retrieval_model.config
        pool = BlockPool(config.n_layers, config.n_kv_heads, config.head_dim, block_size=8)
        cache = retrieval_model.new_cache(pool=pool)
        retrieval_model.prefill(tokenizer.encode(["the"] * 5 + ["<sep>", "the"]), cache)
        assert cache.next_token_block_cost() == 0  # row 8 fits the first page
        retrieval_model.decode_step(3, cache)
        assert cache.next_token_block_cost() == 1  # row 9 opens a second page
        blocks = pool.n_allocated
        retrieval_model.decode_step(3, cache)
        assert pool.n_allocated == blocks + 1
        assert cache.next_token_block_cost() == 0
        cache.release()

    @pytest.mark.parametrize("block_size", [4, 8, 16])
    def test_next_token_block_cost_walks_page_edges(
        self, retrieval_model, tokenizer, block_size
    ):
        """Over 40 decode rows, a row costs one page exactly when the
        cache's pages are full, and the pool grows by that cost."""
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim, block_size=block_size
        )
        cache = retrieval_model.new_cache(pool=pool)
        retrieval_model.prefill(tokenizer.encode(["the"] * 9 + ["<sep>", "the"]), cache)
        costs = []
        for _ in range(40):
            cost = cache.next_token_block_cost()
            assert cost == (cache.length % block_size == 0)
            before = pool.n_allocated
            retrieval_model.decode_step(3, cache)
            assert pool.n_allocated == before + cost
            costs.append(cost)
        assert sum(costs) == -(-cache.length // block_size) - -(-11 // block_size)
        cache.release()
        assert pool.n_allocated == 0


class TestGatherContextMemo:
    def make_pool_cache(self, retrieval_model):
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim, block_size=8
        )
        return pool, retrieval_model.new_cache(pool=pool)

    def test_context_decode_is_fresh_and_matches_the_mirrors(
        self, retrieval_model, tokenizer
    ):
        pool, cache = self.make_pool_cache(retrieval_model)
        prompt = tokenizer.encode(["the"] * 30 + ["<sep>", "the"])
        retrieval_model.prefill(prompt, cache)
        cache.mark_context(30)
        k1, v1 = cache.gather_context(0)
        # Full pages inside the context only: 30 // 8 pages of 8 rows.
        assert k1.shape[0] == (30 // 8) * 8
        k2, v2 = cache.gather_context(0)
        assert k2 is not k1 and v2 is not v1  # a plain decoder: no memo
        np.testing.assert_array_equal(k2, k1)
        np.testing.assert_array_equal(v2, v1)
        full_k, full_v = cache.gather_layer(0)
        np.testing.assert_array_equal(full_k[: k1.shape[0]], k1)
        np.testing.assert_array_equal(full_v[: v1.shape[0]], v1)
        # Decode appends touch only the tail: the context rows are unchanged
        # in both the decoder's output and the mirrors decode reads.
        retrieval_model.decode_step(3, cache)
        k3, _ = cache.gather_context(0)
        np.testing.assert_array_equal(k3, k1)
        k_t, v_t = cache.layer_mirrors(0)
        assert k_t.shape[2] == len(prompt) + 1
        np.testing.assert_array_equal(k_t[:, :, : k1.shape[0]], k1.transpose(1, 2, 0))
        np.testing.assert_array_equal(v_t[:, : v1.shape[0]], v1.transpose(1, 0, 2))
        cache.release()

    def test_memo_invalidated_by_context_writes(self, retrieval_model, tokenizer):
        pool, cache = self.make_pool_cache(retrieval_model)
        prompt = tokenizer.encode(["the"] * 30 + ["<sep>", "the"])
        retrieval_model.prefill(prompt, cache)
        cache.mark_context(30)
        k1, v1 = cache.gather_context(0)
        token_bits = np.full(30, 4, dtype=np.int64)
        encodings = [
            encode_per_token_groups(
                layer.keys()[:30], layer.values()[:30], token_bits, cache.head_dim
            )
            for layer in cache.layers
        ]
        cache.pack_context(encodings)
        k2, _ = cache.gather_context(0)
        assert k2 is not k1
        k_enc = encodings[0][0]
        np.testing.assert_array_equal(
            k2, k_enc.codecs[4].decode(k_enc.codes, k_enc.meta)[: k2.shape[0]]
        )
        cache.release()

    def test_memo_shared_pages_survive_swap_round_trip(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """End-to-end: a swap/preempt-heavy engine still decodes correctly
        (the memo keys on (block id, version), so restored host pages under
        fresh ids re-gather)."""
        sample = tiny_samples[0]
        requests = [
            GenerationRequest(
                sample.context_words, sample.query_words, max_new_tokens=8,
                backend="dense",
            )
            for _ in range(2)
        ]
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=2, max_live_tokens=budget
        )
        results = engine.run_batch(requests)
        assert results[1].stats.n_swap_ins >= 1
        assert results[0].token_ids == results[1].token_ids


class TestCancel:
    def submit_all(self, engine, samples, backends, max_new_tokens=6):
        return [
            engine.submit(request)
            for request in make_requests(samples, backends, max_new_tokens)
        ]

    def test_cancel_waiting_request(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=1)
        first, queued = self.submit_all(engine, tiny_samples, ("dense", "fp16"))
        engine.step()
        assert engine.n_waiting == 1
        event = engine.cancel(queued)
        assert event.is_last and event.stopped_by == "cancelled"
        assert event.request_id == queued and event.index == 0
        result = engine.result(queued)
        assert result.stopped_by == "cancelled" and result.token_ids == []
        # The surviving request is unaffected.
        while engine.has_pending:
            engine.step()
        assert engine.result(first).stopped_by != "cancelled"

    def test_cancel_running_request_releases_pages_mid_stream(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=4)
        rids = self.submit_all(
            engine, tiny_samples, ("dense", "blockwise", "kivi", "fp16"), 12
        )
        for _ in range(3):
            engine.step()
        streamed = {rid: engine._states[rid].n_emitted for rid in rids}
        events = [engine.cancel(rid) for rid in rids]
        assert all(e.stopped_by == "cancelled" for e in events)
        assert not engine.has_pending
        for rid in rids:
            result = engine.result(rid)
            assert result.stopped_by == "cancelled"
            assert len(result.token_ids) == streamed[rid] > 0
            assert result.stats.n_generated == streamed[rid]
        # Pool-drain invariant: only prefix-index retention survives.
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        assert engine.pool.allocated_bytes() == 0
        engine.pool.assert_consistent()

    def test_cancel_swapped_out_request(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        requests = make_requests(tiny_samples, ("dense", "dense"), 8)
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=2, max_live_tokens=budget
        )
        rids = [engine.submit(r) for r in requests]
        victim = None
        for _ in range(40):
            engine.step()
            state = engine._states.get(rids[1])
            if state is not None and state.swapped:
                victim = rids[1]
                break
        assert victim is not None, "budget never forced a swap preemption"
        engine.cancel(victim)
        while engine.has_pending:
            engine.step()
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        assert engine.pool.allocated_bytes() == 0

    def test_cancel_error_cases(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        with pytest.raises(KeyError, match="unknown"):
            engine.cancel("nope")
        (rid,) = self.submit_all(engine, tiny_samples[:1], ("dense",), 2)
        while engine.has_pending:
            engine.step()
        with pytest.raises(ValueError, match="finished"):
            engine.cancel(rid)


class TestResultRetention:
    def test_run_batch_pops_by_default(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        requests = make_requests(tiny_samples, ("dense", "fp16"), 3)
        results = engine.run_batch(requests)
        assert len(results) == 2
        assert engine._results == {}
        with pytest.raises(KeyError):
            engine.result(results[0].request_id)
        # pop=False keeps them readable.
        kept = engine.run_batch(make_requests(tiny_samples, ("dense",), 3), pop=False)
        assert engine.result(kept[0].request_id).token_ids == kept[0].token_ids

    def test_pop_results_drains_everything(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        rids = [
            engine.submit(r) for r in make_requests(tiny_samples, ("dense", "fp16"), 3)
        ]
        while engine.has_pending:
            engine.step()
        drained = engine.pop_results()
        assert sorted(drained) == sorted(rids)
        assert engine.pop_results() == {}
        with pytest.raises(KeyError):
            engine.result(rids[0])


class TestOneShotAdmission:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_prefill_claims_no_pool_page_before_prepare(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle, backend
    ):
        """Admission lives in the job's scratch cache until ``prepare``: the
        whole prompt is prefilled in the admitting step, and the pool does
        not move before the backend builds the stored cache."""
        engine = make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False)
        (request,) = make_requests(tiny_samples[:1], (backend,))
        seen = []
        backend_impl = engine.get_backend(backend)
        prepare = backend_impl.prepare

        def watched_prepare(req, job):
            seen.append(
                (
                    job.cache.length,
                    engine.pool.n_allocated,
                    engine.pool.peak_allocated_blocks,
                )
            )
            return prepare(req, job)

        backend_impl.prepare = watched_prepare
        rid = engine.submit(request)
        engine.step()
        assert seen == [(request.n_prompt_tokens, 0, 0)]
        assert engine.n_running == 1
        assert engine.pool.n_allocated > 0  # prepared: now it holds pages
        while engine.has_pending:
            engine.step()
        assert len(seen) == 1
        result = engine.result(rid)
        token_ids, stopped_by, _ = oracle(engine, request)
        assert (result.token_ids, result.stopped_by) == (token_ids, stopped_by)
        assert engine.pool.n_allocated == 0
        engine.pool.assert_consistent()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pool_exhausted_at_prepare_leaves_pool_drained(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        """A lone request whose prompt cannot fit the pool is a hard error —
        raised by ``prepare`` after the prefill, with every page it had
        claimed released before it propagates."""
        from repro.kvpool.pool import PoolExhausted

        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers,
            config.n_kv_heads,
            config.head_dim,
            block_size=16,
            capacity_blocks=2,  # the prompt needs several pages more
        )
        engine = make_engine(
            vocab, tokenizer, retrieval_model, pool=pool, prefix_caching=False
        )
        rid = engine.submit(
            GenerationRequest(
                tiny_samples[0].context_words,
                tiny_samples[0].query_words,
                max_new_tokens=2,
                backend=backend,
            )
        )
        with pytest.raises(PoolExhausted):
            while engine.has_pending:
                engine.step()
        assert pool.n_allocated == 0
        assert pool.allocated_bytes() == 0
        pool.assert_consistent()
        # The request returned to the queue in a consistent state: a caller
        # that catches the error can still cancel it cleanly.
        engine.cancel(rid)
        assert not engine.has_pending

    @pytest.mark.parametrize("backend", PROBED_BACKENDS)
    def test_pool_exhausted_second_head_returns_to_the_queue_front(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle, backend
    ):
        """A head whose ``prepare`` runs out of pages while another sequence
        decodes rolls back: its pages are released, it waits at the queue
        front ahead of the head behind it, and it is served later."""
        config = retrieval_model.config
        block_size = 16

        def request(sample, n_context, max_new_tokens):
            return GenerationRequest(
                sample.context_words[:n_context],
                sample.query_words,
                max_new_tokens=max_new_tokens,
                backend=backend,
            )

        long = request(tiny_samples[0], None, 2)
        long_pages = BlockTable.blocks_for_tokens(
            long.n_prompt_tokens + long.max_new_tokens, block_size
        )
        # Room for the long request alone, not beside a decoding one.
        pool = BlockPool(
            config.n_layers,
            config.n_kv_heads,
            config.head_dim,
            block_size=block_size,
            capacity_blocks=long_pages + 1,
        )
        engine = make_engine(vocab, tokenizer, retrieval_model, pool=pool)
        assert not engine.get_backend(backend).quantizer.plan_reads_cache
        # A cold run leaves the long context's pages in the prefix index, so
        # the repeat's admission probe counts them as adoptable.
        engine.run(request(tiny_samples[0], None, 2))
        decoding = engine.submit(request(tiny_samples[1], 16, 24))
        engine.step()
        assert engine.n_running == 1
        rolled_back = engine.submit(long)
        behind = engine.submit(request(tiny_samples[2], 16, 2))
        hint = engine._states[rolled_back].cached_blocks_hint
        assert hint == len(long.context_words) // block_size
        # The index loses those pages before admission: the probe's hint is
        # now stale and only ``prepare`` finds out that the pages are gone.
        engine.prefix_cache.clear()
        assert pool.n_free_blocks < BlockTable.blocks_for_tokens(
            long.n_prompt_tokens, block_size
        )
        held = engine._states[decoding].prepared.cache.n_blocks
        prefilled = engine.exec_stats.n_prefill_tokens
        engine.step()
        assert [s.request_id for s in engine.scheduler.waiting] == [
            rolled_back,
            behind,
        ]
        assert engine.request_stats(rolled_back).n_preemptions == 1
        assert engine.request_stats(rolled_back).n_swap_outs == 0
        assert engine._states[rolled_back].prepared is None
        assert engine.n_running == 1
        # Only the decoding sequence holds pages (plus what the index kept).
        assert pool.n_allocated == (
            engine._states[decoding].prepared.cache.n_blocks
            + engine.prefix_cache.n_blocks
        )
        assert engine._states[decoding].prepared.cache.n_blocks >= held
        engine.assert_consistent()
        # The rollback re-peeks the index: the head is charged for the pages
        # it lost and waits until they fit, instead of being prefilled and
        # rolled back again on every step.
        assert engine._states[rolled_back].cached_blocks_hint == 0
        while engine.has_pending:
            engine.step()
        served = engine.result(rolled_back)
        assert served.stats.n_preemptions <= 2
        assert (
            engine.exec_stats.n_prefill_tokens - prefilled
            <= 2 * long.n_prompt_tokens + engine.result(behind).n_prompt_tokens
        )
        token_ids, stopped_by, _ = oracle(engine, long)
        assert (served.token_ids, served.stopped_by) == (token_ids, stopped_by)
        assert served.stats.scheduled_at <= engine.result(behind).stats.scheduled_at
        engine.assert_consistent()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_warm_prefix_admission_adopts_pages(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        """Admission through the scratch path: the warm repeat adopts the
        cold request's packed pages and decodes the same tokens."""
        engine = make_engine(vocab, tokenizer, retrieval_model)
        sample = tiny_samples[2]

        def run_once():
            return engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend=backend,
                )
            )

        cold, warm = run_once(), run_once()
        assert warm.token_ids == cold.token_ids
        assert warm.stats.cache_hit_blocks > 0
