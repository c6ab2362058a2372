"""Batched decode execution: oracle parity, chunked prefill, cancel, retention.

The acceptance bar of the fused decode round: every backend decodes to the
per-request ``oracle``'s tokens — under plain concurrency, under mid-stream
preemption and under chunked-prefill admission — while the engine runs at
most one model forward per round, so it issues at most half a forward per
generated token at batch size 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool
from repro.kvpool.codecs import encode_per_token_groups
from repro.model.attention import PREFILL_TILE
from repro.model.decode import BatchedDecodeStep, DecodeSession
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

CHUNK_SIZE = 16

#: Every globally registered backend (the 7-backend parity matrix).
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")

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
        # Unmetered: one prefill pass per request, and the engine total
        # (``/v1/stats`` ``n_prefill_chunks``) counts every one of them.
        assert [r.stats.n_prefill_chunks for r in results] == [1] * len(results)
        assert engine.exec_stats.n_prefill_chunks == len(results)
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

    def test_parity_under_chunked_prefill(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Chunked admission (prompts metered over several steps): the
        oracle's tokens, and the chunking itself is visible in the
        per-request stats."""
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=8,
            max_prefill_tokens_per_step=48,
        )
        requests = make_requests(tiny_samples, ALL_BACKENDS)
        results = engine.run_batch(requests)
        assert_matches_oracle(engine, requests, results, oracle)
        assert min(r.stats.n_prefill_chunks for r in results) > 1
        # One increment site: the engine total is the per-request sum.
        assert engine.exec_stats.n_prefill_chunks == sum(
            r.stats.n_prefill_chunks for r in results
        )
        assert engine.exec_stats.n_prefill_tokens == sum(
            r.n_prompt_tokens for r in results
        )


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

    @pytest.mark.parametrize("backend", ("dense", "blockwise"))
    def test_cancel_prefilling_request(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=2,
            max_prefill_tokens_per_step=16,
            prefix_caching=False,
        )
        (rid,) = self.submit_all(engine, tiny_samples[:1], (backend,))
        engine.step()
        assert engine.n_prefilling == 1
        assert engine._states[rid].live_tokens() == 16  # scratch rows pinned
        assert engine.pool.n_allocated == 0  # ...none of them in the pool
        event = engine.cancel(rid)
        assert event.stopped_by == "cancelled"
        assert engine.pool.n_allocated == 0
        assert engine.pool.allocated_bytes() == 0
        assert not engine.has_pending

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


class TestChunkedPrefill:
    def test_long_prompt_prefills_across_steps_while_others_decode(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """The satellite claim: a long arrival no longer stalls the round."""
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=4,
            max_prefill_tokens_per_step=32,
        )
        short = GenerationRequest(
            tiny_samples[0].context_words[:16],
            tiny_samples[0].query_words,
            max_new_tokens=24,
            backend="dense",
        )
        short_rid = engine.submit(short)
        engine.step()  # short admits (prompt <= budget) and decodes
        long_rid = engine.submit(
            GenerationRequest(
                tiny_samples[1].context_words,
                tiny_samples[1].query_words,
                max_new_tokens=4,
                backend="dense",
            )
        )
        interleaved = 0
        while not engine.is_finished(long_rid):
            events = engine.step()
            if engine.n_prefilling and any(
                e.request_id == short_rid and e.token_id is not None for e in events
            ):
                interleaved += 1
        assert interleaved >= 2, "short request must keep decoding during the prefill"
        while engine.has_pending:
            engine.step()
        long_result = engine.result(long_rid)
        assert long_result.stats.n_prefill_chunks > 1
        # The metered prefill produced the exact same answer a one-shot does.
        reference = make_engine(vocab, tokenizer, retrieval_model).run(
            GenerationRequest(
                tiny_samples[1].context_words,
                tiny_samples[1].query_words,
                max_new_tokens=4,
                backend="dense",
            )
        )
        assert long_result.token_ids == reference.token_ids

    @pytest.mark.parametrize("budget", [48, PREFILL_TILE, 200])
    def test_every_chunking_emits_the_one_shot_tokens(
        self, vocab, tokenizer, retrieval_model, tiny_samples, budget
    ):
        """The tiled prefill kernel reorders float32 sums with the chunk
        boundaries (under, at and over one tile here), so outputs
        may differ in the last bits — the emitted tokens may not."""
        backends = ("cocktail", "dense", "fp16", "kivi")
        requests = make_requests(tiny_samples, backends, max_new_tokens=8)
        one_shot = make_engine(vocab, tokenizer, retrieval_model).run_batch(requests)
        chunked = make_engine(
            vocab, tokenizer, retrieval_model, max_prefill_tokens_per_step=budget
        ).run_batch(make_requests(tiny_samples, backends, max_new_tokens=8))
        assert min(r.n_prompt_tokens for r in chunked) > 2 * PREFILL_TILE
        assert min(r.stats.n_prefill_chunks for r in chunked) > 1
        assert [r.token_ids for r in chunked] == [r.token_ids for r in one_shot]

    @pytest.mark.parametrize("backend", ("cocktail", "kvquant", "blockwise"))
    def test_prefill_claims_no_pool_page_before_prepare(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend
    ):
        """A metered admission lives in its scratch cache: the pool does not
        move until the step whose ``prepare`` builds the stored cache."""
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_prefill_tokens_per_step=64,
            prefix_caching=False,
        )
        (request,) = make_requests(tiny_samples[:1], (backend,))
        rid = engine.submit(request)
        engine.step()
        n_waiting_steps = 0
        while engine.n_prefilling:
            assert engine.pool.n_allocated == 0
            assert engine.pool.peak_allocated_blocks == 0
            assert engine.scheduler.live_tokens() == 64 * (n_waiting_steps + 1)
            n_waiting_steps += 1
            engine.step()
        assert n_waiting_steps > 1
        assert engine.pool.n_allocated > 0  # prepared: now it holds pages
        while engine.has_pending:
            engine.step()
        assert engine.result(rid).token_ids
        assert engine.pool.n_allocated == 0

    def test_pause_mid_prefill_drops_the_scratch_and_restarts(
        self, vocab, tokenizer, retrieval_model, tiny_samples, backend="blockwise"
    ):
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_prefill_tokens_per_step=64,
            prefix_caching=False,
        )
        (request,) = make_requests(tiny_samples[:1], (backend,))
        rid = engine.submit(request)
        engine.step()
        engine.step()
        assert engine.n_prefilling == 1
        engine.pause(rid)
        assert engine.pool.n_allocated == 0
        assert engine.scheduler.live_tokens() == 0
        assert not engine.has_runnable
        engine.resume(rid)
        while engine.has_pending:
            engine.step()
        (reference,) = make_engine(vocab, tokenizer, retrieval_model).run_batch(
            make_requests(tiny_samples[:1], (backend,))
        )
        assert engine.result(rid).token_ids == reference.token_ids
        assert engine.pool.n_allocated == 0

    def test_budget_validation(self, vocab, tokenizer, retrieval_model):
        with pytest.raises(ValueError, match="max_prefill_tokens_per_step"):
            make_engine(
                vocab, tokenizer, retrieval_model, max_prefill_tokens_per_step=0
            )

    @pytest.mark.parametrize("budget", [16, None])
    def test_pool_exhausted_at_prepare_leaves_pool_drained(
        self, vocab, tokenizer, retrieval_model, tiny_samples, budget
    ):
        """A lone request whose prompt cannot fit the pool is a hard error —
        raised by ``prepare`` once the prefill (metered or not) is done, with
        every page it had claimed released before it propagates."""
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
            vocab,
            tokenizer,
            retrieval_model,
            pool=pool,
            max_prefill_tokens_per_step=budget,
            prefix_caching=False,
        )
        rid = engine.submit(
            GenerationRequest(
                tiny_samples[0].context_words,
                tiny_samples[0].query_words,
                max_new_tokens=2,
                backend="dense",
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

    def test_warm_prefix_chunked_prefill_still_adopts_pages(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Chunked admission through the scratch path: the warm repeat both
        meters its prefill and adopts the cold request's packed pages."""
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_prefill_tokens_per_step=48,
        )
        sample = tiny_samples[2]

        def run_once():
            return engine.run(
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=4,
                    backend="dense",
                )
            )

        cold, warm = run_once(), run_once()
        assert warm.token_ids == cold.token_ids
        assert warm.stats.cache_hit_blocks > 0
        assert warm.stats.n_prefill_chunks > 1
