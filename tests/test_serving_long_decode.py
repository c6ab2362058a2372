"""Long greedy decodes that run through their stop tokens.

Most serving tests stop within a few tokens.  Here every request decodes
its whole budget (``stop_on_special=False``, 12-32 tokens), so decode rows
fill their pages and claim new ones mid-stream from the shared pool.  Each
test drives one piece of shared serving code through that regime and
checks tokens against the per-request ``oracle`` or an unpressured engine:
mid-stream preemption, warm prefix hits, the fitted KIVI/KVQuant codecs,
cancellation and a starved bounded pool.  ``TestLongDecodePerBackend``
repeats each regime with every sequence on one backend, plus a homogeneous
fused batch and seeded top-k sampling.
"""

from __future__ import annotations

import pytest

from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest, SamplingParams

CHUNK_SIZE = 16

#: Every globally registered backend.
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def make_requests(samples, backends, max_new_tokens=24):
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=backend,
            stop_on_special=False,
        )
        for sample, backend in zip((samples * 2)[: len(backends)], backends)
    ]


def outcome(result):
    stats = result.stats
    return (
        result.token_ids,
        result.stopped_by,
        stats.n_generated,
        stats.cached_tokens,
        stats.cache_hit_blocks,
    )


def assert_matches_oracle(engine, requests, results, oracle):
    for request, result in zip(requests, results):
        token_ids, stopped_by, _ = oracle(engine, request)
        assert (result.token_ids, result.stopped_by) == (token_ids, stopped_by)


def assert_pool_drains(engine):
    """Only the prefix index holds pages; clearing it empties the pool."""
    if engine.prefix_cache is not None:
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
    assert engine.pool.n_allocated == 0
    assert engine.pool.allocated_bytes() == 0
    engine.pool.assert_consistent()


class TestLongDecodeParity:
    def test_all_backends_concurrent(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=8)
        requests = make_requests(tiny_samples, ALL_BACKENDS)
        results = engine.run_batch(requests)
        assert_matches_oracle(engine, requests, results, oracle)
        assert all(r.stats.n_generated == 24 for r in results)
        assert engine.exec_stats.n_decode_tokens == 24 * len(requests)
        assert_pool_drains(engine)

    def test_parity_under_mid_stream_preemption(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        requests = make_requests(tiny_samples, ("dense", "fp16", "cocktail"), 16)
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=3, max_live_tokens=budget
        )
        results = engine.run_batch(requests)
        assert sum(r.stats.n_preemptions for r in results) >= 1
        assert_matches_oracle(engine, requests, results, oracle)
        assert_pool_drains(engine)

    def test_warm_prefix_hits_decode_like_a_cold_engine(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """A warm repeat adopts shared packed pages, then decodes 24 tokens
        past them exactly as an engine without prefix caching does."""
        engine = make_engine(vocab, tokenizer, retrieval_model)
        reference = make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False)

        def serve(target):
            results = target.run_batch(
                make_requests(tiny_samples[:2], ("dense", "cocktail"))
            )
            return [r.token_ids for r in results], [outcome(r) for r in results]

        cold, _ = serve(engine)
        warm, warm_outcomes = serve(engine)
        expected, _ = serve(reference)
        assert cold == warm == expected
        assert all(hit_blocks > 0 for *_, hit_blocks in warm_outcomes)


class TestFittedCodecsLongDecode:
    """KIVI and KVQuant pages carry per-request fitted scales and codebooks;
    each page decodes with its own codec, so both fuse into the shared
    forward and match the oracle over long decodes."""

    def test_fitted_batch_fuses_and_matches_the_oracle(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=4)
        requests = make_requests(
            tiny_samples, ("kivi", "kvquant", "kivi", "kvquant"), max_new_tokens=32
        )
        results = engine.run_batch(requests)
        assert engine.exec_stats.mean_batch_occupancy > 1.0
        assert_matches_oracle(engine, requests, results, oracle)


class TestLongDecodeCancellation:
    def test_cancel_mid_stream_drains_the_pool(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Cancelling every backend's request mid-stream releases every page,
        including the decode pages claimed after admission."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=8)
        rids = [
            engine.submit(request)
            for request in make_requests(tiny_samples, ALL_BACKENDS, 32)
        ]
        for _ in range(20):
            engine.step()
        streamed = {rid: engine._states[rid].n_emitted for rid in rids}
        assert all(n > 0 for n in streamed.values())
        events = [engine.cancel(rid) for rid in rids]
        assert all(e.stopped_by == "cancelled" for e in events)
        for rid in rids:
            result = engine.result(rid)
            assert result.stopped_by == "cancelled"
            assert len(result.token_ids) == streamed[rid]
        assert_pool_drains(engine)


def serve_starved(vocab, tokenizer, model, samples, backends, capacity_blocks):
    """Serve two 56-word-context requests over a pool of ``capacity_blocks``
    pages (unbounded when ``None``); returns their outcomes and preemptions."""
    config = model.config
    pool = None
    if capacity_blocks:
        pool = BlockPool(
            config.n_layers,
            config.n_kv_heads,
            config.head_dim,
            block_size=16,
            capacity_blocks=capacity_blocks,
        )
    engine = make_engine(
        vocab, tokenizer, model, max_running=2, pool=pool, prefix_caching=False
    )
    results = engine.run_batch(
        [
            GenerationRequest(
                sample.context_words[:56],
                sample.query_words,
                max_new_tokens=12,
                backend=backend,
                stop_on_special=False,
            )
            for sample, backend in zip(samples[:2], backends)
        ]
    )
    assert_pool_drains(engine)
    preemptions = sum(r.stats.n_preemptions for r in results)
    return [outcome(r) for r in results], preemptions


class TestLongDecodeUnderPoolPressure:
    def test_bounded_pool_matches_the_unbounded_engine(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Both sequences are admitted into a 10-page pool (their peak
        unbounded is 10 pages), so a decode row finds it full mid-stream and
        a sequence is swapped out; the streams still equal an unbounded
        engine's and no page leaks."""
        args = (vocab, tokenizer, retrieval_model, tiny_samples, ("dense", "fp16"))
        reference, _ = serve_starved(*args, None)
        bounded, preemptions = serve_starved(*args, 10)
        assert bounded == reference
        assert preemptions >= 1


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestLongDecodePerBackend:
    """Each backend alone over full budgets: its own fused batch, sampled
    streams, mid-stream preemption, warm prefix hits, a cancelled neighbour
    and a starved pool."""

    def test_homogeneous_batch_fuses_and_matches_the_oracle(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Three sequences of one backend decode 24 tokens each in 24
        rounds of one three-row forward."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=3)
        requests = make_requests(tiny_samples, (backend,) * 3)
        results = engine.run_batch(requests)
        assert_matches_oracle(engine, requests, results, oracle)
        stats = engine.exec_stats
        assert stats.n_decode_tokens == 3 * 24
        assert stats.n_forward_calls == 24
        assert stats.mean_batch_occupancy == 3.0
        assert_pool_drains(engine)

    def test_sampled_streams_match_the_oracle(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Top-k sampled requests draw their own seeded streams inside the
        fused round, beside a greedy neighbour, for the whole budget."""
        samplings = (
            SamplingParams(top_k=4, temperature=0.9, seed=3),
            SamplingParams(top_k=8, temperature=1.3, seed=5),
            SamplingParams(),
        )
        requests = [
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=24,
                backend=backend,
                stop_on_special=False,
                sampling=sampling,
            )
            for sample, sampling in zip(tiny_samples, samplings)
        ]
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=3)
        results = engine.run_batch(requests)
        assert_matches_oracle(engine, requests, results, oracle)
        assert all(r.stats.n_generated == 24 for r in results)
        assert engine.exec_stats.mean_batch_occupancy == 3.0
        assert_pool_drains(engine)

    def test_mid_stream_preemption_matches_the_oracle(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        requests = make_requests(tiny_samples, (backend,) * 3, 16)
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        engine = make_engine(
            vocab, tokenizer, retrieval_model, max_running=3, max_live_tokens=budget
        )
        results = engine.run_batch(requests)
        assert sum(r.stats.n_preemptions for r in results) >= 1
        assert_matches_oracle(engine, requests, results, oracle)
        assert all(r.stats.n_generated == 16 for r in results)
        assert_pool_drains(engine)

    def test_warm_prefix_hits_decode_like_a_cold_engine(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model)
        reference = make_engine(vocab, tokenizer, retrieval_model, prefix_caching=False)

        def serve(target):
            results = target.run_batch(make_requests(tiny_samples[:2], (backend,) * 2))
            return [r.token_ids for r in results], [outcome(r) for r in results]

        cold, _ = serve(engine)
        warm, warm_outcomes = serve(engine)
        expected, _ = serve(reference)
        assert cold == warm == expected
        assert all(hit_blocks > 0 for *_, hit_blocks in warm_outcomes)
        assert_pool_drains(engine)

    def test_cancelled_neighbour_leaves_the_survivor_on_the_oracle(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        """Cancelling one of two fused sequences 10 rounds in keeps what it
        streamed (a prefix of its oracle tokens) and does not move one token
        of the sequence that runs on."""
        engine = make_engine(vocab, tokenizer, retrieval_model, max_running=2)
        requests = make_requests(tiny_samples, (backend,) * 2, 32)
        victim, survivor = (engine.submit(request) for request in requests)
        for _ in range(10):
            engine.step()
        event = engine.cancel(victim)
        assert event.stopped_by == "cancelled"
        while engine.has_pending:
            engine.step()
        cancelled = engine.result(victim)
        expected, _, _ = oracle(engine, requests[0])
        assert 0 < len(cancelled.token_ids) < 32
        assert cancelled.token_ids == expected[: len(cancelled.token_ids)]
        token_ids, stopped_by, _ = oracle(engine, requests[1])
        finished = engine.result(survivor)
        assert (finished.token_ids, finished.stopped_by) == (token_ids, stopped_by)
        assert_pool_drains(engine)

    def test_starved_pool_matches_the_unbounded_engine(
        self, backend, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """The 10-page pool of ``TestLongDecodeUnderPoolPressure`` with both
        sequences on one backend: a decode row finds it full, a sequence
        swaps, and the streams still equal an unbounded engine's."""
        args = (vocab, tokenizer, retrieval_model, tiny_samples, (backend,) * 2)
        reference, _ = serve_starved(*args, None)
        bounded, preemptions = serve_starved(*args, 10)
        assert bounded == reference
        assert preemptions >= 1
