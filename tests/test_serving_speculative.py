"""Speculative decoding: n-gram drafting, fused verify, rollback, parity.

The acceptance bar of the speculative subsystem: with ``speculative=``
configured, every backend produces **bit-identical** token streams and
final token counts to the plain greedy engine — under plain concurrency,
mid-stream preemption, prefix-cache warm hits and cancellation — while
the engine measurably issues fewer target-model forwards per generated
token.  Greedy verification is exact; drafting can
only ever change *how many forwards run*, never what they compute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CocktailConfig
from repro.kvpool import BlockPool
from repro.model.decode import BatchedDecodeStep, DecodeSession
from repro.profiling import StepProfiler
from repro.serving import backends as backends_module
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest, SamplingParams
from repro.serving.spec import (
    DraftProposer,
    NgramProposer,
    SpeculativeConfig,
    create_proposer,
    proposer_names,
    register_proposer,
)

CHUNK_SIZE = 16

#: Every globally registered backend (the 7-backend parity matrix).
ALL_BACKENDS = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")

#: Backends whose prepared sequences can run speculative verify steps:
#: every backend that decodes over a plain model cache (all of them).
SPEC_CAPABLE = ("dense", "cocktail", "blockwise", "fp16", "atom", "kivi", "kvquant")


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(chunk_size=CHUNK_SIZE),
        lexicon=vocab.lexicon,
        **kwargs,
    )


def make_requests(samples, backends, max_new_tokens=24, **kwargs):
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=backend,
            # Greedy decoding of the sim models settles into short cycles;
            # decoding through the stop tokens makes the workload the
            # self-similar text prompt lookup accepts at high rates.
            stop_on_special=False,
            **kwargs,
        )
        for sample, backend in zip((samples * 2)[: len(backends)], backends)
    ]


def outcome(result):
    """The per-request outcome speculation must not change."""
    stats = result.stats
    return (
        result.token_ids,
        result.stopped_by,
        stats.n_generated,
        stats.cached_tokens,
        stats.cache_hit_blocks,
    )


class TestNgramProposer:
    def test_continues_a_cycle(self):
        proposer = NgramProposer(k=4, max_ngram=3)
        history = [9, 1, 2, 3, 1, 2, 3, 1, 2, 3]
        # The suffix [1,2,3] last recurred at index 4; what followed it (the
        # next cycle period, clipped at the history end) is the draft.
        assert proposer.propose(history, 4) == [1, 2, 3]
        assert proposer.propose(history + [1], 4) == [2, 3, 1]

    def test_prompt_lookup_across_the_prompt(self):
        """The suffix may match deep inside the prompt, not just the tail."""
        proposer = NgramProposer(k=3, max_ngram=2)
        history = [5, 6, 7, 8, 0, 0, 0, 5, 6]
        assert proposer.propose(history, 3) == [7, 8, 0]

    def test_most_recent_occurrence_wins(self):
        proposer = NgramProposer(k=2, max_ngram=2)
        history = [1, 2, 9, 9, 1, 2, 7, 7, 1, 2]
        assert proposer.propose(history, 2) == [7, 7]

    def test_longest_ngram_preferred(self):
        proposer = NgramProposer(k=2, max_ngram=3, min_ngram=1)
        # The 3-gram [1,2,3] matches at the start (-> 8); the 1-gram [3]
        # also matches later (-> 9).  Longest wins.
        history = [1, 2, 3, 8, 3, 9, 1, 2, 3]
        assert proposer.propose(history, 2) == [8, 3]

    def test_no_match_returns_empty(self):
        proposer = NgramProposer()
        assert proposer.propose([1, 2, 3, 4, 5], 4) == []
        assert proposer.propose([], 4) == []
        assert proposer.propose([1], 4) == []

    def test_window_clamps_the_draft(self):
        proposer = NgramProposer(k=8, max_ngram=1)
        history = [4, 5, 6, 7, 4]
        assert proposer.propose(history, 2) == [5, 6]
        assert proposer.propose(history, 0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="k"):
            NgramProposer(k=0)
        with pytest.raises(ValueError, match="min_ngram"):
            NgramProposer(min_ngram=0)
        with pytest.raises(ValueError, match="max_ngram"):
            NgramProposer(max_ngram=1, min_ngram=2)


class TestProposerRegistry:
    def test_ngram_is_registered(self):
        assert "ngram" in proposer_names()
        proposer = create_proposer(SpeculativeConfig(k=3, max_ngram=2))
        assert isinstance(proposer, NgramProposer)
        assert proposer.k == 3 and proposer.max_ngram == 2

    def test_unknown_proposer(self):
        with pytest.raises(KeyError, match="unknown draft proposer"):
            create_proposer(SpeculativeConfig(proposer="nope"))

    def test_register_custom_and_no_silent_overwrite(self):
        class Fixed(DraftProposer):
            def propose(self, token_ids, max_tokens):
                return [1][:max_tokens]

        register_proposer("fixed-test", lambda config: Fixed())
        try:
            with pytest.raises(KeyError, match="already registered"):
                register_proposer("fixed-test", lambda config: Fixed())
            proposer = create_proposer(SpeculativeConfig(proposer="fixed-test"))
            assert proposer.propose([0], 4) == [1]
        finally:
            from repro.serving import spec as spec_module

            del spec_module._PROPOSER_FACTORIES["fixed-test"]


class TestSpeculativeConfigValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            SpeculativeConfig(k=0)

    def test_ngram_bounds(self):
        with pytest.raises(ValueError, match="min_ngram"):
            SpeculativeConfig(min_ngram=0)
        with pytest.raises(ValueError, match="max_ngram"):
            SpeculativeConfig(max_ngram=1, min_ngram=3)

    def test_proposer_name(self):
        with pytest.raises(ValueError, match="proposer"):
            SpeculativeConfig(proposer="")

    def test_backends_normalised(self):
        config = SpeculativeConfig(backends=["Dense", "FP16"])
        assert config.backends == ("dense", "fp16")


class TestEngineKnobValidation:
    def test_int_shorthand_and_k_validation(
        self, vocab, tokenizer, retrieval_model
    ):
        engine = make_engine(vocab, tokenizer, retrieval_model, speculative=3)
        assert engine.speculative.k == 3
        with pytest.raises(ValueError, match="k must be >= 1"):
            make_engine(vocab, tokenizer, retrieval_model, speculative=0)

    def test_bool_is_rejected(self, vocab, tokenizer, retrieval_model):
        with pytest.raises(ValueError, match="not a bool"):
            make_engine(vocab, tokenizer, retrieval_model, speculative=True)

    def test_unknown_backend_rejected_at_construction(
        self, vocab, tokenizer, retrieval_model
    ):
        """An opt-in list naming a backend the engine cannot resolve fails
        when the engine is built, not at the first request."""
        with pytest.raises(KeyError, match="unknown decode backend 'nope'"):
            make_engine(
                vocab, tokenizer, retrieval_model,
                speculative=SpeculativeConfig(backends=("dense", "nope")),
            )

    def test_custom_decode_backend_resolved_at_construction(
        self, vocab, tokenizer, retrieval_model, monkeypatch
    ):
        """Every backend hands its sequences a truncatable pool cache, so a
        registered custom ``DecodeBackend`` in the opt-in list is accepted,
        and resolved once when the engine is built."""

        class OpaqueBackend(backends_module.DecodeBackend):
            def prepare(self, request, prefill):
                raise NotImplementedError

        built = []

        def factory(engine):
            built.append(OpaqueBackend(engine))
            return built[-1]

        monkeypatch.setitem(backends_module._BACKEND_FACTORIES, "opaque", factory)
        engine = make_engine(
            vocab, tokenizer, retrieval_model,
            speculative=SpeculativeConfig(backends=("opaque",)),
        )
        assert engine.speculative.backends == ("opaque",)
        assert len(built) == 1
        assert engine.get_backend("opaque") is built[0]
        assert len(built) == 1

    def test_capable_backends_accepted(self, vocab, tokenizer, retrieval_model):
        engine = make_engine(
            vocab, tokenizer, retrieval_model,
            speculative=SpeculativeConfig(backends=SPEC_CAPABLE),
        )
        assert engine.speculative.backends == SPEC_CAPABLE


class TestCompleteVerifyUnit:
    """Verification semantics over scripted logits (no model involved)."""

    @staticmethod
    def logits_for(token):
        row = np.zeros(8, dtype=np.float32)
        row[token] = 1.0
        return row

    def make_session(self, first=3, **kwargs):
        kwargs.setdefault("max_new_tokens", 8)
        return DecodeSession(
            lambda token: self.logits_for(0), self.logits_for(first), **kwargs
        )

    def test_full_acceptance_and_bonus_token(self):
        session = self.make_session(first=3)
        token, needs_forward = session.begin_step()
        assert (token, needs_forward) == (3, True)
        rows = [self.logits_for(t) for t in (4, 5, 6)]  # targets after 3,4,5
        accepted = session.complete_verify([4, 5], rows)
        assert accepted == [4, 5]
        assert session.generated == [3, 4, 5]
        assert session.next_token == 6  # the bonus candidate, not emitted
        assert not session.finished

    def test_mismatch_corrects_and_stops_accepting(self):
        session = self.make_session(first=3)
        session.begin_step()
        rows = [self.logits_for(t) for t in (4, 7, 1)]
        accepted = session.complete_verify([4, 5], rows)  # 5 != 7
        assert accepted == [4]
        assert session.generated == [3, 4]
        assert session.next_token == 7  # the corrected target token
        assert not session.finished

    def test_stop_token_mid_draft_wins_over_match(self):
        session = self.make_session(first=3, stop_ids=(4,))
        session.begin_step()
        rows = [self.logits_for(t) for t in (4, 5, 6)]
        accepted = session.complete_verify([4, 5], rows)
        assert accepted == []
        assert session.stopped_by == "stop_token"
        assert session.generated == [3]

    def test_budget_check_precedes_stop_check(self):
        session = self.make_session(first=3, max_new_tokens=1, stop_ids=(4,))
        session.begin_step()
        rows = [self.logits_for(t) for t in (4, 5)]
        accepted = session.complete_verify([4], rows)
        assert accepted == []
        assert session.stopped_by == "max_tokens"

    def test_budget_exhausts_mid_draft(self):
        session = self.make_session(first=3, max_new_tokens=2)
        session.begin_step()
        rows = [self.logits_for(t) for t in (4, 5, 6)]
        accepted = session.complete_verify([4, 5], rows)
        assert accepted == [4]
        assert session.stopped_by == "max_tokens"
        assert session.n_generated == 2

    def test_empty_draft_equals_complete_step(self):
        session = self.make_session(first=3)
        session.begin_step()
        accepted = session.complete_verify([], [self.logits_for(5)])
        assert accepted == []
        assert session.next_token == 5
        assert not session.finished

    def test_batched_step_requires_verify_fn_for_drafts(self):
        session = self.make_session(first=3)
        batch = BatchedDecodeStep(lambda tokens, payloads: [])
        with pytest.raises(ValueError, match="verify_batch_fn"):
            batch.add(session, drafts=(4,))

    def test_batched_verify_commit_round_trip(self):
        sessions = [self.make_session(first=3) for _ in range(2)]

        def verify(token_lists, payloads):
            assert token_lists == [[3, 4], [3, 9]]
            return [
                [self.logits_for(4), self.logits_for(5)],
                [self.logits_for(4), self.logits_for(5)],
            ]

        batch = BatchedDecodeStep(
            lambda tokens, payloads: [], verify_batch_fn=verify
        )
        batch.add(sessions[0], drafts=(4,))
        batch.add(sessions[1], drafts=(9,))
        assert batch.commit() == 2
        assert batch.accepted_drafts == [[4], []]
        assert sessions[0].generated == [3, 4]
        assert sessions[1].generated == [3]
        assert sessions[1].next_token == 4  # corrected

    def test_verify_forward_runs_in_the_verify_span(self):
        """The coordinator, not the model, charges a verify forward to ``verify``."""
        session = self.make_session(first=3)

        def verify(token_lists, payloads):
            return [[self.logits_for(4), self.logits_for(5)]]

        batch = BatchedDecodeStep(lambda tokens, payloads: [], verify_batch_fn=verify)
        batch.add(session, drafts=(4,))
        with StepProfiler() as profiler:
            batch.commit()
        assert profiler.phase_counts == {"verify": 1}


class TestTruncate:
    def make_pool_cache(self, retrieval_model, block_size=8):
        config = retrieval_model.config
        pool = BlockPool(
            config.n_layers, config.n_kv_heads, config.head_dim,
            block_size=block_size,
        )
        return pool, retrieval_model.new_cache(pool=pool)

    def test_truncate_releases_tail_pages_and_restores_state(
        self, retrieval_model, tokenizer
    ):
        model = retrieval_model
        pool, cache = self.make_pool_cache(model)
        reference = model.new_cache()
        prompt = tokenizer.encode(["the"] * 12 + ["<sep>", "the"])
        model.prefill(prompt, cache)
        model.prefill(prompt, reference)
        cache.mark_context(12)
        reference.mark_context(12)
        length = cache.length
        blocks_before = pool.n_allocated
        # A verify run appends rows for drafts that will all be rejected.
        rejected = model.forward_rows([[3, 5, 7, 9, 11, 2, 4, 6]], [cache])[0]
        assert len(rejected) == 8
        assert pool.n_allocated > blocks_before
        cache.truncate(length)
        assert cache.length == length
        assert pool.n_allocated == blocks_before
        pool.assert_consistent()
        # The rolled-back cache decodes exactly like the untouched reference.
        after = model.decode_step(3, cache)
        expected = model.decode_step(3, reference)
        np.testing.assert_array_equal(after, expected)
        cache.release()
        assert pool.n_allocated == 0

    def test_truncate_guards(self, retrieval_model, tokenizer):
        pool, cache = self.make_pool_cache(retrieval_model)
        prompt = tokenizer.encode(["the"] * 12 + ["<sep>", "the"])
        retrieval_model.prefill(prompt, cache)
        cache.mark_context(12)
        with pytest.raises(ValueError, match="context region"):
            cache.truncate(11)
        with pytest.raises(ValueError, match="cannot truncate to"):
            cache.truncate(cache.length + 1)
        cache.release()
        with pytest.raises(RuntimeError, match="released"):
            cache.truncate(12)

    def test_block_cost_for_tokens(self, retrieval_model, tokenizer):
        pool, cache = self.make_pool_cache(retrieval_model, block_size=8)
        prompt = tokenizer.encode(["the"] * 5 + ["<sep>", "the"])  # 7 rows
        retrieval_model.prefill(prompt, cache)
        assert cache.block_cost_for_tokens(0) == 0
        assert cache.block_cost_for_tokens(1) == 0  # row 8 fits the page
        assert cache.block_cost_for_tokens(2) == 1
        assert cache.block_cost_for_tokens(10) == 2
        assert cache.next_token_block_cost() == cache.block_cost_for_tokens(1)
        with pytest.raises(ValueError, match="n_tokens"):
            cache.block_cost_for_tokens(-1)
        cache.release()

    def test_dense_truncate(self, retrieval_model, tokenizer):
        model = retrieval_model
        cache = model.new_cache()
        reference = model.new_cache()
        prompt = tokenizer.encode(["the"] * 10 + ["<sep>", "the"])
        model.prefill(prompt, cache)
        model.prefill(prompt, reference)
        cache.mark_context(10)
        length = cache.length
        model.forward_rows([[3, 5, 7]], [cache])
        cache.truncate(length)
        assert cache.length == length
        np.testing.assert_array_equal(
            model.decode_step(3, cache), model.decode_step(3, reference)
        )
        with pytest.raises(ValueError, match="context region"):
            cache.truncate(9)


class TestVerifyStepModel:
    def test_verify_matches_sequential_decode_steps(
        self, retrieval_model, tokenizer
    ):
        """The multi-token verify forward is bit-identical to one decode
        step per token, regardless of run length."""
        model = retrieval_model
        prompt = tokenizer.encode(["the"] * 20 + ["<sep>", "the"])
        verify_cache, sequential_cache = model.new_cache(), model.new_cache()
        model.prefill(prompt, verify_cache)
        model.prefill(prompt, sequential_cache)
        tokens = [3, 5, 7, 9]
        fused = model.forward_rows([tokens], [verify_cache])[0]
        for token, row in zip(tokens, fused):
            np.testing.assert_array_equal(
                row, model.decode_step(token, sequential_cache)
            )
        assert verify_cache.length == sequential_cache.length

    def test_verify_validates_inputs(self, retrieval_model, tokenizer):
        model = retrieval_model
        cache = model.new_cache(capacity=24)
        model.prefill(tokenizer.encode(["the"] * 20 + ["<sep>", "the"]), cache)
        with pytest.raises(ValueError, match="at least one token"):
            model.forward_rows([[]], [cache])
        with pytest.raises(ValueError, match="does not fit"):
            model.forward_rows([[1, 2, 3]], [cache])
        with pytest.raises(ValueError, match="caches"):
            model.forward_rows([[1], [2]], [cache])


class TestSpeculativeParity:
    """Speculation on vs off: bit-identical outputs for all 7 backends."""

    def run_pair(self, vocab, tokenizer, model, requests_fn, **engine_kwargs):
        outputs, engines = {}, {}
        for speculative in (SpeculativeConfig(k=4), None):
            engine = make_engine(
                vocab, tokenizer, model, speculative=speculative, **engine_kwargs
            )
            engines[speculative is not None] = engine
            outputs[speculative is not None] = [
                outcome(r) for r in engine.run_batch(requests_fn())
            ]
        return outputs, engines

    def test_all_backends_concurrent(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        outputs, engines = self.run_pair(
            vocab,
            tokenizer,
            retrieval_model,
            lambda: make_requests(tiny_samples, ALL_BACKENDS),
            max_running=8,
        )
        assert outputs[True] == outputs[False]
        for request, (token_ids, stopped_by, *_) in zip(
            make_requests(tiny_samples, ALL_BACKENDS), outputs[True]
        ):
            assert (token_ids, stopped_by) == oracle(engines[True], request)[:2]
        on, off = engines[True].exec_stats, engines[False].exec_stats
        assert on.n_decode_tokens == off.n_decode_tokens > 0
        assert on.n_accepted_tokens > 0
        assert on.n_accepted_tokens <= on.n_drafted_tokens
        assert off.n_drafted_tokens == 0
        assert on.n_forward_calls < off.n_forward_calls

    def test_speculation_beats_the_batched_baseline(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Acceptance: fewer forwards per token than batching alone."""
        outputs, engines = self.run_pair(
            vocab,
            tokenizer,
            retrieval_model,
            lambda: make_requests(tiny_samples, SPEC_CAPABLE, max_new_tokens=32),
            max_running=4,
        )
        assert outputs[True] == outputs[False]
        ratio = (
            engines[False].exec_stats.forwards_per_token
            / engines[True].exec_stats.forwards_per_token
        )
        assert ratio >= 1.5
        assert engines[True].exec_stats.acceptance_rate > 0.5

    def test_parity_under_mid_stream_preemption(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        requests = make_requests(tiny_samples, ("dense", "fp16", "cocktail"), 16)
        budget = requests[0].n_prompt_tokens + requests[1].n_prompt_tokens + 1
        outputs = {}
        for speculative in (SpeculativeConfig(k=4), None):
            engine = make_engine(
                vocab,
                tokenizer,
                retrieval_model,
                max_running=3,
                max_live_tokens=budget,
                speculative=speculative,
            )
            results = engine.run_batch(
                make_requests(tiny_samples, ("dense", "fp16", "cocktail"), 16)
            )
            outputs[speculative is not None] = [outcome(r) for r in results]
            assert sum(r.stats.n_preemptions for r in results) >= 1
        assert outputs[True] == outputs[False]

    def test_parity_with_prefix_cache_warm_hits(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """A warm repeat both adopts shared packed pages and speculates."""
        engine = make_engine(
            vocab, tokenizer, retrieval_model, speculative=SpeculativeConfig(k=4)
        )
        reference = make_engine(vocab, tokenizer, retrieval_model)

        def serve(target):
            return [
                outcome(r)
                for r in target.run_batch(
                    make_requests(tiny_samples[:2], ("dense", "cocktail"))
                )
            ]

        cold, cold_reference = serve(engine), serve(reference)
        warm, warm_reference = serve(engine), serve(reference)
        assert cold == cold_reference
        assert warm == warm_reference
        assert all(hit_blocks > 0 for *_, hit_blocks in warm)
        assert engine.exec_stats.n_accepted_tokens > 0

    def test_non_greedy_requests_never_speculate(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Rejection sampling is future work: sampled requests decode on the
        plain path, bit-identical to the non-speculative engine."""
        sampling = SamplingParams(top_k=3, seed=11)
        outputs = {}
        for speculative in (SpeculativeConfig(k=4), None):
            engine = make_engine(
                vocab, tokenizer, retrieval_model, speculative=speculative
            )
            results = engine.run_batch(
                make_requests(
                    tiny_samples[:2], ("dense", "fp16"), sampling=sampling
                )
            )
            outputs[speculative is not None] = [outcome(r) for r in results]
            assert all(r.stats.drafted_tokens == 0 for r in results)
        assert outputs[True] == outputs[False]

    def test_backends_opt_in_list_restricts_drafting(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            speculative=SpeculativeConfig(k=4, backends=("dense",)),
        )
        results = engine.run_batch(
            make_requests(tiny_samples, ("dense", "fp16"), max_new_tokens=32)
        )
        by_backend = {r.backend: r.stats for r in results}
        assert by_backend["dense"].drafted_tokens > 0
        assert by_backend["fp16"].drafted_tokens == 0

    def test_acceptance_counters_are_consistent(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(
            vocab, tokenizer, retrieval_model, speculative=SpeculativeConfig(k=4)
        )
        results = engine.run_batch(
            make_requests(tiny_samples, SPEC_CAPABLE, max_new_tokens=32)
        )
        stats = engine.exec_stats
        assert stats.n_drafted_tokens == sum(r.stats.drafted_tokens for r in results)
        assert stats.n_accepted_tokens == sum(
            r.stats.accepted_tokens for r in results
        )
        for result in results:
            assert 0 <= result.stats.accepted_tokens <= result.stats.drafted_tokens
            # Every accepted token is a generated token.
            assert result.stats.accepted_tokens < result.stats.n_generated + 1
            assert 0.0 <= result.stats.acceptance_rate <= 1.0
        assert stats.acceptance_rate > 0.0


class TestFittedCodecsSpeculate:
    """KIVI and KVQuant decode over plain model caches whose pages carry
    per-request fitted scales and codebooks; each page decodes with its own
    codec, so both fuse into the shared forward and speculate."""

    BACKENDS = ("kivi", "kvquant", "kivi", "kvquant")

    def test_fitted_batch_fuses_speculates_and_matches_the_oracle(
        self, vocab, tokenizer, retrieval_model, tiny_samples, oracle
    ):
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=4,
            speculative=SpeculativeConfig(k=4, backends=("kivi", "kvquant")),
        )
        requests = make_requests(tiny_samples, self.BACKENDS, max_new_tokens=32)
        results = engine.run_batch(requests)
        stats = engine.exec_stats
        assert stats.n_forward_calls > 0
        for backend in ("kivi", "kvquant"):
            mine = [r.stats for r in results if r.backend == backend]
            assert sum(s.drafted_tokens for s in mine) > 0, backend
            assert sum(s.accepted_tokens for s in mine) > 0, backend
        for request, result in zip(requests, results):
            token_ids, stopped_by, _ = oracle(engine, request)
            assert result.token_ids == token_ids
            assert result.stopped_by == stopped_by


class TestSampledSkipCounter:
    """``n_spec_skipped_sampled`` counts the decode steps sampled sequences
    spend outside speculation, instead of dropping them silently."""

    def serve(self, vocab, tokenizer, model, samples, speculative, sampling):
        engine = make_engine(vocab, tokenizer, model, speculative=speculative)
        results = engine.run_batch(
            make_requests(samples[:1], ("dense",), max_new_tokens=8, sampling=sampling)
        )
        return engine.exec_stats, results[0]

    def test_sampled_request_counts_its_skipped_steps(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        stats, result = self.serve(
            vocab, tokenizer, retrieval_model, tiny_samples,
            SpeculativeConfig(k=4), SamplingParams(top_k=3, seed=11),
        )
        assert result.stats.drafted_tokens == 0
        # Every one of its fused decode steps ran without drafting.
        assert stats.n_spec_skipped_sampled == result.stats.n_decode_steps > 0

    def test_greedy_request_counts_zero(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        stats, _ = self.serve(
            vocab, tokenizer, retrieval_model, tiny_samples,
            SpeculativeConfig(k=4), SamplingParams(),
        )
        assert stats.n_spec_skipped_sampled == 0

    def test_engine_without_speculation_counts_zero(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        stats, result = self.serve(
            vocab, tokenizer, retrieval_model, tiny_samples,
            None, SamplingParams(top_k=3, seed=11),
        )
        assert result.stats.n_decode_steps > 0
        assert stats.n_spec_skipped_sampled == 0


class TestSpeculativeCancellation:
    def test_cancel_mid_verify_drains_the_pool(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """Cancelling requests between verify rounds releases every page —
        including pages allocated for drafted rows in earlier rounds."""
        engine = make_engine(
            vocab,
            tokenizer,
            retrieval_model,
            max_running=4,
            speculative=SpeculativeConfig(k=4),
        )
        rids = [
            engine.submit(request)
            for request in make_requests(tiny_samples, SPEC_CAPABLE, 32)
        ]
        for _ in range(4):
            engine.step()
        assert engine.exec_stats.n_drafted_tokens > 0, "speculation never engaged"
        streamed = {rid: engine._states[rid].n_emitted for rid in rids}
        events = [engine.cancel(rid) for rid in rids]
        assert all(e.stopped_by == "cancelled" for e in events)
        for rid in rids:
            result = engine.result(rid)
            assert result.stopped_by == "cancelled"
            assert len(result.token_ids) == streamed[rid]
        assert engine.pool.n_allocated == engine.prefix_cache.n_blocks
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        assert engine.pool.allocated_bytes() == 0
        engine.pool.assert_consistent()

    def test_speculative_run_drains_the_pool(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        engine = make_engine(
            vocab, tokenizer, retrieval_model, speculative=SpeculativeConfig(k=6)
        )
        engine.run_batch(make_requests(tiny_samples, SPEC_CAPABLE, 32))
        engine.prefix_cache.clear()
        assert engine.pool.n_allocated == 0
        assert engine.pool.allocated_bytes() == 0
        engine.pool.assert_consistent()


class TestSpeculativeUnderPoolPressure:
    def test_bounded_pool_clamps_drafts_without_divergence(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """A starved pool shrinks the draft window (possibly to zero) but
        never changes the decoded streams or leaks pages."""
        config = retrieval_model.config

        def serve(speculative, capacity_blocks):
            pool = (
                BlockPool(
                    config.n_layers,
                    config.n_kv_heads,
                    config.head_dim,
                    block_size=16,
                    capacity_blocks=capacity_blocks,
                )
                if capacity_blocks
                else None
            )
            engine = make_engine(
                vocab,
                tokenizer,
                retrieval_model,
                max_running=2,
                pool=pool,
                prefix_caching=False,
                speculative=speculative,
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
                    for sample, backend in zip(tiny_samples[:2], ("dense", "fp16"))
                ]
            )
            assert engine.pool.n_allocated == 0
            assert engine.pool.allocated_bytes() == 0
            return [outcome(r) for r in results]

        reference = serve(None, None)
        assert serve(SpeculativeConfig(k=4), None) == reference
        # ~2 sequences' prompts worth of pages: constant clamping pressure.
        assert serve(SpeculativeConfig(k=4), 14) == reference
