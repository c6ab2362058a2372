"""Adaptive control loops: controllers, engine wiring, SLO scheduling."""

from __future__ import annotations

import pytest

from repro.core.config import CocktailConfig
from repro.serving import InferenceEngine
from repro.serving.adaptive import DraftWindowController, SloPolicy
from repro.serving.request import (
    GenerationRequest,
    WireFormatError,
    request_from_wire,
    result_to_wire,
)
from repro.serving.spec import (
    DraftProposer,
    SpeculativeConfig,
    register_proposer,
)


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, **kwargs
    )


class TestDraftWindowController:
    def test_starts_at_ceiling(self):
        controller = DraftWindowController(k=4)
        assert controller.window == 4
        assert controller.next_window() == 4

    def test_grows_additively_under_high_acceptance(self):
        controller = DraftWindowController(k=6, alpha=1.0)
        controller.window = 2
        controller.observe(4, 4)  # acceptance 1.0 >= grow threshold
        assert controller.window == 3
        controller.observe(4, 4)
        assert controller.window == 4

    def test_never_exceeds_ceiling(self):
        controller = DraftWindowController(k=3, alpha=1.0)
        for _ in range(5):
            controller.observe(3, 3)
        assert controller.window == 3

    def test_shrinks_multiplicatively_under_low_acceptance(self):
        controller = DraftWindowController(k=8, alpha=1.0)
        controller.observe(8, 0)
        assert controller.window == 4
        controller.observe(4, 0)
        assert controller.window == 2

    def test_collapses_to_zero_and_probes(self):
        controller = DraftWindowController(k=4, alpha=1.0, probe_interval=3)
        for _ in range(4):
            controller.observe(4, 0)
        assert controller.window == 0
        # Two plain rounds, then a single-token probe, then plain again.
        assert controller.next_window() == 0
        assert controller.next_window() == 0
        assert controller.next_window() == 1
        assert controller.next_window() == 0

    def test_recovers_from_collapse_via_probe(self):
        controller = DraftWindowController(
            k=4, alpha=1.0, probe_interval=1, grow_threshold=0.8
        )
        for _ in range(4):
            controller.observe(4, 0)
        assert controller.window == 0
        assert controller.next_window() == 1  # probe immediately
        controller.observe(1, 1)  # the probe landed
        assert controller.window == 1
        assert controller.next_window() == 1

    def test_min_window_floor(self):
        controller = DraftWindowController(k=4, alpha=1.0, min_window=2)
        for _ in range(6):
            controller.observe(4, 0)
        assert controller.window == 2

    def test_ewma_smoothing(self):
        controller = DraftWindowController(k=4, alpha=0.5)
        controller.observe(4, 4)
        assert controller.ewma == 1.0
        controller.observe(4, 0)
        assert controller.ewma == 0.5

    def test_zero_draft_rounds_are_ignored(self):
        controller = DraftWindowController(k=4)
        controller.observe(0, 0)
        assert controller.ewma is None
        assert controller.window == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(k=4, alpha=0.0),
            dict(k=4, alpha=1.5),
            dict(k=4, grow_threshold=0.4, shrink_threshold=0.5),
            dict(k=4, min_window=5),
            dict(k=4, min_window=-1),
            dict(k=4, probe_interval=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DraftWindowController(**kwargs)


class TestSloPolicy:
    def test_default_ranks(self):
        policy = SloPolicy()
        assert policy.rank("interactive") < policy.rank("batch")
        assert policy.rank("batch") < policy.rank("background")

    def test_unknown_class_ranks_last_with_no_deadline(self):
        policy = SloPolicy()
        assert policy.rank("mystery") > policy.rank("background")
        assert policy.deadline("mystery", 10.0) is None

    def test_deadline_is_submit_plus_budget(self):
        policy = SloPolicy()
        assert policy.deadline("interactive", 10.0) == 35.0
        assert policy.deadline("batch", 0.0) == 120.0

    def test_empty_ranks_rejected(self):
        with pytest.raises(ValueError):
            SloPolicy(ranks={})


class AdversarialProposer(DraftProposer):
    """Drafts tokens that greedy verification will always reject."""

    name = "adversarial"

    def __init__(self, vocab_size: int = 100):
        self.vocab_size = vocab_size

    def propose(self, token_ids, max_tokens):
        # Propose the *successor* of whatever greedy decoding would pick
        # at each position — never the argmax, so acceptance collapses.
        last = int(token_ids[-1]) if token_ids else 0
        return [(last + i + 1) % self.vocab_size for i in range(max_tokens)]


register_proposer(
    "adversarial",
    lambda config: AdversarialProposer(),
    overwrite=True,
)


class TestAdaptiveEngine:
    """Engine-level wiring of the three controllers."""

    def test_acceptance_collapse_matches_greedy_oracle(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """An all-reject proposer collapses the window without diverging.

        The adaptive arm degrades to plain decoding (window 0, occasional
        probes); output must stay bit-identical to a no-speculation run,
        and the drafted-token count must be far below the static arm's.
        """
        sample = tiny_samples[0]

        def request():
            return GenerationRequest(
                sample.context_words[:40],
                sample.query_words,
                max_new_tokens=16,
                backend="dense",
            )

        plain = make_engine(vocab, tokenizer, retrieval_model)
        oracle = plain.run(request())

        static = make_engine(
            vocab, tokenizer, retrieval_model,
            speculative=SpeculativeConfig(proposer="adversarial", k=4),
        )
        static_result = static.run(request())

        adaptive = make_engine(
            vocab, tokenizer, retrieval_model,
            speculative=SpeculativeConfig(
                proposer="adversarial", k=4, adaptive=True, probe_interval=4
            ),
        )
        adaptive_result = adaptive.run(request())

        assert static_result.token_ids == oracle.token_ids
        assert adaptive_result.token_ids == oracle.token_ids
        assert adaptive_result.stopped_by == oracle.stopped_by
        # Acceptance stayed far below the shrink threshold (the proposer may
        # fluke a token), and the controller stopped paying for full-width
        # drafts once the window collapsed.
        assert (
            static.exec_stats.n_accepted_tokens
            < 0.1 * static.exec_stats.n_drafted_tokens
        )
        assert (
            adaptive.exec_stats.n_drafted_tokens
            < static.exec_stats.n_drafted_tokens
        )

    def test_high_acceptance_keeps_full_window(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """With the n-gram proposer accepting well, adaptive == static."""
        sample = tiny_samples[0]

        def request():
            return GenerationRequest(
                sample.context_words[:40],
                sample.query_words,
                max_new_tokens=16,
                backend="dense",
            )

        static = make_engine(
            vocab, tokenizer, retrieval_model, speculative=4
        )
        static_result = static.run(request())
        adaptive = make_engine(
            vocab, tokenizer, retrieval_model,
            speculative=SpeculativeConfig(k=4, adaptive=True),
        )
        adaptive_result = adaptive.run(request())
        assert adaptive_result.token_ids == static_result.token_ids
        # High acceptance must not shrink speculation below the static arm.
        assert (
            adaptive.exec_stats.n_accepted_tokens
            == static.exec_stats.n_accepted_tokens
        )

    def test_slo_admission_prefers_higher_class(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        """A later interactive arrival is admitted past queued batch work."""
        sample = tiny_samples[0]
        engine = make_engine(
            vocab, tokenizer, retrieval_model,
            max_running=1,  # force queueing behind the first admission
            slo_policy=SloPolicy(),
        )

        def request(slo_class):
            return GenerationRequest(
                sample.context_words[:24],
                sample.query_words,
                max_new_tokens=4,
                backend="dense",
                slo_class=slo_class,
            )

        first_batch = engine.submit(request("batch"))
        second_batch = engine.submit(request("batch"))
        interactive = engine.submit(request("interactive"))
        order = []
        while engine.has_pending:
            for event in engine.step():
                if event.is_last:
                    order.append(event.request_id)
        # Admission happens at step time: the interactive arrival jumps the
        # whole batch queue, which then drains in FIFO order.
        assert order == [interactive, first_batch, second_batch]
        assert engine.result(interactive).stats.slo_class == "interactive"
        assert engine.result(first_batch).stats.slo_class == "batch"

    def test_adaptive_stats_sections_appear_only_when_configured(
        self, vocab, tokenizer, retrieval_model
    ):
        bare = make_engine(vocab, tokenizer, retrieval_model)
        assert bare.adaptive_stats() == {}
        wired = make_engine(
            vocab, tokenizer, retrieval_model,
            slo_policy=SloPolicy(),
            speculative=SpeculativeConfig(k=4, adaptive=True),
        )
        payload = wired.adaptive_stats()
        assert set(payload) == {"draft_windows", "slo"}


class TestSloWireFormat:
    def test_request_round_trip_carries_slo_class(self):
        payload = {
            "context": ["alpha", "beta"],
            "query": ["gamma"],
            "max_tokens": 4,
            "slo_class": "batch",
        }
        request = request_from_wire(payload)
        assert request.slo_class == "batch"

    def test_default_slo_class_applies_only_when_absent(self):
        payload = {"context": ["alpha"], "query": ["beta"], "max_tokens": 4}
        request = request_from_wire(payload, default_slo_class="background")
        assert request.slo_class == "background"
        payload["slo_class"] = "interactive"
        request = request_from_wire(payload, default_slo_class="background")
        assert request.slo_class == "interactive"

    def test_unknown_wire_slo_class_rejected(self):
        payload = {
            "context": ["alpha"],
            "query": ["beta"],
            "max_tokens": 4,
            "slo_class": "platinum",
        }
        with pytest.raises(WireFormatError) as err:
            request_from_wire(payload)
        assert err.value.param == "slo_class"

    def test_result_wire_stats_carry_slo_class(
        self, vocab, tokenizer, retrieval_model, tiny_samples
    ):
        sample = tiny_samples[0]
        engine = make_engine(vocab, tokenizer, retrieval_model)
        result = engine.run(
            GenerationRequest(
                sample.context_words[:16], sample.query_words,
                max_new_tokens=2, backend="dense", slo_class="background",
            )
        )
        wire = result_to_wire(result)
        assert wire["stats"]["slo_class"] == "background"
