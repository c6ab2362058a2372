"""SLO-aware scheduling: the policy, its engine wiring and the wire format."""

from __future__ import annotations

import pytest

from repro.core.config import CocktailConfig
from repro.serving import InferenceEngine
from repro.serving.adaptive import SloPolicy
from repro.serving.request import (
    GenerationRequest,
    WireFormatError,
    request_from_wire,
    result_to_wire,
)


def make_engine(vocab, tokenizer, model, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, **kwargs
    )


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


class TestAdaptiveEngine:
    """Engine-level wiring of the SLO policy."""

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
        )
        payload = wired.adaptive_stats()
        assert set(payload) == {"slo"}


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
