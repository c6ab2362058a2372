"""Property-style fuzz of the wire boundary: round-trips and rejections.

Seeded randomized payloads (failures replay from the printed seed) drive
``request_from_wire``/``result_to_wire`` through two properties:

* every *valid* payload round-trips field by field into a
  :class:`GenerationRequest` — defaults filled, aliases resolved, word
  strings split exactly like word lists;
* every *malformed* payload — drawn from a mutation table covering wrong
  types, out-of-range values, unknown fields, alias conflicts and server
  limits — raises :class:`WireFormatError` with the offending ``param``
  named, and never any other exception type (an engine ``ValueError`` or
  ``TypeError`` escaping here would reach clients as a 500 traceback).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.request import (
    GenerationRequest,
    GenerationResult,
    RequestStats,
    WireFormatError,
    request_from_wire,
    result_to_wire,
)

N_VALID_CASES = 150
N_MUTATION_ROUNDS = 10

KNOWN_BACKENDS = ("dense", "fp16", "kivi", "kvquant", "atom", "blockwise", "cocktail")


def random_valid_payload(rng: np.random.Generator) -> dict:
    """One random payload every server must accept."""
    context = [f"ctx{int(rng.integers(1000))}" for _ in range(int(rng.integers(0, 40)))]
    query = [f"q{int(rng.integers(1000))}" for _ in range(int(rng.integers(1, 8)))]
    payload: dict = {"context": context, "query": query}
    if rng.random() < 0.3:  # the string form must split to the same words
        payload["context"] = " ".join(context)
    if rng.random() < 0.3:
        payload["query"] = " ".join(query)
    if rng.random() < 0.7:
        payload["max_tokens"] = int(rng.integers(1, 64))
    backend = str(rng.choice(KNOWN_BACKENDS))
    mode = rng.random()
    if mode < 0.4:
        payload["backend"] = backend
    elif mode < 0.6:
        payload["model"] = backend  # OpenAI-style alias
    elif mode < 0.7:
        payload["backend"] = backend
        payload["model"] = backend  # both, agreeing
    if rng.random() < 0.5:
        payload["temperature"] = float(rng.uniform(0.05, 3.0))
    if rng.random() < 0.5:
        payload["top_k"] = int(rng.integers(1, 10))
    if rng.random() < 0.5:
        payload["seed"] = int(rng.integers(0, 2**31))
    if rng.random() < 0.3:
        payload["stop_on_special"] = bool(rng.random() < 0.5)
    if rng.random() < 0.3:
        payload["stop_token_ids"] = [int(t) for t in rng.integers(0, 100, size=3)]
    if rng.random() < 0.2:
        payload["stream"] = bool(rng.random() < 0.5)  # transport-level, accepted
    return payload


def expected_words(value) -> tuple[str, ...]:
    return tuple(value.split()) if isinstance(value, str) else tuple(value)


class TestValidPayloadsRoundTrip:
    @pytest.mark.parametrize("seed", range(N_VALID_CASES))
    def test_round_trip_field_by_field(self, seed):
        rng = np.random.default_rng(seed)
        payload = random_valid_payload(rng)
        request = request_from_wire(payload, known_backends=KNOWN_BACKENDS)
        assert request.context_words == expected_words(payload["context"])
        assert request.query_words == expected_words(payload["query"])
        assert request.max_new_tokens == payload.get("max_tokens", 128)
        want_backend = payload.get("backend", payload.get("model", "dense"))
        assert request.backend == want_backend
        assert request.sampling.top_k == payload.get("top_k", 1)
        assert request.sampling.temperature == pytest.approx(
            payload.get("temperature", 1.0)
        )
        assert request.sampling.seed == payload.get("seed", 0)
        assert request.stop_on_special is payload.get("stop_on_special", True)
        assert request.extra_stop_ids == tuple(payload.get("stop_token_ids", ()))
        assert request.request_id is None

    def test_request_id_passthrough(self):
        request = request_from_wire(
            {"context": [], "query": ["q"]}, request_id="req-77"
        )
        assert request.request_id == "req-77"

    def test_string_and_list_forms_agree(self):
        words = ["alpha", "beta", "gamma"]
        a = request_from_wire({"context": words, "query": ["q"]})
        b = request_from_wire({"context": " ".join(words), "query": ["q"]})
        assert a.context_words == b.context_words == tuple(words)


#: (label, mutate(payload, rng) -> expected `param`), applied to a fresh
#: valid payload each round.


def _drop_context(p, rng):
    del p["context"]
    return "context"


def _drop_query(p, rng):
    del p["query"]
    return "query"


def _empty_query(p, rng):
    p["query"] = []
    return "query"


def _context_bad_type(p, rng):
    p["context"] = 17
    return "context"


def _context_bad_entry(p, rng):
    p["context"] = ["ok", 42]
    return "context"


def _context_empty_word(p, rng):
    p["context"] = ["ok", ""]
    return "context"


def _unknown_field(p, rng):
    p["frequency_penalty"] = 0.5
    return None


def _max_tokens_zero(p, rng):
    p["max_tokens"] = 0
    return "max_tokens"


def _max_tokens_bool(p, rng):
    p["max_tokens"] = True
    return "max_tokens"


def _max_tokens_float(p, rng):
    p["max_tokens"] = 3.5
    return "max_tokens"


def _temperature_zero(p, rng):
    p["temperature"] = 0.0
    return "temperature"


def _temperature_nan(p, rng):
    p["temperature"] = float("nan")
    return "temperature"


def _temperature_string(p, rng):
    p["temperature"] = "hot"
    return "temperature"


def _top_k_negative(p, rng):
    p["top_k"] = -int(rng.integers(1, 5))
    return "top_k"


def _seed_negative(p, rng):
    p["seed"] = -1
    return "seed"


def _stop_on_special_int(p, rng):
    p["stop_on_special"] = 1
    return "stop_on_special"


def _stop_ids_strings(p, rng):
    p["stop_token_ids"] = ["3"]
    return "stop_token_ids"


def _stop_ids_negative(p, rng):
    p["stop_token_ids"] = [4, -2]
    return "stop_token_ids"


def _backend_empty(p, rng):
    p.pop("model", None)
    p["backend"] = ""
    return "backend"


def _backend_unknown(p, rng):
    p.pop("model", None)
    p["backend"] = "gpt-17"
    return "backend"


def _alias_conflict(p, rng):
    p["backend"] = "dense"
    p["model"] = "fp16"
    return "backend"


MUTATIONS = [
    ("drop_context", _drop_context),
    ("drop_query", _drop_query),
    ("empty_query", _empty_query),
    ("context_bad_type", _context_bad_type),
    ("context_bad_entry", _context_bad_entry),
    ("context_empty_word", _context_empty_word),
    ("unknown_field", _unknown_field),
    ("max_tokens_zero", _max_tokens_zero),
    ("max_tokens_bool", _max_tokens_bool),
    ("max_tokens_float", _max_tokens_float),
    ("temperature_zero", _temperature_zero),
    ("temperature_nan", _temperature_nan),
    ("temperature_string", _temperature_string),
    ("top_k_negative", _top_k_negative),
    ("seed_negative", _seed_negative),
    ("stop_on_special_int", _stop_on_special_int),
    ("stop_ids_strings", _stop_ids_strings),
    ("stop_ids_negative", _stop_ids_negative),
    ("backend_empty", _backend_empty),
    ("backend_unknown", _backend_unknown),
    ("alias_conflict", _alias_conflict),
]


class TestMalformedPayloadsAlwaysRaiseWireFormatError:
    @pytest.mark.parametrize("label,mutate", MUTATIONS, ids=[m[0] for m in MUTATIONS])
    @pytest.mark.parametrize("round_", range(N_MUTATION_ROUNDS))
    def test_mutation_raises_named_wire_error(self, label, mutate, round_):
        import zlib

        rng = np.random.default_rng(zlib.crc32(label.encode()) + round_)
        payload = random_valid_payload(rng)
        expected_param = mutate(payload, rng)
        # WireFormatError and nothing else: a TypeError/ValueError escaping
        # the boundary would surface to clients as a 500 traceback.
        with pytest.raises(WireFormatError) as excinfo:
            request_from_wire(payload, known_backends=KNOWN_BACKENDS)
        assert excinfo.value.param == expected_param
        assert str(excinfo.value)  # human-readable message, never empty

    @pytest.mark.parametrize("body", [None, 42, "text", ["a"], True])
    def test_non_object_bodies(self, body):
        with pytest.raises(WireFormatError) as excinfo:
            request_from_wire(body)
        assert excinfo.value.param is None

    def test_server_limits_are_named(self):
        long_prompt = {"context": ["w"] * 50, "query": ["q"]}
        with pytest.raises(WireFormatError) as excinfo:
            request_from_wire(long_prompt, max_prompt_tokens=16)
        assert excinfo.value.param == "context"
        big_ask = {"context": [], "query": ["q"], "max_tokens": 1000}
        with pytest.raises(WireFormatError) as excinfo:
            request_from_wire(big_ask, max_new_tokens_limit=64)
        assert excinfo.value.param == "max_tokens"

    @pytest.mark.parametrize("seed", range(30))
    def test_random_junk_never_leaks_other_exceptions(self, seed):
        """Adversarial scrambles: whatever we throw at the boundary, the
        only exception type allowed out is WireFormatError."""
        rng = np.random.default_rng(10_000 + seed)
        payload = random_valid_payload(rng)
        junk = [None, True, -1, 3.5, "", [], {}, float("inf"), ["x", 1]]
        for _ in range(5):
            key = str(rng.choice(list(payload) + ["bogus", "tools", "n"]))
            payload[key] = junk[int(rng.integers(len(junk)))]
        try:
            request = request_from_wire(payload, known_backends=KNOWN_BACKENDS)
        except WireFormatError as err:
            assert str(err)
        else:
            assert isinstance(request, GenerationRequest)


class TestResultToWire:
    def test_wire_result_shape_and_round_trip(self):
        stats = RequestStats(
            submitted_at=1.0, scheduled_at=2.0, first_token_at=3.0,
            finished_at=7.0, n_generated=5, cached_tokens=32,
            prefill_reused_tokens=48, tenant="acme",
        )
        result = GenerationResult(
            request_id="req-9",
            backend="fp16",
            answer_text="alpha beta",
            token_ids=[5, 6, 7, 8, 9],
            stopped_by="max_tokens",
            n_context_tokens=48,
            n_prompt_tokens=53,
            stats=stats,
        )
        wire = result_to_wire(result)
        assert wire["id"] == "req-9"
        assert wire["model"] == "fp16"
        choice = wire["choices"][0]
        assert choice["text"] == "alpha beta"
        assert choice["token_ids"] == [5, 6, 7, 8, 9]
        assert choice["finish_reason"] == "max_tokens"
        assert wire["usage"] == {
            "prompt_tokens": 53,
            "completion_tokens": 5,
            "total_tokens": 58,
        }
        assert wire["stats"]["ttft_seconds"] == pytest.approx(2.0)
        assert wire["stats"]["tpot_seconds"] == pytest.approx(1.0)
        assert wire["stats"]["cached_tokens"] == 32
        assert wire["stats"]["prefill_reused_tokens"] == 48
        assert wire["stats"]["tenant"] == "acme"
        import json

        assert json.loads(json.dumps(wire)) == wire


class TestStatsPayloadWire:
    """``/v1/stats`` is JSON on the wire: its ``kv_memory`` block included."""

    KV_MEMORY_KEYS = {"accounted_bytes", "physical_pool_bytes", "working_set_bytes"}

    def test_kv_memory_block_shape_and_json_round_trip(
        self, vocab, tokenizer, retrieval_model
    ):
        import json

        from repro.core.config import CocktailConfig
        from repro.serving.engine import InferenceEngine
        from repro.serving.server import ServerCore

        engine = InferenceEngine(
            retrieval_model, tokenizer, CocktailConfig(chunk_size=16), lexicon=vocab.lexicon
        )
        words = vocab.all_words()
        engine.run(GenerationRequest(words[100:140], words[110:113], max_new_tokens=3))
        payload = ServerCore(engine).stats_payload()
        kv_memory = payload["kv_memory"]
        assert set(kv_memory) == self.KV_MEMORY_KEYS
        assert all(type(value) is int and value >= 0 for value in kv_memory.values())
        assert kv_memory["accounted_bytes"] == engine.pool.allocated_bytes()
        assert kv_memory["physical_pool_bytes"] >= kv_memory["accounted_bytes"]
        assert json.loads(json.dumps(payload)) == payload
