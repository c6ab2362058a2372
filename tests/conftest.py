"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the tests straight from a source checkout (offline
# environments where editable installs are awkward).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
import pytest

from repro.datasets.base import DatasetSpec
from repro.datasets.generator import SampleGenerator
from repro.datasets.vocab import Vocabulary
from repro.model.config import get_sim_config
from repro.model.tokenizer import Tokenizer
from repro.model.transformer import Transformer
from repro.model.weights import build_retrieval_weights
from repro.serving.backends import build_quantization_request, prompt_token_ids


@pytest.fixture(scope="session")
def vocab() -> Vocabulary:
    """The shared synthetic vocabulary."""
    return Vocabulary()


@pytest.fixture(scope="session")
def tokenizer(vocab: Vocabulary) -> Tokenizer:
    """Tokenizer over the shared vocabulary."""
    return Tokenizer(vocab.all_words())


@pytest.fixture(scope="session")
def tiny_spec() -> DatasetSpec:
    """A small QA-style dataset spec used to keep model tests fast."""
    return DatasetSpec(
        name="tiny-qa",
        display_name="TinyQA",
        task="Single-Document QA",
        metric="f1",
        n_context_words=320,
        answer_length=(5, 8),
        n_related_facts=1,
        n_distractor_facts=4,
        n_trap_chunks=1,
    )


@pytest.fixture(scope="session")
def tiny_samples(vocab: Vocabulary, tiny_spec: DatasetSpec):
    """A handful of deterministic tiny samples."""
    return SampleGenerator(vocab, tiny_spec, seed=7).generate_many(4)


@pytest.fixture(scope="session")
def retrieval_model(tokenizer: Tokenizer) -> Transformer:
    """The constructed retrieval model (Llama2-7B simulation preset)."""
    config = get_sim_config("llama2-7b", tokenizer.vocab_size, max_seq_len=1024)
    return Transformer(config, build_retrieval_weights(config))


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fixed-seed generator for per-test randomness."""
    return np.random.default_rng(1234)


def reference_generate(engine, request):
    """What ``request`` must decode to, computed outside the engine's own path.

    The one oracle of the serving parity tests: a dense full-precision
    prefill, the method's plan, its fake-quant ``apply`` and the plain
    ``generate_from_cache`` loop (what ``evaluation.accuracy`` runs) — no
    pool, no pages, no scheduler.  ``engine`` only supplies the model,
    tokenizer, chunk size and the backend's quantizer and stop ids.
    Returns ``(token_ids, stopped_by, plan)``.
    """
    model, tokenizer = engine.model, engine.tokenizer
    backend = engine.get_backend(request.backend)
    quantizer = backend.quantizer
    prompt = prompt_token_ids(tokenizer, request.context_words, request.query_words)
    cache = model.new_cache()
    first_logits = model.prefill(prompt, cache)
    cache.mark_context(len(request.context_words))
    plan = quantizer.plan(
        build_quantization_request(
            request.context_words, request.query_words, engine.chunk_size, cache
        )
    )
    quantizer.apply(cache, plan)
    result = model.generate_from_cache(
        cache,
        first_logits,
        max_new_tokens=request.max_new_tokens,
        stop_ids=backend._stop_ids(request),
        sampler=request.sampling.build_sampler(),
    )
    return result.token_ids, result.stopped_by, plan


@pytest.fixture(scope="session")
def oracle():
    """The engine-independent reference decode (see :func:`reference_generate`)."""
    return reference_generate
