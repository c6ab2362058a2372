#!/usr/bin/env python
"""Quickstart: serve one long-context Cocktail request through the engine.

The example builds the simulated Llama2-7B retrieval model, generates a
synthetic single-document-QA request (Qasper-style) and serves it through
the :class:`repro.serving.InferenceEngine` with the ``"cocktail"`` backend
(chunk-level quantization search, mixed-precision quantization packed into
pool pages grouped by precision, decode attention over them), streaming
the answer token by token.  The FP16 reference runs through the very same engine — the decode
backend is just another registry name.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.metrics.registry import compute_metric
from repro.quant.dtypes import BitWidth
from repro.serving import GenerationRequest, InferenceEngine


def fmt_ms(seconds: float | None) -> str:
    """Milliseconds, or n/a for stats a zero-token request never sets."""
    return "n/a" if seconds is None else f"{seconds * 1e3:.1f} ms"


def main() -> None:
    # 1. Build the substrate: vocabulary, tokenizer and the simulation model.
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)

    # 2. Generate one synthetic long-context QA request.
    sample = build_dataset("qasper", 1, vocab=vocab, seed=42)[0]
    print(f"context length : {sample.n_context_tokens} tokens")
    print(f"query          : {sample.query_text}")
    print(f"gold answer    : {sample.answer_text}")

    # 3. Build the serving engine with the paper's default hyper-parameters
    #    (chunk size 32, alpha 0.6, beta 0.1, Contriever encoder) and stream
    #    the Cocktail answer.
    engine = InferenceEngine(model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon)
    request = GenerationRequest(
        sample.context_words, sample.query_words, max_new_tokens=64, backend="cocktail"
    )
    print("\n--- streaming decode ---")
    for event in engine.stream(request):
        if event.token_id is not None:
            print(f"  token {event.index:>2} : {event.text}")
    result = engine.result(request.request_id)

    chunk_bits = list(result.plan.details.get("chunk_bits", []))
    counts = {bits: chunk_bits.count(bits) for bits in (BitWidth.INT2, BitWidth.INT4, BitWidth.FP16)}
    print("\n--- chunk-level quantization search ---")
    print(f"chunks          : {len(chunk_bits)}")
    print(f"INT2 chunks     : {counts[BitWidth.INT2]}")
    print(f"INT4 chunks     : {counts[BitWidth.INT4]}")
    print(f"FP16 chunks     : {counts[BitWidth.FP16]}")
    print(f"search latency  : {result.plan.search_seconds * 1e3:.1f} ms (modeled)")

    kv_bytes = result.details["kv_bytes"]
    compression = kv_bytes["context_fp16_bytes"] / kv_bytes["context_bytes"]
    print("\n--- chunk-level KV cache computation ---")
    print(f"context KV compression vs FP16 : {compression:.2f}x")
    print(f"TTFT (measured, sim speed)     : {fmt_ms(result.stats.ttft_seconds)}")
    print(f"TPOT (measured, sim speed)     : {fmt_ms(result.stats.tpot_seconds)}")

    print("\n--- answers ---")
    cocktail_score = compute_metric(sample.metric, result.answer_text, sample.answer_text)
    print(f"Cocktail answer : {result.answer_text}")
    print(f"Cocktail F1     : {cocktail_score:.1f}")

    # 4. FP16 reference (no quantization at all) — same engine, different backend.
    fp16 = engine.run(
        GenerationRequest(
            sample.context_words, sample.query_words, max_new_tokens=64, backend="fp16"
        )
    )
    fp16_score = compute_metric(sample.metric, fp16.answer_text, sample.answer_text)
    print(f"FP16 answer     : {fp16.answer_text}")
    print(f"FP16 F1         : {fp16_score:.1f}")


if __name__ == "__main__":
    main()
