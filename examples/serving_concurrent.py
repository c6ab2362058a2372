#!/usr/bin/env python
"""Serve mixed Cocktail / KIVI / FP16 requests through one engine.

Eight long-context QA requests using four different decode backends are
submitted to a single :class:`repro.serving.InferenceEngine` and served via
continuous batching: the engine admits requests FIFO, decodes every
in-flight sequence one token per step (round-robin) and streams
:class:`TokenEvent` objects as they are produced.  At the end the
per-request serving stats — queue time, time to first token (TTFT) and
time per output token (TPOT) — are printed.

Run with:  PYTHONPATH=src python examples/serving_concurrent.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import GenerationRequest, InferenceEngine

#: Backends cycled over the requests: Cocktail twice (``dense`` and
#: ``blockwise`` are two registry names for the same packed-page backend),
#: then two of the paper's baselines — all through the same registry.
BACKENDS = ("dense", "blockwise", "kivi", "fp16")


def fmt_ms(seconds: float | None) -> str:
    """Milliseconds, or n/a for stats a zero-token request never sets."""
    return "n/a" if seconds is None else f"{seconds * 1e3:.2f}"


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=4,  # at most 4 sequences decode concurrently
    )

    samples = build_dataset("qasper", 8, vocab=vocab, seed=7)
    requests = [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=24,
            backend=BACKENDS[i % len(BACKENDS)],
        )
        for i, sample in enumerate(samples)
    ]
    rids = [engine.submit(request) for request in requests]
    print(f"submitted {len(rids)} requests over backends {BACKENDS}")
    print(f"scheduler: max_running={engine.scheduler.max_running} (FIFO admission)\n")

    step = 0
    while engine.has_pending:
        step += 1
        events = engine.step()
        tokens = [f"{e.request_id}+{e.text}" for e in events if e.token_id is not None]
        done = [f"{e.request_id}!{e.stopped_by}" for e in events if e.is_last]
        line = "  ".join(tokens + done)
        print(
            f"step {step:>3} | running {engine.n_running} "
            f"waiting {engine.n_waiting} | {line}"
        )

    print("\nper-request serving stats (simulation speed):")
    header = (
        f"{'request':>8} {'backend':>10} {'tokens':>6} {'queue ms':>9} "
        f"{'ttft ms':>8} {'tpot ms':>8} {'ctx KiB':>8}  {'stopped_by':>10}  answer"
    )
    print(header)
    for rid, request in zip(rids, requests):
        result = engine.result(rid)
        stats = result.stats
        kv = result.details.get("kv_bytes", {})
        ctx_kib = f"{kv['context_bytes'] / 1024:.1f}" if kv else "n/a"
        print(
            f"{rid:>8} {result.backend:>10} {len(result.token_ids):>6} "
            f"{fmt_ms(stats.queue_seconds):>9} {fmt_ms(stats.ttft_seconds):>8} "
            f"{fmt_ms(stats.tpot_seconds):>8} {ctx_kib:>8}  {result.stopped_by:>10}  "
            f"{result.answer_text[:42]}"
        )
    index = engine.prefix_cache
    print(
        f"\nshared KV pool: peak {engine.pool.peak_allocated_blocks} pages "
        f"({engine.pool.peak_bytes / 1024:.1f} KiB measured); every request's "
        f"private pages were returned, {index.n_blocks} packed context pages "
        "stay retained by the prefix index for future repeated-context traffic"
    )
    print(
        f"prefix index hit-rate: {index.stats.hit_rate:.0%} "
        f"({index.stats.n_hit_blocks} page hits — distinct documents here; "
        "see examples/serving_shared_prefix.py for shared-document reuse)"
    )


if __name__ == "__main__":
    main()
