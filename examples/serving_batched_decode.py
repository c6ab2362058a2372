#!/usr/bin/env python
"""Batched decode execution: one fused forward per engine step.

Eight long-context QA requests over four decode backends are served through
one :class:`repro.serving.InferenceEngine`.  The batched round is the
default: every running sequence advances through **one**
``decode_step_batch`` model invocation per step (dense / cocktail /
blockwise / the baselines / the ablation variants all share it, even mixed
in the same batch).  A ``max_prefill_tokens_per_step`` budget
additionally meters long prompts across steps (chunked prefill) so
admissions never stall the in-flight decodes.

The step loop below prints the per-step fused batch occupancy; at the end
the same requests are replayed on a sequential engine to show the measured
forward-invocations-per-token gap (outputs are bit-identical either way).

Run with:  PYTHONPATH=src python examples/serving_batched_decode.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import GenerationRequest, InferenceEngine

#: Four backends sharing every fused forward.
BACKENDS = ("dense", "cocktail", "fp16", "blockwise")


def build_engine(model, tokenizer, vocab, *, batched: bool) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=4,
        batched_decode=batched,
        max_prefill_tokens_per_step=512,  # chunked prefill: long prompts meter in
    )


def make_requests(samples):
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=24,
            backend=BACKENDS[i % len(BACKENDS)],
        )
        for i, sample in enumerate(samples)
    ]


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 8, vocab=vocab, seed=7)

    engine = build_engine(model, tokenizer, vocab, batched=True)
    rids = [engine.submit(request) for request in make_requests(samples)]
    print(f"submitted {len(rids)} requests over backends {BACKENDS}")
    print("batched round: one fused forward advances every running sequence\n")

    step = 0
    while engine.has_pending:
        step += 1
        before = engine.exec_stats
        fused_calls = before.n_fused_calls
        fused_seqs = before.n_fused_sequences
        sequential = before.n_sequential_forwards
        events = engine.step()
        stats = engine.exec_stats
        occupancy = stats.n_fused_sequences - fused_seqs
        n_fused = stats.n_fused_calls - fused_calls
        n_seq = stats.n_sequential_forwards - sequential
        tokens = sum(1 for e in events if e.token_id is not None)
        done = [e.request_id for e in events if e.is_last]
        print(
            f"step {step:>3} | running {engine.n_running} "
            f"prefilling {engine.n_prefilling} waiting {engine.n_waiting} "
            f"| fused {n_fused} call(s) x {occupancy} seqs + {n_seq} sequential "
            f"-> {tokens} tokens"
            + (f" | done: {', '.join(done)}" if done else "")
        )

    batched_stats = engine.exec_stats
    results = {rid: engine.result(rid) for rid in rids}

    # Replay the identical workload on a forced-sequential engine.
    reference = build_engine(model, tokenizer, vocab, batched=False)
    reference_results = reference.run_batch(make_requests(samples))
    assert [results[rid].token_ids for rid in rids] == [
        r.token_ids for r in reference_results
    ], "batched and sequential decodes must be bit-identical"

    print("\nmeasured execution profile (identical outputs, same requests):")
    print(
        f"  batched    : {batched_stats.forwards_per_token:.3f} forwards/token, "
        f"mean batch occupancy {batched_stats.mean_batch_occupancy:.2f}, "
        f"{batched_stats.n_prefill_chunks} chunked-prefill passes"
    )
    print(
        f"  sequential : {reference.exec_stats.forwards_per_token:.3f} forwards/token "
        f"({reference.exec_stats.n_sequential_forwards} single-sequence forwards)"
    )
    speedup = (
        reference.exec_stats.forwards_per_token / batched_stats.forwards_per_token
    )
    print(f"  -> {speedup:.1f}x fewer model invocations per generated token")


if __name__ == "__main__":
    main()
