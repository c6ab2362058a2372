#!/usr/bin/env python
"""Speculative decoding: n-gram drafting + one fused verify forward per step.

Four long-context QA requests are served through a batched
:class:`repro.serving.InferenceEngine` with ``speculative=`` configured:
each engine step a zero-cost n-gram proposer (vLLM-style prompt lookup)
guesses up to ``k`` continuation tokens per sequence from the sequence's
own history, and ONE fused multi-token verify forward checks every guess
against the target model.  Accepted tokens are emitted without costing a
forward of their own; rejected tails are rolled back from the paged KV
cache as if never computed.  Greedy verification is exact, so the decoded
streams are bit-identical to plain decoding — the example asserts it by
replaying the identical workload on a non-speculative engine.

The step loop prints each step's drafted/accepted outcome; the closing
summary shows the measured forwards-per-token gap and acceptance rate.

Run with:  PYTHONPATH=src python examples/serving_speculative.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import GenerationRequest, InferenceEngine, SpeculativeConfig

#: Every built-in backend can speculate; four keep the example short.
BACKENDS = ("dense", "cocktail", "fp16", "atom")


def build_engine(model, tokenizer, vocab, *, speculative) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=4,
        speculative=speculative,
    )


def make_requests(samples):
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=32,
            backend=BACKENDS[i % len(BACKENDS)],
            # Decode through the stop tokens: greedy generation settles into
            # short cycles — exactly the self-similar text prompt-lookup
            # drafting accepts at high rates.
            stop_on_special=False,
        )
        for i, sample in enumerate(samples)
    ]


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)

    config = SpeculativeConfig(proposer="ngram", k=6, max_ngram=3)
    engine = build_engine(model, tokenizer, vocab, speculative=config)
    rids = [engine.submit(request) for request in make_requests(samples)]
    print(f"submitted {len(rids)} requests over backends {BACKENDS}")
    print(f"speculative config: {config}\n")

    step = 0
    while engine.has_pending:
        step += 1
        stats = engine.exec_stats
        drafted, accepted = stats.n_drafted_tokens, stats.n_accepted_tokens
        forwards, tokens = stats.n_forward_calls, stats.n_decode_tokens
        events = engine.step()
        stats = engine.exec_stats
        emitted = sum(1 for e in events if e.token_id is not None)
        done = [e.request_id for e in events if e.is_last]
        print(
            f"step {step:>3} | running {engine.n_running} "
            f"| {stats.n_forward_calls - forwards} forward(s) -> {emitted} tokens "
            f"| drafted {stats.n_drafted_tokens - drafted:>2} "
            f"accepted {stats.n_accepted_tokens - accepted:>2}"
            + (f" | done: {', '.join(done)}" if done else "")
        )

    spec_stats = engine.exec_stats
    results = {rid: engine.result(rid) for rid in rids}
    for rid in rids:
        stats = results[rid].stats
        print(
            f"  {rid} [{results[rid].backend:>8}]: {stats.n_generated} tokens, "
            f"drafted {stats.drafted_tokens}, accepted {stats.accepted_tokens} "
            f"({100 * stats.acceptance_rate:.0f}%)"
        )

    # Replay the identical workload without speculation: bit-identical.
    reference = build_engine(model, tokenizer, vocab, speculative=None)
    reference_results = reference.run_batch(make_requests(samples))
    assert [results[rid].token_ids for rid in rids] == [
        r.token_ids for r in reference_results
    ], "speculative and plain greedy decodes must be bit-identical"

    print("\nmeasured execution profile (identical outputs, same requests):")
    print(
        f"  speculative : {spec_stats.forwards_per_token:.3f} forwards/token, "
        f"acceptance rate {100 * spec_stats.acceptance_rate:.1f}% "
        f"({spec_stats.n_accepted_tokens}/{spec_stats.n_drafted_tokens} drafts)"
    )
    print(
        f"  baseline    : {reference.exec_stats.forwards_per_token:.3f} "
        f"forwards/token (batched, no drafting)"
    )
    speedup = (
        reference.exec_stats.forwards_per_token / spec_stats.forwards_per_token
    )
    print(f"  -> {speedup:.1f}x fewer target-model forwards per generated token")


if __name__ == "__main__":
    main()
