#!/usr/bin/env python
"""Adaptive control loops: draft windows and SLO scheduling.

A mixed-class batch — interactive chat turns arriving alongside batch and
background summarization jobs — is served under a cost-aware virtual clock
by an engine running both adaptive loops from :mod:`repro.serving.adaptive`:

* every sequence's **draft window** adapts to its observed speculation
  acceptance (EWMA): predictable text earns deeper windows, adversarial
  text degrades to plain decoding with periodic one-token probes;
* the **SLO policy** admits interactive work past queued batch jobs and
  picks preemption victims by class and deadline slack.

The step loop prints the live trace — each step's virtual cost, the
per-class waiting/running counts and the per-request draft windows with
their smoothed acceptance — so you can watch the windows widen and the
interactive request jump the queue.  Outputs stay bit-identical to a
static engine: the example asserts it by replaying the same requests
without any controller.

Run with:  PYTHONPATH=src python examples/serving_adaptive.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import (
    GenerationRequest,
    InferenceEngine,
    SloPolicy,
    SpeculativeConfig,
)
from repro.workloads import StepCostModel, VirtualClock

#: The virtual clock charges each step for the work it actually did.
COST_MODEL = StepCostModel(base=1.0, prefill_token_cost=0.05, forward_row_cost=0.02)


def build_engine(model, tokenizer, vocab, *, adaptive, clock) -> InferenceEngine:
    kwargs = dict(
        max_running=3,
        clock=clock,
        speculative=SpeculativeConfig(k=6, adaptive=adaptive),
    )
    if adaptive:
        kwargs["slo_policy"] = SloPolicy()
    return InferenceEngine(
        model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, **kwargs
    )


def make_requests(samples):
    """Three interactive turns interleaved with batch/background jobs."""
    classes = ("interactive", "batch", "interactive", "background", "interactive")
    return [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=24,
            backend="dense",
            slo_class=classes[i % len(classes)],
            stop_on_special=False,
        )
        for i, sample in enumerate(samples)
    ]


def work_snapshot(engine) -> tuple[int, int]:
    stats = engine.exec_stats
    rows = stats.n_decode_tokens + stats.n_drafted_tokens - stats.n_accepted_tokens
    return stats.n_prefill_tokens, rows


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 5, vocab=vocab, seed=7)
    requests = make_requests(samples)

    clock = VirtualClock()
    engine = build_engine(model, tokenizer, vocab, adaptive=True, clock=clock)
    rids = [engine.submit(request) for request in requests]
    by_rid = {rid: request.slo_class for rid, request in zip(rids, requests)}
    print(f"submitted {len(rids)} requests: "
          + ", ".join(f"{rid}={cls}" for rid, cls in by_rid.items()))
    print(f"cost model {COST_MODEL}\n")

    step = 0
    while engine.has_pending:
        step += 1
        prefill_before, rows_before = work_snapshot(engine)
        events = engine.step()
        prefill_after, rows_after = work_snapshot(engine)
        cost = COST_MODEL.cost(
            prefill_tokens=prefill_after - prefill_before,
            forward_rows=rows_after - rows_before,
        )
        clock.advance(cost)
        adaptive = engine.adaptive_stats()
        classes = " ".join(
            f"{cls}:{counts['waiting']}/{counts['running']}"
            for cls, counts in sorted(adaptive["slo"].items())
        )
        windows = " ".join(
            f"{rid}:{reading['window']}"
            + (f"({reading['ewma']:.2f})" if reading["ewma"] is not None else "")
            for rid, reading in sorted(adaptive["draft_windows"].items())
        )
        done = [e.request_id for e in events if e.is_last]
        print(
            f"step {step:>3} | t={clock.now:7.1f} (cost {cost:5.1f}) "
            f"| waiting/running [{classes}] "
            f"| windows [{windows}]"
            + (f" | done: {', '.join(done)}" if done else "")
        )

    print("\nfinal per-request serving stats:")
    results = {rid: engine.result(rid) for rid in rids}
    for rid in rids:
        stats = results[rid].stats
        print(
            f"  {rid} [{stats.slo_class:>11}]: {stats.n_generated} tokens, "
            f"ttft {stats.ttft_seconds:.1f}, drafted {stats.drafted_tokens}, "
            f"accepted {stats.accepted_tokens}"
        )

    # The controllers only move *when* work happens, never what is decoded:
    # a static engine must produce bit-identical streams.
    static = build_engine(
        model, tokenizer, vocab, adaptive=False, clock=VirtualClock()
    )
    reference = static.run_batch(make_requests(samples))
    assert [results[rid].token_ids for rid in rids] == [
        r.token_ids for r in reference
    ], "adaptive and static decodes must be bit-identical"
    print("\nadaptive outputs verified bit-identical to the static engine")


if __name__ == "__main__":
    main()
