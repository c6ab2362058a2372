#!/usr/bin/env python
"""SLO-aware scheduling under a cost-aware virtual clock.

A mixed-class batch — interactive chat turns arriving alongside batch and
background summarization jobs — is served by an engine running the
:class:`~repro.serving.adaptive.SloPolicy`: it admits interactive work
past queued batch jobs and picks preemption victims by class and deadline
slack.

The step loop prints the live trace — each step's virtual cost and the
per-class waiting/running counts — so you can watch the interactive
requests jump the queue.  Outputs stay bit-identical to a FIFO engine:
the example asserts it by replaying the same requests without the
policy.

Run with:  PYTHONPATH=src python examples/serving_adaptive.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import GenerationRequest, InferenceEngine, SloPolicy
from repro.workloads import StepCostModel, VirtualClock

#: The virtual clock charges each step for the work it actually did.
COST_MODEL = StepCostModel(base=1.0, prefill_token_cost=0.05, forward_row_cost=0.02)


def build_engine(model, tokenizer, vocab, *, slo_policy, clock) -> InferenceEngine:
    return InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=3,
        clock=clock,
        slo_policy=slo_policy,
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
    return stats.n_prefill_tokens, stats.n_decode_tokens


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 5, vocab=vocab, seed=7)
    requests = make_requests(samples)

    clock = VirtualClock()
    engine = build_engine(model, tokenizer, vocab, slo_policy=SloPolicy(), clock=clock)
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
        classes = " ".join(
            f"{cls}:{counts['waiting']}/{counts['running']}"
            for cls, counts in sorted(engine.adaptive_stats()["slo"].items())
        )
        done = [e.request_id for e in events if e.is_last]
        print(
            f"step {step:>3} | t={clock.now:7.1f} (cost {cost:5.1f}) "
            f"| waiting/running [{classes}]"
            + (f" | done: {', '.join(done)}" if done else "")
        )

    print("\nfinal per-request serving stats:")
    results = {rid: engine.result(rid) for rid in rids}
    for rid in rids:
        stats = results[rid].stats
        print(
            f"  {rid} [{stats.slo_class:>11}]: {stats.n_generated} tokens, "
            f"ttft {stats.ttft_seconds:.1f}"
        )

    # The policy only moves *when* work happens, never what is decoded: a
    # FIFO engine must produce bit-identical streams.
    fifo = build_engine(model, tokenizer, vocab, slo_policy=None, clock=VirtualClock())
    reference = fifo.run_batch(make_requests(samples))
    assert [results[rid].token_ids for rid in rids] == [
        r.token_ids for r in reference
    ], "SLO-scheduled and FIFO decodes must be bit-identical"
    print("\nSLO-scheduled outputs verified bit-identical to the FIFO engine")


if __name__ == "__main__":
    main()
