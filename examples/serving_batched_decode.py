#!/usr/bin/env python
"""Batched decode execution: one fused forward per engine step.

Eight long-context QA requests over four decode backends are served through
one :class:`repro.serving.InferenceEngine`.  The batched round is the
default: every running sequence advances through **one**
``decode_step_batch`` model invocation per step (dense / cocktail /
blockwise / the baselines / the ablation variants all share it, even mixed
in the same batch).  Each admitted prompt is prefilled and prepared in one
pass within the step that admits it, and decodes from the next round on.

The step loop below prints the per-step fused batch occupancy; at the end
the measured execution profile shows what the fusion buys: at most one
model forward per step, so at four running sequences at most half a forward
per generated token (a per-sequence decode would cost one per token).

Run with:  PYTHONPATH=src python examples/serving_batched_decode.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import GenerationRequest, InferenceEngine

#: Four backends sharing every fused forward.
BACKENDS = ("dense", "cocktail", "fp16", "blockwise")


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

    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=4,
    )
    rids = [engine.submit(request) for request in make_requests(samples)]
    print(f"submitted {len(rids)} requests over backends {BACKENDS}")
    print("batched round: one fused forward advances every running sequence\n")

    step = 0
    while engine.has_pending:
        step += 1
        before = engine.exec_stats
        forward_calls = before.n_forward_calls
        fused_seqs = before.n_fused_sequences
        events = engine.step()
        stats = engine.exec_stats
        occupancy = stats.n_fused_sequences - fused_seqs
        n_fused = stats.n_forward_calls - forward_calls
        tokens = sum(1 for e in events if e.token_id is not None)
        done = [e.request_id for e in events if e.is_last]
        print(
            f"step {step:>3} | running {engine.n_running} "
            f"waiting {engine.n_waiting} "
            f"| fused {n_fused} call(s) x {occupancy} seqs -> {tokens} tokens"
            + (f" | done: {', '.join(done)}" if done else "")
        )

    stats = engine.exec_stats
    print("\nmeasured execution profile:")
    print(
        f"  {stats.forwards_per_token:.3f} forwards/token, "
        f"mean batch occupancy {stats.mean_batch_occupancy:.2f}, "
        f"{stats.n_forward_calls} forwards over {stats.n_steps} steps, "
        f"{stats.n_prefill_tokens} prompt tokens prefilled"
    )
    assert stats.forwards_per_token <= 0.5, "the fused round must halve forwards"


if __name__ == "__main__":
    main()
