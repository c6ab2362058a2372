#!/usr/bin/env python
"""Generate a seeded workload, replay it self-checked, print the SLO card.

The workload harness in one script: a :class:`WorkloadGenerator` builds
two deterministic traces from a seed (a Poisson steady-state blend and a
shared-system-prompt agent fleet), a sequential replay on a clean engine
stamps every request with its oracle (expected tokens, stop reason and a
structural prefix-cache hit floor), and an :class:`EngineDriver` replays
each trace concurrently under a virtual clock — asserting bit-identical
outputs and the hit floors on the way — before
:func:`~repro.workloads.build_report` scores the run against per-class
TTFT/TPOT deadlines measured in deterministic engine-step units.

Run with:  PYTHONPATH=src python examples/workloads_slo.py
"""

from __future__ import annotations

from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import InferenceEngine
from repro.workloads import (
    EngineDriver,
    VirtualClock,
    WorkloadGenerator,
    attach_oracles,
    build_report,
    check_oracles,
)

SEED = 0
SCENARIOS = ("poisson", "shared_prefix")


def fresh_engine(model, tokenizer, vocab, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, **kwargs
    )


def main() -> None:
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)
    generator = WorkloadGenerator(samples, block_size=16)

    for name in SCENARIOS:
        trace = generator.generate(name, SEED)
        print(f"\n=== scenario {name!r} · seed {SEED} · {len(trace)} requests ===")

        # Sequential replay on a quiet engine: the oracle for ANY schedule.
        attach_oracles(trace, fresh_engine(model, tokenizer, vocab))
        total_floor = trace.metadata["hit_floor_total"]
        print(f"oracles stamped; guaranteed prefix-hit floor: {total_floor} pages")

        # Concurrent replay under a virtual clock (1 unit == 1 engine step).
        clock = VirtualClock()
        engine = fresh_engine(model, tokenizer, vocab, max_running=4, clock=clock)
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)  # bit-identical tokens + hit floors, or raise
        print(f"replayed in {run.n_steps} engine steps: "
              f"{run.n_completed} completed, {run.n_cancelled} cancelled — "
              "all outputs bit-identical to the sequential replay")

        report = build_report(run)
        fmt = lambda v: f"{v:.2f}" if v is not None else "-"  # noqa: E731
        for cls in report.classes.values():
            print(f"  [{cls.slo_class}] goodput {cls.goodput:.2f} "
                  f"({cls.n_within_slo}/{cls.n_offered} within deadline), "
                  f"TTFT p50/p95 = {fmt(cls.ttft_p50)}/{fmt(cls.ttft_p95)} steps, "
                  f"TPOT p50 = {fmt(cls.tpot_p50)}")
        print(f"  prefix-cache adoption: {report.cached_tokens} context tokens "
              f"served from shared pages")

        assert report.goodput > 0
    print("\nworkload SLO harness example OK")


if __name__ == "__main__":
    main()
