"""Workload scenario benchmark: SLO attainment from both harness drivers.

Every scenario in :data:`repro.workloads.SCENARIOS` is generated from a
seed, stamped with sequential-replay oracles, and replayed twice:

* through the :class:`EngineDriver` under a virtual clock — TTFT/TPOT in
  deterministic engine-step units, goodput against the step-unit SLO
  deadlines, full oracle verification;
* through the :class:`HttpDriver` against a live :class:`ServingServer`
  (a subset of scenarios, to keep the run short) — the same oracles over
  real SSE streaming, with wall-clock latencies reported for trend
  tracking only.

Each run appends one sample to ``benchmarks/results/BENCH_workloads.json``
— per-scenario TTFT/TPOT p50/p95, goodput, acceptance rate, cached-token
and preemption totals, from both drivers.  This series is the measured
bar for ROADMAP item 3's adaptive-control work: a knob change must move
these numbers, on these scenarios, to count.

Assertions here are correctness and *ratio* checks only — absolute
wall-clock time is never asserted (CI machines are noisy); the virtual
clock numbers are exact and reproducible from the seed.

Knobs: ``REPRO_WORKLOAD_SEED`` (default 0), ``REPRO_WORKLOAD_SCENARIOS``
(comma list, default: all).  With ``REPRO_BENCH_GUARD=1`` the mean
engine-driver goodput is checked against the last committed sample from
the same machine class (warn >10% drop, fail >25%) — goodput is computed
on the virtual clock, so the guard is deterministic here.
"""

from __future__ import annotations

import asyncio
import os

from benchmarks._guard import (
    append_sample,
    guard_enabled,
    guard_metric,
    load_series,
)
from benchmarks.conftest import RESULTS_DIR
from repro.core.config import CocktailConfig
from repro.datasets.longbench import build_dataset, build_vocabulary
from repro.evaluation.setup import build_model, build_tokenizer
from repro.serving import InferenceEngine
from repro.serving.adaptive import SloPolicy
from repro.serving.server import ServerCore, ServingServer
from repro.workloads import (
    SCENARIOS,
    EngineDriver,
    HttpDriver,
    SloSpec,
    StepCostModel,
    VirtualClock,
    WorkloadGenerator,
    attach_oracles,
    build_report,
    check_oracles,
)

SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", 0))
SCENARIO_NAMES = tuple(
    name
    for name in os.environ.get(
        "REPRO_WORKLOAD_SCENARIOS", ",".join(sorted(SCENARIOS))
    ).split(",")
    if name
)
#: HTTP replays are wall-clock bound; a representative subset keeps the
#: bench fast while still sampling steady-state, sharing and churn.
HTTP_SCENARIOS = ("poisson", "shared_prefix", "cancel_storm")
TRAJECTORY = "BENCH_workloads.json"


def _fresh_engine(model, tokenizer, vocab, **kwargs) -> InferenceEngine:
    return InferenceEngine(
        model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon, **kwargs
    )


def test_bench_workloads(results_dir):
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)
    generator = WorkloadGenerator(samples, block_size=16)

    traces = {}
    for name in SCENARIO_NAMES:
        trace = generator.generate(name, SEED)
        attach_oracles(trace, _fresh_engine(model, tokenizer, vocab))
        traces[name] = trace

    # -- engine driver: deterministic virtual-step latencies -----------------
    engine_reports = {}
    for name, trace in traces.items():
        clock = VirtualClock()
        engine = _fresh_engine(
            model, tokenizer, vocab, max_running=4, clock=clock
        )
        run = EngineDriver(engine, clock=clock).run(trace)
        check_oracles(run)
        engine_reports[name] = build_report(run)

    # -- HTTP driver: the same oracles over real SSE streaming ---------------
    async def http_pass() -> dict:
        reports = {}
        for name in HTTP_SCENARIOS:
            if name not in traces:
                continue
            core = ServerCore(
                _fresh_engine(model, tokenizer, vocab, max_running=4)
            )
            async with ServingServer(core) as server:
                driver = HttpDriver(server.host, server.port, time_scale=0.01)
                run = await driver.run(trace=traces[name])
            check_oracles(run)
            # Wall-clock deadlines are trend data, not pass/fail: score
            # against a deliberately generous seconds-scale spec.
            reports[name] = build_report(run, SloSpec().scaled(1.0))
        return reports

    http_reports = asyncio.run(http_pass())

    mean_goodput = sum(r.goodput for r in engine_reports.values()) / max(
        1, len(engine_reports)
    )
    metrics = {
        "seed": SEED,
        "mean_engine_goodput": mean_goodput,
        "engine": {n: r.to_payload() for n, r in engine_reports.items()},
        "http": {n: r.to_payload() for n, r in http_reports.items()},
    }
    prior = load_series(RESULTS_DIR / TRAJECTORY)
    append_sample(
        RESULTS_DIR / TRAJECTORY,
        benchmark="workloads",
        label="default",
        metrics=metrics,
    )

    header = f"{'scenario':<14} {'drv':<6} {'n':>3} {'goodput':>8} " \
             f"{'ttft_p50':>9} {'ttft_p95':>9} {'tpot_p50':>9} {'cached':>7}"
    print("\n" + header)
    print("-" * len(header))
    for driver_name, reports in (("engine", engine_reports), ("http", http_reports)):
        for name, report in reports.items():
            inter = report.classes.get("interactive") or next(
                iter(report.classes.values())
            )
            fmt = (lambda v: f"{v:9.3f}" if v is not None else f"{'-':>9}")
            print(
                f"{name:<14} {driver_name:<6} {report.n_requests:>3} "
                f"{report.goodput:>8.2f} {fmt(inter.ttft_p50)} "
                f"{fmt(inter.ttft_p95)} {fmt(inter.tpot_p50)} "
                f"{report.cached_tokens:>7}"
            )

    # Correctness gates (oracle checks above are the real bar): the
    # engine-driver pass must complete everything it didn't cancel, and
    # prefix-sharing scenarios must actually share.
    for name, report in engine_reports.items():
        assert report.n_completed + report.n_cancelled == report.n_requests
        assert report.n_rejected == 0
    if "shared_prefix" in engine_reports:
        assert engine_reports["shared_prefix"].cached_tokens > 0
    if "cancel_storm" in engine_reports:
        assert engine_reports["cancel_storm"].n_cancelled > 0
    # The virtual-clock goodput is deterministic: under default deadlines
    # the steady-state scenarios must fully attain their SLOs.
    if "poisson" in engine_reports:
        assert engine_reports["poisson"].goodput == 1.0

    if guard_enabled():
        guard_metric(
            prior,
            label="default",
            metric="mean_engine_goodput",
            fresh=mean_goodput,
            what="mean engine goodput",
        )


# -- adaptive A/B: ROADMAP item 3's measured bar ------------------------------

#: Heavier-than-default shapes so the static arm actually congests: more
#: long documents arriving faster (``mixed``) and a deeper prefill volley
#: (``long_prefill``).  Both arms replay the *same* trace.
AB_OVERRIDES = {
    "mixed": dict(n_short=10, n_long=5, rate=2.5, long_context=(160, 220)),
    "long_prefill": dict(
        n_requests=8, context_range=(200, 260), max_new_tokens=6
    ),
}

#: Cost-aware virtual clock shared by both arms: a step is charged for the
#: prompt tokens it prefilled and the forward rows it computed, so a
#: control loop that shapes that work moves the measured latencies.  Token
#: outputs never depend on the clock — oracles stay bit-identical.
AB_COST_MODEL = StepCostModel(
    base=1.0, prefill_token_cost=0.08, forward_row_cost=0.02
)


def _ab_engine(model, tokenizer, vocab, clock, *, adaptive):
    kwargs = dict(max_running=4, clock=clock)
    if adaptive:
        kwargs["slo_policy"] = SloPolicy()
    return _fresh_engine(model, tokenizer, vocab, **kwargs)


def test_bench_workloads_adaptive_ab(results_dir):
    """A/B the SLO-aware scheduler against the static FIFO/LIFO order.

    Both arms replay identical traces under the same cost-aware virtual
    clock; the *on* arm additionally runs the policy this gate judges, the
    SLO-aware scheduler (``SloPolicy``).  The measured bar (ROADMAP item 3): per-scenario
    goodput must not regress on either scenario and must strictly improve
    on at least one, with every oracle still bit-identical.
    """
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)
    generator = WorkloadGenerator(samples, block_size=16)

    scenarios = {}
    for name, overrides in AB_OVERRIDES.items():
        trace = generator.generate(name, SEED, **overrides)
        attach_oracles(trace, _fresh_engine(model, tokenizer, vocab))
        scenarios[name] = trace

    results = {}
    for name, trace in scenarios.items():
        arms = {}
        for arm, adaptive in (("off", False), ("on", True)):
            clock = VirtualClock()
            engine = _ab_engine(model, tokenizer, vocab, clock, adaptive=adaptive)
            run = EngineDriver(
                engine, clock=clock, cost_model=AB_COST_MODEL
            ).run(trace)
            check_oracles(run)
            report = build_report(run)
            arms[arm] = {
                "goodput": report.goodput,
                "n_steps": run.n_steps,
                "makespan": run.makespan,
                "classes": {
                    cls: rep.goodput for cls, rep in report.classes.items()
                },
            }
        results[name] = arms

    header = f"{'scenario':<14} {'arm':<4} {'goodput':>8} {'steps':>6} {'makespan':>9}"
    print("\n" + header)
    print("-" * len(header))
    for name, arms in results.items():
        for arm, row in arms.items():
            print(
                f"{name:<14} {arm:<4} {row['goodput']:>8.3f} "
                f"{row['n_steps']:>6} {row['makespan']:>9.1f}"
            )

    mean_on = sum(a["on"]["goodput"] for a in results.values()) / len(results)
    mean_off = sum(a["off"]["goodput"] for a in results.values()) / len(results)
    metrics = {
        "seed": SEED,
        "mean_on_goodput": mean_on,
        "mean_off_goodput": mean_off,
        "scenarios": results,
    }
    prior = load_series(RESULTS_DIR / TRAJECTORY)
    append_sample(
        RESULTS_DIR / TRAJECTORY,
        benchmark="workloads",
        label="adaptive_ab",
        metrics=metrics,
    )

    # The acceptance bar: adaptive never loses, and strictly wins somewhere.
    for name, arms in results.items():
        assert arms["on"]["goodput"] >= arms["off"]["goodput"], (
            f"{name}: adaptive-on goodput {arms['on']['goodput']:.3f} fell "
            f"below adaptive-off {arms['off']['goodput']:.3f}"
        )
    assert any(
        arms["on"]["goodput"] > arms["off"]["goodput"]
        for arms in results.values()
    ), "adaptive control moved no scenario's goodput"

    if guard_enabled():
        guard_metric(
            prior,
            label="adaptive_ab",
            metric="mean_on_goodput",
            fresh=mean_on,
            what="mean adaptive-on goodput",
        )
