"""Sharded-pool scaling benchmark: tokens/s and goodput vs worker count.

Replays one merged interactive mix — the ``poisson`` arrivals plus the
``shared_prefix`` agent fleet, oracle-stamped — through
:class:`~repro.serving.sharded.ShardedEngine` pools of growing size under
the :class:`~repro.workloads.EngineDriver` virtual clock, and records the
scaling curve a deployment cares about:

* **aggregate tokens per (virtual) second** — one driver step is one
  concurrent round across all workers, so this is the modeled throughput
  of N engine replicas stepping in lockstep, deterministic from the seed
  and immune to CI wall-clock noise (the single-core methodology every
  `BENCH_workloads` number already uses; wall seconds ride along
  informationally);
* **goodput** — the SLO-attainment scorecard over the same run;
* **prefix-hit preservation** — total adopted pages ÷ the single-worker
  run's pages.  Cache-aware routing must keep the ``shared_prefix``
  fleet's warm hits co-located after sharding; naive round-robin would
  shred them.

Every worker count also replays bit-identically against the sequential
oracles (``check_oracles``), so the curve is only recorded for *correct*
sharded runs.  One sample per run appends to
``benchmarks/results/BENCH_sharded.json``.

Knobs: ``REPRO_BENCH_SHARDED_WORKERS`` (comma list, default ``1,2,4``),
``REPRO_WORKLOAD_SEED`` (default 0).  With ``REPRO_BENCH_GUARD=1`` the
2-worker speedup is checked against the last committed sample from the
same machine class (warn >10% drop, fail >25%).
"""

from __future__ import annotations

import os
import time

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
from repro.serving import InferenceEngine, ShardedEngine
from repro.workloads import (
    EngineDriver,
    VirtualClock,
    WorkloadGenerator,
    WorkloadTrace,
    attach_oracles,
    build_report,
    check_oracles,
    stamp_hit_floors,
)

SEED = int(os.environ.get("REPRO_WORKLOAD_SEED", 0))
WORKER_COUNTS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_SHARDED_WORKERS", "1,2,4").split(",")
    if n.strip()
)
TRAJECTORY = "BENCH_sharded.json"
BLOCK_SIZE = 16

#: Acceptance bars asserted on every run that includes 1 and 2 workers
#: (the ISSUE's headline): data parallelism must actually pay, and
#: cache-aware routing must keep most of the warm prefix hits.
MIN_SPEEDUP_2W = 1.6
MIN_HIT_PRESERVATION = 0.8


def _merged_trace(generator: WorkloadGenerator) -> WorkloadTrace:
    """``poisson`` + ``shared_prefix`` in one arrival stream.

    Request keys are disjoint (``poisson-*`` vs ``fleet-*``) and the only
    dependency target — the fleet leader — arrives at 0.0, so a stable
    sort by arrival preserves every ``depends_on`` precedence.  Arrival
    rates are raised above the scenario defaults so a single
    ``max_running=4`` worker is genuinely the bottleneck: a scaling curve
    measured on an unsaturated server would only show queueing noise.
    """
    poisson = generator.generate("poisson", SEED, n_requests=24, rate=8.0)
    shared = generator.generate("shared_prefix", SEED, fleet_size=8, rate=6.0)
    requests = sorted(
        poisson.requests + shared.requests, key=lambda r: r.arrival
    )
    trace = WorkloadTrace(
        scenario="poisson+shared_prefix",
        seed=SEED,
        requests=requests,
        metadata={"parents": [poisson.scenario, shared.scenario]},
    )
    floors = stamp_hit_floors(trace, block_size=BLOCK_SIZE)
    trace.metadata["hit_floor_total"] = sum(floors.values())
    trace.metadata["_hit_floors"] = floors
    return trace


def _run_pool(trace: WorkloadTrace, n_workers: int, model, tokenizer, vocab) -> dict:
    clock = VirtualClock()

    def factory() -> InferenceEngine:
        return InferenceEngine(
            model,
            tokenizer,
            CocktailConfig(),
            lexicon=vocab.lexicon,
            max_running=4,
            clock=clock,
        )

    engine = factory() if n_workers == 1 else ShardedEngine(
        factory, n_workers=n_workers
    )
    t0 = time.perf_counter()
    run = EngineDriver(engine, clock=clock).run(trace)
    wall = time.perf_counter() - t0
    check_oracles(run)

    outcomes = run.outcomes.values()
    tokens = sum(len(o.token_ids) for o in outcomes)
    hit_blocks = sum(o.cache_hit_blocks for o in outcomes)
    report = build_report(run)
    metrics = {
        "n_workers": n_workers,
        "n_requests": len(trace),
        "n_steps": run.n_steps,
        "makespan_steps": run.makespan,
        "completion_tokens": tokens,
        "tokens_per_second": tokens / run.makespan if run.makespan else 0.0,
        "goodput": report.goodput,
        "cache_hit_blocks": hit_blocks,
        "wall_seconds": wall,
    }
    if n_workers > 1:
        metrics["workers"] = engine.worker_stats_payload()
        metrics["n_prefix_routed"] = engine.router.n_prefix_placed
        engine.close()
    return metrics


def test_bench_sharded(results_dir):
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)
    generator = WorkloadGenerator(samples, block_size=BLOCK_SIZE)

    trace = _merged_trace(generator)
    attach_oracles(
        trace,
        InferenceEngine(
            model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon
        ),
    )

    series = {}
    for n_workers in WORKER_COUNTS:
        series[str(n_workers)] = _run_pool(
            trace, n_workers, model, tokenizer, vocab
        )

    metrics = {"seed": SEED, "series": series}
    base = series.get("1")
    two = series.get("2")
    if base and two:
        metrics["speedup_2w"] = (
            two["tokens_per_second"] / base["tokens_per_second"]
        )
        metrics["hit_preservation_2w"] = (
            two["cache_hit_blocks"] / base["cache_hit_blocks"]
            if base["cache_hit_blocks"]
            else 1.0
        )

    prior = load_series(RESULTS_DIR / TRAJECTORY)
    append_sample(
        RESULTS_DIR / TRAJECTORY,
        benchmark="sharded",
        label="default",
        metrics=metrics,
    )

    header = f"{'workers':>7} {'tok/s(virt)':>12} {'goodput':>8} " \
             f"{'hit blocks':>11} {'steps':>6} {'wall s':>7}"
    print("\n" + header)
    print("-" * len(header))
    for n_workers in WORKER_COUNTS:
        m = series[str(n_workers)]
        print(
            f"{n_workers:>7} {m['tokens_per_second']:>12.2f} "
            f"{m['goodput']:>8.2f} {m['cache_hit_blocks']:>11} "
            f"{m['n_steps']:>6} {m['wall_seconds']:>7.1f}"
        )

    for m in series.values():
        assert m["completion_tokens"] > 0
        assert m["goodput"] > 0
    if base and two:
        print(
            f"2-worker speedup {metrics['speedup_2w']:.2f}x, "
            f"prefix hits preserved {metrics['hit_preservation_2w']:.0%}"
        )
        assert metrics["speedup_2w"] >= MIN_SPEEDUP_2W, (
            f"2-worker aggregate tokens/s only {metrics['speedup_2w']:.2f}x "
            f"the single worker (need >= {MIN_SPEEDUP_2W}x)"
        )
        assert metrics["hit_preservation_2w"] >= MIN_HIT_PRESERVATION, (
            f"routing preserved only {metrics['hit_preservation_2w']:.0%} of "
            f"the single-worker prefix hits (need >= "
            f"{MIN_HIT_PRESERVATION:.0%})"
        )

    if guard_enabled() and "speedup_2w" in metrics:
        guard_metric(
            prior,
            label="default",
            metric="speedup_2w",
            fresh=metrics["speedup_2w"],
            what="2-worker sharded speedup",
        )
