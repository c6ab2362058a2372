"""Command line of the end-to-end benchmark.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
is what ``BENCHMARK.json`` tells the driver to run; without ``--workload``
all four run in turn.  After each workload's report the last line printed
is the driver's JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

_T_PROCESS = time.perf_counter()

if __package__ in (None, ""):  # run as a script: make ``benchmarks.e2e`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import stack as stack_mod  # noqa: E402

BLAS_THREADS = stack_mod.bootstrap()

from benchmarks.e2e import inputs, metrics, trace  # noqa: E402
from benchmarks.e2e.metrics import warn  # noqa: E402
from benchmarks.e2e.workloads import REFERENCE_SECONDS, WORKLOADS, Workload, drive  # noqa: E402

#: Imports are paid once per process and belong to every workload's set-up.
IMPORT_S = time.perf_counter() - _T_PROCESS

SETUP_REPEATS = 3
#: A measured pass may take this many times its nominal length before the
#: load generator stops (see ``workloads.drive``); the warm-up gets a quarter.
PASS_BUDGET = 2.5
OUT_DIR = Path(__file__).resolve().parent / "out"


def set_up(workload: Workload, seed: int, seconds: float):
    """Build the stack, generate the inputs and replay the oracle subset.

    The oracle is the program itself on a fresh engine, one request at a
    time: the measured run, whatever its batching and cache state, must
    reproduce those token ids bit for bit.
    """
    vocab = stack_mod.build_vocabulary()
    n = workload.n_requests(seconds)
    requests = workload.requests(vocab, 2 * seed, n, seconds)
    warmup = workload.requests(vocab, 2 * seed + 1, max(n // 4, 1), seconds / 4)
    fresh = build(workload, vocab)
    oracle = {
        index: fresh.engine.run(fresh.engine_request(requests[index]), pop=True).token_ids
        for index in inputs.oracle_subset(seed, workload.name, n)
    }
    return build(workload, vocab), requests, warmup, oracle


def build(workload: Workload, vocab) -> stack_mod.Stack:
    return stack_mod.build_stack(
        vocab,
        max_running=workload.max_running,
        prefix_cache_blocks=workload.prefix_cache_blocks,
    )


def phase_counts(label: str, records, failed: set[int]) -> dict:
    counts = {"sent": len(records), "succeeded": len(records) - len(failed), "failed": len(failed)}
    print(f"  {label:<9}" + "  ".join(f"{k}={v}" for k, v in counts.items()))
    return counts


def warm_up(workload: Workload, stack: stack_mod.Stack, warmup, budget_s: float) -> None:
    """Untimed traffic through the engine the measured pass will use."""
    records, _ = drive(workload, stack, warmup, budget_s)
    phase_counts("warm-up", records, metrics.failures(records, {}))


def measure(workload: Workload, stack, requests, oracle, budget_s: float):
    """One measured pass; warns if it was cut short or had to grow the pool.

    A pass that allocates fresh pages runs a quarter slower than one that
    reuses freed ones, so a pool that grew means the warm-up was too short.
    """
    pages = stack.pool.peak_allocated_blocks
    t0 = time.perf_counter()
    records, wall = drive(workload, stack, requests, budget_s)
    counts = phase_counts("measured", records, metrics.failures(records, oracle))
    if len(records) < len(requests):
        warn(f"{workload.name}: stopped at {budget_s:g} s, {len(records)} of {len(requests)} sent")
    grown = stack.pool.peak_allocated_blocks
    if grown > 1.25 * pages:
        warn(f"{workload.name}: pool grew {pages} -> {grown} pages after warm-up")
    return records, wall, t0, counts


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """One workload, start to finish; returns the driver's result object."""
    print(f"== {workload.name}  seed={seed}  seconds={seconds:g}  traced={int(traced)}")
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        stack = None  # drop the previous repeat's engines before building anew
        gc.collect()
        stack, requests, warmup, oracle = set_up(workload, seed, seconds)
        setups.append(time.perf_counter() - t)
    setup_s = IMPORT_S + statistics.median(setups)

    budget_s = PASS_BUDGET * max(seconds, REFERENCE_SECONDS)
    warm_up(workload, stack, warmup, budget_s / 4)
    records, wall, t0, counts = measure(workload, stack, requests, oracle, budget_s)
    values = metrics.end_to_end(workload, stack, requests, records, wall, oracle, setup_s)
    open_loop = workload.loop == "core"
    drift = metrics.half_drift_share(records, t0, wall, open_loop=open_loop)
    if drift > 0.10:
        warn(f"{workload.name}: halves of the pass differ by {drift:.1%}; warm-up too short?")
    if open_loop:
        mid, end = (metrics.backlog_at(records, t0 + t) for t in (seconds / 2, seconds))
        if end > mid:
            warn(f"{workload.name}: backlog grew from {mid} at the midpoint to {end} at the end")
    print(
        f"  inputs_sha256={inputs.inputs_sha256(requests)[:16]}  "
        f"tokens_sha256={metrics.tokens_sha256(records)[:16]}  "
        f"oracle={len(oracle)} replayed  wall={wall:.2f}s  "
        f"OPENBLAS_NUM_THREADS={BLAS_THREADS}"
    )
    contract = metrics.load_contract()
    n_ttft, n_gap = len(metrics.ttfts(records)), len(metrics.gaps(records))
    report(contract["end_to_end"], values, {"ttft": n_ttft, "itl": n_gap})

    if traced:
        stack = build(workload, stack.vocab)
        warm_up(workload, stack, warmup, budget_s / 4)
        with trace.Tracer(stack) as tracer:
            t_records, t_wall, t_t0, t_counts = measure(
                workload, stack, requests, oracle, budget_s
            )
        values = trace.per_layer(
            tracer, workload, t_records, t_wall, t_t0, t_counts, untraced=(records, wall)
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl")
        report(contract["per_layer"], values, {})
        declared = contract["per_layer"]
    else:
        declared = contract["end_to_end"]
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["sent"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def report(declared: list[dict], values: dict, samples: dict) -> None:
    """Every declared metric by name, with its unit and (for timings) its n."""
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ {m['name'] for m in declared})}"
        )
    for metric in declared:
        name, value = metric["name"], values[metric["name"]]
        n = samples.get(name.split("_")[0])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<32}{shown:>14} {metric['unit']:<8}" + (f" n={n}" if n else ""))


def check_repeat(names: list[str], seed: int, seconds: float) -> int:
    """Run the suite twice; non-zero if any metric moved by more than its bound."""
    bounds = {m["name"]: m["bound"] for m in metrics.load_contract()["end_to_end"]}
    excess = 0
    for name in names:
        first, second = (
            run_workload(WORKLOADS[name], seed, seconds, False)["metrics"] for _ in range(2)
        )
        print(f"== {name}: repeat difference against bound")
        for metric, bound in bounds.items():
            a, b = first[metric]["value"], second[metric]["value"]
            diff = abs(b - a) / abs(a)
            over = diff > bound
            excess += over
            print(f"  {metric:<16}{a:>12.5g}{b:>12.5g}{diff:>9.2%} of {bound:.1%}" + ("  EXCESS" * over))
    return 1 if excess else 0


def main(argv: list[str] | None = None) -> int:
    contract = metrics.load_contract()
    metrics.check_contract(contract)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    stack_mod.pin_malloc_arena()
    names = args.workload or [w["name"] for w in contract["workloads"]]
    if args.check_repeat:
        return check_repeat(names, args.seed, args.seconds)
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
