"""Serving front-door load benchmark: requests/s, TTFT and TPOT under load.

Spins a real :class:`ServingServer` (HTTP/1.1 + SSE over a background
engine-step thread), fires a wave of concurrent streaming clients at
``POST /v1/completions`` and measures the service-level numbers a
deployment would watch: sustained requests per second, mean/p95 time to
first token and mean time per output token — client-observed wall clock
on one side, the engine's own :class:`RequestStats` latencies (carried in
each stream's final SSE chunk) on the other.  A
:class:`~repro.profiling.StepProfiler` rides along on the engine so every
sample also records where engine step time went (per-phase seconds and
fractions: schedule / gather / dequant / project / attend / mlp / logits /
bookkeeping).

Alongside the human-readable table, the run appends one sample to
``benchmarks/results/BENCH_serve.json`` — the perf-trajectory artifact
(uploaded by the nightly workflow) whose series shows how serving
latency moves across commits rather than only within one review.

Scale the load with ``REPRO_BENCH_CLIENTS`` (default 32).  With
``REPRO_BENCH_GUARD=1`` the fresh tokens/s is checked against the last
committed sample from the same machine class (warn >10% drop, fail >25%).
"""

from __future__ import annotations

import asyncio
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
from repro.profiling import StepProfiler
from repro.serving import InferenceEngine
from repro.serving.server import ServerCore, ServingServer
from repro.serving.server.client import stream_completion
from repro.workloads.stats import percentile

N_CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", 32))
N_TOKENS = 12
TRAJECTORY = "BENCH_serve.json"


async def _drive_load(server: ServingServer, samples) -> dict:
    async def one_client(i: int) -> tuple[float, dict]:
        sample = samples[i % len(samples)]
        t0 = time.perf_counter()
        _text, final = await stream_completion(
            server.host,
            server.port,
            {
                "context": list(sample.context_words[:56]),
                "query": list(sample.query_words),
                "max_tokens": N_TOKENS,
                "seed": i,
            },
        )
        return time.perf_counter() - t0, final

    t_start = time.perf_counter()
    outcomes = await asyncio.gather(*(one_client(i) for i in range(N_CLIENTS)))
    elapsed = time.perf_counter() - t_start

    wall_latencies = [wall for wall, _ in outcomes]
    finals = [final for _, final in outcomes]
    ttfts = [f["stats"]["ttft_seconds"] for f in finals]
    tpots = [f["stats"]["tpot_seconds"] for f in finals if f["stats"]["tpot_seconds"]]
    queues = [f["stats"]["queue_seconds"] for f in finals]
    n_tokens = sum(f["usage"]["completion_tokens"] for f in finals)
    return {
        "n_clients": N_CLIENTS,
        "max_tokens": N_TOKENS,
        "elapsed_seconds": elapsed,
        "requests_per_second": N_CLIENTS / elapsed,
        "tokens_per_second": n_tokens / elapsed,
        "completion_tokens": n_tokens,
        "mean_ttft_seconds": sum(ttfts) / len(ttfts),
        "p95_ttft_seconds": percentile(ttfts, 0.95),
        "mean_tpot_seconds": sum(tpots) / len(tpots),
        "mean_queue_seconds": sum(queues) / len(queues),
        "mean_wall_seconds": sum(wall_latencies) / len(wall_latencies),
        "finish_reasons": sorted(
            {f["choices"][0]["finish_reason"] for f in finals}
        ),
    }


def test_bench_serve(results_dir):
    vocab = build_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=8,
    )
    core = ServerCore(engine)
    samples = build_dataset("qasper", 4, vocab=vocab, seed=7)

    async def scenario() -> dict:
        async with ServingServer(core) as server:
            return await _drive_load(server, samples)

    profiler = StepProfiler(engine)
    with profiler:
        metrics = asyncio.run(scenario())
    stats = core.stats_payload()
    metrics["engine_steps"] = stats["engine"]["n_steps"]
    metrics["mean_batch_occupancy"] = stats["engine"]["mean_batch_occupancy"]
    metrics["step_ms_p50"] = profiler.step_percentile(0.50) * 1e3
    metrics["step_ms_p95"] = profiler.step_percentile(0.95) * 1e3
    metrics["phase_seconds"] = dict(profiler.phase_times)
    metrics["phase_fraction"] = profiler.phase_breakdown()
    prior = load_series(RESULTS_DIR / TRAJECTORY)
    append_sample(
        RESULTS_DIR / TRAJECTORY, benchmark="serve", label="default", metrics=metrics
    )

    print(
        f"\n{metrics['n_clients']} concurrent streaming clients, "
        f"{metrics['max_tokens']} tokens each — "
        f"{metrics['requests_per_second']:.1f} req/s, "
        f"{metrics['tokens_per_second']:.0f} tok/s\n"
        f"TTFT mean {metrics['mean_ttft_seconds'] * 1e3:.1f} ms "
        f"(p95 {metrics['p95_ttft_seconds'] * 1e3:.1f} ms), "
        f"TPOT mean {metrics['mean_tpot_seconds'] * 1e3:.2f} ms, "
        f"queue mean {metrics['mean_queue_seconds'] * 1e3:.1f} ms\n"
        f"engine: {metrics['engine_steps']} steps, "
        f"batch occupancy {metrics['mean_batch_occupancy']:.2f}"
    )
    print(profiler.profile_table())

    # Every client completed and the stats reconcile exactly.
    assert stats["server"]["n_finished"] == N_CLIENTS
    assert stats["server"]["n_cancelled"] == 0
    assert stats["tenants"]["anonymous"]["completion_tokens"] == (
        metrics["completion_tokens"]
    )
    assert metrics["requests_per_second"] > 0
    assert metrics["mean_ttft_seconds"] > 0
    assert metrics["mean_tpot_seconds"] > 0
    # Concurrency actually happened: the fused step served multiple
    # sequences per round, and the wave finished far faster than serial
    # client latency would imply.
    assert metrics["mean_batch_occupancy"] > 1.5
    assert metrics["mean_wall_seconds"] * N_CLIENTS > metrics["elapsed_seconds"]

    if guard_enabled():
        guard_metric(
            prior,
            label="default",
            metric="tokens_per_second",
            fresh=metrics["tokens_per_second"],
            what="serving tokens/s",
        )
