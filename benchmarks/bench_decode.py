"""Decode hot-path benchmark: tokens/s, step-time percentiles, phase profile.

Serves the fig5-style concurrent request mix (8 requests, four cache
backends, ``max_running=4``) through the fused batched engine with a
:class:`~repro.profiling.StepProfiler` attached and reports the numbers the
optimisation pass is judged by: decode tokens per second of stepped wall
time, step-time p50/p95, and the per-phase breakdown (schedule / gather /
dequant / project / attend / mlp / logits / bookkeeping).

Every run appends one sample to ``benchmarks/results/BENCH_decode.json`` —
the perf-trajectory artifact whose series shows how decode throughput moves
across commits.  Samples carry a ``label``: the committed series starts
with the pre-optimisation ``baseline`` sample, followed by ``default``
samples from the optimised tree (one sample of a since-removed stacked-GEMM
mode is kept in the series as history; see ``docs/benchmarks.md``).

Environment knobs:

- ``REPRO_BENCH_DECODE_REQUESTS``: request count (default 8).
- ``REPRO_BENCH_DECODE_TOKENS``: max new tokens per request (default 32).
- ``REPRO_BENCH_DECODE_REPEATS``: serve the mix this many times and record
  the fastest run (default 3).  Best-of-k is the ``timeit`` methodology:
  CPU frequency scaling swings single-run wall time by tens of percent,
  and the minimum is the observation least polluted by it.
- ``REPRO_BENCH_DECODE_LABEL``: label recorded on the appended sample
  (default ``default``).
- ``REPRO_BENCH_GUARD``: when ``1``, compare the fresh default-mode
  tokens/s against the last committed sample with the same label — warn
  on a >10% drop, fail the test on a >25% drop.
"""

from __future__ import annotations

import os

from benchmarks._guard import (
    append_sample,
    guard_enabled,
    guard_metric,
    load_series,
)
from benchmarks.conftest import RESULTS_DIR
from repro.core.config import CocktailConfig
from repro.datasets.generator import SampleGenerator
from repro.evaluation.efficiency import SERVING_SAMPLE_SPEC
from repro.evaluation.setup import build_model, build_tokenizer, shared_vocabulary
from repro.profiling import StepProfiler
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

N_REQUESTS = int(os.environ.get("REPRO_BENCH_DECODE_REQUESTS", 8))
N_TOKENS = int(os.environ.get("REPRO_BENCH_DECODE_TOKENS", 32))
N_REPEATS = int(os.environ.get("REPRO_BENCH_DECODE_REPEATS", 3))
METHODS = ("dense", "cocktail", "fp16", "atom")
MODEL_NAME = "llama2-7b"
MAX_RUNNING = 4

TRAJECTORY = "BENCH_decode.json"


def _run_decode(*, seed: int = 0) -> dict:
    """Serve the request mix ``N_REPEATS`` times; return the fastest run."""
    best: dict | None = None
    for _ in range(max(1, N_REPEATS)):
        metrics = _serve_once(seed=seed)
        if best is None or metrics["tokens_per_second"] > best["tokens_per_second"]:
            best = metrics
    best["repeats"] = max(1, N_REPEATS)
    return best


def _serve_once(*, seed: int = 0) -> dict:
    """Serve the request mix once; return throughput + phase metrics."""
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model(MODEL_NAME, tokenizer, seed=seed)
    samples = SampleGenerator(vocab, SERVING_SAMPLE_SPEC, seed=seed).generate_many(
        N_REQUESTS
    )
    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        seed=seed,
        max_running=MAX_RUNNING,
        prefix_caching=False,  # cold serve: the clock measures the hot path
    )
    profiler = StepProfiler(engine)
    with profiler:
        engine.run_batch(
            [
                GenerationRequest(
                    sample.context_words,
                    sample.query_words,
                    max_new_tokens=N_TOKENS,
                    backend=METHODS[i % len(METHODS)],
                    # Decode through special tokens so every request emits
                    # the full budget — the clock wants steady-state decode,
                    # not the workload's early-stop behaviour.
                    stop_on_special=False,
                )
                for i, sample in enumerate(samples)
            ]
        )
    stats = engine.exec_stats
    total = profiler.total_seconds
    metrics = {
        "n_requests": N_REQUESTS,
        "max_new_tokens": N_TOKENS,
        "n_decode_tokens": stats.n_decode_tokens,
        "n_steps": profiler.n_steps,
        "tokens_per_second": stats.n_decode_tokens / total if total else 0.0,
        "step_ms_p50": profiler.step_percentile(0.50) * 1e3,
        "step_ms_p95": profiler.step_percentile(0.95) * 1e3,
        "forwards_per_token": stats.forwards_per_token,
        "mean_batch_occupancy": stats.mean_batch_occupancy,
        "phase_seconds": dict(profiler.phase_times),
        "phase_fraction": profiler.phase_breakdown(),
    }
    metrics["_profile_table"] = profiler.profile_table()
    return metrics


def test_bench_decode(results_dir):
    label = os.environ.get("REPRO_BENCH_DECODE_LABEL", "default")
    prior = load_series(RESULTS_DIR / TRAJECTORY)
    metrics = _run_decode()

    print("\n" + metrics["_profile_table"])
    print(
        f"{label}: {metrics['tokens_per_second']:.0f} tok/s, "
        f"step p50 {metrics['step_ms_p50']:.2f} ms / "
        f"p95 {metrics['step_ms_p95']:.2f} ms, "
        f"{metrics['n_decode_tokens']} tokens in {metrics['n_steps']} steps"
    )

    append_sample(
        RESULTS_DIR / TRAJECTORY, benchmark="decode", label=label, metrics=metrics
    )

    assert metrics["n_decode_tokens"] > 0
    assert metrics["tokens_per_second"] > 0
    assert metrics["mean_batch_occupancy"] > 1.5
    # The exclusive span accounting covers the whole stepped wall time, so
    # the recorded phases must add back up to it (bookkeeping absorbs the
    # rest) and the named compute phases must actually have fired.
    phase_total = sum(metrics["phase_seconds"].values())
    step_total = metrics["n_decode_tokens"] / metrics["tokens_per_second"]
    assert abs(phase_total - step_total) < 0.05 * step_total + 1e-6
    for phase in ("schedule", "bookkeeping"):
        assert metrics["phase_seconds"].get(phase, 0.0) > 0.0

    if guard_enabled():
        guard_metric(
            prior,
            label=label,
            metric="tokens_per_second",
            fresh=metrics["tokens_per_second"],
            what="decode tokens/s",
        )
