"""Efficiency experiments: GPU memory, TPOT and throughput (Figures 4-6).

The hardware model consumes a :class:`~repro.hardware.layout.KVCacheProfile`
per method.  For the mixed-precision methods (Cocktail, KVQuant and the
ablation variants) the profile is *measured*: a representative QMSum-style
request is served through the :class:`~repro.serving.engine.InferenceEngine`
and its actual quantization plan (bit fractions, ordering, search cost) is
what the cost model sees.  :func:`serving_stats_table` complements the
analytic Figure-6 curves with throughput/TTFT/TPOT numbers measured on the
real continuous-batching engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.core.config import CocktailConfig
from repro.datasets.base import DatasetSpec
from repro.datasets.generator import SampleGenerator
from repro.datasets.longbench import build_dataset
from repro.evaluation.report import ResultTable
from repro.evaluation.setup import (
    DEFAULT_METHODS,
    build_model,
    build_quantizer,
    build_tokenizer,
    method_display_name,
    shared_vocabulary,
)
from repro.hardware.gpu import A800_80GB, GPUSpec
from repro.hardware.latency import tpot_microseconds
from repro.hardware.layout import KVCacheProfile
from repro.hardware.memory import analytic_context_kv_bytes, gpu_memory_gb
from repro.hardware.throughput import throughput_curve
from repro.model.config import SIM_MODEL_NAMES, get_model_spec
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest

#: Context length (tokens) charged per model in the memory/TPOT experiments —
#: long-context models are evaluated near their longer windows, matching the
#: much larger KV caches they carry in the paper's Figure 4/5 setup.
EFFICIENCY_CONTEXT_LENS: dict[str, int] = {
    "llama2-7b": 3600,
    "llama2-13b": 3600,
    "mistral-7b": 24000,
    "longchat-7b": 24000,
}

#: Context length used by the throughput-vs-batch-size experiment (Figure 6).
THROUGHPUT_CONTEXT_LEN = 2048


@lru_cache(maxsize=32)
def representative_profile(
    method: str,
    *,
    dataset: str = "qmsum",
    chunk_size: int = 32,
    alpha: float = 0.6,
    beta: float = 0.1,
    seed: int = 0,
) -> KVCacheProfile:
    """Measure a method's storage profile on one representative request.

    A QMSum-style sample is served through the inference engine with the
    Llama2-7B simulation model and the method's :meth:`plan` is executed for
    real; the resulting bitwidth mix, ordering flag and search latency
    become the hardware-model profile.  Methods outside the serving
    registry (the ablation variants) are plugged in as engine-local
    backends via the common quantizer interface.
    """
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer, seed=seed)
    sample = build_dataset(dataset, 1, vocab=vocab, seed=seed)[0]
    config = CocktailConfig(chunk_size=chunk_size, alpha=alpha, beta=beta)
    engine = InferenceEngine(model, tokenizer, config, lexicon=vocab.lexicon, seed=seed)
    if method.lower() not in engine.backend_names():
        engine.add_backend(
            method,
            build_quantizer(method, vocab=vocab, cocktail_config=config, seed=seed),
        )
    result = engine.run(
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=1,
            backend=method,
        )
    )
    return KVCacheProfile.from_plan(result.plan, chunk_size=chunk_size)


def profiles_for_methods(
    methods: Sequence[str] = DEFAULT_METHODS, **kwargs
) -> dict[str, KVCacheProfile]:
    """Representative profiles for a list of methods."""
    return {method: representative_profile(method, **kwargs) for method in methods}


def memory_table(
    model_names: Sequence[str] = SIM_MODEL_NAMES,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    context_lens: dict[str, int] | None = None,
    output_len: int = 128,
) -> ResultTable:
    """GPU memory (GiB) per model and method — the data behind Figure 4.

    These numbers are *analytic* (paper-scale models through the hardware
    model); :func:`measured_pool_table` reports the bytes the paged block
    pool actually holds for the same methods, next to the analytic estimate
    applied to the identical request.
    """
    context_lens = context_lens or EFFICIENCY_CONTEXT_LENS
    profiles = profiles_for_methods(methods)
    columns = [get_model_spec(name).display_name for name in model_names]
    table = ResultTable(
        title="GPU memory (GB) per model (Figure 4)",
        row_names=[method_display_name(m) for m in methods],
        column_names=columns,
    )
    for model_name in model_names:
        spec = get_model_spec(model_name)
        context_len = context_lens.get(model_name, 3600)
        for method in methods:
            value = gpu_memory_gb(
                spec, profiles[method], context_len, output_len=output_len
            )
            table.set(method_display_name(method), spec.display_name, value)
    return table


def tpot_table(
    model_names: Sequence[str] = SIM_MODEL_NAMES,
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    gpu: GPUSpec = A800_80GB,
    context_lens: dict[str, int] | None = None,
    output_len: int = 128,
) -> ResultTable:
    """Time per output token (microseconds) — the data behind Figure 5."""
    context_lens = context_lens or EFFICIENCY_CONTEXT_LENS
    profiles = profiles_for_methods(methods)
    columns = [get_model_spec(name).display_name for name in model_names]
    table = ResultTable(
        title="Time per output token (us) per model (Figure 5)",
        row_names=[method_display_name(m) for m in methods],
        column_names=columns,
    )
    for model_name in model_names:
        spec = get_model_spec(model_name)
        context_len = context_lens.get(model_name, 3600)
        for method in methods:
            value = tpot_microseconds(
                spec, gpu, profiles[method], context_len, output_len=output_len
            )
            table.set(method_display_name(method), spec.display_name, value)
    return table


def throughput_table(
    model_name: str = "llama2-7b",
    methods: Sequence[str] = DEFAULT_METHODS,
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 200, 300, 400),
    *,
    gpu: GPUSpec = A800_80GB,
    context_len: int = THROUGHPUT_CONTEXT_LEN,
    output_len: int = 128,
) -> ResultTable:
    """Throughput (tokens/s) per method and batch size — Figure 6 (OOM = empty)."""
    profiles = profiles_for_methods(methods)
    spec = get_model_spec(model_name)
    columns = [str(batch) for batch in batch_sizes]
    table = ResultTable(
        title=f"Throughput (tokens/s) vs batch size on {spec.display_name} (Figure 6)",
        row_names=[method_display_name(m) for m in methods],
        column_names=columns,
    )
    for method in methods:
        curve = throughput_curve(
            spec,
            gpu,
            profiles[method],
            context_len,
            batch_sizes,
            output_len=output_len,
        )
        for batch, value in zip(batch_sizes, curve):
            table.set(method_display_name(method), str(batch), value)
    return table


def measured_pool_table(
    methods: Sequence[str] = DEFAULT_METHODS,
    *,
    dataset: str = "qmsum",
    model_name: str = "llama2-7b",
    chunk_size: int = 32,
    seed: int = 0,
) -> ResultTable:
    """Measured paged-pool bytes per method, next to the analytic estimate.

    One representative request per method is served through a paged
    :class:`~repro.serving.engine.InferenceEngine`; the engine's shared
    :class:`~repro.kvpool.BlockPool` is walked for the bytes the request's
    context pages actually hold (packed codes + scales + FP16-kept rows +
    page-granularity fragmentation).  The ``analytic B`` column applies the
    Figure-4 byte conventions to the *same* request's quantization plan, so
    the gap between the two columns is exactly the allocator reality the
    analytic model cannot see.  ``x fp16`` is the measured compression
    against FP16 pages at the same workload.
    """
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model(model_name, tokenizer, seed=seed)
    sample = build_dataset(dataset, 1, vocab=vocab, seed=seed)[0]
    config = CocktailConfig(chunk_size=chunk_size)
    table = ResultTable(
        title="Measured KV-pool bytes vs analytic estimate (context region)",
        row_names=[method_display_name(m) for m in methods],
        column_names=["measured B", "analytic B", "fp16 B", "x fp16"],
    )
    for method in methods:
        engine = InferenceEngine(
            model, tokenizer, config, lexicon=vocab.lexicon, seed=seed
        )
        if method.lower() not in engine.backend_names():
            engine.add_backend(
                method,
                build_quantizer(method, vocab=vocab, cocktail_config=config, seed=seed),
            )
        result = engine.run(
            GenerationRequest(
                sample.context_words,
                sample.query_words,
                max_new_tokens=1,
                backend=method,
            ),
            pop=True,
        )
        measured = result.details["kv_bytes"]
        analytic = analytic_context_kv_bytes(
            result.plan.token_bits,
            n_layers=model.config.n_layers,
            n_kv_heads=model.config.n_kv_heads,
            head_dim=model.config.head_dim,
        )
        row = method_display_name(method)
        table.set(row, "measured B", float(measured["context_bytes"]))
        table.set(row, "analytic B", float(analytic))
        table.set(row, "fp16 B", float(measured["context_fp16_bytes"]))
        ratio = (
            measured["context_fp16_bytes"] / measured["context_bytes"]
            if measured["context_bytes"]
            else float("inf")
        )
        table.set(row, "x fp16", ratio)
    return table


#: Small request shape used by the measured serving experiment (kept tiny so
#: the simulation-speed engine finishes in test time).
SERVING_SAMPLE_SPEC = DatasetSpec(
    name="serving-qa",
    display_name="ServingQA",
    task="Single-Document QA",
    metric="f1",
    n_context_words=256,
    answer_length=(5, 8),
    n_related_facts=1,
    n_distractor_facts=4,
    n_trap_chunks=1,
)


def serving_stats_table(
    n_requests: int = 8,
    methods: Sequence[str] = ("dense", "blockwise", "fp16", "kivi"),
    *,
    model_name: str = "llama2-7b",
    max_new_tokens: int = 12,
    max_running: int = 4,
    chunk_size: int = 32,
    seed: int = 0,
    repeats: int = 1,
    prefix_caching: bool = True,
) -> ResultTable:
    """Measured serving stats from the real continuous-batching engine.

    ``n_requests`` requests round-robin over ``methods`` are submitted at
    once and served concurrently; the table reports wall-clock means of
    queue time, TTFT and TPOT (milliseconds) plus generated tokens per
    method, and — because every sequence lives in the shared paged block
    pool — the *measured* mean context-cache and total KV bytes each
    method's requests held at completion.  This complements the analytic
    Figure-6 model with numbers the engine actually achieves (at simulation
    speed, not GPU speed).

    ``repeats`` submits the whole batch that many times (same documents,
    same queries — the shared-document traffic pattern prefix caching
    targets): the ``hit blocks`` and ``saved B`` columns then report the
    measured prefix-reuse per method — mean pool pages adopted from the
    engine's prefix index and mean measured bytes of prefill storage those
    requests never re-created.  ``prefix_caching`` is forwarded to the
    engine.

    The ``fwd/tok`` and ``batch occ`` columns report the engine-wide
    measured execution profile — model forwards per generated token and
    mean fused-batch occupancy.  Execution is fused *across* methods (one
    forward advances a mixed batch of every method), so these two columns
    carry the same engine-wide value on every row.
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    vocab = shared_vocabulary()
    tokenizer = build_tokenizer(vocab)
    model = build_model(model_name, tokenizer, seed=seed)
    config = CocktailConfig(chunk_size=chunk_size)
    engine = InferenceEngine(
        model,
        tokenizer,
        config,
        lexicon=vocab.lexicon,
        seed=seed,
        max_running=max_running,
        prefix_caching=prefix_caching,
    )
    samples = SampleGenerator(vocab, SERVING_SAMPLE_SPEC, seed=seed).generate_many(
        n_requests
    )
    requests = [
        GenerationRequest(
            sample.context_words,
            sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=methods[i % len(methods)],
        )
        for _ in range(repeats)
        for i, sample in enumerate(samples)
    ]
    results = engine.run_batch(requests)

    table = ResultTable(
        title=f"Measured serving stats ({len(requests)} concurrent requests)",
        row_names=[method_display_name(m) for m in methods],
        column_names=[
            "requests",
            "tokens",
            "queue ms",
            "ttft ms",
            "tpot ms",
            "ctx KV B",
            "KV B",
            "hit blocks",
            "saved B",
            "fwd/tok",
            "batch occ",
        ],
    )
    for method in methods:
        rows = [r for r in results if r.backend == method]
        row = method_display_name(method)
        table.set(row, "requests", float(len(rows)))
        table.set(row, "tokens", float(sum(len(r.token_ids) for r in rows)))
        for column, attr in (
            ("queue ms", "queue_seconds"),
            ("ttft ms", "ttft_seconds"),
            ("tpot ms", "tpot_seconds"),
        ):
            values = [getattr(r.stats, attr) for r in rows]
            values = [v for v in values if v is not None]
            mean = sum(values) / len(values) if values else 0.0
            table.set(row, column, mean * 1e3)
        for column, key in (("ctx KV B", "context_bytes"), ("KV B", "total_bytes")):
            values = [
                r.details["kv_bytes"][key] for r in rows if "kv_bytes" in r.details
            ]
            table.set(row, column, sum(values) / len(values) if values else 0.0)
        n = max(len(rows), 1)
        table.set(
            row, "hit blocks", sum(r.stats.cache_hit_blocks for r in rows) / n
        )
        table.set(row, "saved B", sum(r.stats.cached_bytes for r in rows) / n)
        table.set(row, "fwd/tok", engine.exec_stats.forwards_per_token)
        table.set(row, "batch occ", engine.exec_stats.mean_batch_occupancy)
    return table
