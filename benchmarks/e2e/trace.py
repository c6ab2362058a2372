"""The traced run: spans around each layer's public entry points.

The wrappers live here, in the harness, and are installed by dotted name,
so the program carries no tracing code and a renamed boundary costs one
``null`` metric and a warning, never a failed run.  Spans carry name,
start, end, parent and request id, stay in memory during the pass and are
written out afterwards.  End-to-end metrics never come from this run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from benchmarks.e2e import metrics
from benchmarks.e2e.metrics import warn

#: ``(module, attribute path, span name)``.  The span name's prefix is the
#: layer the time is charged to.
TARGETS = (
    ("repro.serving.server.core", "ServerCore.submit", "server.submit"),
    ("repro.serving.engine", "EngineCore.submit", "engine.submit"),
    ("repro.serving.engine", "EngineCore.step", "engine.step"),
    ("repro.serving.engine", "EngineCore.result", "engine.result"),
    ("repro.serving.backends", "QuantizedDenseBackend.prepare", "backends.prepare"),
    ("repro.serving.backends", "BlockwiseBackend.prepare", "backends.prepare"),
    ("repro.serving.backends", "chunk_level_decode_attention", "core.blockwise_attn"),
    ("repro.model.transformer", "Transformer.prefill", "model.prefill"),
    ("repro.model.transformer", "Transformer.decode_step", "model.decode_step"),
    ("repro.model.transformer", "Transformer.decode_step_batch", "model.decode_step_batch"),
    ("repro.core.quantizer", "CocktailQuantizer.plan", "core.plan"),
    ("repro.core.quantizer", "CocktailQuantizer.encode_context", "core.encode"),
    ("repro.core.quantizer", "CocktailQuantizer.build_chunked_caches", "core.encode"),
    ("repro.baselines.atom", "AtomQuantizer.plan", "core.plan"),
    ("repro.baselines.atom", "AtomQuantizer.encode_context", "core.encode"),
    ("repro.baselines.fp16", "FP16Quantizer.plan", "core.plan"),
    ("repro.baselines.base", "KVCacheQuantizer.encode_context", "core.encode"),
    ("repro.retrieval.base", "Encoder.similarity", "retrieval.similarity"),
    ("repro.kvpool.cache", "PagedKVCache.pack_context", "kvpool.pack"),
    ("repro.kvpool.prefix", "PrefixCache.match", "kvpool.prefix_match"),
    ("repro.kvpool.prefix", "PrefixCache.insert", "kvpool.prefix_insert"),
    ("repro.kvpool.prefix", "PrefixCache.evict", "kvpool.prefix_evict"),
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "counts")

    def __init__(self, span_id, name, parent, request=None, start=0.0, end=0.0, counts=None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


# -- what each boundary knows about the call it wraps ---------------------------
# Each reader runs after the span has ended and may only read; a failure in
# one is reported once and never reaches the program.


def _read_server_submit(span, args, result):
    span.request = args[1].request_id


def _read_engine_submit(span, args, result):
    span.request = result


def _read_prepare(span, args, result):
    span.request = args[1].request_id


def _read_prefill(span, args, result):
    span.counts = {"tokens": len(args[1])}


def _read_decode_batch(span, args, result):
    span.counts = {"batch": len(args[1])}


def _read_match(span, args, result):
    span.counts = {"asked": len(args[2]), "hit": len(result)}


def _read_evict(span, args, result):
    span.counts = {"evicted": int(result)}


def _read_result(span, args, result):
    """The per-request facts only the engine knows, read where it hands them over."""
    span.request = args[1]
    stats = result.stats
    kv = result.details.get("kv_bytes") or {}
    bits = (result.plan.details or {}).get("chunk_bits") if result.plan is not None else None
    span.counts = {
        "submitted_at": stats.submitted_at,
        "preemptions": stats.n_preemptions,
        "decode_steps": stats.n_decode_steps,
        "cached_tokens": stats.cached_tokens,
        "context_tokens": result.n_context_tokens,
        "context_bytes": kv.get("context_bytes"),
        "total_bytes": kv.get("total_bytes"),
        "context_fp16_bytes": kv.get("context_fp16_bytes"),
        "chunk_bits": dict(Counter(int(b) for b in bits)) if bits else None,
    }


READERS = {
    "server.submit": _read_server_submit,
    "engine.submit": _read_engine_submit,
    "engine.result": _read_result,
    "backends.prepare": _read_prepare,
    "model.prefill": _read_prefill,
    "model.decode_step_batch": _read_decode_batch,
    "kvpool.prefix_match": _read_match,
    "kvpool.prefix_evict": _read_evict,
}


class Tracer:
    """Installs the wrappers on entry, removes them on exit, keeps the spans."""

    def __init__(self, stack):
        self.stack = stack
        self.spans: list[Span] = []
        #: Span names with at least one installed wrapper, plus "profiler".
        self.resolved: set[str] = set()
        self.profiler = None
        #: Profiler phase seconds recorded inside ``prepare`` (the prefill path).
        self.prepare_phases: dict[str, float] = {}
        self.t0 = 0.0
        self._ids = itertools.count()
        self._tls = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._reader_failures: set[str] = set()
        self._exec_before = None
        self.exec_delta: tuple[int, int] | None = None

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, path, name in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                warn(f"trace target {module}:{path} does not resolve")
                continue
            scope = self._prepare_scope if name == "backends.prepare" else nullcontext
            setattr(owner, attr, self._wrap(original, name, READERS.get(name), scope))
            self._installed.append((owner, attr, original))
            self.resolved.add(name)
        try:
            profiler_cls = importlib.import_module("repro.profiling").StepProfiler
            self.profiler = profiler_cls().attach()
            self.resolved.add("profiler")
        except (ImportError, AttributeError):
            warn("repro.profiling.StepProfiler does not resolve")
        self._exec_before = self._exec_counters()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        after = self._exec_counters()
        if after is not None and self._exec_before is not None:
            self.exec_delta = tuple(a - b for a, b in zip(after, self._exec_before))
        if self.profiler is not None:
            self.profiler.detach()
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _exec_counters(self):
        stats = getattr(self.stack.engine, "exec_stats", None)
        try:
            return (stats.n_forward_calls, stats.n_decode_tokens)
        except AttributeError:
            return None

    @contextmanager
    def _prepare_scope(self):
        """Charge the profiler's phases to the prefill path while inside ``prepare``.

        The profiler marks attend/mlp/project in prefill and decode alike;
        swapping its accumulator at this boundary is what lets the decode
        phases be reported on their own.
        """
        profiler = self.profiler
        if profiler is None:
            yield
            return
        outer, profiler.phase_times = profiler.phase_times, self.prepare_phases
        try:
            yield
        finally:
            profiler.phase_times = outer

    def _wrap(self, fn, name, reader, scope):
        tls, spans, ids = self._tls, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tls.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(next(ids), name, parent and parent.id, parent and parent.request)
            stack.append(span)
            span.start = perf_counter()
            try:
                with scope():
                    result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if reader is not None:
                try:
                    reader(span, args, result)
                except Exception as exc:  # noqa: BLE001 - never break the program
                    if name not in self._reader_failures:
                        self._reader_failures.add(name)
                        warn(f"trace reader for {name} failed: {exc!r}")
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in sorted(self.spans, key=lambda s: s.id):
                row = {
                    "id": s.id, "name": s.name, "parent": s.parent, "request": s.request,
                    "start": s.start - self.t0, "end": s.end - self.t0,
                }
                if s.counts:
                    row["counts"] = s.counts
                out.write(json.dumps(row) + "\n")


# -- per-layer metrics ------------------------------------------------------------


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _tail_ms(values, q: float) -> float:
    """Nearest-rank percentile in ms; the maximum where the sample is too small."""
    if not values:
        return 0.0
    return metrics.or_slowest_ms(metrics.p_ms(values, q), values)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Pass:
    """One traced pass, indexed the way the metric table below reads it."""

    def __init__(self, tracer: Tracer, workload, records, wall, t0, counts, untraced):
        self.tracer, self.workload = tracer, workload
        self.records, self.wall, self.t0, self.counts = records, wall, t0, counts
        self.untraced_records, self.untraced_wall = untraced
        self.by_name = defaultdict(list)
        for span in tracer.spans:
            self.by_name[span.name].append(span)
        own = self_times(tracer.spans)
        self.self_total = sum(own.values())
        self.layer_self = defaultdict(float)
        for span in tracer.spans:
            self.layer_self[span.name.split(".")[0]] += own[span.id]
        self.results = [s.counts for s in self.by_name["engine.result"] if s.counts]
        self.bits = Counter()
        for result in self.results:
            self.bits.update(result["chunk_bits"] or {})
        self.phases = tracer.profiler.phase_times if tracer.profiler is not None else {}
        prefill_steps = {s.parent for s in self.by_name["backends.prepare"]}
        steps = self.by_name["engine.step"]
        self.prefill_steps = [s.duration for s in steps if s.id in prefill_steps]
        self.decode_steps = [s.duration for s in steps if s.id not in prefill_steps]

    def dur(self, name: str) -> list[float]:
        return [s.duration for s in self.by_name[name]]

    def total(self, *names: str) -> float:
        return sum(sum(self.dur(name)) for name in names)

    def count(self, name: str, key: str):
        return [s.counts[key] for s in self.by_name[name] if s.counts]

    def result_sum(self, key: str) -> float:
        return sum(r[key] or 0 for r in self.results)

    def phase(self, name: str) -> float:
        return self.phases.get(name, 0.0)

    def schedule_s(self) -> float:
        # The profiler's "schedule" span encloses admission and admission
        # encloses prepare; take the prefill path back out of it.
        inside = self.total("backends.prepare") - sum(self.tracer.prepare_phases.values())
        return self.phase("schedule") - inside

    def queue_waits(self) -> list[float]:
        """From ``submit`` returning to the request's own ``prepare`` starting.

        The engine's ``queue_seconds`` runs on through the prefill; this is
        only the part a request spent waiting for the scheduler to reach it.
        """
        submitted = {s.request: s.end for s in self.by_name["engine.submit"]}
        return [
            s.start - submitted[s.request]
            for s in self.by_name["backends.prepare"]
            if s.request in submitted
        ]

    def cmd_wait(self) -> list[float]:
        returned = {s.request: s.end for s in self.by_name["server.submit"]}
        return [
            s.counts["submitted_at"] - returned[s.request]
            for s in self.by_name["engine.result"]
            if s.counts and s.request in returned
        ]

    def decode_bytes_read(self) -> float:
        """Computed from tensor sizes: each decode step reads the stored context
        plus the rows generated so far."""
        return sum(
            r["decode_steps"] * r["context_bytes"]
            + (r["total_bytes"] - r["context_bytes"]) * max(r["decode_steps"] - 1, 0) / 2
            for r in self.results
            if r["context_bytes"] is not None
        )

    def prefill_gflop(self) -> float:
        return sum(self.tracer.stack.prefill_flops(n) for n in self.count("model.prefill", "tokens")) / 1e9

    def forwards_per_token(self):
        delta = self.tracer.exec_delta
        return None if delta is None else _share(*delta)

    def overhead_share(self) -> float:
        if self.workload.loop == "core":
            # An open loop's wall is set by its schedule; compare the latency it bought.
            def work(records, _):
                return sum(r.done - r.start for r in records if r.done is not None)
        else:
            def work(_, wall):
                return wall
        return work(self.records, self.wall) / work(self.untraced_records, self.untraced_wall) - 1.0


#: ``(metric, boundaries it is read at, how)``.  A metric is ``None`` when a
#: boundary it needs did not resolve, and 0 when the workload does not
#: exercise the layer.
PER_LAYER = (
    ("workloads.sent", (), lambda p: p.counts["sent"]),
    ("workloads.succeeded", (), lambda p: p.counts["succeeded"]),
    ("workloads.failed", (), lambda p: p.counts["failed"]),
    ("workloads.gen_lag_ms_p90", (), lambda p: _tail_ms([r.sent - r.free_at for r in p.records], 0.90)),
    ("workloads.half_drift_share", (), lambda p: metrics.half_drift_share(
        p.records, p.t0, p.wall, open_loop=p.workload.loop == "core")),
    ("server.http_overhead_ms_p50", (), lambda p: _p50_ms(
        [r.done - r.start - r.engine_total_s for r in p.records if r.engine_total_s is not None])),
    ("server.submit_ms_p50", ("server.submit",), lambda p: _p50_ms(p.dur("server.submit"))),
    ("server.cmd_wait_ms_p50", ("server.submit", "engine.result"), lambda p: _p50_ms(p.cmd_wait())),
    ("server.sse_chunks", (), lambda p: sum(r.chunks for r in p.records)),
    ("server.rejected", (), lambda p: sum(
        (r.error or "").startswith(("rejected", "http 429", "http 503")) for r in p.records)),
    ("engine.steps", ("engine.step",), lambda p: len(p.by_name["engine.step"])),
    ("engine.step_ms_p50", ("engine.step",), lambda p: _p50_ms(p.dur("engine.step"))),
    ("engine.step_ms_p95", ("engine.step",), lambda p: _tail_ms(p.dur("engine.step"), 0.95)),
    ("engine.prefill_step_ms_p50", ("engine.step", "backends.prepare"), lambda p: _p50_ms(p.prefill_steps)),
    ("engine.decode_step_ms_p50", ("engine.step", "backends.prepare"), lambda p: _p50_ms(p.decode_steps)),
    ("engine.self_s", ("engine.step",), lambda p: p.layer_self["engine"]),
    ("engine.batch_occupancy_mean", ("model.decode_step_batch",), lambda p: (
        statistics.fmean(p.count("model.decode_step_batch", "batch") or [0.0]))),
    ("engine.forwards_per_token", (), lambda p: p.forwards_per_token()),
    ("engine.schedule_s", ("profiler", "backends.prepare"), lambda p: p.schedule_s()),
    ("engine.bookkeeping_s", ("profiler",), lambda p: p.phase("bookkeeping")),
    ("scheduler.queue_ms_p50", ("engine.submit", "backends.prepare"), lambda p: _p50_ms(p.queue_waits())),
    ("scheduler.queue_ms_p90", ("engine.submit", "backends.prepare"), lambda p: _tail_ms(
        p.queue_waits(), 0.90)),
    ("scheduler.preemptions", ("engine.result",), lambda p: p.result_sum("preemptions")),
    ("backends.prepare_s", ("backends.prepare",), lambda p: p.total("backends.prepare")),
    ("backends.prepare_ms_p50", ("backends.prepare",), lambda p: _p50_ms(p.dur("backends.prepare"))),
    ("backends.prepare_calls", ("backends.prepare",), lambda p: len(p.by_name["backends.prepare"])),
    ("backends.self_s", ("backends.prepare",), lambda p: p.layer_self["backends"]),
    ("core.plan_s", ("core.plan",), lambda p: p.total("core.plan")),
    ("core.plan_ms_p50", ("core.plan",), lambda p: _p50_ms(p.dur("core.plan"))),
    ("core.encode_s", ("core.encode",), lambda p: p.total("core.encode")),
    ("core.blockwise_attn_s", ("core.blockwise_attn",), lambda p: p.total("core.blockwise_attn")),
    ("core.chunks", ("engine.result",), lambda p: sum(p.bits.values())),
    ("core.int2_chunk_share", ("engine.result",), lambda p: _share(p.bits[2], sum(p.bits.values()))),
    ("core.int4_chunk_share", ("engine.result",), lambda p: _share(p.bits[4], sum(p.bits.values()))),
    ("core.fp16_chunk_share", ("engine.result",), lambda p: _share(p.bits[16], sum(p.bits.values()))),
    ("kvpool.pack_s", ("kvpool.pack",), lambda p: p.total("kvpool.pack")),
    ("kvpool.gather_s", ("profiler",), lambda p: p.phase("gather")),
    ("kvpool.dequant_s", ("profiler",), lambda p: p.phase("dequant")),
    ("kvpool.prefix_match_s", ("kvpool.prefix_match",), lambda p: p.total("kvpool.prefix_match")),
    ("kvpool.prefix_insert_s", ("kvpool.prefix_insert",), lambda p: p.total("kvpool.prefix_insert")),
    ("kvpool.hit_block_share", ("kvpool.prefix_match",), lambda p: _share(
        sum(p.count("kvpool.prefix_match", "hit")), sum(p.count("kvpool.prefix_match", "asked")))),
    ("kvpool.cached_token_share", ("engine.result",), lambda p: _share(
        p.result_sum("cached_tokens"), p.result_sum("context_tokens"))),
    ("kvpool.evicted_blocks", ("kvpool.prefix_evict",), lambda p: sum(p.count("kvpool.prefix_evict", "evicted"))),
    ("kvpool.peak_blocks", (), lambda p: p.tracer.stack.pool.peak_allocated_blocks),
    ("kvpool.compress_ratio", ("engine.result",), lambda p: _share(
        p.result_sum("context_fp16_bytes"), p.result_sum("context_bytes"))),
    ("kvpool.decode_gb_read", ("engine.result",), lambda p: p.decode_bytes_read() / 1e9),
    ("model.prefill_s", ("model.prefill",), lambda p: p.total("model.prefill")),
    ("model.prefill_tok_s", ("model.prefill",), lambda p: _share(
        sum(p.count("model.prefill", "tokens")), p.total("model.prefill"))),
    ("model.prefill_gflop", ("model.prefill",), lambda p: p.prefill_gflop()),
    ("model.decode_forward_s", ("model.decode_step", "model.decode_step_batch"), lambda p: p.total(
        "model.decode_step", "model.decode_step_batch")),
    ("model.attend_s", ("profiler",), lambda p: p.phase("attend")),
    ("model.mlp_s", ("profiler",), lambda p: p.phase("mlp")),
    ("model.project_s", ("profiler",), lambda p: p.phase("project")),
    ("model.logits_s", ("profiler",), lambda p: p.phase("logits")),
    ("trace.overhead_share", (), lambda p: p.overhead_share()),
    ("trace.coverage_share", (), lambda p: p.self_total / p.wall),
)


def per_layer(tracer: Tracer, workload, records, wall, t0, counts, *, untraced) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    view = _Pass(tracer, workload, records, wall, t0, counts, untraced)
    return {
        name: fn(view) if all(b in tracer.resolved for b in boundaries) else None
        for name, boundaries, fn in PER_LAYER
    }
