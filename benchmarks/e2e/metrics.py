"""End-to-end metrics from client-side records, and the rules they follow."""

from __future__ import annotations

import json
import math
import re
import resource
import statistics
import sys

from benchmarks.e2e import inputs
from benchmarks.e2e.stack import REPO_ROOT, Stack, token_f1

#: A timing percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
MAX_WORKLOADS, MAX_END_TO_END, MAX_PER_LAYER = 8, 16, 128


def warn(message: str) -> None:
    """Warnings go to stderr, so stdout's last line stays the driver's JSON."""
    print(f"WARNING: {message}", file=sys.stderr)


def load_contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def check_contract(contract: dict) -> None:
    """Raise ``ValueError`` if ``BENCHMARK.json`` breaks the driver's limits."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(contract) != keys:
        raise ValueError(f"BENCHMARK.json keys must be exactly {sorted(keys)}")
    groups = (
        ("workloads", 2, MAX_WORKLOADS, {"name", "why"}),
        ("end_to_end", 1, MAX_END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, MAX_PER_LAYER, {"name", "unit", "better"}),
    )
    seen: set[str] = set()
    for group, low, high, fields in groups:
        entries = contract[group]
        if not low <= len(entries) <= high:
            raise ValueError(f"{group}: {len(entries)} entries, allowed {low}..{high}")
        for entry in entries:
            if set(entry) != fields:
                raise ValueError(f"{group}: {entry} must have exactly {sorted(fields)}")
            name = entry["name"]
            if not NAME_RE.match(name) or name in seen:
                raise ValueError(f"{group}: bad or repeated name {name!r}")
            seen.add(name)
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                raise ValueError(f"{group}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                raise ValueError(f"{group}: bad direction in {entry}")
            if "bound" in entry and not 0 <= entry["bound"] <= 0.25:
                raise ValueError(f"{group}: bound of {name} outside 0..0.25")
    if not any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in contract["end_to_end"]
    ):
        raise ValueError("end_to_end must carry setup_s, unit s, lower is better")


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    return n - math.ceil(q * n)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``0 < q < 1``): a latency someone observed.

    Raises unless at least :data:`MIN_BEYOND` samples lie beyond it — the
    caller then reports a lower percentile or a larger sample, never a tail
    estimated from a handful of points.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    return sorted(values)[math.ceil(q * n) - 1]


def p_ms(values, q: float) -> float | None:
    """``percentile`` in milliseconds, or ``None`` where the sample is too small."""
    try:
        return percentile(values, q) * 1e3
    except ValueError:
        return None


def band_mean_ms(values, low: float, high: float) -> float | None:
    """Mean of the samples from the ``low`` to the ``high`` percentile, in ms.

    The gaps between tokens come in two kinds: a decode step, and a decode
    step that waited for another request's prefill, ten to twenty times as
    long.  A percentile of that mixture is steady only while the share of
    stalled gaps stays clear of it; where the two meet (4 % stalled against
    a p95) it reads a decode step on one run and a prefill on the next.  The
    mean over a band beyond the percentile moves in proportion instead, and
    leaving out what lies beyond ``high`` keeps one hiccup of the box out of
    a tail of twenty samples.  ``None`` unless the band holds
    :data:`MIN_BEYOND` samples.
    """
    n = len(values)
    band = sorted(values)[math.ceil(low * n) : math.ceil(high * n)]
    if len(band) < MIN_BEYOND:
        return None
    return statistics.fmean(band) * 1e3


def or_slowest_ms(value: float | None, values) -> float:
    """``value``, or the slowest sample where the sample was too small for it.

    Only a pass cut short by its time budget has so few samples; its run is
    reported, flagged by a warning, so that it counts as the outlier it is.
    """
    return value if value is not None else max(values) * 1e3


def ttfts(records) -> list[float]:
    return [r.token_times[0] - r.start for r in records if r.token_times]


def gaps(records) -> list[float]:
    """Gaps between successive tokens of one request, pooled over requests."""
    return [b - a for r in records for a, b in zip(r.token_times, r.token_times[1:])]


def answer_text(stack: Stack, token_ids) -> str:
    """Decoded output, cut at the first stop token."""
    stops = stack.stop_ids()
    kept = []
    for token in token_ids:
        if token in stops:
            break
        kept.append(token)
    return stack.tokenizer.decode(kept)


def failures(records, oracle: dict[int, list[int]]) -> set[int]:
    """Indices of requests that errored, never finished, or broke the oracle."""
    return {
        r.index
        for r in records
        if r.error is not None
        or r.done is None
        or (r.index in oracle and r.token_ids != oracle[r.index])
    }


def half_drift_share(records, t0: float, wall: float, *, open_loop: bool = False) -> float:
    """How far the second half of a pass ran from the first, as a share.

    Closed loops compare tokens per second before and after the midpoint.
    An open loop's token rate is its arrival schedule, so there the median
    latency of the first and second half of the requests is compared.
    """
    if open_loop:
        latency = [r.done - r.start for r in records if r.done is not None]
        half = len(latency) // 2
        if not half:
            return float("inf")
        first, second = statistics.median(latency[:half]), statistics.median(latency[half:])
    else:
        times = [t for r in records for t in r.token_times]
        first = sum(t < t0 + wall / 2 for t in times)
        second = len(times) - first
    return abs(second / first - 1.0) if first else float("inf")


def backlog_at(records, t: float) -> int:
    """Requests due by ``t`` and not finished by ``t``."""
    return sum(r.start <= t and (r.done is None or r.done > t) for r in records)


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(workload, stack: Stack, requests, records, wall, oracle, setup_s) -> dict:
    """The twelve end-to-end metrics of one untraced measured pass."""
    by_index = {r.index: r for r in requests}
    failed = failures(records, oracle)
    finished = [r for r in records if r.index not in failed]
    ttft, gap = ttfts(finished), gaps(finished)
    slo_ok = 0
    for record in finished:
        steps = len(record.token_times) - 1
        mean_gap = (record.token_times[-1] - record.token_times[0]) / steps if steps else 0.0
        if (
            (record.token_times[0] - record.start) * 1e3 <= workload.slo_ttft_ms
            and mean_gap * 1e3 <= workload.slo_gap_ms
        ):
            slo_ok += 1
    f1 = [
        token_f1(answer_text(stack, r.token_ids), by_index[r.index].gold) for r in finished
    ]
    return {
        "ttft_p50_ms": or_slowest_ms(p_ms(ttft, 0.50), ttft),
        "ttft_p90_ms": or_slowest_ms(p_ms(ttft, 0.90), ttft),
        "itl_p50_ms": or_slowest_ms(p_ms(gap, 0.50), gap),
        "itl_tail_ms": or_slowest_ms(band_mean_ms(gap, 0.95, 0.99), gap),
        "out_tok_s": sum(len(r.token_ids) for r in finished) / wall,
        "prompt_tok_s": sum(by_index[r.index].n_prompt_tokens for r in finished) / wall,
        "slo_ok_share": slo_ok / len(records),
        "ok_share": 1.0 - len(failed) / len(records),
        "answer_f1": statistics.fmean(f1) if f1 else 0.0,
        "kv_peak_mb": stack.pool.peak_bytes / 1e6,
        "rss_peak_mb": rss_peak_mb(),
        "setup_s": setup_s,
    }


def tokens_sha256(records) -> str:
    return inputs.sha256_of(
        [(r.index, r.token_ids) for r in sorted(records, key=lambda r: r.index)]
    )
