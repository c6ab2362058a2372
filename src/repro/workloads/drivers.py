"""Trace drivers: replay a workload against an engine or a live server.

Two consumers of the same :class:`~repro.workloads.trace.WorkloadTrace`:

:class:`EngineDriver`
    Drives an in-process :class:`InferenceEngine` step by step under a
    :class:`VirtualClock`, so arrivals, cancels and latency measurements
    are all in deterministic *engine-step units* — no wall-clock flake.
    Structural pool/prefix invariants are asserted at every step, and
    :func:`check_oracles` compares each outcome bit-for-bit against the
    trace's oracles.

:class:`HttpDriver`
    Fires the trace at a live :class:`ServingServer` through the asyncio
    client — real SSE streaming, real disconnects (``abort()`` mid
    stream), real 429s — and records the engine-measured latencies from
    each final chunk.  Wall-clock here is only a transport detail; the
    correctness signal is still the oracles.

Both return a :class:`TraceRun`, the input of
:func:`repro.workloads.slo.build_report`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.workloads.trace import WorkloadRequest, WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.serving.engine import InferenceEngine
    from repro.serving.request import GenerationResult

#: Outcome states a trace request can end in.
COMPLETED = "completed"
CANCELLED = "cancelled"
REJECTED = "rejected"


class VirtualClock:
    """A monotonic clock the driver advances by hand.

    Passed as the engine's ``clock`` hook, it turns every latency the
    engine measures (TTFT, TPOT, queue time) into deterministic step
    units: the driver advances the clock once per engine step, so "one
    second" means "one step" and a p95 is reproducible bit-for-bit from
    the trace seed.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float = 1.0) -> None:
        if dt < 0:
            raise ValueError(f"cannot advance a monotonic clock by {dt}")
        self.now += dt


@dataclass(frozen=True)
class StepCostModel:
    """Deterministic per-step cost for the virtual clock.

    By default :class:`EngineDriver` charges every engine step the same
    ``step_time`` — fine for schedule-shape experiments, but blind to the
    fact that a step that prefilled 200 prompt tokens costs more wall time
    than one that decoded 3 rows.  A cost model instead charges::

        dt = base + prefill_token_cost * (prompt tokens prefilled)
                  + forward_row_cost   * (forward rows computed)

    where *forward rows computed* counts the rows model forwards processed
    this step: each decode emits one row, so the row count is the
    engine's own ``n_decode_tokens`` counter.  The clock feeds latency *stamps*
    only — token outputs never depend on it — so runs stay bit-identical
    to fixed-``step_time`` replays while TTFT/TPOT/goodput become
    cost-aware.  This is what lets the adaptive A/B measure a controller:
    a smaller prefill chunk genuinely makes that step cheaper for
    everyone in it.
    """

    #: Fixed per-step overhead (scheduling, bookkeeping), in clock units.
    base: float = 1.0
    #: Marginal cost per prompt token pushed through prefill this step.
    prefill_token_cost: float = 0.0
    #: Marginal cost per computed forward row this step.
    forward_row_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be > 0, got {self.base}")
        if self.prefill_token_cost < 0 or self.forward_row_cost < 0:
            raise ValueError("per-token costs must be >= 0")

    def cost(self, *, prefill_tokens: int, forward_rows: int) -> float:
        """Clock units one step costs, from its measured work deltas."""
        return (
            self.base
            + self.prefill_token_cost * max(0, prefill_tokens)
            + self.forward_row_cost * max(0, forward_rows)
        )


@dataclass
class RequestOutcome:
    """What actually happened to one trace request in one run."""

    key: str
    status: str  # completed | cancelled | rejected
    token_ids: list[int] = field(default_factory=list)
    stopped_by: str | None = None
    #: Engine-measured latencies (virtual-step units in-process, seconds
    #: over HTTP) — ``None`` when the request never produced them (429s).
    ttft: float | None = None
    tpot: float | None = None
    total: float | None = None
    #: Context tokens served from the prefix index.
    cached_tokens: int = 0
    #: Adopted pages (engine driver only; the wire carries tokens, not
    #: blocks, so HTTP runs derive floors from ``cached_tokens``).
    cache_hit_blocks: int = 0
    n_preemptions: int = 0
    error: str | None = None

    @property
    def finished(self) -> bool:
        return self.status in (COMPLETED, CANCELLED)


@dataclass
class TraceRun:
    """One driver's replay of one trace."""

    trace: WorkloadTrace
    driver: str  # "engine" | "http"
    outcomes: dict[str, RequestOutcome]
    #: Engine steps consumed (engine driver) — 0 for HTTP runs.
    n_steps: int = 0
    #: Wall or virtual time from first submit to last finish.
    makespan: float = 0.0

    def outcome(self, key: str) -> RequestOutcome:
        return self.outcomes[key]

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == COMPLETED)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == CANCELLED)

    @property
    def n_rejected(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == REJECTED)


class EngineDriver:
    """Deterministic in-process replay under a virtual clock.

    The engine must have been constructed with ``clock=driver.clock`` (or
    an externally shared :class:`VirtualClock` passed in) so its latency
    stamps advance with the driver's steps.  Each loop iteration submits
    every arrival whose virtual time has come (and whose ``depends_on``
    has finished at least ``think_time`` ago), runs one engine step,
    advances the clock, applies ``cancel_after_tokens`` disconnects, and
    — when ``check_invariants`` — recomputes the pool and prefix-index
    consistency walks.
    """

    def __init__(
        self,
        engine: "InferenceEngine",
        *,
        clock: VirtualClock,
        step_time: float = 1.0,
        cost_model: StepCostModel | None = None,
        check_invariants: bool = True,
        max_steps: int = 100_000,
    ):
        self.engine = engine
        self.clock = clock
        self.step_time = step_time
        #: Optional :class:`StepCostModel`: each step advances the clock by
        #: its modeled cost (from the engine's own work counters) instead
        #: of the flat ``step_time``.  Idle fast-forwards keep
        #: ``step_time`` — an empty wait is not a forward pass.
        self.cost_model = cost_model
        self.check_invariants = check_invariants
        self.max_steps = max_steps

    def _work_snapshot(self) -> tuple[int, int]:
        """(prefill tokens, computed forward rows) counters so far."""
        stats = self.engine.exec_stats
        return stats.n_prefill_tokens, stats.n_decode_tokens

    def run(self, trace: WorkloadTrace) -> TraceRun:
        engine = self.engine
        pending: list[WorkloadRequest] = list(trace.requests)
        outcomes: dict[str, RequestOutcome] = {}
        finish_time: dict[str, float] = {}
        rid_of: dict[str, str] = {}
        key_of: dict[str, str] = {}
        streamed: dict[str, list[int]] = {}
        cancel_at: dict[str, int] = {}
        started = self.clock.now
        n_steps = 0

        def eligible(request: WorkloadRequest) -> bool:
            if request.arrival > self.clock.now:
                return False
            if request.depends_on is not None:
                done_at = finish_time.get(request.depends_on)
                if done_at is None:
                    return False
                if self.clock.now < done_at + request.think_time:
                    return False
            return True

        def record(key: str, result: "GenerationResult", status: str) -> None:
            stats = result.stats
            outcomes[key] = RequestOutcome(
                key=key,
                status=status,
                token_ids=list(result.token_ids),
                stopped_by=result.stopped_by,
                ttft=stats.ttft_seconds,
                tpot=stats.tpot_seconds,
                total=stats.total_seconds,
                cached_tokens=stats.cached_tokens,
                cache_hit_blocks=stats.cache_hit_blocks,
                n_preemptions=stats.n_preemptions,
            )
            finish_time[key] = self.clock.now

        while pending or engine.has_pending:
            if n_steps >= self.max_steps:
                raise RuntimeError(
                    f"trace {trace.scenario!r} did not drain in "
                    f"{self.max_steps} steps"
                )
            still_pending = []
            for request in pending:
                if not eligible(request):
                    still_pending.append(request)
                    continue
                rid = engine.submit(request.to_request())
                rid_of[request.key] = rid
                key_of[rid] = request.key
                streamed[rid] = []
                if request.cancel_after_tokens is not None:
                    cancel_at[rid] = request.cancel_after_tokens
            pending = still_pending

            work_before = (
                self._work_snapshot() if self.cost_model is not None else None
            )
            events = engine.step() if engine.has_runnable else []
            n_steps += 1
            if work_before is None:
                self.clock.advance(self.step_time)
            else:
                prefill_before, rows_before = work_before
                prefill_after, rows_after = self._work_snapshot()
                self.clock.advance(
                    self.cost_model.cost(
                        prefill_tokens=prefill_after - prefill_before,
                        forward_rows=rows_after - rows_before,
                    )
                )

            finished_rids = []
            for event in events:
                if event.token_id is not None:
                    streamed[event.request_id].append(event.token_id)
                if event.is_last:
                    finished_rids.append((event.request_id, event.stopped_by))
            for rid, stopped_by in finished_rids:
                key = key_of[rid]
                result = engine.result(rid, pop=True)
                status = CANCELLED if stopped_by == "cancelled" else COMPLETED
                record(key, result, status)
                cancel_at.pop(rid, None)
            # Client disconnects: sever once enough tokens streamed.
            for rid, limit in list(cancel_at.items()):
                if len(streamed[rid]) >= limit:
                    engine.cancel(rid)
                    record(key_of[rid], engine.result(rid, pop=True), CANCELLED)
                    del cancel_at[rid]

            if self.check_invariants:
                # One call covers a bare core and a sharded pool alike
                # (the facade fans out to every live worker's pool).
                engine.assert_consistent()

            # A dependency-gated arrival may only become eligible after its
            # predecessor's think time: if nothing is runnable, fast-forward
            # the clock instead of spinning empty steps.
            if not engine.has_runnable and pending and not any(
                eligible(request) for request in pending
            ):
                self.clock.advance(self.step_time)

        for rid, token_ids in streamed.items():
            key = key_of[rid]
            if key in outcomes:
                continue  # already recorded
            raise RuntimeError(f"request {key!r} neither finished nor cancelled")

        return TraceRun(
            trace=trace,
            driver="engine",
            outcomes=outcomes,
            n_steps=n_steps,
            makespan=self.clock.now - started,
        )


def check_oracles(
    run: TraceRun,
    *,
    hit_floors: bool = True,
    block_size: int = 16,
) -> None:
    """Assert every outcome of ``run`` against its request's oracle.

    * a completed request must match the oracle bit-for-bit — token IDs
      *and* stop reason;
    * a cancelled request must have streamed an exact prefix of the
      oracle's tokens, at least ``cancel_after_tokens`` of them (unless
      the full decode is shorter);
    * with ``hit_floors``, prefix-cache adoption must meet the structural
      floor (engine runs compare blocks; HTTP runs compare
      ``cached_tokens`` against ``floor * block_size``);
    * rejected requests (HTTP 429/413) have no oracle to check.
    """
    trace = run.trace
    if not trace.has_oracles:
        raise ValueError(f"trace {trace.scenario!r} has no oracles attached")
    for request in trace.requests:
        outcome = run.outcomes.get(request.key)
        assert outcome is not None, f"no outcome recorded for {request.key!r}"
        oracle = request.oracle
        if outcome.status == REJECTED:
            continue
        label = f"{trace.scenario}/{request.key}"
        if outcome.status == COMPLETED:
            assert outcome.token_ids == oracle.token_ids, (
                f"{label}: tokens diverged from the sequential-replay oracle"
            )
            assert outcome.stopped_by == oracle.stopped_by, (
                f"{label}: stopped_by {outcome.stopped_by!r} != "
                f"{oracle.stopped_by!r}"
            )
        else:  # cancelled
            n = len(outcome.token_ids)
            assert outcome.token_ids == oracle.token_ids[:n], (
                f"{label}: cancelled stream is not a prefix of the oracle"
            )
            if request.cancel_after_tokens is not None:
                floor = min(request.cancel_after_tokens, len(oracle.token_ids))
                assert n >= floor, (
                    f"{label}: cancelled after {n} tokens, expected >= {floor}"
                )
        if hit_floors and oracle.min_hit_blocks:
            if run.driver == "engine":
                assert outcome.cache_hit_blocks >= oracle.min_hit_blocks, (
                    f"{label}: hit {outcome.cache_hit_blocks} blocks, "
                    f"floor {oracle.min_hit_blocks}"
                )
            else:
                floor_tokens = oracle.min_hit_blocks * block_size
                assert outcome.cached_tokens >= floor_tokens, (
                    f"{label}: served {outcome.cached_tokens} cached tokens, "
                    f"floor {floor_tokens}"
                )


class HttpDriver:
    """Replay a trace against a live :class:`ServingServer` over SSE.

    One asyncio task per request: sleep until the (scaled) arrival, wait
    for the ``depends_on`` predecessor, stream the completion, and — for
    ``cancel_after_tokens`` requests — hard-abort the connection mid
    stream exactly like a vanishing client.  Admission failures (429
    quota, 413 limits) become ``rejected`` outcomes rather than errors:
    scenarios are allowed to overdrive a small server.

    ``time_scale`` maps trace clock units to wall seconds; keep it small
    in tests (arrival shape is preserved, absolute wall time is not a
    correctness signal anywhere in the harness).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        time_scale: float = 0.02,
        api_keys: dict[str, str] | None = None,
    ):
        self.host = host
        self.port = port
        self.time_scale = time_scale
        self.api_keys = dict(api_keys or {})

    async def run(self, trace: WorkloadTrace) -> TraceRun:
        from repro.serving.server.client import CompletionStream

        loop = asyncio.get_running_loop()
        outcomes: dict[str, RequestOutcome] = {}
        done_events = {request.key: asyncio.Event() for request in trace.requests}
        started = loop.time()

        async def fire(request: WorkloadRequest) -> None:
            try:
                delay = request.arrival * self.time_scale
                elapsed = loop.time() - started
                if delay > elapsed:
                    await asyncio.sleep(delay - elapsed)
                if request.depends_on is not None:
                    await done_events[request.depends_on].wait()
                    if request.think_time:
                        await asyncio.sleep(request.think_time * self.time_scale)
                api_key = (
                    self.api_keys.get(request.tenant) if request.tenant else None
                )
                stream = await CompletionStream.open(
                    self.host, self.port, request.to_wire(), api_key=api_key
                )
                if stream.status != 200:
                    detail = (stream.error or {}).get("error", {})
                    outcomes[request.key] = RequestOutcome(
                        key=request.key,
                        status=REJECTED,
                        error=str(detail.get("code", stream.status)),
                    )
                    return
                token_ids: list[int] = []
                final: dict | None = None
                try:
                    async for chunk in stream.chunks():
                        choice = chunk["choices"][0]
                        if choice.get("finish_reason") is not None:
                            final = chunk
                            break
                        if choice.get("token_id") is not None:
                            token_ids.append(choice["token_id"])
                        if (
                            request.cancel_after_tokens is not None
                            and len(token_ids) >= request.cancel_after_tokens
                        ):
                            await stream.abort()
                            break
                finally:
                    await stream.close()
                if final is None:
                    outcomes[request.key] = RequestOutcome(
                        key=request.key,
                        status=CANCELLED,
                        token_ids=token_ids,
                        stopped_by="cancelled",
                    )
                    return
                stats = final.get("stats", {})
                usage = final.get("usage", {})
                outcomes[request.key] = RequestOutcome(
                    key=request.key,
                    status=COMPLETED,
                    token_ids=token_ids,
                    stopped_by=final["choices"][0]["finish_reason"],
                    ttft=stats.get("ttft_seconds"),
                    tpot=stats.get("tpot_seconds"),
                    total=stats.get("total_seconds"),
                    cached_tokens=stats.get("cached_tokens") or 0,
                    n_preemptions=stats.get("n_preemptions") or 0,
                )
                assert usage.get("completion_tokens") == len(token_ids), (
                    f"{request.key}: usage reports "
                    f"{usage.get('completion_tokens')} tokens, "
                    f"client streamed {len(token_ids)}"
                )
            finally:
                done_events[request.key].set()

        await asyncio.gather(*(fire(request) for request in trace.requests))
        return TraceRun(
            trace=trace,
            driver="http",
            outcomes=outcomes,
            makespan=loop.time() - started,
        )
