"""Lightweight per-phase wall-time profiling for the serving engine.

The engine's hot path is annotated with :func:`span` markers — ``schedule``,
``gather``, ``dequant``, ``project``, ``attend``, ``mlp``, ``logits`` —
plus one ``step`` span wrapping :meth:`EngineCore.step`.  When no profiler is
attached every marker collapses to a shared no-op context manager, so the
annotations cost nanoseconds on the production path.

Attach a :class:`StepProfiler` (as a context manager) to start recording:

    profiler = StepProfiler(engine)
    with profiler:
        engine.run_batch(requests)
    print(profiler.profile_table())

Span accounting is *exclusive*: time spent inside a nested span is charged
to the inner phase only, so the per-phase seconds always sum to the total
stepped wall time.  Whatever part of a step no named phase claims —
sampling, queue bookkeeping, result assembly — is reported as
``bookkeeping``.  The ``step`` span additionally feeds the per-step
duration series used for the p50/p95 step-time percentiles.

Only one profiler is active at a time (a module-level sink), but spans may
be recorded from *several* threads concurrently — the sharded pool steps N
workers at once.  Span nesting is tracked per thread (a thread-local
stack) and sink accumulation is lock-guarded, so concurrent worker steps
never corrupt each other's exclusive accounting.  Wrap each worker's step
in :func:`worker_scope` to additionally attribute its ``step`` spans (and
phase seconds) to a per-worker series — see
:attr:`StepProfiler.worker_step_times`.  The optional ``cprofile=True``
capture wraps the attach/detach window in a :mod:`cProfile` session —
note cProfile only observes the *attaching* thread, so it is most useful
when the same thread attaches and steps.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import threading
from time import perf_counter

__all__ = ["StepProfiler", "span", "worker_scope"]

# The phases the engine annotates, in hot-path order.  ``bookkeeping`` is
# synthesized from the self-time of the ``step`` span; extra phases appear
# in reports automatically if new spans are added.
CORE_PHASES = (
    "schedule",
    "gather",
    "dequant",
    "project",
    "attend",
    "mlp",
    "logits",
    "bookkeeping",
)

_STEP_SPAN = "step"


class _NoopSpan:
    """Shared do-nothing context manager returned when no profiler is attached."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()

# The single active sink.  Module-global so `span()` is one attribute load
# plus one `is None` check on the un-profiled path.
_SINK: "StepProfiler | None" = None

# Per-thread span state: the nesting stack (exclusive-time accounting must
# not cross threads) and the current worker label set by `worker_scope`.
_TLS = threading.local()


def _tls_stack() -> list:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    return stack


class _Span:
    """A live span: records exclusive self-time into the sink on exit."""

    __slots__ = ("sink", "name", "start", "child_time")

    def __init__(self, sink: "StepProfiler", name: str):
        self.sink = sink
        self.name = name

    def __enter__(self) -> "_Span":
        self.child_time = 0.0
        _tls_stack().append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = perf_counter() - self.start
        sink = self.sink
        stack = _tls_stack()
        stack.pop()
        if stack:
            stack[-1].child_time += duration
        name = self.name
        worker = getattr(_TLS, "worker", None)
        self_time = duration - self.child_time
        with sink._lock:
            if name == _STEP_SPAN:
                sink.step_times.append(duration)
                if worker is not None:
                    sink.worker_step_times.setdefault(worker, []).append(
                        duration
                    )
                name = "bookkeeping"
            sink.phase_times[name] = sink.phase_times.get(name, 0.0) + self_time
            sink.phase_counts[name] = sink.phase_counts.get(name, 0) + 1
            if worker is not None:
                phases = sink.worker_phase_times.setdefault(worker, {})
                phases[name] = phases.get(name, 0.0) + self_time
        return False


def span(name: str):
    """Return a context manager timing one phase (no-op when not profiling)."""
    sink = _SINK
    if sink is None:
        return _NOOP
    return _Span(sink, name)


class _WorkerScope:
    """Tag this thread's spans with a worker label for the scope's duration."""

    __slots__ = ("label", "prev")

    def __init__(self, label: str):
        self.label = label

    def __enter__(self) -> "_WorkerScope":
        self.prev = getattr(_TLS, "worker", None)
        _TLS.worker = self.label
        return self

    def __exit__(self, *exc) -> bool:
        _TLS.worker = self.prev
        return False


def worker_scope(label: str):
    """Attribute spans recorded in this scope (this thread) to ``label``.

    Cheap enough to wrap every worker step whether or not a profiler is
    attached — it only sets one thread-local attribute.  Scopes nest; the
    innermost label wins, and the previous label is restored on exit.
    """
    return _WorkerScope(label)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class StepProfiler:
    """Record per-phase wall time (and optionally a cProfile) for an engine.

    Parameters
    ----------
    engine:
        Optional engine whose ``exec_stats.phase_times`` receives the
        accumulated per-phase seconds on detach.  The profiler works
        standalone too — any code under annotated spans is recorded.
    cprofile:
        Also run a :mod:`cProfile` capture between attach and detach
        (attaching thread only); see :meth:`top_functions`.
    """

    def __init__(self, engine=None, *, cprofile: bool = False):
        self.engine = engine
        self.phase_times: dict[str, float] = {}
        self.phase_counts: dict[str, int] = {}
        self.step_times: list[float] = []
        #: Step durations per `worker_scope` label (sharded pool workers).
        self.worker_step_times: dict[str, list[float]] = {}
        #: Exclusive per-phase seconds per `worker_scope` label.
        self.worker_phase_times: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()
        self._cprofile = cProfile.Profile() if cprofile else None
        self._prev_sink: StepProfiler | None = None
        self._attached = False

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "StepProfiler":
        """Start recording spans (and the cProfile capture, if enabled)."""
        global _SINK
        if self._attached:
            raise RuntimeError("StepProfiler is already attached")
        self._prev_sink = _SINK
        _SINK = self
        self._attached = True
        if self._cprofile is not None:
            self._cprofile.enable()
        return self

    def detach(self) -> None:
        """Stop recording and publish ``phase_times`` to the engine stats."""
        global _SINK
        if not self._attached:
            return
        if self._cprofile is not None:
            self._cprofile.disable()
        _SINK = self._prev_sink
        self._prev_sink = None
        self._attached = False
        if self.engine is not None:
            stats = getattr(self.engine, "exec_stats", None)
            if stats is not None and hasattr(stats, "phase_times"):
                for name, seconds in self.phase_times.items():
                    stats.phase_times[name] = (
                        stats.phase_times.get(name, 0.0) + seconds
                    )

    def __enter__(self) -> "StepProfiler":
        return self.attach()

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    # -- derived numbers ---------------------------------------------------

    @property
    def n_steps(self) -> int:
        """Number of completed ``step`` spans."""
        return len(self.step_times)

    @property
    def total_seconds(self) -> float:
        """Wall time across all recorded steps."""
        return sum(self.step_times)

    def step_percentile(self, q: float) -> float:
        """Step-duration percentile in seconds (``q`` in [0, 1])."""
        return _percentile(self.step_times, q)

    def phase_breakdown(self) -> dict[str, float]:
        """Per-phase *fraction* of the total stepped wall time."""
        total = sum(self.phase_times.values())
        if total <= 0.0:
            return {}
        return {
            name: seconds / total
            for name, seconds in sorted(
                self.phase_times.items(), key=lambda kv: -kv[1]
            )
        }

    def summary(self) -> dict:
        """JSON-friendly snapshot: steps, percentiles, per-phase seconds."""
        payload = {
            "n_steps": self.n_steps,
            "total_seconds": self.total_seconds,
            "step_ms_p50": self.step_percentile(0.50) * 1e3,
            "step_ms_p95": self.step_percentile(0.95) * 1e3,
            "phase_seconds": dict(self.phase_times),
            "phase_fraction": self.phase_breakdown(),
        }
        if self.worker_step_times:
            payload["workers"] = {
                label: {
                    "n_steps": len(times),
                    "total_seconds": sum(times),
                    "step_ms_p50": _percentile(times, 0.50) * 1e3,
                    "phase_seconds": dict(
                        self.worker_phase_times.get(label, {})
                    ),
                }
                for label, times in sorted(self.worker_step_times.items())
            }
        return payload

    def profile_table(self) -> str:
        """Human-readable per-phase report, hottest phase first."""
        lines = [
            f"{self.n_steps} steps, {self.total_seconds * 1e3:.1f} ms total "
            f"(p50 {self.step_percentile(0.5) * 1e3:.2f} ms, "
            f"p95 {self.step_percentile(0.95) * 1e3:.2f} ms)",
            f"{'phase':<12} {'total ms':>10} {'share':>7} {'calls':>8} "
            f"{'us/call':>9}",
        ]
        total = sum(self.phase_times.values()) or 1.0
        for name, seconds in sorted(
            self.phase_times.items(), key=lambda kv: -kv[1]
        ):
            calls = self.phase_counts.get(name, 0)
            per_call = seconds / calls * 1e6 if calls else 0.0
            lines.append(
                f"{name:<12} {seconds * 1e3:>10.2f} "
                f"{seconds / total:>6.1%} {calls:>8d} {per_call:>9.1f}"
            )
        return "\n".join(lines)

    def top_functions(self, n: int = 15) -> str:
        """Cumulative-time top functions from the cProfile capture."""
        if self._cprofile is None:
            raise RuntimeError("StepProfiler was created without cprofile=True")
        buffer = io.StringIO()
        stats = pstats.Stats(self._cprofile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(n)
        return buffer.getvalue()
