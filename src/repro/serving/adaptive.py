"""Feedback-driven control loops over the engine's static serving knobs.

Several of the engine's performance levers started life as static knobs:
the speculation depth ``k``, LIFO preemption, FIFO admission.  This module
closes those loops with two small, deterministic controllers — no threads,
no wall-clock reads of their own; each one is ticked by the engine at
well-defined points and observes only signals the engine already measures:

:class:`DraftWindowController`
    Per-sequence speculation depth from the observed acceptance rate (the
    ``RequestStats.drafted_tokens`` / ``accepted_tokens`` counters).  An
    EWMA of per-verify acceptance grows the window additively toward the
    configured ceiling ``k`` under high acceptance and shrinks it
    multiplicatively under low acceptance, degrading all the way to plain
    decoding (window 0) with a periodic one-token probe so a sequence
    whose text becomes predictable again can recover.  Because greedy
    verification is *exact*, the window size can never change which
    tokens are produced — only how many model forwards they cost.

:class:`SloPolicy`
    Priority classes and deadline budgets for SLO-aware scheduling.  The
    scheduler uses it to (a) admit the best *(class rank, FIFO order)*
    waiting request instead of the strict queue head, and (b) pick
    preemption victims by *(lowest priority, most deadline slack)*
    instead of LIFO — while keeping the PR 2 guards: the oldest running
    sequence is never preempted and a nearly-finished one is never rolled
    back.

Both are opt-in: an engine built without them behaves bit-for-bit
like before.  The measured effect on per-scenario goodput is recorded by
the ``adaptive_ab`` pass of ``benchmarks/bench_workloads.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The standard traffic classes (mirrors ``repro.workloads.slo.SloSpec``).
#: Policies accept unknown class names tolerantly — an unknown class ranks
#: below every known one and carries no deadline.
DEFAULT_CLASS_RANKS = {"interactive": 0, "batch": 1, "background": 2}

#: Default per-class deadline budgets, in engine-clock units (virtual steps
#: under the workload harness).  A request's preemption deadline is its
#: submit time plus this budget; matching the harness's TTFT deadlines
#: keeps "slack" meaningful against the scored SLOs.
DEFAULT_DEADLINE_BUDGETS = {"interactive": 25.0, "batch": 120.0, "background": 600.0}


@dataclass
class DraftWindowController:
    """Adapts one sequence's speculation window to its acceptance rate.

    The engine calls :meth:`next_window` once per decode round (phase 0 of
    the speculative step) to learn how many draft tokens to propose, and
    :meth:`observe` once per verify forward with the drafted/accepted
    counts.  The window is a *request* — the engine still clamps it by
    decode budget, cache capacity and pool headroom, so the controller can
    only ever shrink speculation toward plain decoding, never grow it past
    the configured ceiling.

    Parameters
    ----------
    k:
        Window ceiling — the static ``SpeculativeConfig.k`` becomes the
        most this controller will ever request.
    alpha:
        EWMA smoothing weight of the newest per-verify acceptance sample
        (``ewma = alpha * sample + (1 - alpha) * ewma``).
    grow_threshold:
        Smoothed acceptance at or above which the window grows by one.
    shrink_threshold:
        Smoothed acceptance at or below which the window halves; repeated
        misses collapse it to ``min_window``.
    min_window:
        Floor of the shrink path.  ``0`` (default) means full degradation
        to plain decoding.
    probe_interval:
        While degraded to window 0, one single-token probe draft is issued
        every this many rounds so the controller can detect that
        acceptance has recovered (without probes the window could never
        leave 0).
    """

    k: int
    alpha: float = 0.5
    grow_threshold: float = 0.8
    shrink_threshold: float = 0.4
    min_window: int = 0
    probe_interval: int = 8
    #: Smoothed acceptance rate (``None`` until the first verify lands).
    ewma: float | None = field(default=None, init=False)
    #: Current window request (starts at the ceiling: optimistic, like the
    #: static engine, so the first verify is a full-width sample).
    window: int = field(init=False)
    _plain_rounds: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 <= self.shrink_threshold < self.grow_threshold <= 1.0):
            raise ValueError(
                "need 0 <= shrink_threshold < grow_threshold <= 1, got "
                f"{self.shrink_threshold} / {self.grow_threshold}"
            )
        if self.min_window < 0 or self.min_window > self.k:
            raise ValueError(
                f"min_window must be in [0, k], got {self.min_window}"
            )
        if self.probe_interval < 1:
            raise ValueError(
                f"probe_interval must be >= 1, got {self.probe_interval}"
            )
        self.window = self.k

    def next_window(self) -> int:
        """Draft tokens to request this round (0 = plain decode)."""
        if self.window >= 1:
            self._plain_rounds = 0
            return self.window
        self._plain_rounds += 1
        if self._plain_rounds >= self.probe_interval:
            self._plain_rounds = 0
            return 1
        return 0

    def observe(self, drafted: int, accepted: int) -> None:
        """Fold one verify forward's outcome into the window."""
        if drafted < 1:
            return
        sample = accepted / drafted
        self.ewma = (
            sample
            if self.ewma is None
            else self.alpha * sample + (1.0 - self.alpha) * self.ewma
        )
        if self.ewma >= self.grow_threshold:
            self.window = min(self.k, self.window + 1)
        elif self.ewma <= self.shrink_threshold:
            self.window = max(self.min_window, self.window // 2)


@dataclass
class SloPolicy:
    """Priority ranks and deadline budgets for SLO-aware scheduling.

    ``ranks`` orders the traffic classes (lower rank = higher priority);
    ``deadline_budgets`` turns a submit time into a per-request deadline
    (``submitted_at + budget``) the preemption path measures slack
    against.  Unknown classes are tolerated: they rank below every
    configured class and carry no deadline (infinite slack — first in
    line for preemption among their rank).
    """

    ranks: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_RANKS)
    )
    deadline_budgets: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINE_BUDGETS)
    )

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("SloPolicy needs at least one class rank")
        self._unknown_rank = max(self.ranks.values()) + 1

    def rank(self, slo_class: str) -> int:
        """Priority rank of ``slo_class`` (lower = scheduled first)."""
        return self.ranks.get(slo_class, self._unknown_rank)

    def deadline(self, slo_class: str, submitted_at: float) -> float | None:
        """Absolute deadline of a request, or ``None`` (no deadline)."""
        budget = self.deadline_budgets.get(slo_class)
        if budget is None:
            return None
        return submitted_at + budget
