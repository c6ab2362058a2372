"""SLO-aware scheduling policy over the engine's static serving order.

The scheduler's default order is static: LIFO preemption, FIFO admission.
This module holds one small, deterministic policy that replaces it — no
threads, no wall-clock reads of its own; the scheduler consults it at
well-defined points and it reads only what the engine already records:

:class:`SloPolicy`
    Priority classes and deadline budgets for SLO-aware scheduling.  The
    scheduler uses it to (a) admit the best *(class rank, FIFO order)*
    waiting request instead of the strict queue head, and (b) pick
    preemption victims by *(lowest priority, most deadline slack)*
    instead of LIFO — while keeping the scheduler's guards: the oldest running
    sequence is never preempted and a nearly-finished one is never rolled
    back.

It is opt-in: an engine built without it behaves bit-for-bit like
before.  The measured effect on per-scenario goodput is recorded by the
``adaptive_ab`` pass of ``benchmarks/bench_workloads.py``.
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
