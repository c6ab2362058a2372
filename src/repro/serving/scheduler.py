"""Continuous-batching scheduler.

Policy, in one paragraph: requests are admitted FIFO from a waiting queue
whenever a slot (``max_running``), KV-token headroom (``max_live_tokens``)
and free pool pages (when the engine runs on a bounded
:class:`~repro.kvpool.BlockPool`) are available; the engine prefills and
prepares an admitted prompt within the step that admits it, and only then
moves it from the queue to the running set.  Each engine step then performs
one round-robin pass over the running set, advancing every in-flight
sequence by exactly one decode step (through one fused forward for the
batchable subset), so short and long requests interleave instead of
head-of-line blocking.  If the live KV footprint outgrows the budget
(decode tokens accumulate after admission), the most recently admitted
*eligible* sequence is preempted — a sequence one token from finishing is
never picked, which breaks the preempt-thrash loop where an almost-done
victim is rolled back again and again.  The engine swaps the victim's pages
to a host-side store (the decode session survives intact and resumes
without recompute) and the request returns to the *front* of the waiting
queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.kvpool.cache import BlockTable
from repro.serving.backends import PreparedSequence
from repro.serving.request import GenerationRequest, RequestStats, TokenEvent

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.baselines.base import KVQuantizationPlan
    from repro.kvpool.pool import BlockPool
    from repro.serving.adaptive import SloPolicy


@dataclass
class SequenceState:
    """Scheduler-side bookkeeping for one submitted request."""

    request: GenerationRequest
    stats: RequestStats = field(default_factory=RequestStats)
    prepared: PreparedSequence | None = None
    #: Tokens already streamed to consumers (survives preemption).
    n_emitted: int = 0
    #: The streamed token ids themselves — what a cancelled request
    #: reports as its partial output.
    emitted_tokens: list[int] = field(default_factory=list)
    #: Whether the prepared sequence's pages sit in the host-side swap store
    #: (set by swap preemption; cleared when the pages are restored).
    swapped: bool = False
    finished: bool = False
    #: Pool pages the prefix index expects to serve for this request
    #: (admission hint set at submit time and re-peeked after a
    #: pool-exhausted ``prepare``; the scheduler charges only the *new*
    #: pages a request will actually allocate).
    cached_blocks_hint: int = 0
    #: The ``(fingerprint, block hashes)`` the submit-time probe peeked the
    #: prefix index with (a ``None`` fingerprint when it had nothing to
    #: peek), kept so the hint can be refreshed without planning again.
    route_keys: tuple[str | None, Sequence[str]] = (None, ())
    #: The quantization plan the admission probe made (cache-free planners
    #: only), carried to ``prepare`` so the request is planned once.
    plan: "KVQuantizationPlan | None" = None
    #: Absolute deadline stamped at submit time by the engine's
    #: :class:`~repro.serving.adaptive.SloPolicy` (``None`` without one, or
    #: for classes with no deadline budget).  Preemption measures slack
    #: against it.
    deadline: float | None = None

    @property
    def request_id(self) -> str:
        return self.request.request_id

    def admission_tokens(self) -> int:
        """KV rows restored immediately on (re)admission.

        A fresh request prefills its prompt plus one decode row; a
        preempted request additionally swaps back every token it already
        emitted, so the estimate must include them or a tight budget admits
        the sequence only to preempt it again in the same step.
        """
        return self.request.n_prompt_tokens + self.n_emitted + 1

    def live_tokens(self) -> int:
        """KV rows currently held (0 while waiting or swapped out)."""
        if self.prepared is None or self.swapped:
            return 0
        return self.prepared.cache.live_tokens()

    @property
    def nearly_finished(self) -> bool:
        """Whether at most one decode-budget token remains.

        Preempting such a sequence can never pay off: the rollback costs a
        swap round-trip to recover at most one token of budget, and under a
        tight budget it creates a livelock where the same victim is rolled
        back repeatedly.
        """
        if self.prepared is None or self.prepared.session is None:
            return False
        session = self.prepared.session
        return session.finished or session.remaining_budget <= 1


class ContinuousBatchingScheduler:
    """FIFO admission, round-robin decode order, LIFO preemption with guards.

    An optional :class:`~repro.serving.adaptive.SloPolicy` upgrades
    admission to class-priority order and preemption to deadline-slack
    order (see ``slo_policy`` below); without one the behaviour is exactly
    the original FIFO/LIFO policy.

    Parameters
    ----------
    max_running:
        Maximum number of sequences decoded concurrently.
    max_live_tokens:
        Optional cap on the summed KV rows of all running sequences.
        Admission is optimistic — a sequence is admitted if the *current*
        footprint plus its prompt fits — so the cap can be exceeded later as
        decode tokens accumulate; :meth:`pop_preemption_victim` then names
        the sequences to roll back.  ``None`` disables the cap.
    pool:
        The engine's shared :class:`~repro.kvpool.BlockPool`, when serving
        runs on paged KV storage.  With a *bounded* pool the scheduler also
        gates admission on free pages and triggers preemption when the pool
        runs low (fewer free pages than running sequences — each running
        sequence may need a fresh page within ``block_size`` steps).
    max_live_blocks:
        Optional cap on simultaneously allocated pool pages, tighter than
        the pool's own capacity (useful to reserve headroom for prefills).
    slo_policy:
        Optional :class:`~repro.serving.adaptive.SloPolicy`.  When set,
        admission picks the best *(class rank, FIFO order)* waiting
        request instead of the strict queue head, and preemption picks the
        *(lowest priority, most deadline slack)* victim instead of the
        newest — both still subject to the same fit checks and guards.
        ``None`` (default) keeps the original FIFO/LIFO behaviour exactly.
    """

    def __init__(
        self,
        *,
        max_running: int = 8,
        max_live_tokens: int | None = None,
        pool: "BlockPool | None" = None,
        max_live_blocks: int | None = None,
        slo_policy: "SloPolicy | None" = None,
    ):
        if max_running < 1:
            raise ValueError(f"max_running must be >= 1, got {max_running}")
        if max_live_tokens is not None and max_live_tokens < 1:
            raise ValueError(f"max_live_tokens must be >= 1, got {max_live_tokens}")
        if max_live_blocks is not None and max_live_blocks < 1:
            raise ValueError(f"max_live_blocks must be >= 1, got {max_live_blocks}")
        if max_live_blocks is not None and pool is None:
            raise ValueError("max_live_blocks requires a block pool")
        self.max_running = max_running
        self.max_live_tokens = max_live_tokens
        self.pool = pool
        self.max_live_blocks = max_live_blocks
        self.slo_policy = slo_policy
        self.waiting: deque[SequenceState] = deque()
        self.running: list[SequenceState] = []  # admission order
        #: Requests a host explicitly paused (slow-reader backpressure):
        #: alive but excluded from admission until resumed.
        self.held: list[SequenceState] = []

    # -- queries -------------------------------------------------------------

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running or self.held)

    @property
    def has_runnable(self) -> bool:
        """Whether a step could make progress (held requests cannot)."""
        return bool(self.waiting or self.running)

    def live_tokens(self) -> int:
        """Summed KV rows of all running sequences."""
        return sum(state.live_tokens() for state in self.running)

    def _blocks_for(self, n_tokens: int) -> int:
        return BlockTable.blocks_for_tokens(n_tokens, self.pool.block_size)

    def _fits_block_budget(self, state: SequenceState) -> bool:
        """Whether the head's pages fit the pool right now.

        Beyond the head's own pages, one growth page per running sequence
        *including the head itself* is reserved — this matches the
        :meth:`over_budget` watermark after admission, so a newcomer is
        never admitted only to be swap-preempted in the same step, and a
        transiently full pool cannot truncate a sequence mid-generation.

        Pages the prefix index already holds for this request
        (``cached_blocks_hint``) are not charged: adopting a shared page
        allocates nothing, so a warm repeated-context request is admitted
        into headroom a cold one would not fit.
        """
        if self.pool is None:
            return True
        needed = self._blocks_for(state.admission_tokens())
        needed = max(0, needed - state.cached_blocks_hint)
        if not self.pool.can_allocate(needed + len(self.running) + 1):
            return False
        if self.max_live_blocks is not None:
            return self._charged_blocks() + needed <= self.max_live_blocks
        return True

    def _charged_blocks(self) -> int:
        """Allocated pages minus reclaimable idle prefix-index pages."""
        return self.pool.n_allocated - self.pool.reclaimable_blocks()

    def _admission_candidate(self) -> SequenceState:
        """The waiting request admission considers next.

        FIFO head without an SLO policy; with one, the highest-priority
        class wins and FIFO order breaks ties within a class.  The fit
        checks below apply to this one candidate only — a high-priority
        request that does not fit is *not* bypassed in favour of a smaller
        low-priority one, so a large interactive prompt cannot be starved
        by a stream of small background requests slipping past it.
        """
        policy = self.slo_policy
        if policy is None:
            return self.waiting[0]
        return min(
            enumerate(self.waiting),
            key=lambda item: (policy.rank(item[1].request.slo_class), item[0]),
        )[1]

    def next_to_admit(self) -> SequenceState | None:
        """The waiting request to admit, if it fits right now.

        A sequence whose prompt alone exceeds the token budget is still
        admitted when nothing is running, otherwise it could never start.
        """
        if not self.waiting or len(self.running) >= self.max_running:
            return None
        head = self._admission_candidate()
        if not self.running:
            return head
        if self.max_live_tokens is not None:
            if self.live_tokens() + head.admission_tokens() > self.max_live_tokens:
                return None
        if not self._fits_block_budget(head):
            return None
        return head

    # -- transitions ---------------------------------------------------------

    def enqueue(self, state: SequenceState) -> None:
        """Append a new request to the back of the FIFO queue."""
        self.waiting.append(state)

    def requeue_front(self, state: SequenceState) -> None:
        """Return a preempted request to the front of the queue."""
        self.waiting.appendleft(state)

    def _dequeue_admitted(self, state: SequenceState) -> None:
        """Remove ``state`` from the waiting queue on admission.

        Without an SLO policy only the FIFO head may ever be admitted (the
        original invariant, kept as a hard assertion); with one, admission
        may pick any waiting request, so membership removal replaces the
        head check.
        """
        if self.slo_policy is None:
            if not self.waiting or self.waiting[0] is not state:
                raise ValueError(
                    "only the head of the waiting queue can be admitted"
                )
            self.waiting.popleft()
        else:
            self.waiting.remove(state)

    def mark_running(self, state: SequenceState) -> None:
        """Move a waiting request to the running set."""
        self._dequeue_admitted(state)
        self.running.append(state)

    def remove(self, state: SequenceState) -> None:
        """Drop a finished sequence from the running set."""
        self.running.remove(state)

    def hold(self, state: SequenceState) -> None:
        """Move a *waiting* request into the held set (must be waiting:
        the engine first rolls a running request back)."""
        self.waiting.remove(state)
        self.held.append(state)

    def release_hold(self, state: SequenceState) -> None:
        """Return a held request to the front of the waiting queue.

        Front, not back: a held request was already admitted once (or was
        next in line), so resuming restores its FIFO priority instead of
        sending it behind traffic that arrived while it was paused.
        """
        self.held.remove(state)
        self.waiting.appendleft(state)

    def discard(self, state: SequenceState) -> None:
        """Drop a cancelled request from whichever set currently holds it."""
        if state in self.running:
            self.running.remove(state)
        elif state in self.held:
            self.held.remove(state)
        else:
            self.waiting.remove(state)

    def decode_order(self) -> list[SequenceState]:
        """Snapshot of the running set in admission (round-robin) order."""
        return list(self.running)

    # -- preemption ----------------------------------------------------------

    def over_budget(self) -> bool:
        """Whether the running set currently exceeds its resource budgets."""
        if self.max_live_tokens is not None:
            if self.live_tokens() > self.max_live_tokens:
                return True
        if self.pool is not None:
            if (
                self.max_live_blocks is not None
                and self._charged_blocks() > self.max_live_blocks
            ):
                return True
            # Idle prefix-index pages count as available: allocating under
            # pressure reclaims them, so they must not trigger preemption.
            free = self.pool.available_blocks()
            if free is not None and free < len(self.running) and len(self.running) > 1:
                # Each running sequence may need a fresh page within
                # block_size steps; preempt before allocation fails.
                return True
        return False

    def pop_preemption_victim(self, now: float | None = None) -> SequenceState | None:
        """Remove and return the best *eligible* running victim.

        Two guards always apply: the oldest running sequence is never
        preempted (the survivor guarantees forward progress), and a
        sequence within one token of finishing is skipped — rolling it back
        recovers at most one token of budget and creates a preempt-thrash
        loop under tight budgets.  Returns ``None`` when no sequence is
        eligible.

        Without an SLO policy, selection is LIFO (the newest sequence
        wastes the least completed work).  With one — and a clock reading
        ``now`` — the victim is the eligible sequence with the *lowest
        priority class*, breaking ties by the most deadline slack
        (``deadline - now``; no deadline counts as infinite slack), then by
        newest admission.  A background request with hours of slack is
        rolled back before an interactive one about to miss its deadline.
        """
        policy = self.slo_policy
        if policy is None or now is None:
            for index in range(len(self.running) - 1, 0, -1):
                if self.running[index].nearly_finished:
                    continue
                return self.running.pop(index)
            return None
        best_index = None
        best_key = None
        for index in range(1, len(self.running)):
            state = self.running[index]
            if state.nearly_finished:
                continue
            slack = (
                float("inf")
                if state.deadline is None
                else state.deadline - now
            )
            key = (policy.rank(state.request.slo_class), slack, index)
            if best_key is None or key > best_key:
                best_key = key
                best_index = index
        if best_index is None:
            return None
        return self.running.pop(best_index)


def terminal_event(state: SequenceState, stopped_by: str) -> TokenEvent:
    """The end-of-stream event closing a request's token stream."""
    return TokenEvent(
        request_id=state.request_id,
        token_id=None,
        text="",
        index=state.n_emitted,
        is_first=False,
        is_last=True,
        stopped_by=stopped_by,
    )
