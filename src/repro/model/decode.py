"""Shared decode-step state machine.

Historically the dense decode loop (:meth:`Transformer.generate_from_cache`)
and the blockwise Algorithm-1 loop (the old
``CocktailPipeline._generate_blockwise``) each re-implemented the same
stop-token / token-budget / cache-full bookkeeping, so their ``stopped_by``
semantics could drift.  :class:`DecodeSession` centralises that state machine
behind a backend-supplied step function and exposes it two ways:

* :meth:`DecodeSession.run` — the classic blocking greedy loop (what
  :meth:`~repro.model.transformer.Transformer.generate_from_cache`, the
  engine-independent reference, runs),
* :meth:`DecodeSession.advance` — one decode step at a time, the step that
  loop repeats,
* :meth:`DecodeSession.begin_step` / :meth:`DecodeSession.complete_step` —
  the same single step split in two phases, so a
  :class:`BatchedDecodeStep` can run every session's bookkeeping first and
  then compute all pending forwards through **one fused call** per engine
  step; this is how the serving engine in :mod:`repro.serving` advances
  every in-flight sequence.

The per-step order of operations is load-bearing and matches the historical
loops exactly: the budget check precedes the stop-token check (a request
that exhausts its budget reports ``"max_tokens"`` even if the next sampled
token would have been a stop token), a token is emitted before the capacity
check (``"cache_full"`` still keeps the token that no longer fits a
follow-up step), and the backend step for the final budgeted token is still
computed (its sampled successor is simply never used).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.model.sampling import greedy_sample

#: The three terminal states a decode session can report.
STOP_REASONS: tuple[str, ...] = ("stop_token", "max_tokens", "cache_full")


def check_max_new_tokens(max_new_tokens: int) -> int:
    """Validate a decode budget, returning it as ``int``.

    A budget of zero would silently produce an empty answer labelled
    ``stopped_by="max_tokens"`` even when the very first sampled token is a
    stop token, so every entry point rejects it up front.
    """
    max_new_tokens = int(max_new_tokens)
    if max_new_tokens < 1:
        raise ValueError(
            f"max_new_tokens must be >= 1, got {max_new_tokens} "
            "(a zero budget cannot distinguish stop conditions)"
        )
    return max_new_tokens


class DecodeSession:
    """Incremental greedy/sampled decode over a backend step function.

    Parameters
    ----------
    step_fn:
        Maps the just-emitted token id to the next-token logits, appending
        the token to whatever cache representation the backend maintains.
    first_logits:
        Logits of the last prompt position (the distribution of the first
        output token), produced by the prefill phase.
    max_new_tokens:
        Decode budget; must be >= 1.
    stop_ids:
        Token IDs that terminate generation (excluded from the output).
    sampler:
        Maps logits to the next token ID (greedy by default).
    has_capacity:
        Returns whether the backend can absorb one more decode step; when it
        reports ``False`` the session ends with ``stopped_by="cache_full"``.
    step_cost:
        Optional probe returning how many shared pool pages the *next*
        forward may allocate (0 or 1 for paged caches).  The batched
        coordinator reserves that many pages between a session's capacity
        check and its deferred forward, so a fused round observes exactly
        the pool availability a one-session-at-a-time round would.
    """

    def __init__(
        self,
        step_fn: Callable[[int], np.ndarray],
        first_logits: np.ndarray,
        *,
        max_new_tokens: int,
        stop_ids: Sequence[int] = (),
        sampler: Callable[[np.ndarray], int] = greedy_sample,
        has_capacity: Callable[[], bool] | None = None,
        step_cost: Callable[[], int] | None = None,
    ):
        self._step_fn = step_fn
        self._sampler = sampler
        self._stop_set = frozenset(int(s) for s in stop_ids)
        self._max_new_tokens = check_max_new_tokens(max_new_tokens)
        self._has_capacity = has_capacity if has_capacity is not None else (lambda: True)
        self.step_cost = step_cost
        self._next_id = int(sampler(first_logits))
        self.generated: list[int] = []
        self.stopped_by: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the session has reached a terminal state."""
        return self.stopped_by is not None

    @property
    def n_generated(self) -> int:
        """Number of tokens emitted so far."""
        return len(self.generated)

    @property
    def max_new_tokens(self) -> int:
        """The session's decode budget."""
        return self._max_new_tokens

    @property
    def remaining_budget(self) -> int:
        """Decode-budget tokens left before the session must stop.

        The scheduler's preemption policy consults this: a sequence one
        token (or less) from finishing is never worth preempting — sparing
        it both avoids wasted recompute and breaks preempt-thrash loops.
        """
        return self._max_new_tokens - len(self.generated)

    def begin_step(self) -> tuple[int | None, bool]:
        """Phase 1 of a (possibly fused) decode step: everything but the forward.

        Runs the budget / stop-token / capacity checks in the exact
        load-bearing order of :meth:`advance` and emits this step's token.
        Returns ``(token, needs_forward)``: ``needs_forward`` is ``True``
        when the backend forward for ``token`` still has to run — either
        inline (:meth:`advance`) or deferred into a fused batch
        (:class:`BatchedDecodeStep`), after which :meth:`complete_step`
        must be called with the resulting logits.  A terminal outcome
        (``token is None``, or a token with ``needs_forward=False`` for the
        ``"cache_full"`` case) requires no forward at all.
        """
        if self.finished:
            return None, False
        if len(self.generated) >= self._max_new_tokens:
            self.stopped_by = "max_tokens"
            return None, False
        if self._next_id in self._stop_set:
            self.stopped_by = "stop_token"
            return None, False
        token = self._next_id
        self.generated.append(token)
        if not self._has_capacity():
            self.stopped_by = "cache_full"
            return token, False
        return token, True

    def complete_step(self, logits: np.ndarray) -> None:
        """Phase 2: consume the forward's logits and sample the next token."""
        self._next_id = int(self._sampler(logits))

    def advance(self) -> int | None:
        """Execute one decode step.

        Returns the token ID emitted by this step, or ``None`` when the
        session finishes without emitting (budget exhausted or stop token).
        Note the ``"cache_full"`` terminal state both emits a token *and*
        finishes, so check :attr:`finished` rather than the return value.
        """
        token, needs_forward = self.begin_step()
        if needs_forward:
            self.complete_step(self._step_fn(token))
        return token

    def run(self) -> tuple[list[int], str]:
        """Drive the session to completion; returns ``(token_ids, stopped_by)``."""
        while not self.finished:
            self.advance()
        return list(self.generated), self.stopped_by


class BatchedDecodeStep:
    """Drives many :class:`DecodeSession`\\ s through one fused forward.

    One instance coordinates a single engine round: sessions are
    :meth:`add`-ed in scheduler order (phase 1 — checks, token emission and
    pool-page reservation run immediately, preserving each session's exact
    stop-token / budget / cache-full semantics and a one-at-a-time round's
    capacity-check ordering), then :meth:`commit` executes **one**
    ``step_batch_fn`` call covering every session that still needs a
    forward and feeds each session its own logits row.

    Parameters
    ----------
    step_batch_fn:
        ``(token_ids, payloads) -> list_of_logits`` — the fused backend
        forward.  ``payloads`` are the opaque per-session objects passed to
        :meth:`add` (the serving engine passes each sequence's model cache,
        which the fused model forward appends to).
    reserve:
        Optional callback taking a page count.  Called with
        ``session.step_cost()`` whenever an added session will run a
        forward, so later sessions' capacity checks see the pool as a
        one-at-a-time round would have left it.  The caller releases the
        reservation before :meth:`commit` (the fused forward then performs
        the real allocations).
    """

    def __init__(
        self,
        step_batch_fn: Callable[[list[int], list], list[np.ndarray]],
        *,
        reserve: Callable[[int], None] | None = None,
    ):
        self._step_batch_fn = step_batch_fn
        self._reserve = reserve
        self._pending: list[tuple[DecodeSession, int, object]] = []

    @property
    def n_pending(self) -> int:
        """Sessions whose forward is queued for the next :meth:`commit`."""
        return len(self._pending)

    def add(
        self, session: DecodeSession, payload: object = None
    ) -> tuple[int | None, bool]:
        """Run phase 1 for one session; queue its forward if it needs one.

        Returns the session's ``(token, needs_forward)`` pair (see
        :meth:`DecodeSession.begin_step`).
        """
        token, needs_forward = session.begin_step()
        if needs_forward:
            if self._reserve is not None and session.step_cost is not None:
                step_cost = session.step_cost()
                if step_cost:
                    self._reserve(step_cost)
            self._pending.append((session, token, payload))
        return token, needs_forward

    def commit(self) -> int:
        """Execute the fused forward and complete every pending session.

        Returns the batch size of the fused call (0 when nothing was
        pending, in which case no forward runs at all).
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        tokens = [token for _, token, _ in pending]
        payloads = [payload for _, _, payload in pending]
        logits_list = self._step_batch_fn(tokens, payloads)
        if len(logits_list) != len(pending):
            raise RuntimeError(
                f"fused step returned {len(logits_list)} logits rows for "
                f"{len(pending)} sequences"
            )
        for (session, _, _), logits in zip(pending, logits_list):
            session.complete_step(logits)
        return len(pending)
