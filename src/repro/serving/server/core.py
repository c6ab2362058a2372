"""The server core: one engine thread, many subscribed consumers.

:class:`ServerCore` hosts an :class:`~repro.serving.engine.EngineCore`
behind a single background thread that owns every engine call — the
engine itself is synchronous and not thread-safe, so all mutation funnels
through a command queue processed between steps.  Each submitted request
gets a :class:`StreamHandle`: a bounded, thread-safe event queue the
engine thread fans token events into and any consumer (an asyncio
connection handler, a plain thread, a test) drains at its own pace.

Backpressure is the core design point: a consumer that stops draining can
never stall the step loop or buffer unboundedly.  When a handle's backlog
reaches ``max_stream_backlog`` the configured ``slow_reader_policy``
applies:

``"pause"`` (default)
    The request is held out of scheduling (:meth:`EngineCore.pause` —
    swap-preempted when running, so its pool pages move to the host
    store) and resumes automatically when the consumer drains its
    backlog.  Nothing is lost; the slow reader only slows *itself*.
``"drop"``
    Overflowing token events are discarded (counted on the handle);
    terminal events are always delivered.  For consumers that only care
    about liveness, not the full text.
``"cancel"``
    The request is cancelled outright — the strictest protection for
    multi-tenant deployments where a stalled client should not keep pool
    pages alive at all.

Cancellation on client disconnect is the same mechanism from the other
side: the transport calls :meth:`ServerCore.cancel` and the engine
releases every page and refcount the request held.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Callable

from repro.serving.engine import EngineCore
from repro.serving.request import GenerationRequest, GenerationResult, TokenEvent
from repro.serving.server.errors import ApiError, InternalError, ServerOverloadedError
from repro.serving.server.tenants import ANONYMOUS, TenantRegistry

#: Accepted ``slow_reader_policy`` values.
SLOW_READER_POLICIES = ("pause", "drop", "cancel")


class StreamHandle:
    """One request's server-side subscription.

    The engine thread appends :class:`TokenEvent` objects; the consumer
    drains them with :meth:`pop_events` (and may install a ``notify``
    callable — e.g. ``loop.call_soon_threadsafe`` onto an
    ``asyncio.Event`` — to learn about new events without polling).  After
    the terminal event, :attr:`result` carries the request's
    :class:`~repro.serving.request.GenerationResult`.
    """

    def __init__(self, request_id: str, tenant: str, core: "ServerCore"):
        self.request_id = request_id
        self.tenant = tenant
        #: Budget tokens the admission reserved (handed back at finish).
        self.reserved_tokens = 0
        self._core = core
        self._lock = threading.Lock()
        self._events: deque[TokenEvent] = deque()
        self._notify: Callable[[], None] | None = None
        self._finished = threading.Event()
        #: Set by the engine thread while this request is backpressure-held.
        self.paused = False
        #: Token events discarded under the ``"drop"`` policy.
        self.n_dropped = 0
        self.result: GenerationResult | None = None
        #: Door-level failure after admission (engine died mid-request).
        self.error: ApiError | None = None

    # -- consumer side ---------------------------------------------------------

    def set_notify(self, notify: Callable[[], None] | None) -> None:
        """Install a wakeup callable (invoked from the engine thread).

        If events are already queued — or the stream already finished —
        the callable fires immediately, so a consumer that subscribes
        late cannot miss its wakeup.
        """
        with self._lock:
            self._notify = notify
            pending = bool(self._events) or self._finished.is_set()
        if notify is not None and pending:
            self._safe_notify(notify)

    def pop_events(self) -> list[TokenEvent]:
        """Drain every queued event (oldest first).

        Draining a backpressure-paused request asks the core to resume it.
        """
        with self._lock:
            events = list(self._events)
            self._events.clear()
            resume = self.paused
        if resume:
            self._core._request_resume(self.request_id)
        return events

    @property
    def finished(self) -> bool:
        """Whether the terminal event has been delivered."""
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the stream finishes (sync consumers / tests)."""
        return self._finished.wait(timeout)

    # -- engine-thread side ----------------------------------------------------

    def _backlog(self) -> int:
        with self._lock:
            return len(self._events)

    def _mark_paused(self) -> bool:
        """Flag the stream paused; returns False if it already was."""
        with self._lock:
            if self.paused:
                return False
            self.paused = True
            return True

    def _clear_paused(self) -> None:
        with self._lock:
            self.paused = False

    @staticmethod
    def _safe_notify(notify: Callable[[], None]) -> None:
        # A consumer's wakeup hook must never take down the engine thread
        # (e.g. call_soon_threadsafe into an event loop that just closed).
        try:
            notify()
        except Exception:  # noqa: BLE001
            pass

    def _append(self, event: TokenEvent) -> None:
        with self._lock:
            self._events.append(event)
            notify = self._notify
        if notify is not None:
            self._safe_notify(notify)

    def _close(
        self,
        result: GenerationResult | None,
        error: ApiError | None,
        terminal: TokenEvent | None = None,
    ) -> None:
        # The terminal event, the result and the finished flag become
        # visible atomically: a consumer woken by the terminal event must
        # never observe ``finished`` without ``result`` (or vice versa).
        with self._lock:
            if terminal is not None:
                self._events.append(terminal)
            self.result = result
            self.error = error
            self.paused = False
            notify = self._notify
            self._finished.set()
        if notify is not None:
            self._safe_notify(notify)


class ServerCore:
    """Runs an engine's step loop on a background thread and fans out events.

    Parameters
    ----------
    engine:
        The :class:`~repro.serving.engine.EngineCore` to host.  The core
        owns it exclusively from :meth:`start` on — nothing else may call
        into the engine while the server runs.  Mutually exclusive with
        ``engine_factory``.
    engine_factory:
        Pool mode: a zero-argument engine builder.  With ``n_workers=1``
        the factory's single engine is hosted directly; with more the
        core builds and owns a
        :class:`~repro.serving.sharded.ShardedEngine` over ``n_workers``
        data-parallel workers — tenants, backpressure, streaming and
        cancel-on-disconnect all work unchanged over the pool, and
        ``/v1/stats`` grows a per-worker ``workers`` section.
    n_workers:
        Worker count for pool mode (ignored with a direct ``engine``).
    threaded_workers:
        Step pool workers on their own threads inside each round (see
        :class:`~repro.serving.sharded.ShardedEngine`).
    tenants:
        Tenant registry (default: a permissive anonymous-only registry).
    max_stream_backlog:
        Queued-event bound per stream before the slow-reader policy kicks.
    slow_reader_policy:
        ``"pause"`` / ``"drop"`` / ``"cancel"`` — see the module docstring.
    max_active:
        Cap on simultaneously active requests across all tenants;
        :meth:`submit` raises :class:`ServerOverloadedError` beyond it
        (``None`` = unbounded).
    """

    def __init__(
        self,
        engine: EngineCore | None = None,
        *,
        engine_factory=None,
        n_workers: int = 1,
        threaded_workers: bool = False,
        tenants: TenantRegistry | None = None,
        max_stream_backlog: int = 256,
        slow_reader_policy: str = "pause",
        max_active: int | None = None,
    ):
        if (engine is None) == (engine_factory is None):
            raise ValueError(
                "pass exactly one of engine= or engine_factory="
            )
        if engine_factory is not None:
            if n_workers < 1:
                raise ValueError(f"n_workers must be >= 1, got {n_workers}")
            if n_workers == 1:
                engine = engine_factory()
            else:
                from repro.serving.sharded import ShardedEngine

                engine = ShardedEngine(
                    engine_factory,
                    n_workers=n_workers,
                    threaded=threaded_workers,
                )
        if slow_reader_policy not in SLOW_READER_POLICIES:
            raise ValueError(
                f"slow_reader_policy must be one of {SLOW_READER_POLICIES}, "
                f"got {slow_reader_policy!r}"
            )
        if max_stream_backlog < 1:
            raise ValueError(
                f"max_stream_backlog must be >= 1, got {max_stream_backlog}"
            )
        if max_active is not None and max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        self.engine = engine
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.max_stream_backlog = max_stream_backlog
        self.slow_reader_policy = slow_reader_policy
        self.max_active = max_active
        self._cond = threading.Condition()
        self._commands: deque[tuple] = deque()
        self._handles: dict[str, StreamHandle] = {}
        self._handles_lock = threading.Lock()
        self._counter = 0
        self._thread: threading.Thread | None = None
        self._stopping = False
        #: Server-level counters surfaced by ``/v1/stats``.
        self.n_submitted = 0
        self.n_finished = 0
        self.n_cancelled = 0
        self.n_backpressure_pauses = 0
        self.n_dropped_events = 0
        self.n_step_errors = 0
        self.last_error: str | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServerCore":
        """Start the engine thread (idempotent)."""
        if self._thread is None:
            self._stopping = False
            self._thread = threading.Thread(
                target=self._run, name="repro-engine-step-loop", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        """Stop the step loop; every in-flight request is cancelled first."""
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        thread.join()
        self._thread = None
        # A pooled engine owns worker threads of its own; park them too.
        engine_close = getattr(self.engine, "close", None)
        if callable(engine_close):
            engine_close()

    # -- the request path (any thread) -----------------------------------------

    def submit(
        self, request: GenerationRequest, *, tenant: str = ANONYMOUS
    ) -> StreamHandle:
        """Admit one request against its tenant's limits and queue it.

        Raises the tenant's 429s (:class:`ConcurrencyLimitError` /
        :class:`QuotaExceededError`) or :class:`ServerOverloadedError`
        *before* the request touches the engine; on success the returned
        handle streams the request's events.
        """
        if not self.running:
            raise RuntimeError("ServerCore is not started")
        with self._handles_lock:
            if self.max_active is not None and len(self._handles) >= self.max_active:
                raise ServerOverloadedError(
                    f"server is at its active-request cap ({self.max_active})"
                )
            # Admission inside the handle lock: the concurrency check and
            # the registration are one atomic step, so racing submissions
            # cannot both pass a cap of N with N active.
            reserved = self.tenants.admit(
                tenant,
                prompt_tokens=request.n_prompt_tokens,
                max_new_tokens=request.max_new_tokens,
            )
            if request.request_id is None:
                self._counter += 1
                request.request_id = f"srv-{self._counter}"
            handle = StreamHandle(request.request_id, tenant, self)
            handle.reserved_tokens = reserved
            if request.request_id in self._handles:
                self.tenants.reject_admitted(tenant, reserved_tokens=reserved)
                raise ServerOverloadedError(
                    f"duplicate request_id {request.request_id!r}"
                )
            self._handles[request.request_id] = handle
            self.n_submitted += 1
        with self._cond:
            if self._stopping:
                # close() won the race: the step loop is (or is about to
                # be) past its final command drain, so an appended submit
                # would never be processed and join() would hang forever.
                # Roll the admission back and refuse loudly instead.
                with self._handles_lock:
                    self._handles.pop(request.request_id, None)
                    self.n_submitted -= 1
                self.tenants.reject_admitted(tenant, reserved_tokens=reserved)
                raise ServerOverloadedError("server is shutting down")
            self._commands.append(("submit", request, handle))
            self._cond.notify_all()
        return handle

    def cancel(self, request_id: str) -> None:
        """Cancel an in-flight request (no-op if it already finished).

        This is what the transport calls on client disconnect: the engine
        releases every page/refcount the request held and the handle
        closes with ``stopped_by="cancelled"``.
        """
        with self._cond:
            self._commands.append(("cancel", request_id))
            self._cond.notify_all()

    def join(self, handle: StreamHandle, timeout: float | None = None) -> GenerationResult:
        """Block until ``handle`` finishes and return its result."""
        if not handle.wait(timeout):
            raise TimeoutError(f"request {handle.request_id!r} did not finish")
        if handle.error is not None:
            raise handle.error
        return handle.result

    def _request_resume(self, request_id: str) -> None:
        with self._cond:
            self._commands.append(("resume", request_id))
            self._cond.notify_all()

    # -- introspection ---------------------------------------------------------

    @property
    def n_active(self) -> int:
        with self._handles_lock:
            return len(self._handles)

    def stats_payload(self) -> dict:
        """The JSON body of ``/v1/stats``: server, engine, pool, KV memory, tenants."""
        engine = self.engine
        exec_stats = engine.exec_stats
        payload = {
            "server": {
                "n_submitted": self.n_submitted,
                "n_finished": self.n_finished,
                "n_cancelled": self.n_cancelled,
                "n_active": self.n_active,
                "n_backpressure_pauses": self.n_backpressure_pauses,
                "n_dropped_events": self.n_dropped_events,
                "n_step_errors": self.n_step_errors,
                "slow_reader_policy": self.slow_reader_policy,
                "max_stream_backlog": self.max_stream_backlog,
            },
            "engine": {
                "n_steps": exec_stats.n_steps,
                "n_forward_calls": exec_stats.n_forward_calls,
                "n_fused_calls": exec_stats.n_fused_calls,
                "n_decode_tokens": exec_stats.n_decode_tokens,
                "n_prefill_chunks": exec_stats.n_prefill_chunks,
                "n_drafted_tokens": exec_stats.n_drafted_tokens,
                "n_accepted_tokens": exec_stats.n_accepted_tokens,
                "acceptance_rate": exec_stats.acceptance_rate,
                "forwards_per_token": exec_stats.forwards_per_token,
                "mean_batch_occupancy": exec_stats.mean_batch_occupancy,
                "n_running": engine.n_running,
                "n_waiting": engine.n_waiting,
                "n_prefilling": engine.n_prefilling,
            },
            "tenants": self.tenants.snapshot(),
        }
        # Adaptive-controller readings appear only when controllers are
        # configured, so the default payload shape is unchanged.
        adaptive_stats = getattr(engine, "adaptive_stats", None)
        if callable(adaptive_stats):
            adaptive = adaptive_stats()
            if adaptive:
                payload["engine"]["adaptive"] = adaptive
        if engine.pool is not None:
            pool = engine.pool
            payload["pool"] = {
                "n_allocated": pool.n_allocated,
                "allocated_bytes": pool.allocated_bytes(),
                "peak_allocated_blocks": pool.peak_allocated_blocks,
                "peak_bytes": pool.peak_bytes,
                "capacity_blocks": pool.capacity_blocks,
                "block_size": pool.block_size,
            }
        payload["kv_memory"] = engine.kv_memory_stats()
        if engine.prefix_cache is not None:
            stats = engine.prefix_cache.stats
            payload["prefix_cache"] = {
                "n_blocks": engine.prefix_cache.n_blocks,
                "n_hit_blocks": stats.n_hit_blocks,
                "hit_rate": stats.hit_rate,
                "saved_bytes": stats.saved_bytes,
            }
        context_rows = engine.context_rows_stats()
        if context_rows is not None:
            payload["context_rows"] = context_rows
        worker_stats = getattr(engine, "worker_stats_payload", None)
        if callable(worker_stats):
            payload["workers"] = worker_stats()
        return payload

    # -- the engine thread -----------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while (
                    not self._stopping
                    and not self._commands
                    and not self.engine.has_runnable
                ):
                    self._cond.wait()
                if self._stopping:
                    break
                commands = list(self._commands)
                self._commands.clear()
            for command in commands:
                self._apply(command)
            if self.engine.has_runnable:
                try:
                    events = self.engine.step()
                except Exception as exc:  # noqa: BLE001 — the loop must survive
                    self._fail_active(exc)
                    continue
                self._dispatch(events)
        self._drain_on_close()

    def _apply(self, command: tuple) -> None:
        kind = command[0]
        if kind == "submit":
            _, request, handle = command
            try:
                self.engine.submit(request)
                self.engine.request_stats(request.request_id).tenant = handle.tenant
            except Exception as exc:  # noqa: BLE001 — never kill the loop
                self._finish_handle(
                    handle,
                    None,
                    InternalError(f"submission failed: {exc}"),
                    cancelled=True,
                    prompt_tokens=0,
                    completion_tokens=0,
                )
        elif kind == "cancel":
            request_id = command[1]
            with self._handles_lock:
                handle = self._handles.get(request_id)
            if handle is None or handle.finished:
                return
            try:
                event = self.engine.cancel(request_id)
            except (KeyError, ValueError):
                return
            self._retire(request_id, handle, terminal=event)
        elif kind == "resume":
            request_id = command[1]
            with self._handles_lock:
                handle = self._handles.get(request_id)
            if handle is None or not handle.paused:
                return
            handle._clear_paused()
            try:
                self.engine.resume(request_id)
            except KeyError:
                pass

    def _dispatch(self, events: list[TokenEvent]) -> None:
        for event in events:
            with self._handles_lock:
                handle = self._handles.get(event.request_id)
            if handle is None:
                continue  # a directly-submitted request; not ours to stream
            if event.is_last:
                self._retire(event.request_id, handle, terminal=event)
                continue
            if handle._backlog() < self.max_stream_backlog:
                handle._append(event)
                continue
            policy = self.slow_reader_policy
            if policy == "drop":
                handle.n_dropped += 1
                self.n_dropped_events += 1
            elif policy == "cancel":
                try:
                    terminal = self.engine.cancel(event.request_id)
                except (KeyError, ValueError):
                    continue
                self._retire(event.request_id, handle, terminal=terminal)
            else:  # pause
                # The event that tripped the bound is still delivered (the
                # token was decoded; dropping it would corrupt the stream) —
                # the bound is a high watermark, not a hard array size.
                # ``paused`` is set *before* the append: the append's notify
                # triggers the consumer's next drain, and that drain must
                # observe the pause to schedule the resume.
                first = handle._mark_paused()
                handle._append(event)
                if first:
                    self.n_backpressure_pauses += 1
                    try:
                        self.engine.pause(event.request_id)
                    except (KeyError, ValueError):
                        handle._clear_paused()

    def _retire(
        self,
        request_id: str,
        handle: StreamHandle,
        *,
        terminal: TokenEvent | None = None,
    ) -> None:
        """Close a handle, delivering its terminal event with the result."""
        try:
            result = self.engine.result(request_id, pop=True)
        except (KeyError, RuntimeError):
            result = None
        cancelled = result is not None and result.stopped_by == "cancelled"
        self._finish_handle(
            handle,
            result,
            None,
            terminal=terminal,
            cancelled=cancelled,
            prompt_tokens=result.n_prompt_tokens if result is not None else 0,
            completion_tokens=len(result.token_ids) if result is not None else 0,
        )

    def _finish_handle(
        self,
        handle: StreamHandle,
        result: GenerationResult | None,
        error: ApiError | None,
        *,
        cancelled: bool,
        prompt_tokens: int,
        completion_tokens: int,
        terminal: TokenEvent | None = None,
    ) -> None:
        with self._handles_lock:
            self._handles.pop(handle.request_id, None)
            if cancelled:
                self.n_cancelled += 1
            else:
                self.n_finished += 1
        self.tenants.finish(
            handle.tenant,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            reserved_tokens=handle.reserved_tokens,
            cancelled=cancelled,
        )
        handle._close(result, error, terminal)

    def _fail_active(self, exc: Exception) -> None:
        """A step blew up: fail every active request, keep serving.

        The engine's per-request state may be inconsistent mid-step, so
        the safe recovery is to cancel everything in flight (releasing
        whatever pages each request still holds) and surface a structured
        500 to each consumer instead of wedging the loop.
        """
        self.n_step_errors += 1
        self.last_error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        with self._handles_lock:
            handles = list(self._handles.values())
        for handle in handles:
            try:
                self.engine.cancel(handle.request_id)
            except (KeyError, ValueError):
                pass
            self._finish_handle(
                handle,
                None,
                InternalError(f"engine step failed: {self.last_error}"),
                cancelled=True,
                prompt_tokens=0,
                completion_tokens=0,
            )

    def _drain_on_close(self) -> None:
        """Cancel every request still active when the loop stops."""
        with self._cond:
            commands = list(self._commands)
            self._commands.clear()
        for command in commands:
            if command[0] == "submit":
                _, _, handle = command
                self._finish_handle(
                    handle,
                    None,
                    ServerOverloadedError("server is shutting down"),
                    cancelled=True,
                    prompt_tokens=0,
                    completion_tokens=0,
                )
        with self._handles_lock:
            handles = list(self._handles.values())
        for handle in handles:
            event = None
            try:
                event = self.engine.cancel(handle.request_id)
            except (KeyError, ValueError):
                pass
            self._retire(handle.request_id, handle, terminal=event)
