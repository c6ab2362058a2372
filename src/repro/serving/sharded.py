"""Sharded execution: a data-parallel worker pool with cache-aware routing.

One :class:`ShardedEngine` fronts N :class:`ShardWorker`\\ s, each owning a
**private** :class:`~repro.serving.engine.EngineCore` — its own scheduler,
:class:`~repro.kvpool.BlockPool` and
:class:`~repro.kvpool.prefix.PrefixCache` — built from one
``engine_factory`` so every worker is bit-identical.  The facade speaks
the same submit/step/cancel protocol as a single core, which is what lets
every existing host drive a whole pool unchanged: the
:class:`~repro.serving.server.ServerCore` front door, the
:class:`~repro.workloads.EngineDriver` oracle harness, plain scripts.

Placement is cache-aware.  PR 3's chained block hashes are
content-addressed — a page's hash covers the quantization fingerprint,
every token before it and the per-token bitwidths — so a router-side
:class:`GlobalPrefixIndex` can mirror *which worker holds which pages*
purely from insert/evict notifications, without copying any KV bytes.
Each submission computes its would-be hash chain
(:meth:`~repro.serving.backends.DecodeBackend.prefix_route_keys`, a
cache-free plan-then-hash walk) and the :class:`ShardRouter` places it on
the worker holding the **longest matching prefix run**, so
``shared_prefix`` fleets and ``multi_turn`` conversations keep their warm
hits after sharding.  Requests with no match (or whose backend cannot be
keyed ahead of prefill) fall back to load placement: least outstanding
decode tokens, then fewest allocated pool pages.

Concurrency model — fork/join rounds.  One facade :meth:`ShardedEngine.
step` is one *round*: every worker with runnable work advances exactly one
engine step, and the merged event stream comes back in worker order
(deterministic, replayable from a trace seed).  With ``threaded=True``
each worker steps on its own persistent thread inside the round — the
numpy GEMMs release the GIL, so on multi-core hosts the round's wall time
approaches the slowest worker rather than the sum.  All *control* calls
(submit / cancel / pause / resume / result) run on the caller's thread
strictly between rounds, when worker threads are parked, so the cores
need no locks and stay bit-identical to their single-worker selves.

Worker failure is survivable: :meth:`ShardedEngine.kill_worker` drains
the victim — queued (not yet started) requests are re-dispatched through
the router and complete elsewhere with identical output; in-flight
requests are cancelled with proper terminal events and every pool page
released — and drops the worker's entries from the global index so stale
hashes cannot attract traffic.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.profiling import worker_scope
from repro.serving.engine import EngineCore, ExecutionStats
from repro.serving.request import GenerationRequest, GenerationResult, TokenEvent
from repro.serving.request import RequestStats

__all__ = [
    "GlobalPrefixIndex",
    "ShardRouter",
    "ShardWorker",
    "ShardedEngine",
]


class _WorkerIndexListener:
    """Adapter forwarding one worker's prefix-cache changes to the index."""

    __slots__ = ("index", "worker_id")

    def __init__(self, index: "GlobalPrefixIndex", worker_id: int):
        self.index = index
        self.worker_id = worker_id

    def on_insert(self, hashes: Sequence[str]) -> None:
        self.index.record_insert(self.worker_id, hashes)

    def on_evict(self, hashes: Sequence[str]) -> None:
        self.index.record_evict(self.worker_id, hashes)


class GlobalPrefixIndex:
    """Router-side map from chained block hashes to the workers holding them.

    Mirrors every worker's :class:`~repro.kvpool.prefix.PrefixCache`
    membership through insert/evict notifications — the chained hashes
    already cover the fingerprint, so one flat ``hash -> {worker ids}``
    table resolves longest-prefix placement across the whole pool.  The
    mirror is exact, not probabilistic: an entry exists here iff the page
    is currently published in that worker's index, which is what makes
    stale-entry behaviour testable (an evicted page stops attracting
    traffic the moment the eviction notification lands).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._owners: dict[str, set[int]] = {}

    def listener_for(self, worker_id: int) -> _WorkerIndexListener:
        """The subscriber to register on ``worker_id``'s prefix cache."""
        return _WorkerIndexListener(self, worker_id)

    # -- membership (called from worker notification paths) --------------------

    def record_insert(self, worker_id: int, hashes: Sequence[str]) -> None:
        with self._lock:
            for key in hashes:
                self._owners.setdefault(key, set()).add(worker_id)

    def record_evict(self, worker_id: int, hashes: Sequence[str]) -> None:
        with self._lock:
            for key in hashes:
                owners = self._owners.get(key)
                if owners is None:
                    continue
                owners.discard(worker_id)
                if not owners:
                    del self._owners[key]

    def drop_worker(self, worker_id: int) -> int:
        """Forget every entry of a dead worker; returns entries removed."""
        removed = 0
        with self._lock:
            for key in list(self._owners):
                owners = self._owners[key]
                if worker_id in owners:
                    owners.discard(worker_id)
                    removed += 1
                    if not owners:
                        del self._owners[key]
        return removed

    # -- queries ---------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        with self._lock:
            return len(self._owners)

    def workers_for(self, key: str) -> frozenset[int]:
        with self._lock:
            return frozenset(self._owners.get(key, ()))

    def longest_match(self, hashes: Sequence[str]) -> dict[int, int]:
        """Per-worker length of the longest *leading* run of ``hashes`` held.

        A page is only adoptable when every page before it matched too
        (chained hashes encode the causal prefix), so the walk intersects
        candidate owners front to back; a worker's score is the position
        at which it dropped out.  Workers holding none of the leading run
        do not appear in the result.
        """
        lengths: dict[int, int] = {}
        with self._lock:
            candidates: set[int] | None = None
            for i, key in enumerate(hashes):
                owners = self._owners.get(key)
                found = set(owners) if owners else set()
                candidates = found if candidates is None else candidates & found
                if not candidates:
                    break
                for worker_id in candidates:
                    lengths[worker_id] = i + 1
        return lengths


class ShardWorker:
    """One data-parallel worker: a private engine plus routing bookkeeping.

    The worker itself is passive — the facade steps it — but in threaded
    mode it owns a parked thread that wakes for exactly one engine step
    per round, so the round's steps overlap on multi-core hosts.
    """

    def __init__(self, worker_id: int, engine: EngineCore):
        self.worker_id = worker_id
        self.engine = engine
        self.alive = True
        #: Requests the router placed here (total / via a prefix match).
        self.n_routed = 0
        self.n_prefix_routed = 0
        #: Sum of unfinished requests' decode-token grants (load signal).
        self.outstanding_tokens = 0
        self._grants: dict[str, tuple[int, str]] = {}
        #: Outstanding grants broken down by SLO class (router tiebreak
        #: signal: spreading a class across workers bounds the blast radius
        #: one class's burst has on any single worker's queue).
        self.outstanding_by_class: dict[str, int] = {}
        # -- threaded-mode plumbing (idle unless the facade starts it) --------
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        self._done = threading.Event()
        self._stop = False
        self.step_events: list[TokenEvent] = []
        self.step_error: BaseException | None = None

    # -- routing bookkeeping ---------------------------------------------------

    def grant(self, request: GenerationRequest, *, prefix_routed: bool) -> None:
        self.n_routed += 1
        if prefix_routed:
            self.n_prefix_routed += 1
        tokens = max(1, int(request.max_new_tokens))
        self._add_grant(request.request_id, tokens, request.slo_class)

    def _add_grant(self, request_id: str, tokens: int, slo_class: str) -> None:
        self._grants[request_id] = (tokens, slo_class)
        self.outstanding_tokens += tokens
        self.outstanding_by_class[slo_class] = (
            self.outstanding_by_class.get(slo_class, 0) + tokens
        )

    def _drop_grant(self, request_id: str) -> tuple[int, str]:
        tokens, slo_class = self._grants.pop(request_id, (0, ""))
        self.outstanding_tokens = max(0, self.outstanding_tokens - tokens)
        if slo_class in self.outstanding_by_class:
            remaining = self.outstanding_by_class[slo_class] - tokens
            if remaining > 0:
                self.outstanding_by_class[slo_class] = remaining
            else:
                del self.outstanding_by_class[slo_class]
        return tokens, slo_class

    def settle(self, request_id: str) -> None:
        """Return a finished/cancelled request's grant to the load signal."""
        self._drop_grant(request_id)

    def transfer_grant(self, request_id: str, target: "ShardWorker") -> None:
        """Move a re-dispatched request's grant to its new owner."""
        tokens, slo_class = self._drop_grant(request_id)
        if tokens:
            target._add_grant(request_id, tokens, slo_class)

    @property
    def in_flight(self) -> int:
        return self.engine.n_running

    @property
    def queue_depth(self) -> int:
        return self.engine.n_waiting

    # -- threaded stepping -----------------------------------------------------

    def start_thread(self) -> None:
        if self._thread is not None:
            return
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-shard-worker-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def stop_thread(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop = True
        self._wake.set()
        thread.join()
        self._thread = None

    def _loop(self) -> None:
        label = f"worker{self.worker_id}"
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stop:
                break
            try:
                with worker_scope(label):
                    self.step_events = self.engine.step()
            except BaseException as exc:  # noqa: BLE001 — surfaced by the facade
                self.step_error = exc
                self.step_events = []
            finally:
                self._done.set()

    def begin_step(self) -> None:
        self.step_events = []
        self.step_error = None
        self._done.clear()
        self._wake.set()

    def join_step(self) -> None:
        self._done.wait()

    def step_inline(self) -> list[TokenEvent]:
        """One engine step on the caller's thread (sync mode)."""
        with worker_scope(f"worker{self.worker_id}"):
            return self.engine.step()

    # -- stats -----------------------------------------------------------------

    def stats_payload(self) -> dict:
        engine = self.engine
        prefix = engine.prefix_cache
        payload = {
            "worker_id": self.worker_id,
            "alive": self.alive,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "outstanding_tokens": self.outstanding_tokens,
            "n_routed": self.n_routed,
            "n_prefix_routed": self.n_prefix_routed,
            "n_steps": engine.exec_stats.n_steps,
            "n_decode_tokens": engine.exec_stats.n_decode_tokens,
            "pool_blocks": engine.pool.n_allocated,
            "prefix_blocks": prefix.n_blocks if prefix else 0,
            "prefix_hit_rate": prefix.stats.hit_rate if prefix else 0.0,
        }
        return payload


class ShardRouter:
    """Places requests on workers: longest prefix match, then least load.

    The router never touches worker *state* to score a placement — the
    prefix signal comes from the :class:`GlobalPrefixIndex` mirror and the
    load signal from the grant counters the facade settles on terminal
    events — so routing is a pure function of information the router
    already owns, cheap enough to run per submission.
    """

    def __init__(self, workers: Sequence[ShardWorker], index: GlobalPrefixIndex):
        self.workers = list(workers)
        self.index = index
        self.n_placed = 0
        self.n_prefix_placed = 0

    def _alive(self) -> list[ShardWorker]:
        alive = [worker for worker in self.workers if worker.alive]
        if not alive:
            raise RuntimeError("no alive workers to place on")
        return alive

    def route_keys(
        self, request: GenerationRequest
    ) -> tuple[str | None, list[str]]:
        """The request's would-be (fingerprint, hash chain), or ``(None, [])``.

        Every worker is built from the same factory, so any alive worker's
        backend computes identical keys; the first one is used.
        """
        worker = self._alive()[0]
        backend = worker.engine.get_backend(request.backend)
        return backend.prefix_route_keys(request)

    def place(self, request: GenerationRequest) -> tuple[ShardWorker, int]:
        """Choose the worker for ``request``; returns ``(worker, match len)``.

        Longest-match wins among alive workers; ties (including the
        no-match case, where every alive worker ties at zero) break by
        least outstanding decode tokens *of the request's own SLO class*,
        then least outstanding tokens overall, then fewest allocated pool
        pages, then worker id — deterministic for a given trace.  For
        single-class traffic the class key equals the total, so placements
        are identical to the pre-SLO router; under mixed classes it
        spreads each class across workers instead of letting one class's
        burst pile onto whichever worker happened to be lightest overall.
        """
        alive = self._alive()
        _, hashes = self.route_keys(request)
        match_len = 0
        candidates = alive
        if hashes:
            matches = self.index.longest_match(hashes)
            live = {
                worker: matches[worker.worker_id]
                for worker in alive
                if matches.get(worker.worker_id)
            }
            if live:
                match_len = max(live.values())
                candidates = [w for w, n in live.items() if n == match_len]
        slo_class = request.slo_class
        chosen = min(
            candidates,
            key=lambda worker: (
                worker.outstanding_by_class.get(slo_class, 0),
                worker.outstanding_tokens,
                worker.engine.pool.n_allocated,
                worker.worker_id,
            ),
        )
        self.n_placed += 1
        if match_len:
            self.n_prefix_placed += 1
        return chosen, match_len


class ShardedEngine:
    """N private engine cores behind one EngineCore-shaped facade.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one fresh
        :class:`~repro.serving.engine.EngineCore` (or
        :class:`~repro.serving.engine.InferenceEngine`).  Called once per
        worker; every worker must therefore be deterministic from the
        factory (same model, same seed) — that is what keeps outputs
        placement-independent.
    n_workers:
        Pool size (>= 1).
    threaded:
        ``True`` steps the round's workers on their own parked threads
        (fork/join per round); ``False`` (default) steps them sequentially
        on the caller's thread — same events, same order, fully
        deterministic, and the right mode for virtual-clock replay.

    The facade exposes ``pool=None`` / ``prefix_cache=None`` — per-worker
    pools are deliberately private; aggregate and per-worker numbers come
    from :meth:`worker_stats_payload` and the summed :attr:`exec_stats`.
    """

    pool = None
    prefix_cache = None

    def __init__(
        self,
        engine_factory: Callable[[], EngineCore],
        *,
        n_workers: int = 2,
        threaded: bool = False,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.engine_factory = engine_factory
        self.threaded = bool(threaded)
        self.index = GlobalPrefixIndex()
        self.workers: list[ShardWorker] = []
        for worker_id in range(n_workers):
            engine = engine_factory()
            if engine.prefix_cache is not None:
                engine.prefix_cache.add_listener(self.index.listener_for(worker_id))
            self.workers.append(ShardWorker(worker_id, engine))
        self.router = ShardRouter(self.workers, self.index)
        #: Facade rounds (one round = one concurrent step across workers).
        self.n_rounds = 0
        self.n_redispatched = 0
        self._owner: dict[str, ShardWorker] = {}
        self._counter = 0
        if self.threaded:
            for worker in self.workers:
                worker.start_thread()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Park and join every worker thread (no-op in sync mode)."""
        for worker in self.workers:
            worker.stop_thread()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- aggregate introspection ----------------------------------------------

    def _alive_workers(self) -> list[ShardWorker]:
        return [worker for worker in self.workers if worker.alive]

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def model(self):
        """The shared model (identical on every worker by construction)."""
        return self.workers[0].engine.model

    @property
    def tokenizer(self):
        return self.workers[0].engine.tokenizer

    def backend_names(self) -> tuple[str, ...]:
        return self.workers[0].engine.backend_names()

    @property
    def n_alive_workers(self) -> int:
        return len(self._alive_workers())

    @property
    def has_pending(self) -> bool:
        return any(w.engine.has_pending for w in self._alive_workers())

    @property
    def has_runnable(self) -> bool:
        return any(w.engine.has_runnable for w in self._alive_workers())

    @property
    def n_running(self) -> int:
        return sum(w.engine.n_running for w in self._alive_workers())

    @property
    def n_waiting(self) -> int:
        return sum(w.engine.n_waiting for w in self._alive_workers())

    @property
    def exec_stats(self) -> ExecutionStats:
        """Pool-wide execution counters, summed across every worker."""
        merged = ExecutionStats()
        for worker in self.workers:
            stats = worker.engine.exec_stats
            merged.n_steps += stats.n_steps
            merged.n_forward_calls += stats.n_forward_calls
            merged.n_fused_sequences += stats.n_fused_sequences
            merged.n_decode_tokens += stats.n_decode_tokens
            merged.n_prefill_tokens += stats.n_prefill_tokens
            merged.n_prefill_reused_tokens += stats.n_prefill_reused_tokens
            for name, seconds in stats.phase_times.items():
                merged.phase_times[name] = (
                    merged.phase_times.get(name, 0.0) + seconds
                )
        return merged

    def worker_stats_payload(self) -> list[dict]:
        """Per-worker stats rows, the ``workers`` section of ``/v1/stats``."""
        return [worker.stats_payload() for worker in self.workers]

    def kv_memory_stats(self) -> dict[str, int]:
        """Every worker's accounted/physical/working-set KV bytes, summed."""
        merged: dict[str, int] = {}
        for worker in self.workers:
            for key, value in worker.engine.kv_memory_stats().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def context_rows_stats(self) -> dict | None:
        """Every worker's row-tier counters and bytes, summed (``None`` without tiers)."""
        merged: dict | None = None
        for worker in self.workers:
            payload = worker.engine.context_rows_stats()
            if payload is not None:
                merged = merged or dict.fromkeys(payload, 0)
                for key, value in payload.items():
                    merged[key] += value
        return merged

    def adaptive_stats(self) -> dict:
        """Per-worker adaptive-controller readings, keyed ``worker<id>``.

        Controllers are per-worker (each private engine runs its own
        loops); the facade merely collects their readings.  Empty when no
        worker has any controller configured, mirroring
        :meth:`EngineCore.adaptive_stats`.
        """
        payload: dict = {}
        for worker in self.workers:
            stats_fn = getattr(worker.engine, "adaptive_stats", None)
            stats = stats_fn() if callable(stats_fn) else {}
            if stats:
                payload[f"worker{worker.worker_id}"] = stats
        return payload

    def owner_of(self, request_id: str) -> int:
        """The id of the worker serving ``request_id`` (for tests/examples)."""
        return self._require_owner(request_id).worker_id

    def assert_consistent(self) -> None:
        """Every live worker's pool + prefix-index structural invariants."""
        for worker in self._alive_workers():
            worker.engine.assert_consistent()

    # -- request lifecycle (EngineCore protocol) --------------------------------

    def _require_owner(self, request_id: str) -> ShardWorker:
        worker = self._owner.get(request_id)
        if worker is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        return worker

    def submit(self, request: GenerationRequest) -> str:
        """Route and queue one request; returns its (pool-wide) request ID."""
        if request.request_id is None:
            self._counter += 1
            request.request_id = f"req-{self._counter}"
        rid = request.request_id
        if rid in self._owner:
            raise ValueError(f"duplicate request_id {rid!r}")
        worker, match_len = self.router.place(request)
        worker.engine.submit(request)
        worker.grant(request, prefix_routed=match_len > 0)
        self._owner[rid] = worker
        return rid

    def step(self) -> list[TokenEvent]:
        """One round: every worker with runnable work advances one step.

        Events merge in worker order — deterministic regardless of the
        threading mode.  A worker whose step raises poisons the whole
        round (the first error propagates after all workers re-park),
        matching the single-engine contract hosts already handle.
        """
        self.n_rounds += 1
        runnable = [
            worker for worker in self._alive_workers()
            if worker.engine.has_runnable
        ]
        events: list[TokenEvent] = []
        if self.threaded:
            for worker in runnable:
                worker.begin_step()
            error: BaseException | None = None
            for worker in runnable:
                worker.join_step()
                if worker.step_error is not None and error is None:
                    error = worker.step_error
                events.extend(worker.step_events)
                worker.step_events = []
            if error is not None:
                raise error
        else:
            for worker in runnable:
                events.extend(worker.step_inline())
        for event in events:
            if event.is_last:
                worker = self._owner.get(event.request_id)
                if worker is not None:
                    worker.settle(event.request_id)
        return events

    def cancel(self, request_id: str) -> TokenEvent:
        """Abort a request on its owning worker (same contract as the core)."""
        worker = self._require_owner(request_id)
        event = worker.engine.cancel(request_id)
        worker.settle(request_id)
        return event

    def pause(self, request_id: str) -> None:
        self._require_owner(request_id).engine.pause(request_id)

    def resume(self, request_id: str) -> None:
        self._require_owner(request_id).engine.resume(request_id)

    def is_finished(self, request_id: str) -> bool:
        worker = self._owner.get(request_id)
        return worker is not None and worker.engine.is_finished(request_id)

    def result(self, request_id: str, *, pop: bool = False) -> GenerationResult:
        worker = self._require_owner(request_id)
        result = worker.engine.result(request_id, pop=pop)
        if pop:
            del self._owner[request_id]
        return result

    def pop_results(self) -> dict[str, GenerationResult]:
        results: dict[str, GenerationResult] = {}
        for worker in self.workers:
            results.update(worker.engine.pop_results())
        for rid in results:
            self._owner.pop(rid, None)
        return results

    def request_stats(self, request_id: str) -> RequestStats:
        return self._require_owner(request_id).engine.request_stats(request_id)

    # -- worker failure ---------------------------------------------------------

    def kill_worker(self, worker_id: int) -> dict:
        """Simulate losing one worker; drain it and re-dispatch its queue.

        * **Queued** requests — waiting in the victim's FIFO with no
          prepared state, no streamed tokens and no swapped pages — are
          re-routed through the router (excluding the victim) and will
          complete elsewhere with identical output: placement never
          changes what a request decodes.
        * **In-flight** requests (running, backpressure-held,
          or preempted with swapped/partial state) are cancelled: their
          pages are released through the normal cancel path — the
          victim's pool drains down to its published prefix pages — and
          their terminal events are returned so a host can close streams.
        * The victim's entries leave the :class:`GlobalPrefixIndex`, so
          its (now unreachable) warm pages stop attracting traffic.

        Returns ``{"redispatched": [rids], "cancelled": [terminal events]}``.
        """
        try:
            victim = self.workers[worker_id]
        except IndexError:
            raise KeyError(f"unknown worker_id {worker_id!r}") from None
        if not victim.alive:
            raise ValueError(f"worker {worker_id} is already dead")
        if len(self._alive_workers()) < 2:
            raise RuntimeError("cannot kill the last alive worker")
        victim.stop_thread()
        victim.alive = False
        self.index.drop_worker(worker_id)
        scheduler = victim.engine.scheduler
        queued: list[GenerationRequest] = []
        in_flight: list[str] = []
        for state in list(scheduler.waiting) + list(scheduler.held):
            untouched = (
                state.prepared is None
                and not state.swapped
                and state.n_emitted == 0
            )
            if untouched:
                queued.append(state.request)
            else:
                in_flight.append(state.request_id)
        for state in scheduler.running:
            in_flight.append(state.request_id)
        cancelled: list[TokenEvent] = []
        for rid in in_flight:
            cancelled.append(victim.engine.cancel(rid))
            victim.settle(rid)
        redispatched: list[str] = []
        for request in queued:
            rid = request.request_id
            # The victim's core still holds the queued state; cancelling
            # releases its scheduler slot (it owns no pages yet).  The
            # stored "cancelled" stub result stays on the dead core,
            # unreachable once ownership moves.
            victim.engine.cancel(rid)
            replacement, match_len = self.router.place(request)
            replacement.engine.submit(request)
            victim.transfer_grant(rid, replacement)
            replacement.n_routed += 1
            if match_len:
                replacement.n_prefix_routed += 1
            self._owner[rid] = replacement
            redispatched.append(rid)
        self.n_redispatched += len(redispatched)
        return {"redispatched": redispatched, "cancelled": cancelled}
