"""The serving engine: request admission, continuous batching, streaming.

The engine is split in two along the host boundary: :class:`EngineCore`
is the pure per-step core — ``submit`` / ``step`` / ``cancel`` /
``pause`` / ``resume`` and result retrieval, never blocking, owning no
threads — and :class:`InferenceEngine` is the blocking host shell adding
the synchronous ``stream`` / ``run`` / ``run_batch`` drivers.  Hosts with
their own event loop (the asyncio front door in
:mod:`repro.serving.server`, a future router/worker transport) drive an
:class:`EngineCore` directly.

:class:`InferenceEngine` is the public entry point of the redesigned
inference API.  It owns the model/tokenizer substrate, one Cocktail
quantizer (shared by the ``"dense"``/``"blockwise"``/``"cocktail"``
backends), the shared :class:`~repro.kvpool.BlockPool` and a
:class:`ContinuousBatchingScheduler`; requests are submitted as
:class:`~repro.serving.request.GenerationRequest` objects and served step
by step, one decode token per in-flight sequence per :meth:`step`.

There is one way to run a request: it is admitted as a
:class:`~repro.serving.backends.PrefillJob` (one full-precision prefill
into a private scratch cache, starting past whatever context rows the row
tier already holds), its backend's ``prepare`` turns the prefilled
scratch into pool-resident storage — both within the step that admits it
— it decodes out of the pool, and under pressure it is preempted by
swapping its pages to the host store and back.

Typical use::

    engine = InferenceEngine(model, tokenizer, CocktailConfig(), lexicon=vocab.lexicon)
    result = engine.run(GenerationRequest(context_words, query_words, backend="cocktail"))
    for event in engine.stream(GenerationRequest(context_words, query_words)):
        ...  # TokenEvents arrive as they are decoded

    ids = [engine.submit(r) for r in requests]      # mixed backends welcome
    while engine.has_pending:
        for event in engine.step():                 # continuous batching
            ...
    results = [engine.result(rid) for rid in ids]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.config import CocktailConfig
from repro.core.quantizer import CocktailQuantizer
from repro.baselines.base import KVCacheQuantizer
from repro.kvpool.pool import BlockPool, PoolExhausted
from repro.kvpool.prefix import PrefixCache
from repro.kvpool.rows import ContextRowCache
from repro.model.decode import BatchedDecodeStep
from repro.model.tokenizer import Tokenizer
from repro.profiling import span as profiling_span
from repro.model.transformer import Transformer
from repro.retrieval.base import Encoder
from repro.serving.backends import (
    DecodeBackend,
    PrefillJob,
    QuantizedDenseBackend,
    backend_names,
    create_backend,
)
from repro.serving.request import (
    GenerationRequest,
    GenerationResult,
    RequestStats,
    TokenEvent,
)
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    SequenceState,
    terminal_event,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serving.adaptive import SloPolicy


#: Prefix-index retention cap applied when the pool is *unbounded*: without
#: it, a long-lived engine serving ever-new documents would retain packed
#: pages forever (bounded pools need no cap — pressure reclaims idle pages).
DEFAULT_PREFIX_CACHE_BLOCKS = 4096


@dataclass
class ExecutionStats:
    """Engine-wide execution counters behind the batched-decode metrics.

    Every decode round runs at most one fused forward over the whole
    running set, so ``forwards_per_token`` approaches
    ``1 / mean_batch_occupancy``.
    """

    #: Engine iterations (:meth:`InferenceEngine.step` calls).
    n_steps: int = 0
    #: Model decode invocations: the round's one ``decode_step_batch``
    #: call (at most one per step).
    n_forward_calls: int = 0
    #: Summed batch sizes of those invocations.
    n_fused_sequences: int = 0
    #: Tokens emitted to consumers by decode rounds.
    n_decode_tokens: int = 0
    #: Prompt tokens prefilled by admissions — computed tokens only
    #: (swap-ins restore pages without prefilling and are not counted).
    n_prefill_tokens: int = 0
    #: Context tokens whose rows prefill jobs copied from the row tier
    #: instead of computing (:class:`~repro.kvpool.rows.ContextRowCache`).
    n_prefill_reused_tokens: int = 0
    #: Per-phase wall-clock seconds (schedule / gather / dequant / project /
    #: attend / bookkeeping, …) accumulated by an attached
    #: :class:`repro.profiling.StepProfiler`; empty unless one was attached.
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def mean_batch_occupancy(self) -> float:
        """Mean sequences advanced per fused forward (0.0 before any fusion)."""
        if not self.n_forward_calls:
            return 0.0
        return self.n_fused_sequences / self.n_forward_calls

    @property
    def forwards_per_token(self) -> float:
        """Model decode invocations per generated token (lower is better)."""
        if not self.n_decode_tokens:
            return 0.0
        return self.n_forward_calls / self.n_decode_tokens


class EngineCore:
    """The pure per-step serving core: submit / step / cancel / results.

    ``EngineCore`` is deliberately *host-agnostic*: it never blocks, never
    sleeps and owns no threads or sockets — one call to :meth:`step`
    performs exactly one admission + decode round and returns the token
    events it produced.  Everything that drives the core — the blocking
    convenience loops of :class:`InferenceEngine`, the asyncio front door
    in :mod:`repro.serving.server`, and eventually a router/worker
    transport — is a *host shell* layered on top of this class.  Keeping
    the boundary here is what lets one stepping core be multiplexed by
    any event loop without the core knowing.

    Parameters
    ----------
    model, tokenizer:
        The inference substrate.
    config:
        Cocktail hyper-parameters (chunk size, thresholds, encoder choice)
        used by the Cocktail backends and as the chunking granularity every
        method's quantization request is built with.
    encoder, lexicon, seed:
        Forwarded to the Cocktail quantizer (same knobs the pipeline takes).
    max_running:
        Maximum number of concurrently decoding sequences.
    max_live_tokens:
        Optional cap on the summed KV footprint of running sequences;
        exceeding it triggers preemption (see
        :mod:`repro.serving.scheduler`).
    pool:
        The shared :class:`~repro.kvpool.BlockPool` every sequence's KV
        pages live in (actually-packed quantized context storage).  By
        default an unbounded pool of 16-token pages matching the model
        geometry is created; pass a sized one — ``BlockPool(...,
        capacity_blocks=...)`` or ``BlockPool.for_gpu(...)`` — to bound it.
    max_live_blocks:
        Optional cap on simultaneously allocated pool pages.
    prefix_caching:
        ``True`` (default) maintains a
        :class:`~repro.kvpool.prefix.PrefixCache` over the pool: a
        request whose leading context pages were already packed by an
        earlier request *adopts* those shared pages (ref-counted,
        copy-on-write) instead of allocating and re-quantizing them, and
        reports the reuse via ``RequestStats.cached_tokens`` /
        ``cache_hit_blocks``.  It also keeps a host-side
        :class:`~repro.kvpool.rows.ContextRowCache` of full-precision
        context rows under the same block hashes, so a request on a
        document seen twice before skips the prefill forward over the
        stored rows (``RequestStats.prefill_reused_tokens``; costs up to
        :data:`~repro.kvpool.rows.CONTEXT_ROW_BYTES` of host memory once
        contexts repeat).  Decoded outputs are identical with the
        cache on or off.  Pass ``False`` to disable both.
    prefix_cache_blocks:
        Cap on pages retained by the prefix index (LRU-evicted beyond it).
        Bounded pools also reclaim idle index pages on demand, so the cap
        mainly bounds an *unbounded* pool's growth — which is why unbounded
        pools default to :data:`DEFAULT_PREFIX_CACHE_BLOCKS` instead of
        ``None`` (pass an explicit value to change it).
    slo_policy:
        Optional :class:`~repro.serving.adaptive.SloPolicy`.  When set,
        :meth:`submit` stamps each request's class deadline, admission
        prefers higher-priority classes and preemption evicts by
        *(lowest class, most deadline slack)* — see
        :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`.
        ``None`` (default) keeps FIFO/LIFO scheduling.
    clock:
        Monotonic time source for the per-request stats (test hook).
    """

    def __init__(
        self,
        model: Transformer,
        tokenizer: Tokenizer,
        config: CocktailConfig | None = None,
        *,
        encoder: Encoder | None = None,
        lexicon: dict[str, str] | None = None,
        seed: int = 0,
        max_running: int = 8,
        max_live_tokens: int | None = None,
        pool: BlockPool | None = None,
        max_live_blocks: int | None = None,
        prefix_caching: bool = True,
        prefix_cache_blocks: int | None = None,
        slo_policy: "SloPolicy | None" = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or CocktailConfig()
        self.quantizer = CocktailQuantizer(
            self.config, encoder, lexicon=lexicon, seed=seed
        )
        self.pool = (
            pool
            if pool is not None
            else BlockPool(
                model.config.n_layers, model.config.n_kv_heads, model.config.head_dim
            )
        )
        if prefix_cache_blocks is not None and not prefix_caching:
            raise ValueError("prefix_cache_blocks requires prefix caching")
        if (
            prefix_caching
            and prefix_cache_blocks is None
            and self.pool.capacity_blocks is None
        ):
            prefix_cache_blocks = DEFAULT_PREFIX_CACHE_BLOCKS
        self.prefix_cache: PrefixCache | None = (
            PrefixCache(self.pool, max_blocks=prefix_cache_blocks)
            if prefix_caching
            else None
        )
        self.context_rows: ContextRowCache | None = (
            ContextRowCache(
                model.config.n_layers,
                model.config.n_kv_heads,
                model.config.head_dim,
                self.pool.block_size,
            )
            if prefix_caching
            else None
        )
        self.slo_policy = slo_policy
        self.scheduler = ContinuousBatchingScheduler(
            max_running=max_running,
            max_live_tokens=max_live_tokens,
            pool=self.pool,
            max_live_blocks=max_live_blocks,
            slo_policy=slo_policy,
        )
        self.exec_stats = ExecutionStats()
        self._clock = clock
        self._backends: dict[str, DecodeBackend] = {}
        self._states: dict[str, SequenceState] = {}
        self._results: dict[str, GenerationResult] = {}
        self._counter = 0

    # -- backends ------------------------------------------------------------

    @property
    def chunk_size(self) -> int:
        """Chunking granularity used for every quantization request."""
        return self.config.chunk_size

    def add_backend(
        self,
        name: str,
        quantizer: KVCacheQuantizer | None = None,
        *,
        backend: DecodeBackend | None = None,
        overwrite: bool = False,
    ) -> None:
        """Register an engine-local backend under ``name``.

        Pass either a :class:`KVCacheQuantizer` (wrapped in the generic
        quantize-then-dense-decode backend — how the evaluation harness
        plugs in the ablation variants) or a ready
        :class:`DecodeBackend` instance.
        """
        if (quantizer is None) == (backend is None):
            raise ValueError("pass exactly one of quantizer= or backend=")
        key = name.lower()
        if key in self._backends and not overwrite:
            raise KeyError(f"backend {name!r} is already registered on this engine")
        if backend is None:
            backend = QuantizedDenseBackend(self, quantizer, name=key)
        self._backends[key] = backend

    def backend_names(self) -> tuple[str, ...]:
        """Backends this engine can resolve (global registry + engine-local)."""
        return tuple(sorted(set(backend_names()) | set(self._backends)))

    def get_backend(self, name: str) -> DecodeBackend:
        """Resolve a backend by name (engine-local first, then the registry)."""
        key = name.lower()
        if key not in self._backends:
            self._backends[key] = create_backend(key, self)
        return self._backends[key]

    # -- request lifecycle ---------------------------------------------------

    def submit(self, request: GenerationRequest) -> str:
        """Queue a request for execution (FIFO); returns its request ID."""
        if request.request_id is None:
            self._counter += 1
            request.request_id = f"req-{self._counter}"
        rid = request.request_id
        if rid in self._states or rid in self._results:
            raise ValueError(f"duplicate request_id {rid!r}")
        backend = self.get_backend(request.backend)  # fail fast on unknown backends
        state = SequenceState(request=request)
        state.stats.submitted_at = self._clock()
        state.stats.slo_class = request.slo_class
        if self.slo_policy is not None:
            state.deadline = self.slo_policy.deadline(
                request.slo_class, state.stats.submitted_at
            )
        # Admission hint: pages the index would serve — the scheduler
        # charges only the blocks this request will actually allocate.
        state.cached_blocks_hint, state.plan, state.route_keys = backend.probe_cached_blocks(
            request
        )
        self._states[rid] = state
        self.scheduler.enqueue(state)
        return rid

    @property
    def has_pending(self) -> bool:
        """Whether any submitted request is still waiting, running or held."""
        return self.scheduler.has_work

    @property
    def has_runnable(self) -> bool:
        """Whether a :meth:`step` could make progress right now.

        Held (paused) requests keep :attr:`has_pending` true but are not
        runnable; a host loop waits for a resume instead of spinning.
        """
        return self.scheduler.has_runnable

    @property
    def n_running(self) -> int:
        """Number of sequences currently decoding."""
        return len(self.scheduler.running)

    @property
    def n_waiting(self) -> int:
        """Number of requests queued for admission."""
        return len(self.scheduler.waiting)

    def assert_consistent(self) -> None:
        """Walk the pool, prefix-index and row-tier invariants (tests/replay).

        One call on any engine-shaped object — a bare core or a sharded
        facade fanning out to every worker — so harnesses need not know
        the topology behind the protocol.
        """
        self.pool.assert_consistent()
        if self.prefix_cache is not None:
            self.prefix_cache.assert_consistent()
        if self.context_rows is not None:
            self.context_rows.assert_consistent()

    def is_finished(self, request_id: str) -> bool:
        """Whether ``request_id`` has completed."""
        return request_id in self._results

    def result(self, request_id: str, *, pop: bool = False) -> GenerationResult:
        """Final result of a completed request.

        Results are retained until read with ``pop=True`` (or forever when
        only peeked) — long-lived engines should pop or call
        :meth:`pop_results` so finished results do not accumulate.
        """
        if request_id in self._results:
            if pop:
                return self._results.pop(request_id)
            return self._results[request_id]
        if request_id in self._states:
            raise RuntimeError(f"request {request_id!r} has not finished yet")
        raise KeyError(f"unknown request_id {request_id!r}")

    def pop_results(self) -> dict[str, GenerationResult]:
        """Remove and return every finished result, keyed by request ID.

        This is the bulk drain for long-lived engines: after this call the
        engine holds no results.
        """
        results = dict(self._results)
        self._results.clear()
        return results

    # -- the engine loop -----------------------------------------------------

    def step(self) -> list[TokenEvent]:
        """One engine iteration: admit, decode one round, rebalance.

        Admission moves FIFO-queue heads into the running set while slots
        and token headroom last; each admitted prompt is prefilled and
        prepared here, in one pass.  The decode round then advances every
        running sequence by exactly one token — through **one fused
        forward** for the whole running set; this is the continuous
        batching: new arrivals join mid-flight and short requests drain
        without waiting for long ones.  Finally, if
        accumulated decode tokens pushed the KV footprint over budget, the
        most recently admitted sequences are preempted: their pages swap
        out to the host store and swap back in on re-admission.

        Returns the :class:`TokenEvent` stream produced by this step, in
        round-robin order.
        """
        with profiling_span("step"):
            with profiling_span("schedule"):
                self._admission_phase()
                # Rebalance before decoding too: every running sequence may
                # allocate one page this round, and a sequence that observes
                # a transiently full pool mid-round would terminate
                # "cache_full" instead of being preempted.  With the
                # pre-round watermark (>= one free page per running
                # sequence) that cannot happen except for a lone survivor,
                # for which a full pool genuinely is cache-full.
                self._rebalance()
            events = self._decode_round()
            with profiling_span("schedule"):
                self._rebalance()
            for state in self.scheduler.waiting:
                state.stats.n_queue_steps += 1
            self.exec_stats.n_steps += 1
            return events

    # -- admission -------------------------------------------------------------

    def _admission_phase(self) -> None:
        """Admit queue heads while slots and headroom last.

        A swapped-out head swaps its pages back in; any other head is
        admitted by :meth:`_admit`.  Admission stops at the first head the
        pool cannot hold right now.
        """
        while (state := self.scheduler.next_to_admit()) is not None:
            if state.swapped:
                # Swap-ins restore pages without recompute.
                if not self._swap_in(state):
                    break
            elif not self._admit(state):
                break

    def _admit(self, state: SequenceState) -> bool:
        """Prefill and prepare a queue head, then move it to the decode set.

        The head's :class:`~repro.serving.backends.PrefillJob` prefills its
        whole remaining prompt in one call, and the backend's ``prepare``
        consumes it (planning, page adoption, quantization and packing).
        The prefill only fills the job's private scratch; ``prepare`` is
        where pool pages are claimed, so a pool-exhausted prepare drops the
        job, leaves the head where it waits — first in line — for a fresh
        attempt and returns ``False``, unless nothing is running, in which
        case it could never be served and the error propagates (with the
        request still queued, so a caller that keeps serving other traffic
        can still cancel it).  The rolled-back head's page hint is re-peeked
        with its submit-time routing keys: pages the index evicted since are
        charged again, so the head waits until they fit instead of being
        prefilled and rolled back on every step.
        """
        job = PrefillJob(
            self.model,
            self.tokenizer,
            state.request,
            plan=state.plan,
            context_rows=self.context_rows,
        )
        state.stats.prefill_reused_tokens = job.n_reused
        self.exec_stats.n_prefill_reused_tokens += job.n_reused
        self.exec_stats.n_prefill_tokens += job.run()
        backend = self.get_backend(state.request.backend)
        try:
            prepared = backend.prepare(state.request, job)
        except PoolExhausted:
            if not self.scheduler.running:
                raise
            state.stats.n_preemptions += 1
            fingerprint, hashes = state.route_keys
            if fingerprint is not None:
                state.cached_blocks_hint = self.prefix_cache.peek(fingerprint, hashes)
            return False
        state.prepared = prepared
        state.stats.cached_tokens = prepared.cached_tokens
        state.stats.cache_hit_blocks = prepared.cache_hit_blocks
        state.stats.cached_bytes = prepared.cached_bytes
        state.stats.scheduled_at = self._clock()
        self.scheduler.mark_running(state)
        return True

    def _rebalance(self) -> None:
        """Preempt best-eligible sequences until budgets are respected.

        With an :class:`~repro.serving.adaptive.SloPolicy` configured the
        scheduler picks victims by *(lowest class, most deadline slack)*;
        the clock reading supplies ``now`` for the slack computation.
        """
        now = self._clock() if self.slo_policy is not None else None
        while self.scheduler.over_budget():
            victim = self.scheduler.pop_preemption_victim(now)
            if victim is None:
                break
            self._preempt(victim)

    def _swap_in(self, state: SequenceState) -> bool:
        """Restore a swapped-out queue head's pages and resume it.

        Returns ``False`` when the shared pool cannot hold the pages right
        now (admission stops for this step; preemption or completions will
        free pages).  A sequence that cannot fit even with nothing else
        admitted is a hard error — it could never be served.
        """
        try:
            state.prepared.cache.swap_in()
        except PoolExhausted:
            if not self.scheduler.running:
                raise
            return False
        state.swapped = False
        state.stats.n_swap_ins += 1
        self.scheduler.mark_running(state)
        return True

    def _preempt(self, state: SequenceState) -> None:
        """Swap a victim's pages out and return it to the queue front."""
        state.prepared.cache.swap_out()
        state.swapped = True
        state.stats.n_swap_outs += 1
        state.stats.n_preemptions += 1
        self.scheduler.requeue_front(state)

    def _decode_round(self) -> list[TokenEvent]:
        """Advance every running sequence by one token in one fused forward.

        The round walks the running set once, in admission (round-robin)
        order.  Each sequence runs phase 1 of its step immediately — checks,
        token emission, event creation — while its model forward is queued
        on the round's one :class:`~repro.model.decode.BatchedDecodeStep`,
        with its pool cache as payload.  Afterwards the batch executes
        **one** :meth:`~repro.model.transformer.Transformer.decode_step_batch`
        forward.

        Sequential equivalence under pool pressure: a queued forward has not
        allocated its page yet when later sequences run their capacity
        checks, so the round *reserves* each deferred allocation on the
        pool; every check therefore observes exactly the availability the
        sequential check-then-allocate interleaving would have produced, and
        outcomes (including ``cache_full``) are that interleaving's.
        """
        events: list[TokenEvent] = []
        reserved = 0

        def reserve(n_blocks: int) -> None:
            nonlocal reserved
            if n_blocks:
                self.pool.reserve(n_blocks)
                reserved += n_blocks

        batch = BatchedDecodeStep(self.model.decode_step_batch, reserve=reserve)
        try:
            for state in self.scheduler.decode_order():
                prepared = state.prepared
                token, _ = batch.add(prepared.session, prepared.cache)
                state.stats.n_decode_steps += 1
                if token is not None:
                    events.append(self._emit_token(state, token))
                if prepared.session.finished:
                    events.append(self._finalize(state))
        finally:
            if reserved:
                self.pool.unreserve(reserved)
        batch_size = batch.commit()
        if batch_size:
            self.exec_stats.n_forward_calls += 1
            self.exec_stats.n_fused_sequences += batch_size
        return events

    def _emit_token(self, state: SequenceState, token: int) -> TokenEvent:
        """Record one emitted token and build its streaming event."""
        index = state.n_emitted
        state.n_emitted += 1
        state.emitted_tokens.append(token)
        state.stats.n_generated = state.n_emitted
        if index == 0:
            state.stats.first_token_at = self._clock()
        self.exec_stats.n_decode_tokens += 1
        return TokenEvent(
            request_id=state.request_id,
            token_id=token,
            text=self.tokenizer.decode([token]),
            index=index,
            is_first=index == 0,
        )

    def _finalize(self, state: SequenceState) -> TokenEvent:
        """Record the result of a finished sequence and retire it.

        The sequence's measured KV bytes are sampled into
        ``details["kv_bytes"]`` *before* its pages are returned to the
        shared pool.
        """
        session = state.prepared.session
        prepared = state.prepared
        state.finished = True
        state.stats.finished_at = self._clock()
        state.stats.n_generated = session.n_generated
        details = {"kv_bytes": prepared.cache.measured_bytes()}
        prepared.cache.release()
        result = GenerationResult(
            request_id=state.request_id,
            backend=state.request.backend,
            answer_text=self.tokenizer.decode(session.generated),
            token_ids=list(session.generated),
            stopped_by=session.stopped_by,
            n_context_tokens=prepared.n_context_tokens,
            n_prompt_tokens=prepared.n_prompt_tokens,
            plan=prepared.plan,
            stats=state.stats,
            details=details,
        )
        self._results[result.request_id] = result
        self.scheduler.remove(state)
        del self._states[state.request_id]
        return terminal_event(state, session.stopped_by)

    # -- cancellation ----------------------------------------------------------

    def cancel(self, request_id: str) -> TokenEvent:
        """Abort a waiting or running request.

        Every resource the request holds is returned immediately: pool
        pages and refcounts of its prepared (or swapped-out) cache, and its
        scheduler slot.  The stored :class:`GenerationResult` carries the
        tokens streamed so far with ``stopped_by="cancelled"``, and the
        returned terminal :class:`TokenEvent` closes the stream the same way.

        Cancelling an unknown request raises :class:`KeyError`; a request
        that already finished raises :class:`ValueError` (its result is
        final — use :meth:`result` to read or drop it).
        """
        if request_id in self._results:
            raise ValueError(f"request {request_id!r} has already finished")
        state = self._states.get(request_id)
        if state is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        if state.prepared is not None:
            state.prepared.cache.release()
            state.prepared = None
        state.swapped = False
        self.scheduler.discard(state)
        state.finished = True
        state.stats.finished_at = self._clock()
        state.stats.n_generated = state.n_emitted
        self._results[request_id] = GenerationResult(
            request_id=request_id,
            backend=state.request.backend,
            answer_text=self.tokenizer.decode(state.emitted_tokens),
            token_ids=list(state.emitted_tokens),
            stopped_by="cancelled",
            n_context_tokens=len(state.request.context_words),
            n_prompt_tokens=state.request.n_prompt_tokens,
            plan=None,
            stats=state.stats,
        )
        del self._states[request_id]
        return terminal_event(state, "cancelled")

    # -- pause / resume --------------------------------------------------------

    def pause(self, request_id: str) -> None:
        """Hold a request out of scheduling until :meth:`resume`.

        A running request is preempted first (its pages move to the host
        store and restore without recompute), a waiting request simply
        leaves the queue.  Either way the request keeps its identity, its streamed
        tokens and its FIFO priority, but consumes no decode slot, no pool
        pages and no admission headroom while held.  This is the engine
        half of slow-reader backpressure: a host whose consumer stops
        draining pauses the request instead of buffering unboundedly or
        stalling the step loop.

        Pausing an already-held request is a no-op; unknown and finished
        requests raise like :meth:`cancel`.
        """
        if request_id in self._results:
            raise ValueError(f"request {request_id!r} has already finished")
        state = self._states.get(request_id)
        if state is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        if state in self.scheduler.held:
            return
        if state in self.scheduler.running:
            self.scheduler.running.remove(state)
            self._preempt(state)  # swap out + requeue_front, like rebalance
        state.stats.n_pauses += 1
        self.scheduler.hold(state)

    def resume(self, request_id: str) -> None:
        """Return a paused request to the front of the waiting queue.

        Resuming a request that is not held is a no-op (it may have been
        cancelled, or never paused); unknown IDs raise :class:`KeyError`
        unless the request already finished while its consumer was away.
        """
        if request_id in self._results:
            return
        state = self._states.get(request_id)
        if state is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        if state in self.scheduler.held:
            self.scheduler.release_hold(state)

    # -- introspection ---------------------------------------------------------

    def request_stats(self, request_id: str) -> RequestStats:
        """The live :class:`~repro.serving.request.RequestStats` of an
        active request (finished requests carry theirs on the result)."""
        state = self._states.get(request_id)
        if state is None:
            raise KeyError(f"unknown request_id {request_id!r}")
        return state.stats

    def kv_memory_stats(self) -> dict[str, int]:
        """The ``kv_memory`` block of ``/v1/stats``: accounted vs held KV bytes.

        ``accounted_bytes`` is the pool under the device storage model,
        ``physical_pool_bytes`` what its pages hold on the host, and
        ``working_set_bytes`` the prepared sequences' float working copies.
        It iterates snapshots of the live tables, so the server's thread
        may call it while a step runs.
        """
        states = list(self._states.values())
        return {
            "accounted_bytes": self.pool.allocated_bytes(),
            "physical_pool_bytes": self.pool.physical_bytes(),
            "working_set_bytes": sum(
                state.prepared.cache.working_set_bytes()
                for state in states
                if state.prepared is not None
            ),
        }

    def context_rows_stats(self) -> dict | None:
        """The ``context_rows`` block of ``/v1/stats`` (``None`` without the tier)."""
        if self.context_rows is None:
            return None
        return self.context_rows.stats_payload()

    def adaptive_stats(self) -> dict:
        """Current readings of the configured SLO policy.

        Empty without one (so hosts can omit the section entirely);
        otherwise ``slo``: per-class counts of the waiting and running
        sets.
        """
        payload: dict = {}
        if self.slo_policy is not None:
            by_class: dict[str, dict[str, int]] = {}
            for bucket, states in (
                ("waiting", self.scheduler.waiting),
                ("running", self.scheduler.running),
            ):
                for state in states:
                    counts = by_class.setdefault(
                        state.request.slo_class, {"waiting": 0, "running": 0}
                    )
                    counts[bucket] += 1
            payload["slo"] = by_class
        return payload


class InferenceEngine(EngineCore):
    """The blocking host shell over :class:`EngineCore`.

    Adds the synchronous convenience drivers — :meth:`stream`, :meth:`run`
    and :meth:`run_batch` — that call :meth:`~EngineCore.step` in a loop on
    the caller's thread.  Scripts and tests use this class directly; the
    asyncio front door (:mod:`repro.serving.server`) hosts the same core
    behind a background step loop instead.
    """

    # -- high-level entry points ---------------------------------------------

    def stream(self, request: GenerationRequest) -> Iterator[TokenEvent]:
        """Submit ``request`` and yield its tokens as they are decoded.

        Other in-flight requests keep making progress while this one is
        streamed (every yield batch corresponds to one engine step).  The
        final yielded event has ``is_last=True`` and carries ``stopped_by``;
        afterwards :meth:`result` returns the full outcome.
        """
        rid = self.submit(request)
        while not self.is_finished(rid):
            for event in self.step():
                if event.request_id == rid:
                    yield event

    def run(self, request: GenerationRequest, *, pop: bool = False) -> GenerationResult:
        """Submit ``request`` and drive the engine until it completes.

        ``pop=True`` releases the stored result (see :meth:`result`).
        """
        rid = self.submit(request)
        while not self.is_finished(rid):
            self.step()
        return self.result(rid, pop=pop)

    def run_batch(
        self, requests: Iterable[GenerationRequest], *, pop: bool = True
    ) -> list[GenerationResult]:
        """Serve a batch of requests via continuous batching.

        All requests are submitted up front and decoded concurrently
        (subject to the scheduler's capacity limits); results come back in
        submission order.  Results are **popped by default** — the caller
        already receives them, so retaining a second reference on the
        engine is the retention footgun :meth:`pop_results` exists to
        avoid.  Pass ``pop=False`` to additionally keep them readable via
        :meth:`result`.
        """
        rids = [self.submit(request) for request in requests]
        while not all(self.is_finished(rid) for rid in rids):
            self.step()
        return [self.result(rid, pop=pop) for rid in rids]
