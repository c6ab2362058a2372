"""Pluggable decode backends and their registry.

Every request is admitted the same way: the engine prefills the prompt at
full precision into a private dense scratch cache (a :class:`PrefillJob`,
one ``advance`` or several under a prefill budget) and hands the finished
job to the request's :class:`DecodeBackend`, which owns everything
method-specific from there — quantization planning, building the stored
cache out of the scratch rows, and the per-token decode step.  What it
hands back is a :class:`~repro.model.decode.DecodeSession` wrapped in a
:class:`PreparedSequence`, so the continuous-batching scheduler can drive
every method — Cocktail's packed-page path, Cocktail's blockwise
Algorithm-1 path and all the paper's baselines — through the exact same
step interface.  Whatever a prepared sequence keeps resident lives in pages
of the engine's :class:`~repro.kvpool.BlockPool`.

Backends resolve by name through a registry: ``"dense"``/``"cocktail"``,
``"blockwise"``, and the baseline method names from
:data:`repro.baselines.registry.BASELINE_NAMES`.  New methods plug in via
:func:`register_backend` (globally) or
:meth:`repro.serving.engine.InferenceEngine.add_backend` (per engine).
"""

from __future__ import annotations

import abc
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.baselines.base import (
    KVCacheQuantizer,
    KVQuantizationPlan,
    QuantizationRequest,
)
from repro.baselines.registry import BASELINE_NAMES, get_baseline
from repro.core.cache import ChunkedLayerCache
from repro.core.computation import chunk_level_decode_attention
from repro.kvpool.cache import PagedKVCache
from repro.kvpool.prefix import block_hashes
from repro.kvpool.rows import ContextRowCache
from repro.model.decode import DecodeSession
from repro.model.kv_cache import ModelKVCache
from repro.model.tokenizer import Tokenizer
from repro.model.transformer import Transformer
from repro.retrieval.chunking import chunk_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.serving.engine import InferenceEngine
    from repro.serving.request import GenerationRequest


def build_quantization_request(
    context_words: Sequence[str],
    query_words: Sequence[str],
    chunk_size: int,
    cache: ModelKVCache | None = None,
) -> QuantizationRequest:
    """Chunk a context and package everything a quantization search needs.

    Shared by the serving backends, :meth:`CocktailPipeline.build_request`
    and the evaluation harness so the request layout cannot drift.
    """
    chunks, tail = chunk_words(list(context_words), chunk_size)
    return QuantizationRequest(
        context_len=len(context_words),
        chunk_size=chunk_size,
        chunk_texts=[chunk.text for chunk in chunks],
        chunk_spans=[(chunk.start, chunk.end) for chunk in chunks],
        tail_span=(tail.start, tail.end) if tail is not None else None,
        query_text=" ".join(query_words),
        cache=cache,
    )


def prompt_token_ids(
    tokenizer: Tokenizer,
    context_words: Sequence[str],
    query_words: Sequence[str],
) -> list[int]:
    """Token IDs of the full prompt (context, separator, query)."""
    prompt_words = list(context_words) + ["<sep>"] + list(query_words)
    return tokenizer.encode(prompt_words)


class PrefillJob:
    """Full-precision prefill of one admitted request.

    Every admission runs through a job: each call to :meth:`advance` runs
    the model's prefill forward over the *next chunk only*, so under an
    engine ``max_prefill_tokens_per_step`` budget one long-context arrival
    stops stalling every in-flight decode for a whole round (without a
    budget the engine simply advances the whole prompt at once).  The rows
    land in a private dense scratch cache — prefill attends over the
    full-precision K/V of the whole prompt, which no quantized page could
    serve — so a job holds no pool pages, and dropping it frees everything
    it pinned.  When the job is :attr:`done`, :meth:`DecodeBackend.prepare`
    consumes it, so chunking changes *when* prefill compute happens, never
    what the backend builds from it.

    With ``context_rows`` (the engine's
    :class:`~repro.kvpool.rows.ContextRowCache`) the job starts from the
    longest run of the context's blocks the tier holds: the rows are copied
    into the scratch and ``n_done`` begins past them, so :meth:`advance`
    prefills only the unmatched context tail, the separator and the query —
    the chunked-prefill continuation it performs anyway, under the same
    contract (identical greedy tokens, first-token logits within ``1e-5``).
    A cold and a warm job differ in ``n_done`` at construction and nothing
    else.  A finished job publishes its context rows back to the tier.
    ``plan`` carries a quantization plan made ahead of the prefill (the
    admission probe's) to ``prepare``.
    """

    def __init__(
        self,
        model: Transformer,
        tokenizer: Tokenizer,
        request: "GenerationRequest",
        *,
        plan: KVQuantizationPlan | None = None,
        context_rows: ContextRowCache | None = None,
    ):
        self.model = model
        self.cache: ModelKVCache = model.new_cache()
        self.prompt = prompt_token_ids(
            tokenizer, request.context_words, request.query_words
        )
        self.plan = plan
        self.first_logits: np.ndarray | None = None
        self._context_rows = context_rows
        self._row_hashes: list[str] = []
        #: Leading context tokens copied from the row tier, not prefilled.
        self.n_reused = 0
        if context_rows is not None:
            self._row_hashes = context_rows.hashes(
                self.prompt[: len(request.context_words)]
            )
            self.n_reused = context_rows.seed(
                self.cache, self._row_hashes, len(self.prompt)
            )
        self.n_done = self.n_reused

    @property
    def n_remaining(self) -> int:
        """Prompt tokens still to prefill."""
        return len(self.prompt) - self.n_done

    @property
    def done(self) -> bool:
        """Whether the whole prompt has been prefilled."""
        return self.n_done >= len(self.prompt)

    def live_tokens(self) -> int:
        """KV rows the partial prefill currently pins."""
        return self.cache.live_tokens()

    def advance(self, max_tokens: int) -> int:
        """Prefill up to ``max_tokens`` more prompt tokens; returns how many ran."""
        if self.done:
            raise RuntimeError("prefill is already complete")
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        chunk = self.prompt[self.n_done : self.n_done + max_tokens]
        logits = self.model.prefill(chunk, self.cache)
        self.n_done += len(chunk)
        if self.done:
            self.first_logits = logits
            if self._context_rows is not None:
                # Before ``prepare``: ``quantizer.apply`` may overwrite the
                # scratch's context rows with fake-quant floats.
                self._context_rows.publish(self.cache, self._row_hashes)
        return len(chunk)


@dataclass
class PreparedSequence:
    """A request after prefill, ready for step-at-a-time decoding.

    Attributes
    ----------
    session:
        The decode state machine the scheduler advances token by token.
    plan:
        The method's quantization plan (``None`` only for backends that do
        not quantize at all).
    n_prompt_tokens, n_context_tokens:
        Prompt layout, reported back on the result.
    live_tokens:
        Current number of KV rows this sequence holds (prompt + generated),
        used for capacity-aware admission and preemption.
    details:
        Backend-specific extras surfaced on the result (e.g. the blockwise
        backend's chunked caches).
    swap_out, swap_in:
        Preemption hooks over the sequence's pool pages: ``swap_out``
        evicts every exclusively-owned page to a host-side store (freeing
        pool capacity) and ``swap_in`` restores them, so the decode session
        resumes without recompute.
    release:
        Returns the sequence's pool pages when it finishes or is cancelled.
    kv_bytes:
        Measured-memory probe; returns the sequence's current resident KV
        bytes breakdown (see
        :meth:`repro.kvpool.cache.PagedKVCache.measured_bytes`).
    working_set_bytes:
        Host bytes of the sequence's float working copy of its pages (see
        :meth:`repro.kvpool.cache.PagedKVCache.working_set_bytes`).
    cached_tokens, cache_hit_blocks, cached_bytes:
        Prefix-reuse outcome of this preparation: context tokens / pool
        pages adopted from the engine's prefix index and the measured bytes
        of those pages (prefill storage the request did not re-create).
    cache:
        The decode cache the session appends to, exposed so a fused
        ``step_batch`` call can advance many sequences through one model
        forward.  ``None`` for backends whose decode state is not a plain
        model cache (blockwise).
    batch_key:
        Fused-execution group: sequences carrying the same non-``None`` key
        are advanced through **one** :meth:`DecodeBackend.step_batch` call
        per engine step.  ``None`` keeps the sequence on the sequential
        path.
    prompt_ids:
        Token IDs of the full prompt, kept for the speculative-decoding
        draft proposer (prompt-lookup drafting matches n-grams over prompt
        + generated history).  ``None`` when the backend does not surface
        them.
    spec_capable:
        Whether this sequence may run speculative verify steps
        (:meth:`DecodeBackend.verify_batch` over its plain model cache
        with :meth:`~repro.kvpool.cache.PagedKVCache.truncate` rollback).
        Stamped by the backend; requires ``cache`` and ``prompt_ids``.
    """

    session: DecodeSession
    plan: KVQuantizationPlan | None
    n_prompt_tokens: int
    n_context_tokens: int
    live_tokens: Callable[[], int]
    swap_out: Callable[[], None]
    swap_in: Callable[[], None]
    release: Callable[[], None]
    kv_bytes: Callable[[], dict]
    working_set_bytes: Callable[[], int] = field(default=lambda: 0, repr=False)
    details: dict = field(default_factory=dict, repr=False)
    cached_tokens: int = 0
    cache_hit_blocks: int = 0
    cached_bytes: int = 0
    cache: object | None = field(default=None, repr=False)
    batch_key: str | None = None
    prompt_ids: tuple[int, ...] | None = None
    spec_capable: bool = False


class DecodeBackend(abc.ABC):
    """Method-specific cache preparation + decode-step implementation."""

    #: Registry name (instances may override per construction).
    name: str = "backend"

    def __init__(self, engine: "InferenceEngine"):
        self._engine = weakref.ref(engine)

    @property
    def engine(self) -> "InferenceEngine":
        """The owning engine.

        Held weakly: the engine owns its backends, and a strong
        back-reference would keep a dropped engine — its pool, its model
        and its row arena — alive until the cycle collector's next full
        pass instead of freeing it with the last reference.
        """
        engine = self._engine()
        if engine is None:
            raise RuntimeError(f"backend {self.name!r} outlived its engine")
        return engine

    @property
    def model(self) -> Transformer:
        return self.engine.model

    @property
    def tokenizer(self) -> Tokenizer:
        return self.engine.tokenizer

    def _stop_ids(self, request: "GenerationRequest") -> tuple[int, ...]:
        stops: tuple[int, ...] = request.extra_stop_ids
        if request.stop_on_special:
            stops = (self.tokenizer.eos_id, self.tokenizer.sep_id) + stops
        return stops

    @staticmethod
    def _scratch(request: "GenerationRequest", prefill: PrefillJob) -> ModelKVCache:
        """The finished job's full-precision cache, context region marked."""
        if not prefill.done:
            raise RuntimeError("prepare() needs a finished prefill job")
        prefill.cache.mark_context(len(request.context_words))
        return prefill.cache

    @abc.abstractmethod
    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob
    ) -> PreparedSequence:
        """Plan/apply quantization over a finished prefill; return the decode session.

        ``prefill`` is the *finished* :class:`PrefillJob` the engine ran for
        this request: its dense scratch cache holds the whole prompt's
        full-precision K/V and ``first_logits`` the first-token
        distribution.  The backend builds whatever it decodes over from
        those rows; the scratch itself is dropped with the job.
        """

    # -- batched execution ---------------------------------------------------

    #: Fused-execution group key stamped on prepared sequences when
    #: :attr:`supports_batched_step` holds.  Every backend driving the
    #: standard transformer decode over a plain model cache shares one key,
    #: so a mixed dense/cocktail/ablation batch still fuses into a single
    #: forward per engine step.
    TRANSFORMER_BATCH_KEY = "transformer-decode"

    @property
    def supports_batched_step(self) -> bool:
        """Whether this backend's prepared sequences may be fused into one
        :meth:`step_batch` forward per engine step.  ``False`` keeps every
        sequence on the sequential one-forward-per-token path."""
        return False

    def step_batch(
        self, token_ids: Sequence[int], sequences: Sequence[PreparedSequence]
    ) -> list[np.ndarray]:
        """One fused decode forward for ``sequences`` (same ``batch_key``).

        ``token_ids[i]`` is the token :meth:`DecodeSession.begin_step`
        emitted for ``sequences[i]``; the return value is one next-token
        logits row per sequence, in order.
        """
        raise NotImplementedError(
            f"backend {self.name!r} decodes on the sequential path"
        )

    # -- speculative decoding -------------------------------------------------

    @property
    def supports_speculation(self) -> bool:
        """Whether this backend's sequences may run speculative verify steps.

        Requires the standard transformer decode over a plain model cache
        (so a verify forward can append ``k + 1`` rows and the rejected
        tail can be truncated) — the same constraint as
        :attr:`supports_batched_step`.  ``False`` keeps every sequence on
        plain one-token-per-step decoding.
        """
        return False

    def verify_batch(
        self,
        token_lists: Sequence[Sequence[int]],
        sequences: Sequence[PreparedSequence],
    ) -> list[list[np.ndarray]]:
        """One fused speculative-verify forward for ``sequences``.

        ``token_lists[i]`` is ``[token, *drafts]`` for ``sequences[i]``;
        the return value is one logits block per sequence with one row per
        input token (see
        :meth:`~repro.model.transformer.Transformer.decode_verify_step_batch`).
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support speculative decoding"
        )

    # -- prefix reuse ---------------------------------------------------------

    def probe_cached_blocks(
        self, request: "GenerationRequest"
    ) -> tuple[int, KVQuantizationPlan | None]:
        """Estimate how many pool pages a request would adopt from the
        prefix index: a peek over the request's routing keys, no state
        touched.  Returns ``(pages, the plan the keys were made from)``.

        The scheduler subtracts the estimate from the page demand it charges
        at admission, so a warm repeated-context request is not blocked on
        capacity it will never allocate.  The estimate is optimistic by
        design — entries may be evicted before ``prepare`` runs — and the
        engine's preemption machinery corrects any overshoot.  The plan rides
        along to ``prepare`` (on the request's :class:`PrefillJob`), so a
        request is planned once; it is ``None`` when nothing was planned.
        """
        prefix_cache = self.engine.prefix_cache
        if prefix_cache is None or prefix_cache.n_blocks == 0:
            return 0, None  # nothing can match; skip the planning work
        fingerprint, hashes, plan = self._route(request)
        return prefix_cache.peek(fingerprint, hashes), plan

    def prefix_route_keys(
        self, request: "GenerationRequest"
    ) -> tuple[str | None, list[str]]:
        """The ``(fingerprint, chained block hashes)`` a router would index
        this request under — computed *without* touching any engine state.

        ``(None, [])`` means the request's pages cannot be keyed ahead of
        prefill (no sharing fingerprint, or the planner reads the prefilled
        cache — :attr:`~repro.baselines.base.KVCacheQuantizer.plan_reads_cache`);
        a prefix-affinity router then falls back to load-only
        placement.  When keys are returned they match what
        :meth:`prepare` will publish into the owning engine's
        :class:`~repro.kvpool.prefix.PrefixCache` bit for bit, so a global
        hash index over many workers can resolve longest-prefix placement
        before the request is dispatched anywhere.
        """
        return self._route(request)[:2]

    def _route(
        self, request: "GenerationRequest"
    ) -> tuple[str | None, list[str], KVQuantizationPlan | None]:
        """Routing keys plus the cache-free plan they were derived from."""
        del request
        return None, [], None


class QuantizedDenseBackend(DecodeBackend):
    """Fake-quantize the context cache, then decode on the standard path.

    This one backend serves every method exposing the common
    :class:`~repro.baselines.base.KVCacheQuantizer` interface: the FP16 /
    Atom / KIVI / KVQuant baselines, Cocktail's dense mode and the ablation
    variants.
    """

    def __init__(
        self,
        engine: "InferenceEngine",
        quantizer: KVCacheQuantizer,
        name: str | None = None,
    ):
        super().__init__(engine)
        self.quantizer = quantizer
        self.name = name or quantizer.name

    @property
    def supports_batched_step(self) -> bool:
        """Token-local quantizers fuse; per-request fitted codebooks do not.

        The fused kernel shares dequantization tables across the batch, so
        methods whose decode-time state is fitted per request (KIVI,
        KVQuant — see
        :attr:`~repro.baselines.base.KVCacheQuantizer.fitted_context_state`)
        fall back to the sequential path transparently.
        """
        return not self.quantizer.fitted_context_state

    def step_batch(
        self, token_ids: Sequence[int], sequences: Sequence[PreparedSequence]
    ) -> list[np.ndarray]:
        """Advance every sequence one token through one fused model forward."""
        caches = []
        for sequence in sequences:
            if sequence.cache is None:
                raise ValueError("sequence carries no decode cache to batch over")
            caches.append(sequence.cache)
        return self.model.decode_step_batch(list(token_ids), caches)

    @property
    def supports_speculation(self) -> bool:
        """Speculation shares the fused kernel's constraint: token-local
        quantizers verify in one multi-token forward; per-request fitted
        codebooks (KIVI, KVQuant) stay on the plain sequential path."""
        return self.supports_batched_step

    def verify_batch(
        self,
        token_lists: Sequence[Sequence[int]],
        sequences: Sequence[PreparedSequence],
    ) -> list[list[np.ndarray]]:
        """Run every sequence's verify run through one fused model forward."""
        caches = []
        for sequence in sequences:
            if sequence.cache is None:
                raise ValueError("sequence carries no decode cache to verify over")
            caches.append(sequence.cache)
        return self.model.decode_verify_step_batch(
            [list(tokens) for tokens in token_lists], caches
        )

    def _plan_request(self, request: "GenerationRequest", cache):
        """Run this method's quantization planning for one request."""
        qrequest = build_quantization_request(
            request.context_words,
            request.query_words,
            self.engine.chunk_size,
            cache,
        )
        return self.quantizer.plan(qrequest)

    def _reuse_keys(self, plan, context_ids) -> tuple[str | None, list[str]]:
        """The (fingerprint, chained block hashes) pair of one planned request."""
        fingerprint = self.quantizer.reuse_fingerprint(plan, context_ids)
        if fingerprint is None:
            return None, []
        return fingerprint, block_hashes(
            fingerprint, context_ids, plan.token_bits, self.engine.pool.block_size
        )

    def _route(
        self, request: "GenerationRequest"
    ) -> tuple[str | None, list[str], KVQuantizationPlan | None]:
        """Routing keys from a cache-free plan (no engine state touched)."""
        if self.quantizer.plan_reads_cache:
            # The plan, hence the hashed bitwidths, exists only after prefill.
            return None, [], None
        plan = self._plan_request(request, None)
        prompt = prompt_token_ids(
            self.tokenizer, request.context_words, request.query_words
        )
        return (*self._reuse_keys(plan, prompt[: len(request.context_words)]), plan)

    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob
    ) -> PreparedSequence:
        """Plan on the scratch, adopt every matched page, pack the rest.

        Bit-exactness constraint: prefill attends over the full-precision
        K/V of the whole prompt, while the index stores *quantized* pages —
        which is why the prefill ran into a private dense scratch and only
        the storage is assembled here, from shared pages + freshly written
        unmatched rows.  A page hit therefore saves encode, pack and pool
        bytes; the prefill forward is saved one step earlier, by the row
        tier the job was seeded from (:class:`PrefillJob`), and the scratch
        handed in is indistinguishable from a cold one either way.
        Matched pages are byte-identical to what this
        request would have packed by construction of the hash chain, and
        unmatched rows are packed from the same deterministic encodings,
        so the decode phase reads the same pages whether the index held
        all, some or none of them (or does not exist).
        """
        prefix_cache = self.engine.prefix_cache
        pool = self.engine.pool
        scratch = self._scratch(request, prefill)
        prompt = prefill.prompt
        n_context = scratch.n_context
        plan = prefill.plan
        if plan is None:
            plan = self._plan_request(request, scratch)
        fingerprint, hashes = (
            self._reuse_keys(plan, prompt[:n_context])
            if prefix_cache is not None
            else (None, [])
        )
        # Sized to what the request can write, so the cache's float working
        # copy never reserves rows past its last possible token.
        capacity = min(len(prompt) + request.max_new_tokens, self.model.config.max_seq_len)
        cache = self.model.new_cache(capacity, pool=pool)
        try:
            matched_ids = prefix_cache.match(fingerprint, hashes) if hashes else []
            matched_tokens = len(matched_ids) * pool.block_size
            cached_bytes = sum(
                pool.get(block_id).storage_bytes() for block_id in matched_ids
            )
            cache.adopt_blocks(matched_ids, matched_tokens)
            encodings = self.quantizer.encode_context(
                scratch, plan, start=matched_tokens
            )
            if encodings is None:
                # No packed encoder: materialise the fake-quant floats in the
                # scratch cache so the copied pages hold what decode reads.
                self.quantizer.apply(scratch, plan)
            for layer_index, layer in enumerate(scratch.layers):
                cache.append_layer(
                    layer_index,
                    layer.keys()[matched_tokens:],
                    layer.values()[matched_tokens:],
                )
            cache.mark_context(n_context)
            if encodings is not None:
                cache.pack_context(
                    encodings, first_block=matched_tokens // pool.block_size
                )
            if fingerprint is not None:
                prefix_cache.insert(
                    fingerprint, hashes, cache.table.block_ids[: len(hashes)]
                )
        except Exception:
            cache.release()
            raise
        session = self.model.decode_session(
            cache,
            prefill.first_logits,
            max_new_tokens=request.max_new_tokens,
            stop_ids=self._stop_ids(request),
            sampler=request.sampling.build_sampler(),
        )
        return PreparedSequence(
            session=session,
            plan=plan,
            n_prompt_tokens=len(prompt),
            n_context_tokens=n_context,
            live_tokens=cache.live_tokens,
            swap_out=cache.swap_out,
            swap_in=cache.swap_in,
            release=cache.release,
            kv_bytes=cache.measured_bytes,
            working_set_bytes=cache.working_set_bytes,
            cached_tokens=matched_tokens,
            cache_hit_blocks=len(matched_ids),
            cached_bytes=cached_bytes,
            cache=cache,
            batch_key=self.TRANSFORMER_BATCH_KEY if self.supports_batched_step else None,
            prompt_ids=tuple(prompt),
            spec_capable=self.supports_speculation,
        )


class _BlockwiseDecodeState:
    """Per-sequence state of the blockwise (Algorithm 1) decode path.

    The quantized context lives in per-layer :class:`ChunkedLayerCache`
    segments; query and generated tokens accumulate in ``decode_caches``,
    one full-precision layer buffer each (``append``/``keys``/``values`` —
    the backend passes the layer views of a pool-backed paged cache, so
    even the blockwise path's growing state is a pool-accounted resource).
    ``position`` is the number of tokens already cached (context + query).
    Each step runs chunk-level decode attention per layer.
    """

    def __init__(
        self,
        model: Transformer,
        chunked_caches: list[ChunkedLayerCache],
        decode_caches: Sequence,
        position: int,
    ):
        self.model = model
        self.chunked_caches = chunked_caches
        self.decode_caches = decode_caches
        self.position = position

    def step(self, token_id: int) -> np.ndarray:
        """One decode step with chunk-level KV cache computation per layer."""
        model = self.model
        config = model.config
        positions = np.asarray([self.position])
        hidden = model.embed([token_id], positions)
        for layer_index, block in enumerate(model.blocks):
            attn_in = block.norm_attn.forward(hidden)
            attention = block.attention
            q, k_new, v_new = attention.project_qkv(attn_in, positions)
            q = q[0]
            self.decode_caches[layer_index].append(k_new, v_new)
            context_vectors = chunk_level_decode_attention(
                q,
                self.chunked_caches[layer_index],
                self.decode_caches[layer_index].keys(),
                self.decode_caches[layer_index].values(),
                gqa_group=config.gqa_group,
                scale=config.attention_temperature / np.sqrt(config.head_dim),
            )
            attn_out = np.einsum("he,hed->d", context_vectors, attention.weights.wo)
            hidden = hidden + attn_out[None, :]
            hidden = hidden + block.mlp.forward(block.norm_mlp.forward(hidden))
        self.position += 1
        return model._logits(hidden[0])


class BlockwiseBackend(DecodeBackend):
    """Cocktail's Algorithm 1 over the reordered mixed-precision cache.

    The blockwise step *is* the paper's custom chunk-level decode kernel
    (its own per-layer attention over chunked segments), so it stays on the
    sequential path — :attr:`supports_batched_step` remains ``False``.
    Only its query/generated rows live in pool pages; the context is held
    in the chunked segments built straight from the prefill scratch.
    """

    name = "blockwise"

    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob
    ) -> PreparedSequence:
        engine = self.engine
        scratch = self._scratch(request, prefill)
        n_context = scratch.n_context
        qrequest = build_quantization_request(
            request.context_words, request.query_words, engine.chunk_size, scratch
        )
        plan = engine.quantizer.plan(qrequest)
        chunked_caches = engine.quantizer.build_chunked_caches(scratch, plan)
        # The non-quantized region (query tokens) seeds the FP16 decode pages.
        decode_cache = PagedKVCache(engine.pool, scratch.capacity - n_context)
        try:
            for layer, view in zip(scratch.layers, decode_cache.layers):
                view.append(layer.keys()[n_context:], layer.values()[n_context:])
        except Exception:
            decode_cache.release()
            raise
        state = _BlockwiseDecodeState(
            self.model, chunked_caches, decode_cache.layers, scratch.length
        )

        def kv_bytes() -> dict:
            """Measured bytes: chunked context segments + decode-cache pages."""
            context_bytes = sum(c.storage_bytes() for c in chunked_caches)
            decode = decode_cache.measured_bytes()
            return {
                "context_bytes": context_bytes,
                "generated_bytes": decode["total_bytes"],
                "total_bytes": context_bytes + decode["total_bytes"],
                "context_fp16_bytes": sum(
                    c.fp16_storage_bytes() for c in chunked_caches
                ),
                "n_blocks": decode["n_blocks"],
            }

        session = DecodeSession(
            state.step,
            prefill.first_logits,
            max_new_tokens=request.max_new_tokens,
            stop_ids=self._stop_ids(request),
            sampler=request.sampling.build_sampler(),
            has_capacity=decode_cache.has_capacity,
        )
        return PreparedSequence(
            session=session,
            plan=plan,
            n_prompt_tokens=len(prefill.prompt),
            n_context_tokens=n_context,
            live_tokens=lambda: state.position,
            swap_out=decode_cache.swap_out,
            swap_in=decode_cache.swap_in,
            release=decode_cache.release,
            kv_bytes=kv_bytes,
            working_set_bytes=decode_cache.working_set_bytes,
            details={"chunked_caches": chunked_caches},
        )


# -- registry ----------------------------------------------------------------

BackendFactory = Callable[["InferenceEngine"], DecodeBackend]

_BACKEND_FACTORIES: dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register a decode-backend factory under ``name`` (case-insensitive)."""
    key = name.lower()
    if key in _BACKEND_FACTORIES and not overwrite:
        raise KeyError(f"backend {name!r} is already registered")
    _BACKEND_FACTORIES[key] = factory


def backend_names() -> tuple[str, ...]:
    """All globally registered backend names."""
    return tuple(sorted(_BACKEND_FACTORIES))


def create_backend(name: str, engine: "InferenceEngine") -> DecodeBackend:
    """Instantiate the backend registered under ``name`` for ``engine``."""
    key = name.lower()
    try:
        factory = _BACKEND_FACTORIES[key]
    except KeyError:
        raise KeyError(
            f"unknown decode backend {name!r}; registered: {list(backend_names())}"
        ) from None
    return factory(engine)


def _dense_cocktail(engine: "InferenceEngine", name: str) -> DecodeBackend:
    return QuantizedDenseBackend(engine, engine.quantizer, name=name)


def _baseline_backend(engine: "InferenceEngine", name: str) -> DecodeBackend:
    return QuantizedDenseBackend(engine, get_baseline(name), name=name)


register_backend("dense", lambda engine: _dense_cocktail(engine, "dense"))
register_backend("cocktail", lambda engine: _dense_cocktail(engine, "cocktail"))
register_backend("blockwise", BlockwiseBackend)
for _name in BASELINE_NAMES:
    register_backend(_name, lambda engine, _n=_name: _baseline_backend(engine, _n))
del _name
