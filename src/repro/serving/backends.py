"""Pluggable decode backends and their registry.

Every request is admitted the same way: the engine prefills the prompt at
full precision into a private dense scratch cache (a :class:`PrefillJob`,
one ``run`` call) and hands the prefilled job to the request's
:class:`DecodeBackend`, which owns everything method-specific from there —
quantization planning, building the stored cache out of the scratch rows,
and the per-token decode step.  What it hands back is a
:class:`PreparedSequence`: a :class:`~repro.model.decode.DecodeSession`
over the sequence's :class:`~repro.kvpool.cache.PagedKVCache` in the
engine's :class:`~repro.kvpool.BlockPool`, so the engine drives every
method — Cocktail and all the paper's baselines — through the same fused
decode round.

Backends resolve by name through a registry: ``"dense"``, ``"cocktail"``
and ``"blockwise"`` (three names for Cocktail over the engine's quantizer),
and the baseline method names from
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
# Re-exported only as the e2e tracer's ``core.blockwise_attn`` boundary (it
# wraps this dotted name); no serving path calls it, so the span reads 0
# until ROADMAP item 2(a) re-points it.
from repro.core.computation import chunk_level_decode_attention  # noqa: F401
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

    Every admission runs through a job, in one :meth:`run` call inside the
    engine step that admits it.  The rows land in a private dense scratch
    cache — prefill attends over the full-precision K/V of the whole
    prompt, which no quantized page could serve — so a job holds no pool
    pages, and dropping it frees everything it pinned.
    :meth:`DecodeBackend.prepare` consumes the prefilled job.

    With ``context_rows`` (the engine's
    :class:`~repro.kvpool.rows.ContextRowCache`) the job starts from the
    longest run of the context's blocks the tier holds: the rows are copied
    into the scratch at construction (``n_reused`` of them), so :meth:`run`
    prefills only the unmatched context tail, the separator and the query —
    a prefill continuing a cache that already holds rows, under the same
    contract as one over the whole prompt (identical greedy tokens,
    first-token logits within ``1e-5``).  A cold and a warm job differ in
    ``n_reused`` and nothing else.  :meth:`run` publishes the context rows
    back to the tier.  ``plan`` carries a quantization plan made ahead of
    the prefill (the admission probe's) to ``prepare``.
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

    def run(self) -> int:
        """Prefill the prompt past the seeded rows; returns how many tokens ran."""
        rest = self.prompt[self.n_reused :]
        self.first_logits = self.model.prefill(rest, self.cache)
        if self._context_rows is not None:
            # Before ``prepare``: ``quantizer.apply`` may overwrite the
            # scratch's context rows with fake-quant floats.
            self._context_rows.publish(self.cache, self._row_hashes)
        return len(rest)


@dataclass
class PreparedSequence:
    """A request after prefill, ready for step-at-a-time decoding.

    Attributes
    ----------
    session:
        The decode state machine the scheduler advances token by token.
    plan:
        The method's quantization plan.
    n_prompt_tokens, n_context_tokens:
        Prompt layout, reported back on the result.
    cache:
        The sequence's pool-resident :class:`~repro.kvpool.cache.PagedKVCache`,
        which the session appends to.  The engine drives everything else
        through it: the round's one fused
        :meth:`~repro.model.transformer.Transformer.decode_step_batch`
        forward, admission and preemption accounting (``live_tokens``),
        swap preemption (``swap_out`` / ``swap_in``), the finished result's
        ``details["kv_bytes"]`` (``measured_bytes``), ``/v1/stats``
        (``working_set_bytes``) and page return (``release``).
    cached_tokens, cache_hit_blocks, cached_bytes:
        Prefix-reuse outcome of this preparation: context tokens / pool
        pages adopted from the engine's prefix index and the measured bytes
        of those pages (prefill storage the request did not re-create).
    """

    session: DecodeSession
    plan: KVQuantizationPlan
    n_prompt_tokens: int
    n_context_tokens: int
    cache: PagedKVCache = field(repr=False)
    cached_tokens: int = 0
    cache_hit_blocks: int = 0
    cached_bytes: int = 0


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
        """The prefilled job's full-precision cache, context region marked."""
        if prefill.first_logits is None:
            raise RuntimeError("prepare() needs a prefilled job")
        prefill.cache.mark_context(len(request.context_words))
        return prefill.cache

    @abc.abstractmethod
    def prepare(
        self, request: "GenerationRequest", prefill: PrefillJob
    ) -> PreparedSequence:
        """Plan/apply quantization over a prefilled job; return the decode session.

        ``prefill`` is the *prefilled* :class:`PrefillJob` the engine ran for
        this request: its dense scratch cache holds the whole prompt's
        full-precision K/V and ``first_logits`` the first-token
        distribution.  The backend builds the sequence's stored cache from
        those rows; the scratch itself is dropped with the job.  The
        returned :attr:`PreparedSequence.cache` must be a
        :class:`~repro.kvpool.cache.PagedKVCache` over the engine's pool,
        and the session must decode over it: the engine advances it in the
        round's fused forward, swaps and releases it.
        """

    # -- prefix reuse ---------------------------------------------------------

    def probe_cached_blocks(
        self, request: "GenerationRequest"
    ) -> tuple[int, KVQuantizationPlan | None, tuple[str | None, list[str]]]:
        """Estimate how many pool pages a request would adopt from the
        prefix index: a peek over the request's routing keys, no state
        touched.  Returns ``(pages, the plan the keys were made from, the
        keys)``.

        The scheduler subtracts the estimate from the page demand it charges
        at admission, so a warm repeated-context request is not blocked on
        capacity it will never allocate.  The estimate is optimistic by
        design — entries may be evicted before ``prepare`` runs — so the
        engine re-peeks the kept keys after a pool-exhausted ``prepare``.
        The plan rides along to ``prepare`` (on the request's
        :class:`PrefillJob`), so a request is planned once; it is ``None``
        (and the keys ``(None, [])``) when nothing was planned.
        """
        prefix_cache = self.engine.prefix_cache
        if prefix_cache is None or prefix_cache.n_blocks == 0:
            return 0, None, (None, [])  # nothing can match; skip the planning work
        fingerprint, hashes, plan = self._route(request)
        return prefix_cache.peek(fingerprint, hashes), plan, (fingerprint, hashes)

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
    Atom / KIVI / KVQuant baselines, Cocktail (as ``dense``, ``cocktail``
    and ``blockwise``) and the ablation variants.  For Cocktail the packed
    context pages hold one run per (layer, tensor, bitwidth, page) —
    Algorithm 1's precision-grouped storage — and attention over their
    decoded rows equals Algorithm 1's blockwise result, since softmax over
    keys does not depend on key order (paper eqs. 4-5).
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

        The cache leaves with its decode mirrors built from what this call
        holds (:meth:`~repro.kvpool.cache.PagedKVCache.build_mirrors`):
        adopted pages decode into them, the unmatched rows come from the
        scratch and the packed ones from the encodings' in-memory codes —
        the floats a rebuild from the pages would yield.
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
            unmatched = [
                (layer.keys()[matched_tokens:], layer.values()[matched_tokens:])
                for layer in scratch.layers
            ]
            for layer_index, (k_rows, v_rows) in enumerate(unmatched):
                cache.append_layer(layer_index, k_rows, v_rows)
            cache.mark_context(n_context)
            if encodings is not None:
                cache.pack_context(
                    encodings, first_block=matched_tokens // pool.block_size
                )
            cache.build_mirrors(unmatched, encodings)
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
            cache=cache,
            cached_tokens=matched_tokens,
            cache_hit_blocks=len(matched_ids),
            cached_bytes=cached_bytes,
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
register_backend("blockwise", lambda engine: _dense_cocktail(engine, "blockwise"))
for _name in BASELINE_NAMES:
    register_backend(_name, lambda engine, _n=_name: _baseline_backend(engine, _n))
del _name
