"""Request, result and streaming-event objects of the serving API.

A :class:`GenerationRequest` packages everything the engine needs to serve
one long-context query: the words, the decode budget, the sampling policy
and — per request — which :class:`~repro.serving.backends.DecodeBackend`
(and therefore which KV-cache quantization method) executes the decode.
:class:`TokenEvent` is the unit of streaming; :class:`GenerationResult`
carries the final answer plus per-request serving stats (queue time, TTFT,
TPOT) measured by the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.baselines.base import KVQuantizationPlan
from repro.model.decode import check_max_new_tokens
from repro.model.sampling import greedy_sample, top_k_sample

#: The standard SLO traffic classes the wire format accepts (matching
#: :class:`repro.workloads.slo.SloSpec` and the default
#: :class:`repro.serving.adaptive.SloPolicy`).  Directly-constructed
#: :class:`GenerationRequest` objects may carry any non-empty class name —
#: custom policies can define their own — but the HTTP boundary validates
#: against this set so typos become 400s, not silently-deprioritized
#: traffic.
SLO_CLASSES = ("interactive", "batch", "background")


@dataclass(frozen=True)
class SamplingParams:
    """Per-request sampling policy.

    ``top_k=1`` (the default) is greedy decoding.  A fresh sampler callable
    is built every time a request is prepared, so the same request always
    draws the identical random stream and reproduces the same tokens.
    """

    top_k: int = 1
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def is_greedy(self) -> bool:
        """Whether this policy is deterministic argmax decoding."""
        return self.top_k == 1

    def build_sampler(self) -> Callable[[np.ndarray], int]:
        """Return a fresh logits->token callable for one scheduling attempt."""
        if self.is_greedy:
            return greedy_sample
        rng = np.random.default_rng(self.seed)
        return lambda logits: top_k_sample(
            logits, self.top_k, rng, temperature=self.temperature
        )


@dataclass
class GenerationRequest:
    """One long-context generation request.

    Attributes
    ----------
    context_words, query_words:
        The request, as word sequences (same shape the pipeline accepts).
    max_new_tokens:
        Decode budget; must be >= 1.
    backend:
        Name resolved through the :mod:`repro.serving.backends` registry —
        ``"dense"`` / ``"blockwise"`` for Cocktail, or a baseline method
        name (``"fp16"``, ``"atom"``, ``"kivi"``, ``"kvquant"``).
    sampling:
        Sampling policy (greedy by default).
    stop_on_special:
        Stop on the tokenizer's EOS/SEP tokens (matches the pipeline).
    extra_stop_ids:
        Additional stop-token IDs for this request.
    slo_class:
        Traffic class for SLO-aware scheduling (``"interactive"`` by
        default; see :data:`SLO_CLASSES`).  Ignored unless the engine was
        built with an :class:`~repro.serving.adaptive.SloPolicy` — then it
        drives class-aware admission order and deadline-aware preemption.
    request_id:
        Optional caller-chosen ID; the engine assigns ``"req-<n>"`` when
        left ``None``.
    """

    context_words: Sequence[str]
    query_words: Sequence[str]
    max_new_tokens: int = 128
    backend: str = "dense"
    sampling: SamplingParams = field(default_factory=SamplingParams)
    stop_on_special: bool = True
    extra_stop_ids: tuple[int, ...] = ()
    slo_class: str = "interactive"
    request_id: str | None = None

    def __post_init__(self) -> None:
        self.context_words = tuple(self.context_words)
        self.query_words = tuple(self.query_words)
        self.extra_stop_ids = tuple(int(s) for s in self.extra_stop_ids)
        self.max_new_tokens = check_max_new_tokens(self.max_new_tokens)
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError(f"backend must be a non-empty string, got {self.backend!r}")
        if not isinstance(self.slo_class, str) or not self.slo_class:
            raise ValueError(
                f"slo_class must be a non-empty string, got {self.slo_class!r}"
            )

    @property
    def n_prompt_tokens(self) -> int:
        """Prompt length (context + separator + query) without tokenizing."""
        return len(self.context_words) + 1 + len(self.query_words)


@dataclass(frozen=True)
class TokenEvent:
    """One streamed decode event.

    Every generated token yields one event; a final event with
    ``token_id=None`` and ``is_last=True`` closes the stream and carries the
    request's ``stopped_by`` reason.
    """

    request_id: str
    token_id: int | None
    text: str
    index: int
    is_first: bool = False
    is_last: bool = False
    stopped_by: str | None = None

    @property
    def end_of_stream(self) -> bool:
        """Whether this is the terminal (non-token) event of the stream."""
        return self.token_id is None


@dataclass
class RequestStats:
    """Per-request serving statistics collected by the engine.

    Wall-clock timestamps come from the engine's monotonic clock; step
    counters are exact (one decode step == one scheduler visit).
    """

    submitted_at: float | None = None
    scheduled_at: float | None = None
    first_token_at: float | None = None
    finished_at: float | None = None
    n_generated: int = 0
    n_decode_steps: int = 0
    n_queue_steps: int = 0
    n_preemptions: int = 0
    #: Host-initiated pauses (slow-reader backpressure): the request was
    #: held out of scheduling until its consumer drained and resumed it.
    #: A pause of a *running* request also counts one preemption.
    n_pauses: int = 0
    #: Tenant this request was accounted to, when it arrived through the
    #: multi-tenant front door (``None`` for directly-submitted requests).
    tenant: str | None = None
    #: SLO traffic class the request was scheduled under (stamped by the
    #: engine at submit from ``GenerationRequest.slo_class``).
    slo_class: str | None = None
    #: Preemptions of the running sequence, each served by swapping its
    #: pages to the host store (``n_preemptions`` additionally counts
    #: admissions rolled back before the request ever decoded).
    n_swap_outs: int = 0
    #: Swapped pages restored on re-admission (no recompute performed).
    n_swap_ins: int = 0
    #: Context tokens served from the engine's prefix index: their packed
    #: pages were adopted instead of allocated, written and re-quantized.
    cached_tokens: int = 0
    #: Shared pool pages this request adopted from the prefix index.
    cache_hit_blocks: int = 0
    #: Measured bytes of the adopted pages — prefill storage the request
    #: did not have to create.
    cached_bytes: int = 0
    #: Leading context tokens whose full-precision rows the prefill copied
    #: from the engine's row tier instead of computing (the prefill forward
    #: ran over the rest of the prompt only).  Independent of
    #: ``cached_tokens``: rows save the forward, pages save encode and pack.
    prefill_reused_tokens: int = 0

    @property
    def queue_seconds(self) -> float | None:
        """Time until the request joined the decode set (submit -> prepared,
        so the prefill is included)."""
        if self.submitted_at is None or self.scheduled_at is None:
            return None
        return self.scheduled_at - self.submitted_at

    @property
    def ttft_seconds(self) -> float | None:
        """Time to first token (submit -> first streamed token)."""
        if self.submitted_at is None or self.first_token_at is None:
            return None
        return self.first_token_at - self.submitted_at

    @property
    def tpot_seconds(self) -> float | None:
        """Mean time per output token after the first one."""
        if self.first_token_at is None or self.finished_at is None:
            return None
        if self.n_generated <= 1:
            return 0.0
        return (self.finished_at - self.first_token_at) / (self.n_generated - 1)

    @property
    def total_seconds(self) -> float | None:
        """End-to-end latency (submit -> finish)."""
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass
class GenerationResult:
    """Final outcome of one served request."""

    request_id: str
    backend: str
    answer_text: str
    token_ids: list[int]
    stopped_by: str
    n_context_tokens: int
    n_prompt_tokens: int
    plan: KVQuantizationPlan | None = None
    stats: RequestStats = field(default_factory=RequestStats)
    details: dict = field(default_factory=dict, repr=False)


# -- wire format --------------------------------------------------------------
#
# The serving front door (:mod:`repro.serving.server`) accepts JSON request
# bodies; the mapping to :class:`GenerationRequest` / :class:`SamplingParams`
# lives here, next to the objects it produces, so every transport shares one
# boundary validation.  Malformed input raises :class:`WireFormatError` with
# the offending parameter named — transports turn that into a structured 4xx
# instead of ever surfacing an engine traceback.


class WireFormatError(ValueError):
    """A client payload failed boundary validation.

    ``param`` names the offending field (``None`` for payload-level
    problems such as a non-object body or an unknown field's name being
    reported in the message only).
    """

    def __init__(self, message: str, *, param: str | None = None):
        super().__init__(message)
        self.param = param


#: Every field a completion payload may carry.  ``stream`` is consumed by
#: the transport (it selects SSE vs one-shot delivery), but it is accepted
#: here so transports can hand the payload over whole.
WIRE_FIELDS = frozenset(
    {
        "context",
        "query",
        "max_tokens",
        "backend",
        "model",
        "temperature",
        "top_k",
        "seed",
        "stop_on_special",
        "stop_token_ids",
        "slo_class",
        "stream",
    }
)


def _wire_words(payload: dict, key: str) -> tuple[str, ...]:
    """A required word sequence: a whitespace-split string or a str list."""
    if key not in payload:
        raise WireFormatError(f"missing required field {key!r}", param=key)
    value = payload[key]
    if isinstance(value, str):
        return tuple(value.split())
    if isinstance(value, (list, tuple)):
        words = []
        for item in value:
            if not isinstance(item, str) or not item:
                raise WireFormatError(
                    f"{key!r} entries must be non-empty strings, got {item!r}",
                    param=key,
                )
            words.append(item)
        return tuple(words)
    raise WireFormatError(
        f"{key!r} must be a string or a list of words, got {type(value).__name__}",
        param=key,
    )


def _wire_int(payload: dict, key: str, default: int, *, minimum: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(
            f"{key!r} must be an integer, got {value!r}", param=key
        )
    if value < minimum:
        raise WireFormatError(
            f"{key!r} must be >= {minimum}, got {value}", param=key
        )
    return value


def _wire_bool(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise WireFormatError(
            f"{key!r} must be a boolean, got {value!r}", param=key
        )
    return value


def request_from_wire(
    payload: dict,
    *,
    known_backends: Sequence[str] | None = None,
    max_prompt_tokens: int | None = None,
    max_new_tokens_limit: int | None = None,
    default_slo_class: str = "interactive",
    request_id: str | None = None,
) -> GenerationRequest:
    """Build a validated :class:`GenerationRequest` from a JSON payload.

    Every boundary check a front door needs happens here: unknown fields
    are rejected by name, every field is type- and range-checked
    (``max_tokens >= 1``, ``temperature > 0``, ``top_k >= 1``), the backend
    must resolve against ``known_backends`` when given, the prompt must
    fit ``max_prompt_tokens``, and an explicit ``slo_class`` must name one
    of :data:`SLO_CLASSES`.  Failures raise :class:`WireFormatError`
    with ``param`` set — never a bare engine ``ValueError`` mid-decode.

    ``model`` is accepted as an alias of ``backend`` (OpenAI clients send
    one); passing both with different values is an error.
    ``default_slo_class`` is used when the payload omits ``slo_class`` —
    the front door passes the tenant's configured default here, so a
    tenant can be pinned to (say) ``"batch"`` without every client
    spelling it.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - WIRE_FIELDS
    if unknown:
        names = ", ".join(repr(name) for name in sorted(unknown))
        raise WireFormatError(f"unknown field(s): {names}")

    context = _wire_words(payload, "context")
    query = _wire_words(payload, "query")
    if not query:
        raise WireFormatError("'query' must contain at least one word", param="query")
    if max_prompt_tokens is not None:
        n_prompt = len(context) + 1 + len(query)
        if n_prompt > max_prompt_tokens:
            raise WireFormatError(
                f"prompt is {n_prompt} tokens; this server accepts at most "
                f"{max_prompt_tokens}",
                param="context",
            )

    backend = payload.get("backend")
    model = payload.get("model")
    if backend is not None and model is not None and backend != model:
        raise WireFormatError(
            f"'backend' ({backend!r}) and its alias 'model' ({model!r}) disagree",
            param="backend",
        )
    backend = backend if backend is not None else (model if model is not None else "dense")
    if not isinstance(backend, str) or not backend:
        raise WireFormatError(
            f"'backend' must be a non-empty string, got {backend!r}", param="backend"
        )
    if known_backends is not None and backend.lower() not in {
        name.lower() for name in known_backends
    }:
        names = ", ".join(sorted(known_backends))
        raise WireFormatError(
            f"unknown backend {backend!r}; this server serves: {names}",
            param="backend",
        )

    max_tokens = _wire_int(payload, "max_tokens", 128, minimum=1)
    if max_new_tokens_limit is not None and max_tokens > max_new_tokens_limit:
        raise WireFormatError(
            f"'max_tokens' must be <= {max_new_tokens_limit}, got {max_tokens}",
            param="max_tokens",
        )
    temperature = payload.get("temperature", 1.0)
    if isinstance(temperature, bool) or not isinstance(temperature, (int, float)):
        raise WireFormatError(
            f"'temperature' must be a number, got {temperature!r}", param="temperature"
        )
    if not (temperature > 0) or not math.isfinite(temperature):
        raise WireFormatError(
            f"'temperature' must be a finite number > 0, got {temperature}",
            param="temperature",
        )
    top_k = _wire_int(payload, "top_k", 1, minimum=1)
    seed = _wire_int(payload, "seed", 0, minimum=0)
    stop_on_special = _wire_bool(payload, "stop_on_special", True)
    slo_class = default_slo_class
    if "slo_class" in payload:
        slo_class = payload["slo_class"]
        if slo_class not in SLO_CLASSES:
            names = ", ".join(SLO_CLASSES)
            raise WireFormatError(
                f"'slo_class' must be one of: {names}; got {slo_class!r}",
                param="slo_class",
            )
    stop_ids = payload.get("stop_token_ids", ())
    if not isinstance(stop_ids, (list, tuple)) or any(
        isinstance(item, bool) or not isinstance(item, int) or item < 0
        for item in stop_ids
    ):
        raise WireFormatError(
            f"'stop_token_ids' must be a list of non-negative integers, "
            f"got {stop_ids!r}",
            param="stop_token_ids",
        )

    return GenerationRequest(
        context,
        query,
        max_new_tokens=max_tokens,
        backend=backend,
        sampling=SamplingParams(
            top_k=top_k, temperature=float(temperature), seed=seed
        ),
        stop_on_special=stop_on_special,
        extra_stop_ids=tuple(stop_ids),
        slo_class=slo_class,
        request_id=request_id,
    )


def result_to_wire(result: GenerationResult) -> dict:
    """The OpenAI-style completion object of a finished request.

    ``usage`` reports measured token counts; ``stats`` carries this
    engine's serving latencies (seconds) for clients that want them.
    """
    stats = result.stats
    return {
        "id": result.request_id,
        "object": "text_completion",
        "model": result.backend,
        "choices": [
            {
                "index": 0,
                "text": result.answer_text,
                "token_ids": list(result.token_ids),
                "finish_reason": result.stopped_by,
            }
        ],
        "usage": {
            "prompt_tokens": result.n_prompt_tokens,
            "completion_tokens": len(result.token_ids),
            "total_tokens": result.n_prompt_tokens + len(result.token_ids),
        },
        "stats": {
            "queue_seconds": stats.queue_seconds,
            "ttft_seconds": stats.ttft_seconds,
            "tpot_seconds": stats.tpot_seconds,
            "total_seconds": stats.total_seconds,
            "n_preemptions": stats.n_preemptions,
            "n_pauses": stats.n_pauses,
            "cached_tokens": stats.cached_tokens,
            "prefill_reused_tokens": stats.prefill_reused_tokens,
            "tenant": stats.tenant,
            "slo_class": stats.slo_class,
        },
    }
