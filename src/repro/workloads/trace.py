"""Trace objects of the synthetic workload harness.

A :class:`WorkloadTrace` is a deterministic, seed-reproducible description
of one traffic scenario: an ordered list of :class:`WorkloadRequest`
arrivals, each carrying everything a driver needs to fire it at an engine
or a live HTTP server — prompt words, decode budget, backend, sampling
policy, SLO class, tenant, and (for adversarial scenarios) a client-side
cancel point and reconnect linkage.

What makes a trace *self-checking* rather than merely load-making is the
per-request :class:`Oracle`: the expected greedy (or seeded-sampled)
output, the structural floor on prefix-cache block hits, and the expected
token accounting.  Oracles are stamped by
:func:`repro.workloads.generator.attach_oracles`, which replays the trace
sequentially through an unpressured reference engine — by the engine's
bit-identity guarantees, *any* concurrent, preempted or
quantization-mixed execution of the same trace must reproduce those
outputs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

from repro.serving.request import GenerationRequest, SamplingParams

#: Backends whose packed context pages can be adopted across requests that
#: share a *token prefix* regardless of the query: their per-token bitwidths
#: are constant, so the chained page hashes depend on the tokens alone.
CONSTANT_BITS_BACKENDS = frozenset({"fp16"})

#: Prefix-sharing families: two requests can only ever adopt each other's
#: pages when their backends map to the same family (see
#: ``KVCacheQuantizer.reuse_fingerprint``).  ``dense``, ``cocktail`` and
#: ``blockwise`` share one token-local fingerprint; everything else keeps
#: its own page family; backends absent here never share.
PREFIX_FAMILIES = {
    "dense": "cocktail",
    "cocktail": "cocktail",
    "blockwise": "cocktail",
    "fp16": "fp16",
    "atom": "atom",
    "kivi": "kivi",
    "kvquant": "kvquant",
}


@dataclass
class Oracle:
    """Expected outcome of one trace request, attached by sequential replay.

    ``token_ids`` is the full uncancelled decode — a request the client
    disconnects after ``k`` tokens must have streamed exactly
    ``token_ids[:k_observed]`` for some prefix length; a survivor must
    match bit-for-bit, including ``stopped_by``.  ``min_hit_blocks`` is a
    *structural* floor on ``RequestStats.cache_hit_blocks``, derived from
    the trace alone (shared token prefixes × page size × backend sharing
    rules) and verified against the replay when stamped; it holds in any
    run whose prefix index is not capacity-evicting.
    """

    token_ids: list[int]
    stopped_by: str
    text: str
    #: Structural floor on prefix-cache page hits (0 = no guarantee).
    min_hit_blocks: int = 0
    #: Page hits the sequential replay actually observed (>= the floor).
    replay_hit_blocks: int = 0

    def to_payload(self) -> dict:
        return {
            "token_ids": list(self.token_ids),
            "stopped_by": self.stopped_by,
            "text": self.text,
            "min_hit_blocks": self.min_hit_blocks,
            "replay_hit_blocks": self.replay_hit_blocks,
        }


@dataclass
class WorkloadRequest:
    """One arrival of a workload trace.

    ``arrival`` is in abstract driver clock units (engine steps under the
    virtual clock, scaled seconds over HTTP).  ``depends_on`` names an
    earlier request of the same trace that must *finish* before this one
    may be submitted (multi-turn conversations, reconnects) — its
    effective arrival is ``max(arrival, finish(dep) + think_time)``.
    ``cancel_after_tokens`` models a client that disconnects after
    streaming that many tokens; ``reconnect_of`` marks the retry of a
    previously cancelled request.
    """

    key: str
    arrival: float
    context_words: tuple[str, ...]
    query_words: tuple[str, ...]
    max_new_tokens: int = 8
    backend: str = "dense"
    top_k: int = 1
    temperature: float = 1.0
    sampling_seed: int = 0
    stop_on_special: bool = True
    slo_class: str = "interactive"
    tenant: str | None = None
    cancel_after_tokens: int | None = None
    reconnect_of: str | None = None
    depends_on: str | None = None
    think_time: float = 0.0
    oracle: Oracle | None = None

    def __post_init__(self) -> None:
        self.context_words = tuple(self.context_words)
        self.query_words = tuple(self.query_words)
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.cancel_after_tokens is not None and self.cancel_after_tokens < 1:
            raise ValueError(
                f"cancel_after_tokens must be >= 1, got {self.cancel_after_tokens}"
            )

    @property
    def n_prompt_tokens(self) -> int:
        """Prompt length (context + separator + query) without tokenizing."""
        return len(self.context_words) + 1 + len(self.query_words)

    @property
    def is_greedy(self) -> bool:
        return self.top_k == 1

    def to_request(self, *, request_id: str | None = None) -> GenerationRequest:
        """A fresh engine request for one submission of this arrival.

        A new object every call: the engine stamps ``request_id`` onto the
        request it is given, so replays and reconnects must never share
        one mutable instance.
        """
        return GenerationRequest(
            self.context_words,
            self.query_words,
            max_new_tokens=self.max_new_tokens,
            backend=self.backend,
            sampling=SamplingParams(
                top_k=self.top_k,
                temperature=self.temperature,
                seed=self.sampling_seed,
            ),
            stop_on_special=self.stop_on_special,
            slo_class=self.slo_class,
            request_id=request_id,
        )

    def to_wire(self) -> dict:
        """The ``/v1/completions`` JSON payload of this arrival."""
        return {
            "context": list(self.context_words),
            "query": list(self.query_words),
            "max_tokens": self.max_new_tokens,
            "backend": self.backend,
            "top_k": self.top_k,
            "temperature": self.temperature,
            "seed": self.sampling_seed,
            "stop_on_special": self.stop_on_special,
            "slo_class": self.slo_class,
        }

    def to_payload(self) -> dict:
        """JSON-ready dump (determinism fingerprints, debugging)."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "oracle":
                value = value.to_payload() if value is not None else None
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload


@dataclass
class WorkloadTrace:
    """One scenario's deterministic arrival sequence plus its metadata.

    ``requests`` are ordered by submission precedence: ascending arrival
    time, with every ``depends_on`` target preceding its dependents.
    ``metadata`` records the generator knobs that produced the trace.
    """

    scenario: str
    seed: int
    requests: list[WorkloadRequest] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for request in self.requests:
            if request.key in seen:
                raise ValueError(f"duplicate request key {request.key!r}")
            if request.depends_on is not None and request.depends_on not in seen:
                raise ValueError(
                    f"request {request.key!r} depends on {request.depends_on!r}, "
                    "which does not precede it in the trace"
                )
            seen.add(request.key)

    def __iter__(self) -> Iterator[WorkloadRequest]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def by_key(self, key: str) -> WorkloadRequest:
        for request in self.requests:
            if request.key == key:
                return request
        raise KeyError(f"no request {key!r} in trace {self.scenario!r}")

    @property
    def has_oracles(self) -> bool:
        return all(request.oracle is not None for request in self.requests)

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "metadata": self.metadata,
            "requests": [request.to_payload() for request in self.requests],
        }


def prefix_family(backend: str) -> str | None:
    """The page-sharing family of ``backend`` (``None`` = never shares)."""
    return PREFIX_FAMILIES.get(backend.lower())


def _common_prefix(a: Sequence[str], b: Sequence[str]) -> int:
    n = 0
    for wa, wb in zip(a, b):
        if wa != wb:
            break
        n += 1
    return n


def stamp_hit_floors(trace: WorkloadTrace, *, block_size: int) -> dict[str, int]:
    """Structural per-request floors on prefix-cache page hits.

    For each request, the floor is the longest context-token prefix it is
    *guaranteed* to adopt — which restricts donors to the request's
    ``depends_on`` ancestor closure: only those requests have provably
    finished (and therefore published their full context pages) before
    this one is submitted, under **any** schedule, concurrent or
    sequential.  An arrival without dependencies may still hit in
    practice; its guarantee is 0.

    A dependency ancestor donates when either:

    * it has the identical ``(context, query, backend)`` — the whole
      deterministic quantization plan matches, so every full context page
      is adoptable (the reconnect case);
    * the adopter uses a constant-bitwidth backend (``fp16``) in the same
      sharing family — page hashes then depend on tokens alone, so any
      shared *token prefix* is adoptable even across different queries
      (multi-turn growth, shared-system-prompt fleets).

    Only full pages count (``len // block_size``): pages straddling the
    context boundary are never indexed.  The floor assumes the prefix
    index is not capacity-evicting, which
    :func:`~repro.workloads.generator.attach_oracles` verifies against a
    sequential replay before stamping it into each oracle.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    by_key = {request.key: request for request in trace.requests}
    floors: dict[str, int] = {}
    for request in trace.requests:
        family = prefix_family(request.backend)
        best = 0
        ancestors: list[WorkloadRequest] = []
        dep = request.depends_on
        while dep is not None:
            ancestor = by_key[dep]
            ancestors.append(ancestor)
            dep = ancestor.depends_on
        if family is not None:
            for earlier in ancestors:
                if prefix_family(earlier.backend) != family:
                    continue
                exact = (
                    earlier.context_words == request.context_words
                    and earlier.query_words == request.query_words
                    and earlier.backend.lower() == request.backend.lower()
                )
                if exact:
                    shared = len(request.context_words)
                elif request.backend.lower() in CONSTANT_BITS_BACKENDS:
                    shared = _common_prefix(
                        earlier.context_words, request.context_words
                    )
                    # The donor only indexed its own full context pages.
                    shared = min(shared, len(earlier.context_words))
                else:
                    continue
                best = max(best, shared // block_size)
        floors[request.key] = best
    return floors
