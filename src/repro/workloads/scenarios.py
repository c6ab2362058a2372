"""Scenario builders: traffic shapes the serving stack must survive.

Each builder turns ``(samples, rng, knobs)`` into an ordered list of
:class:`~repro.workloads.trace.WorkloadRequest` plus trace metadata.  The
shapes cover the load patterns the paper's serving experiments care about:

``poisson``
    Memoryless interactive arrivals over mixed quantization backends —
    the steady-state baseline every other shape is compared against.
``bursty``
    Thundering-herd volleys separated by idle valleys; punishes
    admission control and the preemption path.
``multi_turn``
    Conversations that re-submit a grown prefix each turn (previous
    context + query + gold answer), so consecutive turns must adopt the
    previous turn's packed pages from the :class:`PrefixCache`.
``shared_prefix``
    A fleet of agents over one shared system document with distinct
    queries — the classic shared-system-prompt workload; every follower
    carries a structural hit floor of ``len(context) // block_size``.
``long_prefill``
    A burst of long-document prefills in the ``batch`` SLO class: every
    admission prefills its whole prompt within one engine step.
``mixed``
    Short interactive chat interleaved with long batch documents and a
    sprinkle of seeded top-k sampling — the messy realistic blend.
``cancel_storm``
    Adversarial clients: a slice of requests disconnect mid-stream after
    a few tokens, and half of those reconnect with the identical prompt,
    which must then hit the pages their first attempt left behind.

Builders only *shape* traffic — oracles are stamped afterwards by
:func:`repro.workloads.generator.attach_oracles`.  Keep every knob
overridable via keyword so tests can shrink scenarios without editing
builders.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.datasets.base import LongContextSample
from repro.workloads.stats import burst_arrival_times, poisson_arrival_times
from repro.workloads.trace import WorkloadRequest

#: Default backend blend for mixed-quantization scenarios.  ``dense`` and
#: ``cocktail`` share a page family; ``fp16`` keeps its own; together they
#: exercise both sharing rules under load.
DEFAULT_BACKENDS = ("dense", "cocktail", "fp16")

ScenarioBuilder = Callable[..., tuple[list[WorkloadRequest], dict]]


def _sample(samples: Sequence[LongContextSample], rng: np.random.Generator):
    return samples[int(rng.integers(len(samples)))]


def _context(sample: LongContextSample, rng: np.random.Generator,
             lo: int, hi: int) -> tuple[str, ...]:
    n = int(rng.integers(lo, hi + 1))
    return tuple(sample.context_words[:n])


def build_poisson(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_requests: int = 12,
    rate: float = 1.5,
    context_range: tuple[int, int] = (32, 56),
    max_new_tokens: int = 8,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
) -> tuple[list[WorkloadRequest], dict]:
    """Memoryless interactive arrivals over a mixed backend blend."""
    arrivals = poisson_arrival_times(rng, rate, n_requests)
    requests = []
    for i, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        requests.append(WorkloadRequest(
            key=f"poisson-{i}",
            arrival=arrival,
            context_words=_context(sample, rng, *context_range),
            query_words=sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=backends[int(rng.integers(len(backends)))],
            slo_class="interactive",
        ))
    return requests, {"rate": rate, "n_requests": n_requests}


def build_bursty(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_bursts: int = 3,
    burst_size: int = 5,
    gap: float = 6.0,
    context_range: tuple[int, int] = (32, 56),
    max_new_tokens: int = 8,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
) -> tuple[list[WorkloadRequest], dict]:
    """Thundering-herd volleys with idle valleys between them."""
    arrivals = burst_arrival_times(rng, n_bursts, burst_size, gap)
    requests = []
    for i, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        requests.append(WorkloadRequest(
            key=f"burst-{i}",
            arrival=arrival,
            context_words=_context(sample, rng, *context_range),
            query_words=sample.query_words,
            max_new_tokens=max_new_tokens,
            backend=backends[int(rng.integers(len(backends)))],
            slo_class="interactive",
        ))
    return requests, {"n_bursts": n_bursts, "burst_size": burst_size, "gap": gap}


def build_multi_turn(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_conversations: int = 3,
    n_turns: int = 3,
    context_range: tuple[int, int] = (40, 56),
    max_new_tokens: int = 6,
    think_time: float = 1.0,
    rate: float = 0.8,
) -> tuple[list[WorkloadRequest], dict]:
    """Conversations whose context grows by the previous exchange each turn.

    Turn ``t+1`` re-submits turn ``t``'s context extended with turn
    ``t``'s query and the sample's gold answer words — deterministic at
    generation time, no model needed — so the grown prefix must adopt the
    previous turn's packed pages.  Turns use ``fp16``: constant bitwidths
    make cross-turn sharing a guarantee, not a coincidence of matching
    quantization plans.  ``depends_on`` chains each turn on its
    predecessor's finish so the pages exist before the follow-up probes.
    """
    arrivals = poisson_arrival_times(rng, rate, n_conversations)
    requests = []
    for c, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        context = list(_context(sample, rng, *context_range))
        prev_key: str | None = None
        for t in range(n_turns):
            # Distinct per-turn queries: the gold key plus a turn marker word.
            query = tuple(sample.query_words) + (f"turn{t}",)
            key = f"conv{c}-turn{t}"
            requests.append(WorkloadRequest(
                key=key,
                arrival=arrival,
                context_words=tuple(context),
                query_words=query,
                max_new_tokens=max_new_tokens,
                backend="fp16",
                slo_class="interactive",
                depends_on=prev_key,
                think_time=think_time if prev_key is not None else 0.0,
            ))
            context = context + list(query) + list(sample.answer_words)
            prev_key = key
    return requests, {"n_conversations": n_conversations, "n_turns": n_turns}


def build_shared_prefix(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    fleet_size: int = 6,
    context_len: int = 64,
    max_new_tokens: int = 6,
    rate: float = 2.0,
) -> tuple[list[WorkloadRequest], dict]:
    """An agent fleet over one shared system document, distinct queries.

    A leader packs the shared document first; every follower depends on
    the leader's finish and must therefore hit at least
    ``context_len // block_size`` cached pages under any schedule.
    ``fp16`` so the floor holds across *different* queries.
    """
    doc = samples[0]
    context = tuple(doc.context_words[:context_len])
    arrivals = poisson_arrival_times(rng, rate, fleet_size)
    requests = [WorkloadRequest(
        key="fleet-leader",
        arrival=0.0,
        context_words=context,
        query_words=tuple(doc.query_words),
        max_new_tokens=max_new_tokens,
        backend="fp16",
        slo_class="interactive",
    )]
    for i, arrival in enumerate(arrivals):
        probe = samples[int(rng.integers(len(samples)))]
        query = tuple(probe.query_words) + (f"agent{i}",)
        requests.append(WorkloadRequest(
            key=f"fleet-{i}",
            arrival=arrival,
            context_words=context,
            query_words=query,
            max_new_tokens=max_new_tokens,
            backend="fp16",
            slo_class="interactive",
            depends_on="fleet-leader",
        ))
    return requests, {"fleet_size": fleet_size, "context_len": context_len}


def build_long_prefill(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_requests: int = 4,
    context_range: tuple[int, int] = (160, 240),
    max_new_tokens: int = 4,
    jitter: float = 1.0,
) -> tuple[list[WorkloadRequest], dict]:
    """A volley of long-document prefills in the batch SLO class."""
    arrivals = burst_arrival_times(rng, 1, n_requests, 1.0, jitter=jitter)
    requests = []
    for i, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        requests.append(WorkloadRequest(
            key=f"prefill-{i}",
            arrival=arrival,
            context_words=_context(sample, rng, *context_range),
            query_words=sample.query_words,
            max_new_tokens=max_new_tokens,
            backend="dense",
            slo_class="batch",
        ))
    return requests, {"n_requests": n_requests}


def build_mixed(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_short: int = 8,
    n_long: int = 3,
    rate: float = 1.2,
    short_context: tuple[int, int] = (24, 48),
    long_context: tuple[int, int] = (140, 200),
    sampled_fraction: float = 0.25,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
) -> tuple[list[WorkloadRequest], dict]:
    """Short interactive chat blended with long batch documents.

    A ``sampled_fraction`` of the short requests use seeded top-k
    sampling (``top_k=3``) — still deterministic thanks to the per-request
    sampling seed, so the oracle stays bit-exact.
    """
    arrivals = poisson_arrival_times(rng, rate, n_short + n_long)
    long_slots = set(
        int(i) for i in rng.choice(n_short + n_long, size=n_long, replace=False)
    )
    requests = []
    for i, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        if i in long_slots:
            requests.append(WorkloadRequest(
                key=f"mixed-{i}",
                arrival=arrival,
                context_words=_context(sample, rng, *long_context),
                query_words=sample.query_words,
                max_new_tokens=4,
                backend="dense",
                slo_class="batch",
            ))
        else:
            sampled = rng.random() < sampled_fraction
            requests.append(WorkloadRequest(
                key=f"mixed-{i}",
                arrival=arrival,
                context_words=_context(sample, rng, *short_context),
                query_words=sample.query_words,
                max_new_tokens=8,
                backend=backends[int(rng.integers(len(backends)))],
                top_k=3 if sampled else 1,
                temperature=0.8 if sampled else 1.0,
                sampling_seed=int(rng.integers(2**31)) if sampled else 0,
                slo_class="interactive",
            ))
    return requests, {"n_short": n_short, "n_long": n_long}


def build_cancel_storm(
    samples: Sequence[LongContextSample],
    rng: np.random.Generator,
    *,
    n_requests: int = 10,
    rate: float = 2.5,
    cancel_fraction: float = 0.5,
    reconnect_fraction: float = 0.5,
    context_range: tuple[int, int] = (32, 56),
    max_new_tokens: int = 10,
    think_time: float = 0.5,
) -> tuple[list[WorkloadRequest], dict]:
    """Disconnect churn: cancels mid-stream, then reconnects re-ask.

    A ``cancel_fraction`` slice of the base requests disconnect after a
    few streamed tokens; ``reconnect_fraction`` of those come back with
    the *identical* prompt (same backend), which must adopt whatever full
    context pages the aborted attempt packed — the floor the reconnect
    oracle checks.  Reconnects use ``dense`` to also exercise the
    identical-plan sharing rule, not just constant-bits ``fp16``.
    """
    arrivals = poisson_arrival_times(rng, rate, n_requests)
    requests = []
    reconnects = []
    for i, arrival in enumerate(arrivals):
        sample = _sample(samples, rng)
        cancelled = rng.random() < cancel_fraction
        base = WorkloadRequest(
            key=f"storm-{i}",
            arrival=arrival,
            context_words=_context(sample, rng, *context_range),
            query_words=sample.query_words,
            max_new_tokens=max_new_tokens,
            backend="dense",
            slo_class="interactive",
            cancel_after_tokens=int(rng.integers(1, 4)) if cancelled else None,
        )
        requests.append(base)
        if cancelled and rng.random() < reconnect_fraction:
            reconnects.append(WorkloadRequest(
                key=f"storm-{i}-retry",
                arrival=arrival,
                context_words=base.context_words,
                query_words=base.query_words,
                max_new_tokens=max_new_tokens,
                backend=base.backend,
                slo_class="interactive",
                reconnect_of=base.key,
                depends_on=base.key,
                think_time=think_time,
            ))
    requests.extend(reconnects)
    return requests, {
        "n_requests": n_requests,
        "n_cancelled": sum(1 for r in requests if r.cancel_after_tokens),
        "n_reconnects": len(reconnects),
    }


#: Scenario registry: every shape the matrix tests and benches iterate over.
SCENARIOS: dict[str, ScenarioBuilder] = {
    "poisson": build_poisson,
    "bursty": build_bursty,
    "multi_turn": build_multi_turn,
    "shared_prefix": build_shared_prefix,
    "long_prefill": build_long_prefill,
    "mixed": build_mixed,
    "cancel_storm": build_cancel_storm,
}
