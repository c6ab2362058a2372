"""Seeded workload generation and oracle stamping.

:class:`WorkloadGenerator` is the front door of the harness: given a pool
of dataset samples, ``generate(scenario, seed)`` builds a deterministic
:class:`~repro.workloads.trace.WorkloadTrace` (same inputs → identical
trace, down to the last arrival gap), and :func:`attach_oracles` makes the
trace self-checking by replaying it sequentially through an unpressured
reference engine.

Why a sequential replay is a valid oracle for *any* execution: the engine
guarantees bit-identical outputs regardless of batching, preemption, KV
swapping or prefix adoption, and every sampled request
carries an explicit per-request seed.  So the outputs of a quiet,
one-at-a-time run are exactly what a chaotic concurrent run of the same
trace must produce — token for token.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.datasets.base import LongContextSample
from repro.utils.rng import derive_rng
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.trace import WorkloadTrace, Oracle, stamp_hit_floors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.serving.engine import InferenceEngine


class WorkloadGenerator:
    """Deterministic trace factory over a fixed pool of dataset samples.

    Parameters
    ----------
    samples:
        The long-context samples scenarios draw prompts from.  The pool is
        part of the determinism contract: same samples + same seed →
        byte-identical trace.
    block_size:
        KV page size of the target engine; used to stamp structural
        prefix-hit floors.
    """

    def __init__(
        self,
        samples: Sequence[LongContextSample],
        *,
        block_size: int = 16,
    ):
        if not samples:
            raise ValueError("WorkloadGenerator needs at least one sample")
        self.samples = list(samples)
        self.block_size = block_size

    @property
    def scenario_names(self) -> list[str]:
        return sorted(SCENARIOS)

    def generate(self, scenario: str, seed: int, **overrides) -> WorkloadTrace:
        """Build the deterministic trace of ``scenario`` at ``seed``.

        ``overrides`` are forwarded to the scenario builder (request
        counts, rates, context ranges, ...), so tests can shrink a shape
        without losing reproducibility — the overrides become part of the
        trace's metadata.
        """
        try:
            builder = SCENARIOS[scenario]
        except KeyError:
            raise ValueError(
                f"unknown scenario {scenario!r}; "
                f"available: {', '.join(self.scenario_names)}"
            ) from None
        rng = derive_rng(seed, "workload", scenario)
        requests, metadata = builder(self.samples, rng, **overrides)
        metadata = dict(metadata)
        metadata["overrides"] = {k: repr(v) for k, v in sorted(overrides.items())}
        trace = WorkloadTrace(
            scenario=scenario, seed=seed, requests=requests, metadata=metadata
        )
        floors = stamp_hit_floors(trace, block_size=self.block_size)
        trace.metadata["hit_floor_total"] = sum(floors.values())
        trace.metadata["_hit_floors"] = floors
        return trace


def assign_tenants(trace: WorkloadTrace, names: Sequence[str]) -> WorkloadTrace:
    """Round-robin the trace's requests across ``names`` (in place).

    Traffic shape and tenancy are orthogonal knobs: any scenario can be
    replayed through a :class:`TenantRegistry` by spreading its arrivals
    over registered tenants, with a reconnect pinned to the tenant of the
    attempt it retries.
    """
    if not names:
        raise ValueError("assign_tenants needs at least one tenant name")
    for i, request in enumerate(trace.requests):
        if request.reconnect_of is not None:
            request.tenant = trace.by_key(request.reconnect_of).tenant
        else:
            request.tenant = names[i % len(names)]
    return trace


def attach_oracles(trace: WorkloadTrace, engine: "InferenceEngine") -> WorkloadTrace:
    """Stamp every request's oracle by sequential replay on ``engine``.

    ``engine`` must be a *reference* instance: fresh, unpressured (ample
    pool, no forced preemption) and with prefix caching enabled, built
    over the same model/tokenizer the measured run will use.  Each request
    is run to completion one at a time in trace order — cancels are NOT
    applied, so the oracle holds the full decode and cancelled runs check
    a prefix of it.

    Besides recording outputs, the replay is a self-check of the
    structural hit floors: a floor the quiet sequential run cannot meet
    would be unsound to assert under load, so we fail loudly here rather
    than ship a lying oracle.
    """
    floors = trace.metadata.get("_hit_floors") or stamp_hit_floors(
        trace, block_size=engine.pool.block_size
    )
    for request in trace.requests:
        result = engine.run(request.to_request(), pop=True)
        floor = floors.get(request.key, 0)
        hit = result.stats.cache_hit_blocks
        if hit < floor:
            raise AssertionError(
                f"oracle replay of {trace.scenario!r}/{request.key!r} hit "
                f"{hit} prefix blocks, below the structural floor {floor}"
            )
        request.oracle = Oracle(
            token_ids=list(result.token_ids),
            stopped_by=result.stopped_by,
            text=result.answer_text,
            min_hit_blocks=floor,
            replay_hit_blocks=hit,
        )
    return trace
