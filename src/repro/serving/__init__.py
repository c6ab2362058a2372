"""Serving-engine API: request objects, streaming decode, continuous batching.

* :mod:`repro.serving.request` — :class:`GenerationRequest` /
  :class:`GenerationResult` / :class:`TokenEvent` / :class:`SamplingParams`
  / :class:`RequestStats`.
* :mod:`repro.serving.backends` — the pluggable :class:`DecodeBackend`
  registry (``"dense"``, ``"blockwise"``, ``"cocktail"`` and the baseline
  method names) built on the shared
  :class:`~repro.model.decode.DecodeSession` step abstraction.
* :mod:`repro.serving.scheduler` — FIFO admission, per-step round-robin
  decode over in-flight sequences and capacity-aware swap preemption.
* :mod:`repro.serving.engine` — :class:`InferenceEngine` with ``submit()`` /
  ``step()`` / ``stream()`` / ``run()`` / ``run_batch()``: every request is
  admitted through one scratch prefill, in the step that admits it, and
  served out of a shared paged :class:`~repro.kvpool.BlockPool` with
  actually-packed quantized context storage.
* :mod:`repro.serving.adaptive` — :class:`SloPolicy`, opt-in
  priority-class admission and deadline-aware preemption.
* :mod:`repro.serving.sharded` — data-parallel execution:
  :class:`ShardedEngine` fronts N private engine workers behind the
  single-core protocol, with a :class:`ShardRouter` placing each request
  by longest prefix match (router-side :class:`GlobalPrefixIndex` over
  the chained block hashes) and load tiebreaks, plus worker-failure
  draining and re-dispatch.
* :mod:`repro.serving.server` — the asyncio multi-tenant HTTP/SSE front
  door over one stepping :class:`~repro.serving.engine.EngineCore` (or a
  whole sharded pool via ``engine_factory``): streaming with bounded
  backpressure, API-key tenants with quotas, and cancel-on-disconnect
  (imported on demand; nothing here depends on it).
"""

from repro.serving.adaptive import SloPolicy
from repro.serving.backends import (
    DecodeBackend,
    PrefillJob,
    PreparedSequence,
    QuantizedDenseBackend,
    backend_names,
    build_quantization_request,
    create_backend,
    prompt_token_ids,
    register_backend,
)
from repro.serving.engine import EngineCore, ExecutionStats, InferenceEngine
from repro.serving.request import (
    SLO_CLASSES,
    GenerationRequest,
    GenerationResult,
    RequestStats,
    SamplingParams,
    TokenEvent,
    WireFormatError,
    request_from_wire,
    result_to_wire,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, SequenceState
from repro.serving.sharded import (
    GlobalPrefixIndex,
    ShardRouter,
    ShardWorker,
    ShardedEngine,
)

__all__ = [
    "InferenceEngine",
    "EngineCore",
    "ExecutionStats",
    "WireFormatError",
    "request_from_wire",
    "result_to_wire",
    "PrefillJob",
    "GenerationRequest",
    "GenerationResult",
    "RequestStats",
    "SamplingParams",
    "TokenEvent",
    "DecodeBackend",
    "QuantizedDenseBackend",
    "PreparedSequence",
    "register_backend",
    "backend_names",
    "create_backend",
    "build_quantization_request",
    "prompt_token_ids",
    "ContinuousBatchingScheduler",
    "SequenceState",
    "ShardedEngine",
    "ShardRouter",
    "ShardWorker",
    "GlobalPrefixIndex",
    "SloPolicy",
    "SLO_CLASSES",
]
