"""The one adapter between the harness and the system under test.

Everything the benchmark needs from ``repro`` is imported here and nowhere
else in the harness (the tracer resolves its targets by dotted name), so a
refactor of the serving stack has one file's worth of surface to keep
working.  The stack is built with production defaults — paged pool, batched
decode, swap preemption, no speculation, no ``fast_math`` — and only
``lexicon=``, ``max_running=`` and ``prefix_cache_blocks=`` are passed.
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> str:
    """Pin BLAS to one thread and put ``src/`` on the path; returns the pin.

    Must run before NumPy is first imported: the box has two cores, and a
    BLAS pool competing with the load generator for them is a noise source
    the benchmark can switch off.
    """
    threads = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"benchmark needs the program's sources at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return threads


def pin_malloc_arena() -> None:
    """Hold glibc malloc to one arena, before any thread starts.

    With per-thread arenas the peak RSS of identical ``http_stream`` work
    came out at either 234 or 299 MB, depending on which thread allocated
    first.  Called from the command line only, never on import.
    """
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError):
        pass  # not glibc: nothing to pin


#: API keys of the two tenants the HTTP workload alternates between.
TENANT_KEYS = {"tenant-a": "bench-key-a", "tenant-b": "bench-key-b"}


@dataclass
class Stack:
    """One engine instance plus the word-level objects inputs are built from."""

    vocab: object
    tokenizer: object
    engine: object

    @property
    def pool(self):
        return self.engine.pool

    def stop_ids(self) -> tuple[int, int]:
        return (self.tokenizer.eos_id, self.tokenizer.sep_id)

    def engine_request(self, request):
        """The program's request object for one generated harness request."""
        from repro import GenerationRequest

        return GenerationRequest(
            request.context,
            request.query,
            max_new_tokens=request.max_new_tokens,
            backend=request.backend,
            stop_on_special=request.stop_on_special,
        )

    def prefill_flops(self, n_tokens: int) -> float:
        """Floating-point operations of one prefill of ``n_tokens``, computed.

        Projections, the full (unmasked) score and value matmuls the kernel
        runs, the MLP, and the last row's logits; from the model config, not
        from a counter.
        """
        c = self.engine.model.config
        kv_width = c.n_kv_heads * c.head_dim
        per_layer = (
            2 * n_tokens * c.d_model * (2 * c.d_model + 2 * kv_width)
            + 4 * n_tokens * n_tokens * c.d_model
            + 6 * n_tokens * c.d_model * c.d_ff
        )
        return c.n_layers * per_layer + 2 * c.d_model * c.vocab_size

    def server_core(self):
        """A started ``ServerCore`` over this stack's engine, two tenants."""
        from repro.serving.server import ServerCore, TenantRegistry, TenantSpec

        tenants = TenantRegistry(
            TenantSpec(name, api_key=key) for name, key in TENANT_KEYS.items()
        )
        return ServerCore(self.engine, tenants=tenants).start()

    def http_server(self, core):
        """The (unstarted) HTTP/SSE front door over ``core``."""
        from repro.serving.server import ServingServer

        return ServingServer(core)


def build_vocabulary():
    from repro.datasets.longbench import build_vocabulary

    return build_vocabulary()


def build_stack(vocab, *, max_running: int, prefix_cache_blocks: int) -> Stack:
    from repro import CocktailConfig, InferenceEngine
    from repro.evaluation.setup import build_model, build_tokenizer

    tokenizer = build_tokenizer(vocab)
    model = build_model("llama2-7b", tokenizer)
    engine = InferenceEngine(
        model,
        tokenizer,
        CocktailConfig(),
        lexicon=vocab.lexicon,
        max_running=max_running,
        prefix_cache_blocks=prefix_cache_blocks,
    )
    return Stack(vocab, tokenizer, engine)


def sample_generator(vocab, *, n_words: int, seed: int, answer_words=(4, 7)):
    """Seeded long-context QA samples from a spec pinned here, not in ``repro``.

    Answers are short enough for the gold phrase to fit the workload's token
    budget; fact counts scale with the document so short contexts are not
    all facts and long ones are not all filler.  The spec's name feeds the
    sample RNG, so documents of different lengths share no content.
    """
    from repro.datasets.base import DatasetSpec
    from repro.datasets.generator import SampleGenerator

    spec = DatasetSpec(
        name=f"e2e-{n_words}",
        display_name="e2e",
        task="Single-Document QA",
        metric="f1",
        n_context_words=n_words,
        answer_length=answer_words,
        n_related_facts=1 if n_words < 256 else 2,
        n_distractor_facts=n_words // 96,
        n_trap_chunks=n_words // 384,
    )
    return SampleGenerator(vocab, spec, seed=seed)


def token_f1(prediction: str, reference: str) -> float:
    from repro.metrics import token_f1 as f1

    return f1(prediction, reference) / 100.0
