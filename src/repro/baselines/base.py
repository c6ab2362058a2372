"""Common interface of all KV-cache quantization methods.

A method is asked two things:

1. :meth:`KVCacheQuantizer.plan` — given the request (context length, chunk
   texts, query, and read access to the freshly prefilled cache), decide the
   per-token bitwidth assignment, whether same-precision regions end up
   physically contiguous, and how expensive the decision process itself is
   (the "quantization search" latency the paper discusses).
2. :meth:`KVCacheQuantizer.apply` — execute the quantization numerics on the
   cache.  The accuracy simulator uses the quantize-then-dequantize view
   ("fake quantization"), which is numerically identical to what a fused
   dequantizing kernel computes.

The plan alone is enough for the analytic hardware model (memory, TPOT,
throughput); the apply step is what drives the accuracy experiments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.model.kv_cache import ModelKVCache
from repro.quant.dtypes import BitWidth


@dataclass
class QuantizationRequest:
    """Everything a method may consult when planning quantization."""

    context_len: int
    chunk_size: int
    chunk_texts: list[str]
    chunk_spans: list[tuple[int, int]]
    tail_span: tuple[int, int] | None
    query_text: str
    cache: ModelKVCache | None = None

    @property
    def n_chunks(self) -> int:
        """Number of full chunks (the tail is not a chunk)."""
        return len(self.chunk_spans)


@dataclass
class KVQuantizationPlan:
    """Outcome of a method's quantization search.

    Attributes
    ----------
    method:
        Method name.
    context_len:
        Number of context tokens covered by the plan.
    token_bits:
        Per-token bitwidth (integer bits: 2, 4, 8 or 16).
    reordered:
        Whether same-precision tokens are contiguous in physical memory
        after this method's layout step (uniform methods are trivially
        contiguous; Cocktail reorders; KVQuant's token-level interleaving is
        not contiguous).
    permutation:
        Optional token permutation (new order -> original index) used to
        make precision groups contiguous.
    search_seconds:
        Modeled host/GPU-side latency of the quantization search itself,
        charged once per request by the throughput model.
    details:
        Free-form method-specific information (chunk bitwidths, thresholds,
        similarity scores, ...).
    """

    method: str
    context_len: int
    token_bits: np.ndarray
    reordered: bool
    permutation: np.ndarray | None = None
    search_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.token_bits = np.asarray(self.token_bits, dtype=np.int64)
        if self.token_bits.shape != (self.context_len,):
            raise ValueError(
                f"token_bits must have shape ({self.context_len},), got {self.token_bits.shape}"
            )
        valid = {int(b) for b in BitWidth}
        present = set(np.unique(self.token_bits).tolist())
        if not present <= valid:
            raise ValueError(f"invalid bitwidths in plan: {sorted(present - valid)}")
        if self.permutation is not None:
            self.permutation = np.asarray(self.permutation, dtype=np.int64)
            if sorted(self.permutation.tolist()) != list(range(self.context_len)):
                raise ValueError("permutation must be a permutation of the context tokens")

    def bit_fractions(self) -> dict[BitWidth, float]:
        """Fraction of context tokens stored at each bitwidth."""
        if self.context_len == 0:
            return {}
        fractions: dict[BitWidth, float] = {}
        for bits in BitWidth:
            count = int(np.sum(self.token_bits == int(bits)))
            if count:
                fractions[bits] = count / self.context_len
        return fractions

    def mean_bits(self) -> float:
        """Average storage bits per context token (payload only)."""
        if self.context_len == 0:
            return 0.0
        return float(np.mean(self.token_bits))

    def n_precision_runs(self) -> int:
        """Number of maximal same-precision runs in physical token order."""
        if self.context_len == 0:
            return 0
        order = self.token_bits
        if self.permutation is not None and self.reordered:
            order = self.token_bits[self.permutation]
        return int(1 + np.sum(order[1:] != order[:-1]))


class KVCacheQuantizer(abc.ABC):
    """Interface shared by the baselines and Cocktail."""

    #: Machine name used by registries and reports.
    name: str = "quantizer"
    #: Name as printed in the paper's tables.
    display_name: str = "Quantizer"
    #: Whether :meth:`plan` reads ``request.cache`` (KVQuant ranks outlier
    #: tokens by the prefilled K magnitudes).  Such a plan — and the page
    #: hashes derived from its bitwidths — exists only after prefill, so the
    #: serving engine neither probes nor routes these requests ahead of it;
    #: every other method is planned once, before prefill, from the texts.
    plan_reads_cache: bool = False

    @abc.abstractmethod
    def plan(self, request: QuantizationRequest) -> KVQuantizationPlan:
        """Decide the per-token precision assignment for a request."""

    @abc.abstractmethod
    def apply(self, cache: ModelKVCache, plan: KVQuantizationPlan) -> None:
        """Quantize the context region of ``cache`` in place (fake-quant view).

        The serving engine only calls this on a request's dense prefill
        scratch, and only for methods without a packed encoder (see
        :meth:`encode_context`).
        """

    def encode_context(self, cache, plan: KVQuantizationPlan, *, start: int = 0):
        """Packed-storage encodings of the context region, or ``None``.

        Returns one ``(K, V)`` pair of
        :class:`~repro.kvpool.codecs.TensorEncoding` per layer whose decoded
        floats equal :meth:`apply`'s fake-quant output bit for bit — this is
        what the paged KV cache stores as actually-packed codes + scales.
        The default returns ``None``, telling the serving backend to fall
        back to :meth:`apply` on the prefill scratch (the context pages then
        hold the fake-quantized floats at full precision, so correctness
        never depends on a method shipping an encoder).

        ``start`` is the prefix-reuse hook: the leading ``start`` rows were
        matched in the serving engine's prefix index and adopted already
        packed, so encoders skip the quantization work for them wherever
        the numerics are token-local (the encodings still span the full
        context; the skipped code rows are simply blank).
        """
        del cache, plan, start
        return None

    def reuse_fingerprint(
        self, plan: KVQuantizationPlan, context_token_ids: Sequence[int]
    ) -> str | None:
        """Key scoping which requests may share this method's packed pages.

        Two requests can reuse each other's context pages only when the
        stored bytes are guaranteed identical.  The chained block hashes
        (:func:`repro.kvpool.prefix.block_hashes`) already cover the token
        ids and per-token bitwidths of every page and its whole prefix; the
        fingerprint must cover **everything else** the bytes depend on —
        method numerics, group sizes, and (for codecs fitted across the
        whole context, like KIVI's per-channel scales) the full context
        itself.  ``None`` means the method's pages are never shared, which
        is the safe default for quantizers that do not declare their
        storage dependencies.
        """
        del plan, context_token_ids
        return None

    def plan_and_apply(
        self, request: QuantizationRequest, cache: ModelKVCache
    ) -> KVQuantizationPlan:
        """Convenience: plan against ``request`` and apply to ``cache``."""
        plan = self.plan(request)
        self.apply(cache, plan)
        return plan


def uniform_token_bits(context_len: int, bits: BitWidth | int) -> np.ndarray:
    """Per-token bit array with a single uniform bitwidth."""
    return np.full(context_len, int(bits), dtype=np.int64)


def expand_chunk_bits_to_tokens(
    chunk_spans: Sequence[tuple[int, int]],
    chunk_bits: Sequence[BitWidth | int],
    context_len: int,
    *,
    tail_bits: BitWidth | int = BitWidth.FP16,
) -> np.ndarray:
    """Expand per-chunk bitwidths to a per-token bit array.

    Tokens not covered by any chunk (the non-divisible tail) receive
    ``tail_bits`` (FP16 by default, as in the paper).
    """
    if len(chunk_spans) != len(chunk_bits):
        raise ValueError("chunk_spans and chunk_bits must have equal length")
    token_bits = np.full(context_len, int(tail_bits), dtype=np.int64)
    for (start, end), bits in zip(chunk_spans, chunk_bits):
        if not 0 <= start <= end <= context_len:
            raise ValueError(f"chunk span ({start}, {end}) outside context of {context_len}")
        token_bits[start:end] = int(bits)
    return token_bits
