"""Multi-head attention with KV caching.

Supports grouped-query attention (GQA), causal masking, RoPE or table
positional encodings, prefill over a block of tokens and single-token decode
against a layer cache.  The cache argument is duck-typed: anything exposing
``append``/``keys``/``values`` works, which is how the same attention code
drives both the dense :class:`~repro.model.kv_cache.LayerKVCache` and the
pool-backed :class:`~repro.kvpool.cache.PagedLayerView` (whose
``kv_mirrors`` serves packed context pages dequantized, head-major).

Decode hot-path notes
---------------------
A decode step is one query row at the last position, and everything on
that path is bit-preserving — the same GEMMs/ufuncs on the same operand
values, with fewer kernel launches and allocations:

- the strictly-causal case skips masking entirely (the mask is
  all-``False`` there, so ``np.where`` was a full-size copy that changed
  nothing);
- caches may expose ``kv_mirrors()`` returning head-major transposed K/V
  views maintained incrementally (see ``PagedLayerView``), which replaces
  both per-call transpose copies with buffer reuse (GQA repeats the
  mirrors' heads instead of transposing repeated rows);
- the q/k/v projections of one token run as a single GEMM against the
  concatenated ``[Wq | Wk | Wv]`` weight (sgemm computes each output column
  as an independent dot product over ``d_model``, so the merged columns are
  the separate GEMMs' columns — ``test_merged_projection_bit_identity``
  guards this), and softmax runs in place on the logits buffer.

Prefill kernel
--------------
Multi-row queries (one-shot and chunked prefill alike) run a triangular
tiled kernel: query tiles of :data:`PREFILL_TILE` rows score only the keys
at or before the tile's last row, the causal mask is a constant triangle
written in place over the diagonal block alone, the scale is folded into
``q`` and the softmax denominator divides the ``(tile, head_dim)`` context
rather than the ``(tile, n_kv)`` probabilities.  Roughly half the score
square is never computed and the rest is streamed through memory three
times instead of seven.  This path reorders float32 reductions, so its
contract is weaker than decode's: outputs within ``1e-5`` of the textbook
masked softmax, and identical greedy tokens however the prompt is chunked
(``tests/test_model_attention.py`` keeps the full-square formulation as
the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.config import ModelConfig
from repro.model.kv_cache import LayerKVCache
from repro.model.positional import apply_rope
from repro.profiling import span as profiling_span


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


#: Query rows per prefill tile.  At 128 the ``(heads, tile, n_kv)`` score
#: block of a few-thousand-token prompt stays cache-resident while the
#: per-tile Python dispatch is still a small share of the GEMM time.
PREFILL_TILE = 128

#: Causal mask of a full diagonal block (``col > row``: keys after the
#: query); a shorter last tile uses its top-left corner.
_TILE_TRIANGLE = np.triu(np.ones((PREFILL_TILE, PREFILL_TILE), dtype=bool), k=1)
_TILE_TRIANGLE.setflags(write=False)


def _decode_mask(n_kv: int, position: int) -> np.ndarray | None:
    """Causal mask of one query row, or ``None`` when all-``False``.

    ``None`` means no key is masked — the caller may skip ``np.where``
    entirely (bit-identical: masking with an all-``False`` mask is a copy).
    """
    if position >= n_kv - 1:
        return None
    return np.arange(n_kv)[None, :] > position


@dataclass(frozen=True)
class AttentionWeights:
    """Projection weights of one attention layer.

    Shapes: ``wq`` ``(n_heads, d_model, head_dim)``, ``wk``/``wv``
    ``(n_kv_heads, d_model, head_dim)``, ``wo`` ``(n_heads, head_dim,
    d_model)``.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


class AttentionLayer:
    """One causal self-attention layer operating on a single sequence."""

    def __init__(self, weights: AttentionWeights, config: ModelConfig):
        self.weights = weights
        self.config = config
        self._scale = config.attention_temperature / np.sqrt(config.head_dim)
        # Pre-flattened projection weights: (d_model, n_heads * head_dim)
        # per tensor, plus the concatenated [Wq | Wk | Wv] used by the
        # single-GEMM qkv projection.  sgemm computes output columns
        # independently, so the merged result's columns are exactly the
        # separate GEMMs' columns.
        self._wq_flat = self._flatten_weight(weights.wq)
        self._wk_flat = self._flatten_weight(weights.wk)
        self._wv_flat = self._flatten_weight(weights.wv)
        self._w_qkv = np.ascontiguousarray(
            np.concatenate([self._wq_flat, self._wk_flat, self._wv_flat], axis=1)
        )
        self._q_width = self._wq_flat.shape[1]
        self._kv_width = self._wk_flat.shape[1]

    @staticmethod
    def _flatten_weight(weight: np.ndarray) -> np.ndarray:
        """``(n_heads, d_model, head_dim)`` -> ``(d_model, n_heads * head_dim)``."""
        n_heads, d_model, head_dim = weight.shape
        return np.ascontiguousarray(
            weight.transpose(1, 0, 2).reshape(d_model, n_heads * head_dim)
        )

    @staticmethod
    def _project(hidden: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Apply a per-head projection ``(n_heads, d_model, head_dim)`` via one GEMM."""
        n_heads, d_model, head_dim = weight.shape
        flat = hidden @ weight.transpose(1, 0, 2).reshape(d_model, n_heads * head_dim)
        return flat.reshape(hidden.shape[0], n_heads, head_dim)

    @staticmethod
    def _as_f32(array: np.ndarray) -> np.ndarray:
        """Cast to float32 only when needed (``astype`` always copies)."""
        if array.dtype == np.float32:
            return array
        return array.astype(np.float32)

    def project_q(self, hidden: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Project hidden states to per-head queries ``(n, n_heads, head_dim)``."""
        with profiling_span("project"):
            head_dim = self.config.head_dim
            flat = hidden @ self._wq_flat
            q = flat.reshape(hidden.shape[0], -1, head_dim)
            if self.config.positional == "rope":
                q = apply_rope(q, positions, self.config.rope_theta)
            return self._as_f32(q)

    def project_kv(
        self, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Project hidden states to keys/values ``(n, n_kv_heads, head_dim)``."""
        with profiling_span("project"):
            head_dim = self.config.head_dim
            k = (hidden @ self._wk_flat).reshape(hidden.shape[0], -1, head_dim)
            v = (hidden @ self._wv_flat).reshape(hidden.shape[0], -1, head_dim)
            if self.config.positional == "rope":
                k = apply_rope(k, positions, self.config.rope_theta)
            return self._as_f32(k), self._as_f32(v)

    def project_qkv(
        self, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project to queries, keys and values with one ``[Wq|Wk|Wv]`` GEMM.

        Column-wise sgemm independence makes the three slices bit-identical
        to :meth:`project_q` / :meth:`project_kv` on the same hidden states
        (guarded by the merged-projection parity test).
        """
        with profiling_span("project"):
            n = hidden.shape[0]
            head_dim = self.config.head_dim
            fused = hidden @ self._w_qkv
            q_w, kv_w = self._q_width, self._kv_width
            q = fused[:, :q_w].reshape(n, -1, head_dim)
            k = fused[:, q_w : q_w + kv_w].reshape(n, -1, head_dim)
            v = fused[:, q_w + kv_w :].reshape(n, -1, head_dim)
            if self.config.positional == "rope":
                q = apply_rope(q, positions, self.config.rope_theta)
                k = apply_rope(k, positions, self.config.rope_theta)
            return self._as_f32(q), self._as_f32(k), self._as_f32(v)

    def _expand_kv_heads(self, kv: np.ndarray) -> np.ndarray:
        """Repeat KV heads to match the number of query heads (GQA)."""
        group = self.config.gqa_group
        if group == 1:
            return kv
        return np.repeat(kv, group, axis=1)

    def _mirrors(self, cache) -> tuple[np.ndarray, np.ndarray] | None:
        """Head-major K/V operands from ``cache``'s mirrors, if it keeps them.

        Under GQA each KV head's mirror is repeated ``group`` times along
        the head axis, which builds the same contiguous ``(n_heads, d, L)``
        / ``(n_heads, L, d)`` arrays the transpose-copy path makes from
        repeated rows.
        """
        getter = getattr(cache, "kv_mirrors", None)
        if getter is None:
            return None
        k_heads, v_heads = getter()
        group = self.config.gqa_group
        if group != 1:
            k_heads = np.repeat(k_heads, group, axis=0)
            v_heads = np.repeat(v_heads, group, axis=0)
        return k_heads, v_heads

    def attend(
        self,
        q: np.ndarray,
        keys: np.ndarray | None,
        values: np.ndarray | None,
        query_positions: np.ndarray,
        *,
        kv_mirrors: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Causal attention of queries against cached keys/values.

        Parameters
        ----------
        q:
            ``(n_q, n_heads, head_dim)`` queries.
        keys, values:
            ``(n_kv, n_kv_heads, head_dim)`` cached keys and values; may be
            ``None`` when ``kv_mirrors`` is given.
        query_positions:
            Global position of each query; a query at position ``p`` may
            attend to cache rows ``0..p`` inclusive.  Several queries must
            be the last ``n_q`` cache rows, in order.
        kv_mirrors:
            Optional pre-transposed ``(n_heads, head_dim, n_kv)`` keys and
            ``(n_heads, n_kv, head_dim)`` values (the layout the per-head
            GEMMs consume), typically incrementally-maintained cache views.
            Replaces the two ``ascontiguousarray`` transpose copies; the
            operand *values* are identical, so results are bit-identical.

        Returns
        -------
        numpy.ndarray
            ``(n_q, d_model)`` attention output (after the output projection).
        """
        with profiling_span("attend"):
            if kv_mirrors is not None:
                k_heads, v_heads = kv_mirrors
            else:
                keys_full = self._expand_kv_heads(keys)
                values_full = self._expand_kv_heads(values)
                k_heads = np.ascontiguousarray(keys_full.transpose(1, 2, 0))
                v_heads = np.ascontiguousarray(values_full.transpose(1, 0, 2))
            if q.shape[0] == 1:
                context = self._attend_row(q, k_heads, v_heads, int(query_positions[0]))
            else:
                context = self._attend_tiled(q, k_heads, v_heads, query_positions)
            n_heads, n_q, head_dim = context.shape
            # Output projection: concatenate heads and apply one GEMM.
            context_flat = context.transpose(1, 0, 2).reshape(n_q, n_heads * head_dim)
            wo_flat = self.weights.wo.reshape(n_heads * head_dim, -1)
            return self._as_f32(context_flat @ wo_flat)

    def _attend_row(
        self, q: np.ndarray, k_heads: np.ndarray, v_heads: np.ndarray, position: int
    ) -> np.ndarray:
        """One query row (the decode step): ``(n_heads, 1, head_dim)`` context."""
        # (n_heads, 1, n_kv) logits via per-head GEMMs.  The matmul output
        # is freshly owned, so the scale runs in place.
        q_heads = np.ascontiguousarray(q.transpose(1, 0, 2))
        logits = q_heads @ k_heads
        np.multiply(logits, self._scale, out=logits)
        mask = _decode_mask(k_heads.shape[2], position)
        if mask is not None:
            logits = np.where(mask[None, :, :], np.float32(-1e9), logits)
        # In-place softmax: same subtract/exp/divide as `softmax` on a
        # buffer this method owns, minus the temporaries.
        np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=logits)
        np.exp(logits, out=logits)
        probs = logits
        probs /= np.sum(probs, axis=-1, keepdims=True)
        return probs @ v_heads

    def _attend_tiled(
        self,
        q: np.ndarray,
        k_heads: np.ndarray,
        v_heads: np.ndarray,
        query_positions: np.ndarray,
    ) -> np.ndarray:
        """Triangular tiled causal attention: ``(n_heads, n_q, head_dim)`` context.

        The queries must be the last ``n_q`` cache rows (what prefill
        produces); tile ``[start, stop)`` then sees keys ``[0, offset +
        stop)`` and only its diagonal block needs masking.
        """
        n_q = q.shape[0]
        n_kv = k_heads.shape[2]
        offset = n_kv - n_q
        if query_positions[0] != offset or query_positions[-1] != n_kv - 1:
            raise ValueError(
                f"multi-row attention needs the queries to be the last {n_q} "
                f"of {n_kv} cache rows, got positions "
                f"{int(query_positions[0])}..{int(query_positions[-1])}"
            )
        q_heads = q.transpose(1, 0, 2) * np.float32(self._scale)
        context = np.empty((q.shape[1], n_q, q.shape[2]), dtype=np.float32)
        for start in range(0, n_q, PREFILL_TILE):
            stop = min(start + PREFILL_TILE, n_q)
            visible = offset + stop
            scores = q_heads[:, start:stop] @ k_heads[:, :, :visible]
            rows = stop - start
            np.copyto(
                scores[:, :, offset + start :],
                np.float32(-1e9),
                where=_TILE_TRIANGLE[:rows, :rows],
            )
            scores -= np.max(scores, axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            denominator = np.sum(scores, axis=-1, keepdims=True)
            tile = np.matmul(scores, v_heads[:, :visible], out=context[:, start:stop])
            tile /= denominator
        return context

    def _attend_cache(
        self, q: np.ndarray, cache, positions: np.ndarray
    ) -> np.ndarray:
        """Attend ``q`` against everything in ``cache`` (mirrors when offered)."""
        mirrors = self._mirrors(cache)
        if mirrors is not None:
            return self.attend(q, None, None, positions, kv_mirrors=mirrors)
        return self.attend(q, cache.keys(), cache.values(), positions)

    def forward_prefill(
        self, hidden: np.ndarray, cache: LayerKVCache, positions: np.ndarray
    ) -> np.ndarray:
        """Process a block of tokens, appending their K/V to ``cache``.

        A block landing in an empty cache attends over its own just-projected
        K/V — the cache would hand back the same float32 rows, after a gather.
        """
        q, k, v = self.project_qkv(hidden, positions)
        was_empty = cache.length == 0
        cache.append(k, v)
        if was_empty:
            return self.attend(q, k, v, positions)
        return self._attend_cache(q, cache, positions)

    def forward_decode(
        self, hidden: np.ndarray, cache: LayerKVCache, position: int
    ) -> np.ndarray:
        """Process a single token at ``position``, appending its K/V to ``cache``."""
        positions = np.asarray([position])
        q, k, v = self.project_qkv(hidden, positions)
        cache.append(k, v)
        return self._attend_cache(q, cache, positions)

    def forward_decode_batch(
        self,
        hidden: np.ndarray,
        caches: Sequence[LayerKVCache],
        positions: Sequence[int],
    ) -> np.ndarray:
        """One decode position for each of ``n`` *independent* sequences.

        ``hidden`` is the stacked ``(n, d_model)`` input (one row per
        sequence); row ``i`` is projected, appended to ``caches[i]`` and
        attended against that sequence's own K/V, exactly like
        :meth:`forward_decode` would.

        The projection GEMMs deliberately run per row rather than as one
        stacked ``(n, d_model) @ W`` GEMM: BLAS accumulates a stacked GEMM's
        rows in a shape-dependent order, so a sequence's logits would depend
        on *who else is in the batch* — unacceptable under continuous
        batching, where the batch composition changes every step.  Per-row
        GEMMs keep the fused step bit-identical to :meth:`forward_decode` for
        any batch mix (attention is per-sequence regardless, since every
        sequence gathers its own paged KV).  On real hardware this is where
        a batched kernel would trade that reduction-order freedom for
        throughput; in this reproduction the fusion win is one model
        invocation per engine step plus the shared gather/bookkeeping path.
        """
        out = np.empty((hidden.shape[0], self.weights.wo.shape[2]), dtype=np.float32)
        for i, (cache, position) in enumerate(zip(caches, positions)):
            out[i] = self.forward_decode(hidden[i : i + 1], cache, int(position))[0]
        return out
