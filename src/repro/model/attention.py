"""Multi-head attention with KV caching.

Supports grouped-query attention (GQA), causal masking, RoPE or table
positional encodings, prefill over a block of tokens and one decode row
for each of many sequences against their layer caches.  The cache argument
is duck-typed: anything exposing ``append``/``keys``/``values`` works, which
is how the same attention code drives both the dense
:class:`~repro.model.kv_cache.LayerKVCache` and the pool-backed
:class:`~repro.kvpool.cache.PagedLayerView` (whose ``kv_mirrors`` serves
packed context pages dequantized, head-major).

Decode hot-path notes
---------------------
The decode rows of every running sequence go through
:meth:`AttentionLayer.forward_rows` as one stack.  The ``[Wq | Wk | Wv]``
and ``wo`` projections run through :func:`tiled_matmul`, one NumPy call
whose every BLAS call multiplies exactly two rows: a row's bits are then
those of the 2-row-tile class, fixed whatever the batch size, the row's
slot and its neighbours, and the BLAS thread count (a plain stacked GEMM
switches kernels with the row count).  The unembedding joins the class
through :func:`tiled_block_matmul`, against L2-sized column blocks of its
weight.  Attention itself stays per sequence:

- each query row scores its cache's keys up to its own position, so the
  strictly-causal case skips masking entirely;
- caches may expose ``kv_mirrors()`` returning head-major transposed K/V
  views maintained incrementally (see ``PagedLayerView``), which replaces
  both per-call transpose copies with buffer reuse (GQA repeats the
  mirrors' heads instead of transposing repeated rows);
- the q/k/v projections run as a single GEMM against the concatenated
  ``[Wq | Wk | Wv]`` weight (sgemm computes each output column as an
  independent dot product over ``d_model``, so the merged columns are the
  separate GEMMs' columns — ``test_merged_projection_bit_identity``
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

Only the last prompt row reaches the first token's logits, and the last
block's K/V come from its input projection, so ``Transformer.prefill``
runs that block's queries, ``wo`` and MLP on the chunk's final query tile
alone (:func:`prefill_output_rows`); every row is still projected and
appended.  The pruned call changes no bit: the tiles that still run are
the same tiles, aligned to the chunk's first row, and the ``wo`` and MLP
products keep at least :data:`MIN_GEMM_ROWS` rows, the sgemm class in
which a row's result does not depend on the row count
(``tests/test_model_rows.py`` pins both against a full-rows pass).
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


def tiled_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` as one NumPy call over 2-row tiles.

    ``x`` is ``(n, K)`` with ``n`` even (the row forward pads its stack
    once); every BLAS call it makes multiplies exactly rows ``2i, 2i + 1``.
    On OpenBLAS a row's result then has the same bits for any ``n``, either
    slot and any neighbour, at 1 or 2 threads (pinned for every decode
    GEMM shape by ``tests/test_model_rows.py``), and a 2-row sgemm costs
    little more than a 1-row gemv at the layer widths.
    """
    n, k = x.shape
    if n == 2:  # one tile: the same sgemm call, minus the stacked-matmul overhead
        return x @ weight
    if n % 2:
        raise ValueError(f"2-row tiles need an even row count, got {n}")
    return (x.reshape(n // 2, 2, k) @ weight).reshape(n, weight.shape[1])


#: Columns per block of a column-blocked weight (the unembedding).  A 2-row
#: sgemm packs its whole right-hand side, so over the e2e model's
#: ``(256, 6155)`` unembedding it costs two gemvs; against contiguous
#: 640-column blocks each packed block stays in L2 and a tile costs about
#: one gemv.  ``Transformer._logits`` on that model, one row / four rows,
#: 2-core Xeon VM (2 MiB L2 per core), one OpenBLAS thread, best of
#: 5 x 200 calls: a gemv per row 208 / 821 µs; blocks of 512 columns
#: 276 / 459, 640 columns 235 / 332, 768 columns 279 / 439, 1024 columns
#: 273 / 397, 2048 columns 783 / 1465.
COLUMN_BLOCK = 640


def column_blocks(weight: np.ndarray) -> np.ndarray:
    """A ``(K, N)`` weight as ``(ceil(N / COLUMN_BLOCK), K, COLUMN_BLOCK)`` blocks.

    Block ``j`` holds columns ``[j * COLUMN_BLOCK, (j + 1) * COLUMN_BLOCK)``;
    the last block is padded with zero columns, which
    :func:`tiled_block_matmul` callers slice off.
    """
    k, n = weight.shape
    blocks = np.zeros((-(-n // COLUMN_BLOCK), k, COLUMN_BLOCK), dtype=np.float32)
    for j, block in enumerate(blocks):
        part = weight[:, j * COLUMN_BLOCK : (j + 1) * COLUMN_BLOCK]
        block[:, : part.shape[1]] = part
    return blocks


def tiled_block_matmul(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``x @ weight`` over 2-row tiles against :func:`column_blocks` of it.

    ``x`` is ``(n, K)`` with ``n`` even and ``blocks`` is
    ``(n_blocks, K, width)``; returns ``(n, n_blocks * width)``, padding
    columns included.  One NumPy call whose every BLAS call multiplies
    rows ``2i, 2i + 1`` by one block, blocks in the outer loop, so a row's
    bits are those of :func:`tiled_matmul`'s class (fixed whatever ``n``,
    slot, neighbours and BLAS threads) while each block is packed from
    L2.  A single tile is written straight into its rows; more tiles come
    out block-major and take one transposing copy.
    """
    n, k = x.shape
    n_blocks, _, width = blocks.shape
    if n == 2:
        out = np.empty((2, n_blocks * width), dtype=np.float32)
        np.matmul(x, blocks, out=out.reshape(2, n_blocks, width).transpose(1, 0, 2))
        return out
    if n % 2:
        raise ValueError(f"2-row tiles need an even row count, got {n}")
    tiles = x.reshape(n // 2, 2, k) @ blocks[:, None]
    return tiles.transpose(1, 2, 0, 3).reshape(n, n_blocks * width)


#: Query rows per prefill tile.  At 128 the ``(heads, tile, n_kv)`` score
#: block of a few-thousand-token prompt stays cache-resident while the
#: per-tile Python dispatch is still a small share of the GEMM time.
PREFILL_TILE = 128

#: Fewest rows a pruned prefill product may have.  From 8 rows up an
#: OpenBLAS sgemm gives a row the same bits whatever the row count, so the
#: last block's ``wo`` and MLP products over its kept rows equal those rows
#: of the full products; below 8 it switches kernels.
MIN_GEMM_ROWS = 8


def prefill_output_rows(n_rows: int) -> int:
    """Trailing rows of an ``n_rows`` prefill chunk the last block must output.

    The rows of the chunk's final :data:`PREFILL_TILE` query tile, plus the
    tile before it when that leaves fewer than :data:`MIN_GEMM_ROWS` rows.
    The kept rows start on a tile boundary, so the attention tiles they run
    are tiles the full chunk runs too.
    """
    start = (n_rows - 1) // PREFILL_TILE * PREFILL_TILE
    if n_rows - start < MIN_GEMM_ROWS:
        start = max(0, start - PREFILL_TILE)
    return n_rows - start


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
        self._wo_flat = np.ascontiguousarray(weights.wo.reshape(self._q_width, -1))

    @staticmethod
    def _flatten_weight(weight: np.ndarray) -> np.ndarray:
        """``(n_heads, d_model, head_dim)`` -> ``(d_model, n_heads * head_dim)``."""
        n_heads, d_model, head_dim = weight.shape
        return np.ascontiguousarray(
            weight.transpose(1, 0, 2).reshape(d_model, n_heads * head_dim)
        )

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
            return self._split_qkv(hidden @ self._w_qkv, positions)

    def _split_qkv(
        self, fused: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-head q, k, v of a ``[Wq|Wk|Wv]`` product, rotated under RoPE."""
        n = fused.shape[0]
        head_dim = self.config.head_dim
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

    def _head_major(self, cache) -> tuple[np.ndarray, np.ndarray]:
        """``(n_heads, d, L)`` keys and ``(n_heads, L, d)`` values of ``cache``.

        Caches keeping mirrors hand them out directly; under GQA each KV
        head's mirror is repeated ``group`` times along the head axis,
        which builds the same contiguous arrays the transpose copy of a
        plain cache's repeated rows makes.
        """
        getter = getattr(cache, "kv_mirrors", None)
        if getter is None:
            keys = self._expand_kv_heads(cache.keys())
            values = self._expand_kv_heads(cache.values())
            return (
                np.ascontiguousarray(keys.transpose(1, 2, 0)),
                np.ascontiguousarray(values.transpose(1, 0, 2)),
            )
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
            return self._as_f32(context_flat @ self._wo_flat)

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
        # The reductions call the ufuncs ``ndarray.max``/``sum`` wrap.
        np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=logits)
        np.exp(logits, out=logits)
        probs = logits
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
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

    def forward_prefill(
        self,
        hidden: np.ndarray,
        cache: LayerKVCache,
        positions: np.ndarray,
        n_out: int | None = None,
    ) -> np.ndarray:
        """Process a block of tokens, appending their K/V to ``cache``.

        Every row is projected and appended; only the last ``n_out`` rows
        (all by default) are queried, so the result is ``(n_out, d_model)``.
        ``n_out`` comes from :func:`prefill_output_rows`, which keeps the
        query tiles aligned to the block's first row.  A block landing in
        an empty cache attends over its own just-projected K/V — the cache
        would hand back the same float32 rows, after a gather.
        """
        q, k, v = self.project_qkv(hidden, positions)
        if n_out is not None:
            q, positions = q[-n_out:], positions[-n_out:]
        was_empty = cache.length == 0
        cache.append(k, v)
        if was_empty:
            return self.attend(q, k, v, positions)
        return self.attend(q, None, None, positions, kv_mirrors=self._head_major(cache))

    def forward_rows(
        self,
        hidden: np.ndarray,
        caches: Sequence[LayerKVCache],
        positions: np.ndarray,
    ) -> np.ndarray:
        """One decode row per sequence: ``(n, d_model)`` in and out.

        Row ``i`` of the stack is ``caches[i]``'s next token, at
        ``positions[i]``; rows past ``len(caches)`` are padding.  The
        projections run once over the whole stack through
        :func:`tiled_matmul` (``n`` even).  Each row appends its K/V to its
        cache, then attends all of that cache's keys, its own the last.
        """
        with profiling_span("project"):
            q, k, v = self._split_qkv(tiled_matmul(hidden, self._w_qkv), positions)
        context = np.zeros((hidden.shape[0], self._q_width), dtype=np.float32)
        for row, cache in enumerate(caches):
            cache.append(k[row : row + 1], v[row : row + 1])
            with profiling_span("attend"):
                k_heads, v_heads = self._head_major(cache)
                context[row] = self._attend_row(
                    q[row : row + 1], k_heads, v_heads, int(positions[row])
                ).reshape(-1)
        with profiling_span("attend"):
            return tiled_matmul(context, self._wo_flat)
