"""Single-sequence decoder-only transformer with prefill/decode phases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.kvpool.cache import PagedKVCache
from repro.model.attention import prefill_output_rows, tiled_block_matmul
from repro.model.config import ModelConfig
from repro.model.decode import DecodeSession, check_max_new_tokens
from repro.model.kv_cache import ModelKVCache
from repro.model.layers import TransformerBlock
from repro.model.mlp import RMSNorm
from repro.model.sampling import greedy_sample
from repro.model.weights import ModelWeights
from repro.profiling import span as profiling_span


@dataclass
class GenerationResult:
    """Outcome of :meth:`Transformer.generate`.

    Attributes
    ----------
    token_ids:
        Generated token IDs, excluding the prompt and excluding the stop
        token that terminated generation (if any).
    n_prompt_tokens:
        Length of the prompt that was prefetched.
    stopped_by:
        ``"stop_token"``, ``"max_tokens"`` or ``"cache_full"``.
    cache:
        The KV cache after generation (context + prompt + generated rows).
    """

    token_ids: list[int]
    n_prompt_tokens: int
    stopped_by: str
    cache: ModelKVCache = field(repr=False, default=None)


class Transformer:
    """A decoder-only transformer.

    Prefill runs one sequence.  Every decode row goes through
    :meth:`forward_rows`: the paper's accuracy experiments call it through
    :meth:`decode_step`, one sequence at a time, and the serving engine
    through :meth:`decode_step_batch`, one forward per round over the whole
    running set.  A row's logits are the same bits either way.
    """

    def __init__(self, config: ModelConfig, weights: ModelWeights):
        if weights.embedding.shape != (config.vocab_size, config.d_model):
            raise ValueError(
                f"embedding shape {weights.embedding.shape} does not match config"
            )
        n_blocks, d_model, width = weights.unembedding.shape
        if d_model != config.d_model or not 0 <= n_blocks * width - config.vocab_size < width:
            raise ValueError(
                f"unembedding blocks {weights.unembedding.shape} do not match config"
            )
        self.config = config
        self.weights = weights
        self.blocks = [TransformerBlock(bw, config) for bw in weights.blocks]
        self.final_norm = RMSNorm(weights.final_norm, enabled=config.use_rmsnorm)
        self._pad_row = np.zeros((1, config.d_model), dtype=np.float32)

    # -- infrastructure ----------------------------------------------------

    def new_cache(self, capacity: int | None = None, *, pool=None) -> ModelKVCache:
        """Allocate an empty KV cache sized for ``capacity`` tokens.

        With ``pool`` (a :class:`repro.kvpool.BlockPool`) the cache is a
        :class:`~repro.kvpool.cache.PagedKVCache` drawing pages from the
        shared pool; the transformer drives either representation through
        the same layer-cache surface.
        """
        capacity = capacity or self.config.max_seq_len
        if pool is not None:
            if (
                pool.n_layers != self.config.n_layers
                or pool.n_kv_heads != self.config.n_kv_heads
                or pool.head_dim != self.config.head_dim
            ):
                raise ValueError("block pool geometry does not match the model config")
            return PagedKVCache(pool, capacity)
        return ModelKVCache(
            n_layers=self.config.n_layers,
            n_kv_heads=self.config.n_kv_heads,
            head_dim=self.config.head_dim,
            capacity=capacity,
        )

    def embed(self, token_ids: Sequence[int], positions: np.ndarray) -> np.ndarray:
        """Token + positional embedding, shape ``(n, d_model)``."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of range")
        hidden = self.weights.embedding[token_ids].astype(np.float32, copy=False)
        if self.config.positional == "table" and self.weights.pos_table is not None:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.size and positions.max() >= self.weights.pos_table.shape[0]:
                raise ValueError("position exceeds the positional table")
            hidden += self.weights.pos_table[positions]
        return hidden

    def _logits(self, hidden: np.ndarray) -> np.ndarray:
        """Next-token logits ``(n, vocab)`` of ``(n, d_model)`` hidden states.

        The unembedding is one NumPy call over 2-row tiles against its
        L2-sized column blocks (:func:`~repro.model.attention.tiled_block_matmul`),
        the class of every other decode GEMM: a row's logits do not depend
        on the batch size, its slot, its neighbours or the BLAS thread
        count.  An odd stack gets one zero row; the row forward passes its
        stack already padded.
        """
        with profiling_span("logits"):
            n = hidden.shape[0]
            if n % 2:
                hidden = np.concatenate([hidden, self._pad_row])
            normed = self.final_norm.forward(hidden)
            logits = tiled_block_matmul(normed, self.weights.unembedding)
            return logits[:n, : self.config.vocab_size]

    # -- phases --------------------------------------------------------------

    def prefill(self, token_ids: Sequence[int], cache: ModelKVCache) -> np.ndarray:
        """Run the prefill phase over ``token_ids``, filling ``cache``.

        Returns the logits of the *last* prompt position (the distribution of
        the first output token).  Every block appends the K/V of every row,
        but only the last row's hidden state is read after the last block,
        so that block outputs just the chunk's final query tile
        (:func:`~repro.model.attention.prefill_output_rows`): its queries,
        ``wo`` and MLP skip the other rows.  The logits and every layer's
        K/V are bit-identical to a full-row pass (see the
        :mod:`~repro.model.attention` module notes); each call prunes its
        own chunk, so one-shot, chunked and row-tier-seeded prefills all
        do.
        """
        token_ids = list(token_ids)
        if not token_ids:
            raise ValueError("prefill requires at least one token")
        start = cache.length
        if start + len(token_ids) > cache.capacity:
            raise ValueError("prompt does not fit in the KV cache")
        positions = np.arange(start, start + len(token_ids))
        hidden = self.embed(token_ids, positions)
        *inner, last = self.blocks
        for block, layer_cache in zip(inner, cache.layers):
            hidden = block.forward_prefill(hidden, layer_cache, positions)
        n_out = prefill_output_rows(len(token_ids))
        hidden = last.forward_prefill(hidden, cache.layers[-1], positions, n_out)
        return self._logits(hidden[-1:])[0]

    def forward_rows(
        self,
        token_ids: Sequence[int],
        caches: Sequence[ModelKVCache],
    ) -> np.ndarray:
        """The one decode forward: append ``token_ids[i]`` to ``caches[i]``.

        Returns ``(len(caches), vocab)`` next-token logits, one row per
        sequence.  The rows are stacked and each weight GEMM, the
        unembedding included, runs once over 2-row tiles
        (:func:`~repro.model.attention.tiled_matmul`, :meth:`_logits`), so
        a row's bits depend neither on its batch nor on the BLAS thread
        count.  Attention stays per sequence.
        """
        if len(token_ids) != len(caches):
            raise ValueError(f"{len(token_ids)} tokens for {len(caches)} caches")
        n_rows = len(token_ids)
        if not n_rows:
            return np.empty((0, self.config.vocab_size), dtype=np.float32)
        positions: list[int] = []
        for cache in caches:
            if cache.length >= cache.capacity:
                raise ValueError(
                    f"token does not fit the cache (length {cache.length}, "
                    f"capacity {cache.capacity})"
                )
            positions.append(cache.length)
        # An odd stack gets one zero row (at position 0) so every tile has two.
        hidden = np.zeros((n_rows + n_rows % 2, self.config.d_model), dtype=np.float32)
        hidden[:n_rows] = self.embed(token_ids, np.asarray(positions))
        positions = np.asarray(positions + [0] * (n_rows % 2))
        for index, block in enumerate(self.blocks):
            layer_caches = [cache.layers[index] for cache in caches]
            hidden = block.forward_rows(hidden, layer_caches, positions)
        return self._logits(hidden)[:n_rows]

    def decode_step(self, token_id: int, cache: ModelKVCache) -> np.ndarray:
        """Append ``token_id`` to ``cache``; return the next-token logits."""
        return self.forward_rows([token_id], [cache])[0]

    def decode_step_batch(
        self,
        token_ids: Sequence[int],
        caches: Sequence[ModelKVCache],
    ) -> list[np.ndarray]:
        """Append ``token_ids[i]`` to ``caches[i]``; one logits row per sequence.

        The serving engine's round: the whole running set moves one token
        in one :meth:`forward_rows` call.
        """
        return list(self.forward_rows(token_ids, caches))

    def generate(
        self,
        prompt_ids: Sequence[int],
        *,
        max_new_tokens: int = 128,
        stop_ids: Sequence[int] = (),
        cache: ModelKVCache | None = None,
        after_prefill: Callable[[ModelKVCache], None] | None = None,
        sampler: Callable[[np.ndarray], int] = greedy_sample,
    ) -> GenerationResult:
        """Prefill the prompt and decode greedily (or with ``sampler``).

        Parameters
        ----------
        prompt_ids:
            Prompt token IDs (context + query).
        max_new_tokens:
            Maximum number of generated tokens.
        stop_ids:
            Token IDs that terminate generation (excluded from the output).
        cache:
            Optional pre-allocated cache.
        after_prefill:
            Hook called with the cache right after prefill — this is where
            the evaluation harness applies KV-cache quantization, mirroring
            real systems where the prefill pass runs at full precision and
            the *stored* cache is quantized for the decode phase.
        sampler:
            Maps logits to the next token ID (greedy by default).
        """
        # Validate before prefill so a bad budget cannot mutate the caller's
        # cache (or run the quantization hook) and then raise.
        check_max_new_tokens(max_new_tokens)
        cache = cache or self.new_cache()
        logits = self.prefill(prompt_ids, cache)
        if after_prefill is not None:
            after_prefill(cache)
        session = self.decode_session(
            cache,
            logits,
            max_new_tokens=max_new_tokens,
            stop_ids=stop_ids,
            sampler=sampler,
        )
        generated, stopped_by = session.run()
        return GenerationResult(
            token_ids=generated,
            n_prompt_tokens=len(list(prompt_ids)),
            stopped_by=stopped_by,
            cache=cache,
        )

    def generate_from_cache(
        self,
        cache: ModelKVCache,
        first_logits: np.ndarray,
        *,
        max_new_tokens: int = 128,
        stop_ids: Sequence[int] = (),
        sampler: Callable[[np.ndarray], int] = greedy_sample,
    ) -> GenerationResult:
        """Continue generation from an already-prefilled (possibly quantized) cache.

        This is the decode-only entry point used by the evaluation harness:
        one full-precision prefill is shared across methods, each method
        quantizes its own clone of the cache, and decoding restarts from the
        prefill logits.
        """
        n_prompt = cache.length
        session = self.decode_session(
            cache,
            first_logits,
            max_new_tokens=max_new_tokens,
            stop_ids=stop_ids,
            sampler=sampler,
        )
        generated, stopped_by = session.run()
        return GenerationResult(
            token_ids=generated,
            n_prompt_tokens=n_prompt,
            stopped_by=stopped_by,
            cache=cache,
        )

    def decode_session(
        self,
        cache: ModelKVCache,
        first_logits: np.ndarray,
        *,
        max_new_tokens: int = 128,
        stop_ids: Sequence[int] = (),
        sampler: Callable[[np.ndarray], int] = greedy_sample,
    ) -> DecodeSession:
        """Build a step-at-a-time decode session over ``cache``.

        ``cache`` is a dense :class:`~repro.model.kv_cache.ModelKVCache`
        (the accuracy harness) or a pool-backed
        :class:`~repro.kvpool.cache.PagedKVCache` (every serving engine).
        This is the primitive both :meth:`generate` / :meth:`generate_from_cache`
        and the serving engine drive: the former call :meth:`DecodeSession.run`,
        the engine splits each step across a
        :class:`~repro.model.decode.BatchedDecodeStep` so the round's
        sessions share one :meth:`decode_step_batch` forward.
        """
        return DecodeSession(
            lambda token_id: self.decode_step(token_id, cache),
            first_logits,
            max_new_tokens=max_new_tokens,
            stop_ids=stop_ids,
            sampler=sampler,
            has_capacity=cache.has_capacity,
            # Pool-backed caches report whether the next append will claim a
            # fresh page, which the fused batched round reserves between a
            # session's capacity check and its deferred forward.
            step_cost=getattr(cache, "next_token_block_cost", None),
        )
