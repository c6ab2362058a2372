"""Single-sequence decoder-only transformer with prefill/decode phases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.kvpool.cache import PagedKVCache
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

    Prefill and :meth:`decode_step` run one sequence, which is how the
    paper's accuracy experiments evaluate requests; the serving engine
    advances every running sequence through :meth:`decode_step_batch` (or
    its speculative twin :meth:`decode_verify_step_batch`), one fused
    forward per round whose logits rows are bit-identical to
    :meth:`decode_step`'s.
    """

    def __init__(self, config: ModelConfig, weights: ModelWeights):
        if weights.embedding.shape != (config.vocab_size, config.d_model):
            raise ValueError(
                f"embedding shape {weights.embedding.shape} does not match config"
            )
        self.config = config
        self.weights = weights
        self.blocks = [TransformerBlock(bw, config) for bw in weights.blocks]
        self.final_norm = RMSNorm(weights.final_norm, enabled=config.use_rmsnorm)

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
        hidden = self.weights.embedding[token_ids].astype(np.float32)
        if self.config.positional == "table" and self.weights.pos_table is not None:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.size and positions.max() >= self.weights.pos_table.shape[0]:
                raise ValueError("position exceeds the positional table")
            hidden = hidden + self.weights.pos_table[positions]
        return hidden

    def _logits(self, hidden_row: np.ndarray) -> np.ndarray:
        with profiling_span("logits"):
            normed = self.final_norm.forward(hidden_row.reshape(1, -1))[0]
            logits = normed @ self.weights.unembedding
            return logits if logits.dtype == np.float32 else logits.astype(np.float32)

    # -- phases --------------------------------------------------------------

    def prefill(self, token_ids: Sequence[int], cache: ModelKVCache) -> np.ndarray:
        """Run the prefill phase over ``token_ids``, filling ``cache``.

        Returns the logits of the *last* prompt position (the distribution of
        the first output token).
        """
        token_ids = list(token_ids)
        if not token_ids:
            raise ValueError("prefill requires at least one token")
        start = cache.length
        if start + len(token_ids) > cache.capacity:
            raise ValueError("prompt does not fit in the KV cache")
        positions = np.arange(start, start + len(token_ids))
        hidden = self.embed(token_ids, positions)
        for block, layer_cache in zip(self.blocks, cache.layers):
            hidden = block.forward_prefill(hidden, layer_cache, positions)
        return self._logits(hidden[-1])

    def decode_step(self, token_id: int, cache: ModelKVCache) -> np.ndarray:
        """Run one decode step for ``token_id``, appending to ``cache``.

        Returns the logits predicting the next token.
        """
        position = cache.length
        if position >= cache.capacity:
            raise ValueError("KV cache is full")
        hidden = self.embed([token_id], np.asarray([position]))
        for block, layer_cache in zip(self.blocks, cache.layers):
            hidden = block.forward_decode(hidden, layer_cache, position)
        return self._logits(hidden[0])

    def decode_step_batch(
        self,
        token_ids: Sequence[int],
        caches: Sequence[ModelKVCache],
    ) -> list[np.ndarray]:
        """One fused decode forward advancing ``n`` independent sequences.

        ``token_ids[i]`` is appended to ``caches[i]`` at that sequence's own
        next position and the corresponding next-token logits are returned,
        one row per sequence.  This is the serving engine's batched hot
        path: the whole running set moves one token through the model in a
        *single* invocation (one embedding lookup, one pass over the layer
        stack) instead of ``n`` per-sequence forwards.  Outputs are
        bit-identical to ``n`` separate :meth:`decode_step` calls for any
        batch composition — see
        :meth:`~repro.model.attention.AttentionLayer.forward_decode_batch`
        for the invariance argument.
        """
        if len(token_ids) != len(caches):
            raise ValueError(
                f"{len(token_ids)} tokens for {len(caches)} caches"
            )
        if not caches:
            return []
        positions = []
        for cache in caches:
            position = cache.length
            if position >= cache.capacity:
                raise ValueError("KV cache is full")
            positions.append(position)
        hidden = self.embed(list(token_ids), np.asarray(positions))
        for layer_index, block in enumerate(self.blocks):
            layer_caches = [cache.layers[layer_index] for cache in caches]
            hidden = block.forward_decode_batch(hidden, layer_caches, positions)
        return [self._logits(hidden[i]) for i in range(hidden.shape[0])]

    def decode_verify_step(
        self, token_ids: Sequence[int], cache: ModelKVCache
    ) -> list[np.ndarray]:
        """One multi-token verify forward for speculative decoding.

        ``token_ids`` is ``[next_token, draft_1, .., draft_k]`` — the token
        the decode session is emitting this step plus the proposer's
        guesses.  All ``k + 1`` rows are appended to ``cache`` and one
        next-token logits row per input is returned; the caller verifies
        the drafts against those logits and truncates the cache rows of the
        rejected tail (see :meth:`~repro.kvpool.cache.PagedKVCache.truncate`).

        Positions run strictly sequentially inside the single invocation —
        exactly the per-row discipline of :meth:`decode_step_batch` — so
        every logits row is bit-identical to the sequential
        :meth:`decode_step` it replaces *regardless of how many drafts were
        attached*: acceptance length can never perturb the numerics.  On
        real hardware this is one causal multi-row forward (the prefill
        kernel at decode time); here the fusion win is one model invocation
        per verify run instead of one per token.
        """
        token_ids = list(token_ids)
        if not token_ids:
            raise ValueError("verify requires at least one token")
        if cache.length + len(token_ids) > cache.capacity:
            raise ValueError(
                f"verify run of {len(token_ids)} tokens does not fit the cache "
                f"(length {cache.length}, capacity {cache.capacity})"
            )
        with profiling_span("verify"):
            return [self.decode_step(token_id, cache) for token_id in token_ids]

    def decode_verify_step_batch(
        self,
        token_lists: Sequence[Sequence[int]],
        caches: Sequence[ModelKVCache],
    ) -> list[list[np.ndarray]]:
        """One fused verify forward advancing ``n`` independent sequences.

        ``token_lists[i]`` is sequence ``i``'s ``[next_token, *drafts]``
        run (lengths may differ per sequence — acceptance windows shrink
        with budget and pool headroom); the return value is one logits
        block per sequence with one row per input token.  This is the
        speculative serving engine's hot path: the whole running set's
        verify runs execute in a *single* model invocation per engine step.
        Like :meth:`decode_step_batch`, rows are computed per sequence and
        per position, so outputs never depend on the batch composition.
        """
        if len(token_lists) != len(caches):
            raise ValueError(f"{len(token_lists)} token runs for {len(caches)} caches")
        return [
            self.decode_verify_step(token_ids, cache)
            for token_ids, cache in zip(token_lists, caches)
        ]

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
        """Build a step-at-a-time decode session over the dense cache.

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
