"""End-to-end Cocktail inference pipeline (compatibility wrapper).

Mirrors Figure 2 of the paper:

1. the long context is segmented into equal-length chunks (the non-divisible
   tail stays FP16),
2. the chunk-level quantization search scores chunks against the query and
   fixes the per-chunk bitwidths,
3. the model prefills the prompt at full precision,
4. the context KV cache is quantized per chunk and stored grouped by
   precision — one packed run per (layer, tensor, bitwidth) in every pool
   page, Algorithm 1's reordered storage,
5. decode phases attend over that mixed-precision cache until the answer
   is produced (by paper eqs. 4-5 the result equals Algorithm 1's
   blockwise attention, which :mod:`repro.core.computation` keeps as the
   reference).

Since the serving redesign, all of the above executes inside
:class:`repro.serving.engine.InferenceEngine`; :class:`CocktailPipeline`
remains as the single-request blocking facade with its historical
signature.  ``mode=`` strings resolve through the
:mod:`repro.serving.backends` registry: ``"dense"``, ``"cocktail"`` and
``"blockwise"`` all serve Cocktail over the packed pool pages, and any
other registered backend name — e.g. the baseline methods ``"fp16"``,
``"atom"``, ``"kivi"``, ``"kvquant"`` — is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.baselines.base import KVQuantizationPlan, QuantizationRequest
from repro.core.config import CocktailConfig
from repro.model.kv_cache import ModelKVCache
from repro.model.tokenizer import Tokenizer
from repro.model.transformer import Transformer
from repro.retrieval.base import Encoder


@dataclass
class CocktailRunResult:
    """Outcome of one Cocktail inference request."""

    answer_text: str
    generated_ids: list[int]
    plan: KVQuantizationPlan
    stopped_by: str
    n_context_tokens: int
    n_prompt_tokens: int

    @property
    def chunk_bits(self) -> list:
        """Per-chunk bitwidths chosen by the search."""
        return list(self.plan.details.get("chunk_bits", []))


class CocktailPipeline:
    """Single-request facade over the serving engine.

    Ties the model, tokenizer, encoder and Cocktail quantizer together and
    serves one blocking request per :meth:`run` call.  For concurrent
    traffic, token streaming and per-request stats use the engine directly
    (exposed as :attr:`engine`).
    """

    def __init__(
        self,
        model: Transformer,
        tokenizer: Tokenizer,
        config: CocktailConfig | None = None,
        *,
        encoder: Encoder | None = None,
        lexicon: dict[str, str] | None = None,
        seed: int = 0,
    ):
        # Imported lazily: repro.serving builds on repro.core, so a
        # module-level import here would be circular.
        from repro.serving.engine import InferenceEngine

        self.model = model
        self.tokenizer = tokenizer
        self.config = config or CocktailConfig()
        self.engine = InferenceEngine(
            model, tokenizer, self.config, encoder=encoder, lexicon=lexicon, seed=seed
        )
        self.quantizer = self.engine.quantizer

    # -- request assembly ----------------------------------------------------

    def build_request(
        self,
        context_words: Sequence[str],
        query_words: Sequence[str],
        cache: ModelKVCache | None = None,
    ) -> QuantizationRequest:
        """Chunk the context and package everything the search needs."""
        from repro.serving.backends import build_quantization_request

        return build_quantization_request(
            context_words, query_words, self.config.chunk_size, cache
        )

    def prompt_ids(
        self, context_words: Sequence[str], query_words: Sequence[str]
    ) -> list[int]:
        """Token IDs of the full prompt (context, separator, query)."""
        from repro.serving.backends import prompt_token_ids

        return prompt_token_ids(self.tokenizer, context_words, query_words)

    # -- inference -----------------------------------------------------------

    def run(
        self,
        context_words: Sequence[str],
        query_words: Sequence[str],
        *,
        max_new_tokens: int = 128,
        mode: str = "dense",
    ) -> CocktailRunResult:
        """Answer a long-context request with Cocktail-quantized KV cache.

        Parameters
        ----------
        context_words, query_words:
            The request, as word sequences.
        max_new_tokens:
            Decode budget; must be >= 1.
        mode:
            Decode-backend name — ``"dense"`` (Cocktail; ``"cocktail"``
            and ``"blockwise"`` are the same backend) or any other name
            registered with :mod:`repro.serving.backends`.
        """
        from repro.serving.request import GenerationRequest

        try:
            self.engine.get_backend(mode)
        except KeyError:
            raise ValueError(
                f"unknown mode {mode!r}; known: {list(self.engine.backend_names())}"
            ) from None
        request = GenerationRequest(
            context_words,
            query_words,
            max_new_tokens=max_new_tokens,
            backend=mode,
        )
        # pop=True: the facade is called in evaluation-style loops, so the
        # engine must not accumulate per-request results (and their caches).
        result = self.engine.run(request, pop=True)
        return CocktailRunResult(
            answer_text=result.answer_text,
            generated_ids=list(result.token_ids),
            plan=result.plan,
            stopped_by=result.stopped_by,
            n_context_tokens=result.n_context_tokens,
            n_prompt_tokens=result.n_prompt_tokens,
        )
