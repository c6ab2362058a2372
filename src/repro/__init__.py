"""Cocktail: chunk-adaptive mixed-precision KV cache quantization.

Reproduction of "Cocktail: Chunk-Adaptive Mixed-Precision Quantization for
Long-Context LLM Inference" (DATE 2025).

The package is organised in layers:

``repro.quant``
    Quantization codecs (uniform affine, group, per-channel/per-token,
    non-uniform codebook), bit-packing and fused dequant-matmul kernels.
``repro.model``
    A pure-NumPy decoder-only transformer substrate with prefill/decode
    phases, a dense KV cache and constructed retrieval weights.
``repro.retrieval``
    Context chunking, query/chunk encoders (simulated Contriever, ADA-002,
    LLM-Embedder and an exact BM25) and cosine-similarity scoring.
``repro.datasets``
    Synthetic LongBench-style long-context task generators.
``repro.metrics``
    F1, ROUGE, classification-accuracy and code-similarity metrics.
``repro.baselines``
    FP16, Atom, KIVI and KVQuant KV-cache quantizers.
``repro.core``
    The Cocktail method: chunk-level quantization search, chunk reordering,
    the mixed-precision chunked KV cache, chunk-level blockwise attention
    (Algorithm 1) and the end-to-end pipeline.
``repro.hardware``
    Analytic GPU memory/latency/throughput model used for the efficiency
    experiments (Figures 4-6, Table V).
``repro.serving``
    The serving engine: request/result/token-event objects, a pluggable
    decode-backend registry (Cocktail plus every baseline),
    streaming decode and a continuous-batching scheduler with FIFO
    admission, round-robin decode and capacity-aware preemption.
``repro.evaluation``
    Experiment runners and report formatting for every paper table/figure.
"""

from repro.core.config import CocktailConfig
from repro.core.pipeline import CocktailPipeline
from repro.core.search import ChunkQuantizationSearch
from repro.quant.dtypes import BitWidth
from repro.serving.engine import InferenceEngine
from repro.serving.request import GenerationRequest, SamplingParams, TokenEvent

__version__ = "1.1.0"

__all__ = [
    "BitWidth",
    "CocktailConfig",
    "CocktailPipeline",
    "ChunkQuantizationSearch",
    "InferenceEngine",
    "GenerationRequest",
    "SamplingParams",
    "TokenEvent",
    "__version__",
]
