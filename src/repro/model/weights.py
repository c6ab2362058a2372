"""Weight builders.

Two builders are provided:

* :func:`build_random_weights` — conventional random initialisation, used by
  unit tests that exercise the generic transformer machinery (GQA, RoPE,
  caching invariants).
* :func:`build_retrieval_weights` — the hand-constructed associative-recall
  model the evaluation harness uses.  Layer 0 hosts a *previous-token head*
  and layer 1 an *induction head*; together they copy, token by token, the
  phrase that follows the last prompt token's earlier occurrence in the
  context.

The construction is designed so that downstream accuracy responds to KV-cache
quantization the way real long-context LLMs do:

* **Keys are compact.**  The induction head's stored keys are unit-scale
  token-identity vectors, so even aggressive quantization of *irrelevant*
  chunks only adds bounded noise to their attention logits — attention still
  locks onto the relevant position (quantizing irrelevant context is cheap,
  the paper's core premise).
* **Values carry a large shared "register" component** (`register_scale`
  times a fixed direction) on top of a small token-identity component,
  mirroring the high-magnitude outlier structure of real value caches.  The
  quantization step size is set by the large component, so low-bit
  quantization of the *attended* value wipes out the small identity component
  (INT2) or mildly perturbs it (INT4) — which is precisely what turns
  low-precision storage of *relevant* chunks into wrong answer tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.attention import AttentionWeights, column_blocks
from repro.model.config import ModelConfig, RetrievalLayout
from repro.model.layers import BlockWeights
from repro.model.mlp import MLPWeights
from repro.model.positional import random_position_codes
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ModelWeights:
    """All parameters of a :class:`~repro.model.transformer.Transformer`."""

    embedding: np.ndarray  # (vocab_size, d_model)
    pos_table: np.ndarray | None  # (max_seq_len, d_model) or None
    #: The ``(d_model, vocab_size)`` unembedding as ``column_blocks``:
    #: ``(n_blocks, d_model, COLUMN_BLOCK)``, the last block zero-padded.
    #: The model holds no other copy.
    unembedding: np.ndarray
    blocks: list[BlockWeights]
    final_norm: np.ndarray  # (d_model,)


# ---------------------------------------------------------------------------
# Random initialisation
# ---------------------------------------------------------------------------


def _random_attention(config: ModelConfig, rng: np.random.Generator, scale: float) -> AttentionWeights:
    return AttentionWeights(
        wq=rng.normal(0.0, scale, (config.n_heads, config.d_model, config.head_dim)).astype(np.float32),
        wk=rng.normal(0.0, scale, (config.n_kv_heads, config.d_model, config.head_dim)).astype(np.float32),
        wv=rng.normal(0.0, scale, (config.n_kv_heads, config.d_model, config.head_dim)).astype(np.float32),
        wo=rng.normal(0.0, scale, (config.n_heads, config.head_dim, config.d_model)).astype(np.float32),
    )


def _random_mlp(config: ModelConfig, rng: np.random.Generator, scale: float) -> MLPWeights:
    return MLPWeights(
        w_gate=rng.normal(0.0, scale, (config.d_model, config.d_ff)).astype(np.float32),
        w_up=rng.normal(0.0, scale, (config.d_model, config.d_ff)).astype(np.float32),
        w_down=rng.normal(0.0, scale, (config.d_ff, config.d_model)).astype(np.float32),
    )


def build_random_weights(config: ModelConfig, seed: int = 0, *, scale: float = 0.02) -> ModelWeights:
    """Standard random initialisation (for generic-machinery tests)."""
    rng = derive_rng(seed, "random-weights", config.name)
    blocks = []
    for _ in range(config.n_layers):
        blocks.append(
            BlockWeights(
                attention=_random_attention(config, rng, scale),
                mlp=_random_mlp(config, rng, scale),
                norm_attn=np.ones(config.d_model, dtype=np.float32),
                norm_mlp=np.ones(config.d_model, dtype=np.float32),
            )
        )
    embedding = rng.normal(0.0, 1.0, (config.vocab_size, config.d_model)).astype(np.float32)
    unembedding = column_blocks(
        rng.normal(0.0, scale, (config.d_model, config.vocab_size)).astype(np.float32)
    )
    pos_table = None
    if config.positional == "table":
        pos_table = rng.normal(0.0, 0.02, (config.max_seq_len, config.d_model)).astype(np.float32)
    return ModelWeights(
        embedding=embedding,
        pos_table=pos_table,
        unembedding=unembedding,
        blocks=blocks,
        final_norm=np.ones(config.d_model, dtype=np.float32),
    )


# ---------------------------------------------------------------------------
# Constructed retrieval model
# ---------------------------------------------------------------------------


def build_token_identities(
    vocab_size: int, d_tok: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(identities, register_direction)``.

    ``identities`` is a ``(vocab_size, d_tok)`` matrix of unit-norm
    token-identity vectors, all orthogonal to the fixed unit
    ``register_direction`` so that the shared register component never leaks
    into the token-discrimination logits.
    """
    rng = derive_rng(seed, "token-identities", vocab_size, d_tok)
    register = rng.standard_normal(d_tok)
    register /= np.linalg.norm(register)
    identities = rng.standard_normal((vocab_size, d_tok))
    identities -= np.outer(identities @ register, register)
    norms = np.linalg.norm(identities, axis=1, keepdims=True)
    identities /= np.maximum(norms, 1e-12)
    return identities.astype(np.float32), register.astype(np.float32)


def _noise_attention(
    config: ModelConfig, rng: np.random.Generator, noise_scale: float
) -> AttentionWeights:
    return _random_attention(config, rng, max(noise_scale, 1e-8))


def _zero_mlp(config: ModelConfig, rng: np.random.Generator, noise_scale: float) -> MLPWeights:
    """MLP whose down-projection is zero: the block is attention-only."""
    return MLPWeights(
        w_gate=rng.normal(0.0, max(noise_scale, 1e-8), (config.d_model, config.d_ff)).astype(np.float32),
        w_up=rng.normal(0.0, max(noise_scale, 1e-8), (config.d_model, config.d_ff)).astype(np.float32),
        w_down=np.zeros((config.d_ff, config.d_model), dtype=np.float32),
    )


def build_retrieval_weights(
    config: ModelConfig,
    seed: int | None = None,
    *,
    prev_gain: float = 100.0,
    induction_gain: float = 150.0,
    register_scale: float = 9.0,
    register_jitter: float = 0.35,
) -> ModelWeights:
    """Construct the associative-recall model described in the module docstring.

    Parameters
    ----------
    config:
        Must carry a :class:`~repro.model.config.RetrievalLayout`, use table
        positional encodings, have at least two layers, and disable RMSNorm.
    seed:
        Base seed; defaults to ``config.seed``.
    prev_gain:
        Query gain of the layer-0 previous-token head (sharpness of its
        attention).
    induction_gain:
        Query gain of the layer-1 induction head.
    register_scale:
        Magnitude of the shared register component carried by the value
        vectors relative to the unit token-identity component.  This is the
        knob that controls how destructive low-bit quantization of *attended*
        values is (larger = coarser quantization steps relative to the
        identity signal).
    register_jitter:
        Relative per-token variation of the register magnitude.  Tokens with
        a larger register component are more fragile under coarse
        quantization, which grades the INT4 accuracy loss instead of making
        it an all-or-nothing threshold, and gives distribution-aware codecs
        (KVQuant's non-uniform quantization) a genuine advantage over plain
        uniform INT4.
    """
    layout = config.retrieval_layout
    if layout is None:
        raise ValueError("config.retrieval_layout is required for retrieval weights")
    if config.positional != "table":
        raise ValueError("retrieval weights require table positional encodings")
    if config.use_rmsnorm:
        raise ValueError("retrieval weights require use_rmsnorm=False")
    if config.n_layers < 2:
        raise ValueError("retrieval weights require at least two layers")
    seed = config.seed if seed is None else seed
    rng = derive_rng(seed, "retrieval-weights", config.name)
    d_tok, d_pos = layout.d_tok, layout.d_pos
    noise = config.noise_scale

    identities, register = build_token_identities(config.vocab_size, d_tok, seed)

    # Embedding: token-identity subspace carries the shared register component
    # (with a per-token magnitude jitter) plus the per-token identity vector.
    embedding = np.zeros((config.vocab_size, config.d_model), dtype=np.float32)
    jitter_rng = derive_rng(seed, "register-jitter", config.name)
    register_coefficients = register_scale * (
        1.0 + register_jitter * jitter_rng.uniform(-1.0, 1.0, config.vocab_size)
    )
    embedding[:, layout.tok_slice] = (
        register_coefficients[:, None] * register[None, :] + identities
    )

    # Positional table: current position code plus next position code.
    pos_codes = random_position_codes(config.max_seq_len + 1, d_pos, seed)
    pos_table = np.zeros((config.max_seq_len, config.d_model), dtype=np.float32)
    pos_table[:, layout.pos_slice] = pos_codes[: config.max_seq_len]
    pos_table[:, layout.pos_next_slice] = pos_codes[1 : config.max_seq_len + 1]

    # Unembedding reads the output subspace against the token identities only
    # (the register direction is orthogonal to every identity by construction).
    # Written straight into its column blocks; every other row is zero.
    identity_blocks = column_blocks(identities.T)
    unembedding = np.zeros(
        (identity_blocks.shape[0], config.d_model, identity_blocks.shape[2]), dtype=np.float32
    )
    unembedding[:, layout.out_slice] = identity_blocks

    eye_tok = np.eye(d_tok, dtype=np.float32)
    eye_pos = np.eye(d_pos, dtype=np.float32)
    # Projection that removes the register direction (used by the induction
    # head's query/key reads so attention matching happens in identity space).
    remove_register = eye_tok - np.outer(register, register)

    blocks: list[BlockWeights] = []
    for layer_index in range(config.n_layers):
        attn = _noise_attention(config, rng, noise)
        wq, wk, wv, wo = (
            attn.wq.copy(),
            attn.wk.copy(),
            attn.wv.copy(),
            attn.wo.copy(),
        )
        if layer_index == 0:
            # Previous-token head (head 0): Q reads the current position code,
            # K reads the *next*-position code, so position i attends to i-1.
            wq[0].fill(0.0)
            wk[0].fill(0.0)
            wv[0].fill(0.0)
            wo[0].fill(0.0)
            wq[0][layout.pos_slice, :d_pos] = eye_pos * prev_gain
            wk[0][layout.pos_next_slice, :d_pos] = eye_pos
            wv[0][layout.tok_slice, :d_tok] = eye_tok
            wo[0][:d_tok, layout.prev_slice] = eye_tok
        elif layer_index == 1:
            # Induction head (head 0): Q reads the current token identity
            # (register removed), K reads the previous-token identity written
            # by layer 0 (register removed), V reads the full token subspace
            # (register + identity), and the output is written to the output
            # subspace read by the unembedding.
            wq[0].fill(0.0)
            wk[0].fill(0.0)
            wv[0].fill(0.0)
            wo[0].fill(0.0)
            wq[0][layout.tok_slice, :d_tok] = remove_register * induction_gain
            wk[0][layout.prev_slice, :d_tok] = remove_register
            wv[0][layout.tok_slice, :d_tok] = eye_tok
            wo[0][:d_tok, layout.out_slice] = eye_tok
        blocks.append(
            BlockWeights(
                attention=AttentionWeights(wq=wq, wk=wk, wv=wv, wo=wo),
                mlp=_zero_mlp(config, rng, noise),
                norm_attn=np.ones(config.d_model, dtype=np.float32),
                norm_mlp=np.ones(config.d_model, dtype=np.float32),
            )
        )

    return ModelWeights(
        embedding=embedding,
        pos_table=pos_table,
        unembedding=unembedding,
        blocks=blocks,
        final_norm=np.ones(config.d_model, dtype=np.float32),
    )
