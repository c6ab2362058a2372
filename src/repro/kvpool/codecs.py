"""Token-row codecs: real quantized storage behind the paged KV cache.

The dense evaluation path simulates quantization by overwriting the cache
with fake-quantized floats (:meth:`KVCacheQuantizer.apply`).  The paged
cache instead *stores* the integer codes — bit-packed per page via
:mod:`repro.quant.packing` — and dequantizes on gather.  For that to be a
pure storage change, decoding the stored codes must reproduce the
fake-quant floats **bit for bit**.  Every codec here guarantees this by
running the exact same quantization functions the fake-quant path runs
(:func:`repro.quant.group.group_quantize`,
:func:`repro.quant.schemes.per_token_quantize` /
:func:`~repro.quant.schemes.per_channel_quantize`,
:func:`repro.quant.nonuniform.nuq_quantize`) and reconstructing the same
tensor objects at decode time.

A codec turns ``(n_tokens, n_kv_heads, head_dim)`` float rows into
per-token **code rows** (flat ``uint8``, one row per token) plus per-token
**metadata rows** (scales/zero points, when the quantization groups are
token-local).  Code rows are what the pool's pages bit-pack; metadata that
is *shared* across tokens (per-channel scales, nuq codebooks) lives on the
codec itself and is byte-accounted once per sequence via
:meth:`TokenRowCodec.shared_bytes`.

Decode is batched, not per page: the paged cache hands
:meth:`TokenRowCodec.decode` every row of one layer's tensor that shares a
:meth:`~TokenRowCodec.batch_key` in a single call.  That is why each codec
decodes with the plain elementwise float32 ops of the fake-quant path: over
the hundreds of rows of one call they cost less than building per-group
lookup tables would.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.quant.dtypes import BitWidth, metadata_bytes_for_groups
from repro.quant.group import GroupQuantizedTensor, group_quantize
from repro.quant.nonuniform import nuq_quantize
from repro.quant.schemes import per_channel_quantize, per_token_quantize
from repro.quant.uniform import QuantizedTensor

#: Bytes charged per stored metadata value (FP16 scales/zero points, matching
#: :func:`repro.quant.dtypes.metadata_bytes_for_groups`).
META_VALUE_BYTES = 2


class TokenRowCodec(abc.ABC):
    """Encodes/decodes per-token rows of one layer's context K or V tensor."""

    #: Quantization bitwidth of the code rows.
    bits: BitWidth
    #: ``uint8`` codes per token row (before bit-packing).
    code_width: int
    #: float metadata values per token row (0 when metadata is shared).
    meta_width: int

    @abc.abstractmethod
    def decode(self, codes: np.ndarray, meta: np.ndarray) -> np.ndarray:
        """Decode ``(m, code_width)`` code rows back to ``(m, h, d)`` floats."""

    def batch_key(self):
        """Runs whose codecs share this key may decode in one :meth:`decode` call.

        A fitted codec carries sequence-global parameters, so only its own
        runs qualify; token-local codecs override this with their geometry.
        """
        return id(self)

    def shared_bytes(self) -> int:
        """Bytes of cross-token metadata stored once per sequence."""
        return 0

    def meta_row_bytes(self) -> int:
        """Accounted bytes of one token's metadata row."""
        return self.meta_width * META_VALUE_BYTES


class PerTokenGroupCodec(TokenRowCodec):
    """Group quantization with token-local groups along the head dimension.

    This is the codec behind Cocktail's per-``(token, head)`` groups
    (``group_size == head_dim``) and Atom's channel groups: every group lies
    inside a single token row, so scale/zero-point pairs travel with the
    token as metadata rows and pages are self-contained.
    """

    def __init__(
        self, bits: BitWidth | int, n_kv_heads: int, head_dim: int, group_size: int
    ):
        self.bits = BitWidth.from_bits(int(bits))
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.group_size = group_size
        self.pad = (-head_dim) % group_size
        self.n_groups = (head_dim + self.pad) // group_size
        self.code_width = n_kv_heads * self.n_groups * group_size
        self.meta_width = 2 * n_kv_heads * self.n_groups

    def batch_key(self):
        # Scales travel with the rows: any codec of this geometry decodes them.
        return (type(self), self.bits, self.n_kv_heads, self.head_dim, self.group_size)

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``(m, h, d)`` float rows into code + metadata rows."""
        gq = group_quantize(x, self.bits, self.group_size)
        m = x.shape[0]
        codes = gq.inner.codes.reshape(m, self.code_width)
        scale = gq.inner.scale.reshape(m, -1)
        zero_point = gq.inner.zero_point.reshape(m, -1)
        meta = np.concatenate([scale, zero_point], axis=1).astype(np.float32)
        return codes, meta

    def decode(self, codes: np.ndarray, meta: np.ndarray) -> np.ndarray:
        m = codes.shape[0]
        h, g, gs = self.n_kv_heads, self.n_groups, self.group_size
        grouped = codes.reshape(m, h, g, gs)
        half = h * g
        scale = meta[:, :half].reshape(m, h, g, 1)
        zero_point = meta[:, half:].reshape(m, h, g, 1)
        inner = QuantizedTensor(grouped, scale, zero_point, self.bits)
        return GroupQuantizedTensor(
            inner=inner,
            original_shape=(m, h, self.head_dim),
            group_size=gs,
            pad=self.pad,
        ).dequantize()


class PerTokenCodec(TokenRowCodec):
    """Per-token uniform quantization (one scale/zero point per token-head row).

    KIVI's V-cache scheme; equivalent to
    :func:`repro.quant.schemes.fake_quantize_per_token`.
    """

    def __init__(self, bits: BitWidth | int, n_kv_heads: int, head_dim: int):
        self.bits = BitWidth.from_bits(int(bits))
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.code_width = n_kv_heads * head_dim
        self.meta_width = 2 * n_kv_heads

    def batch_key(self):
        # Scales travel with the rows: any codec of this geometry decodes them.
        return (type(self), self.bits, self.n_kv_heads, self.head_dim)

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``(m, h, d)`` float rows into code + metadata rows."""
        qt = per_token_quantize(x, self.bits)
        m = x.shape[0]
        codes = qt.codes.reshape(m, self.code_width)
        scale = qt.scale.reshape(m, -1)
        zero_point = qt.zero_point.reshape(m, -1)
        meta = np.concatenate([scale, zero_point], axis=1).astype(np.float32)
        return codes, meta

    def decode(self, codes: np.ndarray, meta: np.ndarray) -> np.ndarray:
        m = codes.shape[0]
        h, d = self.n_kv_heads, self.head_dim
        scale = meta[:, :h].reshape(m, h, 1)
        zero_point = meta[:, h:].reshape(m, h, 1)
        return QuantizedTensor(
            codes.reshape(m, h, d), scale, zero_point, self.bits
        ).dequantize()


class PerChannelCodec(TokenRowCodec):
    """Per-channel uniform quantization with tensor-wide shared scales.

    KIVI's K-cache scheme: the scale/zero point of each ``(head, channel)``
    column is computed over *all* context tokens at once, so the codec is
    fitted on the full context tensor and the shared parameters are stored
    once per sequence (pages hold only the code rows).  Decoding a subset of
    rows is elementwise and therefore identical to decoding everything and
    slicing.
    """

    def __init__(self, x: np.ndarray, bits: BitWidth | int):
        self.bits = BitWidth.from_bits(int(bits))
        _, h, d = x.shape
        self.n_kv_heads = h
        self.head_dim = d
        self.code_width = h * d
        self.meta_width = 0
        qt = per_channel_quantize(x, self.bits)
        self.scale = qt.scale  # (1, h, d)
        self.zero_point = qt.zero_point
        self._codes = qt.codes.reshape(x.shape[0], self.code_width)

    def take_codes(self) -> np.ndarray:
        """Code rows of the tensor the codec was fitted on."""
        return self._codes

    def decode(self, codes: np.ndarray, meta: np.ndarray) -> np.ndarray:
        del meta
        return QuantizedTensor(
            codes.reshape(codes.shape[0], self.n_kv_heads, self.head_dim),
            self.scale,
            self.zero_point,
            self.bits,
        ).dequantize()

    def shared_bytes(self) -> int:
        return metadata_bytes_for_groups(self.n_kv_heads * self.head_dim)


class NuqChannelNormCodec(TokenRowCodec):
    """KVQuant's channel-normalised non-uniform codec.

    The per-channel offset and scale plus the fitted nuq codebook are global
    over the quantized token set, so they live on the codec (accounted once)
    while pages store only the ``uint8`` codebook indices.  Construction and
    decode replicate :meth:`KVQuantQuantizer` numerics exactly: center per
    channel, scale by the per-channel absolute maximum, quantize against the
    fitted codebook, and invert the normalisation after lookup.
    """

    def __init__(self, x: np.ndarray, bits: BitWidth | int):
        self.bits = BitWidth.from_bits(int(bits))
        _, h, d = x.shape
        self.n_kv_heads = h
        self.head_dim = d
        self.code_width = h * d
        self.meta_width = 0
        self.channel_mean = x.mean(axis=0, keepdims=True)
        centered = x - self.channel_mean
        scale = np.max(np.abs(centered), axis=0, keepdims=True)
        self.scale = np.maximum(scale, 1e-12)
        nq = nuq_quantize(centered / self.scale, self.bits)
        self.codebook = nq.codebook
        self._codes = nq.codes.reshape(x.shape[0], self.code_width)

    def take_codes(self) -> np.ndarray:
        """Code rows of the tensor the codec was fitted on."""
        return self._codes

    def decode(self, codes: np.ndarray, meta: np.ndarray) -> np.ndarray:
        del meta
        shape = (codes.shape[0], self.n_kv_heads, self.head_dim)
        dequantized = self.codebook[codes].reshape(shape).astype(np.float32)
        return dequantized * self.scale + self.channel_mean

    def shared_bytes(self) -> int:
        # FP16 codebook plus one FP16 (mean, scale) pair per channel.
        return 2 * int(self.codebook.size) + metadata_bytes_for_groups(
            self.n_kv_heads * self.head_dim
        )


@dataclass
class TensorEncoding:
    """Coded storage of the context region of one layer's K or V tensor.

    Attributes
    ----------
    token_bits:
        Per-token storage bitwidth; ``FP16`` rows stay as float rows inside
        their page (fake quantization never modifies FP16-marked tokens, so
        the page already holds the correct values), everything else is
        coded.  All encodings of one request must share the same
        ``token_bits`` — it is the plan's per-*token* precision assignment,
        and the paged cache compacts a page row for every tensor at once.
    codes:
        ``(n_tokens, code_width)`` ``uint8`` code rows (valid where
        ``token_bits`` is quantized; FP16 rows are zero).
    meta:
        ``(n_tokens, meta_width)`` float32 per-token metadata rows.
    codecs:
        Decoder per quantized bitwidth present in ``token_bits``.  All
        codecs of one encoding share ``code_width``/``meta_width``.
    """

    n_tokens: int
    n_kv_heads: int
    head_dim: int
    token_bits: np.ndarray
    codes: np.ndarray | None = None
    meta: np.ndarray | None = None
    codecs: dict[int, TokenRowCodec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.token_bits = np.asarray(self.token_bits, dtype=np.int64)
        if self.token_bits.shape != (self.n_tokens,):
            raise ValueError(
                f"token_bits must have shape ({self.n_tokens},), got {self.token_bits.shape}"
            )
        quantized = set(np.unique(self.token_bits).tolist()) - {int(BitWidth.FP16)}
        missing = quantized - set(self.codecs)
        if missing:
            raise ValueError(f"no codec registered for bitwidths {sorted(missing)}")

    def shared_bytes(self) -> int:
        """Cross-token metadata bytes of all codecs of this tensor."""
        return sum(codec.shared_bytes() for codec in self.codecs.values())


def _blank_rows(
    n_tokens: int, codecs: dict[int, TokenRowCodec]
) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed full-context code/meta row buffers sized for ``codecs``."""
    widths = {(c.code_width, c.meta_width) for c in codecs.values()}
    if len(widths) != 1:
        raise ValueError("all codecs of one encoding must share row widths")
    code_width, meta_width = next(iter(widths))
    codes = np.zeros((n_tokens, code_width), dtype=np.uint8)
    meta = np.zeros((n_tokens, meta_width), dtype=np.float32)
    return codes, meta


def encode_per_token_groups(
    k: np.ndarray,
    v: np.ndarray,
    token_bits: np.ndarray,
    group_size: int,
    *,
    start: int = 0,
) -> tuple[TensorEncoding, TensorEncoding]:
    """Encode context K/V with token-local quantization groups.

    Used by Cocktail (``group_size == head_dim``, mixed bits per token) and
    Atom (uniform bits).  Tokens marked FP16 stay as float rows.

    ``start`` skips the quantization work for the leading rows: the groups
    are token-local, so rows below ``start`` (matched by the prefix index
    and adopted already packed) do not influence the codes of the rows
    after them.  Their code rows are left blank.
    """
    token_bits = np.asarray(token_bits, dtype=np.int64)
    n_tokens, h, d = k.shape
    encodings = []
    for tensor in (k, v):
        quantized_bits = sorted(
            set(token_bits.tolist()) - {int(BitWidth.FP16)}
        )
        codecs = {
            bits: PerTokenGroupCodec(bits, h, d, group_size)
            for bits in quantized_bits
        }
        codes = meta = None
        if codecs:
            codes, meta = _blank_rows(n_tokens, codecs)
            for bits, codec in codecs.items():
                mask = token_bits == bits
                mask[:start] = False
                if mask.any():
                    codes[mask], meta[mask] = codec.encode(tensor[mask])
        encodings.append(
            TensorEncoding(
                n_tokens=n_tokens,
                n_kv_heads=h,
                head_dim=d,
                token_bits=token_bits,
                codes=codes,
                meta=meta,
                codecs=codecs,
            )
        )
    return encodings[0], encodings[1]


def encode_fitted(
    tensor: np.ndarray,
    token_bits: np.ndarray,
    codec_cls,
    bits: BitWidth | int,
    *,
    start: int = 0,
) -> TensorEncoding:
    """Encode one tensor with a codec fitted on its quantized token rows.

    ``codec_cls`` is a :class:`PerChannelCodec`-style class whose
    constructor takes the quantized rows and exposes :meth:`take_codes`.
    FP16-marked rows (KVQuant outlier tokens) stay as float rows in their
    page.

    The fit always covers **all** quantized rows — the shared scales /
    codebooks depend on the full context, which is why these methods only
    ever share pages between exact full-context repeats — but ``start``
    blanks the code rows of the leading (already adopted) pages so they are
    not materialised twice.
    """
    token_bits = np.asarray(token_bits, dtype=np.int64)
    n_tokens, h, d = tensor.shape
    mask = token_bits != int(BitWidth.FP16)
    codes = meta = None
    codecs: dict[int, TokenRowCodec] = {}
    if mask.any():
        codec = codec_cls(tensor[mask], bits)
        codecs = {int(codec.bits): codec}
        codes, meta = _blank_rows(n_tokens, codecs)
        codes[mask] = codec.take_codes()
        codes[:start] = 0
    return TensorEncoding(
        n_tokens=n_tokens,
        n_kv_heads=h,
        head_dim=d,
        token_bits=token_bits,
        codes=codes,
        meta=meta,
        codecs=codecs,
    )
