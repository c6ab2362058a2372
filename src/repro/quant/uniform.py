"""Affine uniform quantization.

This is the workhorse codec: a float tensor is mapped to unsigned integer
codes ``q = clip(round(x / scale) + zero_point, 0, 2**bits - 1)`` where the
scale and zero point are computed per *slice* (the whole tensor, or one slice
per row/column/group as decided by the higher-level schemes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.dtypes import BitWidth

_EPS = 1e-12


@dataclass(frozen=True)
class QuantizedTensor:
    """A uniformly quantized tensor together with its dequantization metadata.

    Attributes
    ----------
    codes:
        Unsigned integer codes with the same shape as the original tensor,
        stored as ``uint8`` (bitwidths above 8 are not supported by this
        codec; FP16 slices are kept as floats by the callers).
    scale:
        Per-slice scale, broadcastable against ``codes``.
    zero_point:
        Per-slice zero point (float, asymmetric), broadcastable against
        ``codes``.
    bits:
        The quantization bitwidth.
    symmetric:
        Whether symmetric quantization (zero point fixed at mid-range) was
        used.
    """

    codes: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    bits: BitWidth
    symmetric: bool = False

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the original tensor."""
        return self.codes.shape

    @property
    def n_elements(self) -> int:
        """Number of quantized elements."""
        return int(self.codes.size)

    def dequantize(self) -> np.ndarray:
        """Reconstruct a float32 approximation of the original tensor."""
        return dequantize(self)


def _minmax_along(x: np.ndarray, axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    if axis is None:
        return np.min(x, keepdims=True), np.max(x, keepdims=True)
    return np.min(x, axis=axis, keepdims=True), np.max(x, axis=axis, keepdims=True)


def quantize_uniform(
    x: np.ndarray,
    bits: BitWidth | int,
    *,
    axis: int | None = None,
    symmetric: bool = False,
) -> QuantizedTensor:
    """Quantize ``x`` to ``bits`` with affine uniform quantization.

    Parameters
    ----------
    x:
        Float array of any shape.
    bits:
        Target integer bitwidth (2, 4 or 8).
    axis:
        If ``None`` a single scale/zero-point pair is used for the whole
        tensor.  Otherwise one pair is computed per slice along ``axis``
        (i.e. the reduction runs over ``axis``).
    symmetric:
        Use symmetric quantization around zero (scale set from the absolute
        maximum, zero point at mid-range).  Asymmetric (min/max) is the
        default and is what KV-cache quantizers typically use.

    Returns
    -------
    QuantizedTensor
    """
    bits = BitWidth.from_bits(int(bits))
    if not bits.is_quantized:
        raise ValueError("use the FP16 passthrough for unquantized storage")
    if bits > BitWidth.INT8:
        raise ValueError(f"uniform codec stores codes as uint8; got {bits}")
    x = np.asarray(x, dtype=np.float32)
    qmax = float(bits.qmax)

    if symmetric:
        absmax = (
            np.max(np.abs(x), keepdims=True)
            if axis is None
            else np.max(np.abs(x), axis=axis, keepdims=True)
        )
        scale = np.maximum(absmax, _EPS) / (qmax / 2.0)
        zero_point = np.full_like(scale, qmax / 2.0)
    else:
        xmin, xmax = _minmax_along(x, axis)
        scale = np.maximum(xmax - xmin, _EPS) / qmax
        zero_point = -xmin / scale

    codes = np.clip(np.rint(x / scale + zero_point), 0, qmax).astype(np.uint8)
    return QuantizedTensor(
        codes=codes,
        scale=scale.astype(np.float32),
        zero_point=zero_point.astype(np.float32),
        bits=bits,
        symmetric=symmetric,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float32 tensor encoded by ``qt``.

    One float32 buffer, shifted and scaled in place.  Every producer stores
    ``scale`` and ``zero_point`` as float32 (:func:`quantize_uniform`, the
    codecs' metadata rows), so each in-place step rounds exactly as the
    out-of-place ``(codes - zero_point) * scale`` would.
    """
    out = qt.codes.astype(np.float32)
    out -= qt.zero_point
    out *= qt.scale
    return out


def quantization_step(x: np.ndarray, bits: BitWidth | int, *, axis: int | None = None) -> np.ndarray:
    """Return the quantization step size (scale) without materialising codes.

    Useful for analytic error estimates: the expected squared rounding error
    of uniform quantization is ``scale**2 / 12`` per element.
    """
    bits = BitWidth.from_bits(int(bits))
    x = np.asarray(x, dtype=np.float32)
    xmin, xmax = _minmax_along(x, axis)
    return np.maximum(xmax - xmin, _EPS) / float(bits.qmax)


def fake_quantize(
    x: np.ndarray,
    bits: BitWidth | int,
    *,
    axis: int | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """Quantize then immediately dequantize ``x`` (straight-through view).

    This is the numerically exact effect quantized storage has on any
    downstream computation and is what the accuracy simulator applies to the
    KV cache.
    """
    return dequantize(quantize_uniform(x, bits, axis=axis, symmetric=symmetric))
