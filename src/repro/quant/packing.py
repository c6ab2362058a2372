"""Bit-packing of integer codes into ``uint8`` words.

Sub-byte codes (INT2, INT4) are stored several-to-a-byte, little-endian
within each byte: the code at flat index ``i`` occupies bits
``[(i % per_byte) * bits, (i % per_byte + 1) * bits)`` of byte
``i // per_byte``.  Packing is lossless and round-trips exactly.
"""

from __future__ import annotations

import numpy as np

from repro.quant.dtypes import BitWidth


def _codes_per_byte(bits: BitWidth) -> int:
    return 8 // int(bits)


def pack_codes(codes: np.ndarray, bits: BitWidth | int) -> np.ndarray:
    """Pack unsigned integer ``codes`` into a flat ``uint8`` array.

    Parameters
    ----------
    codes:
        Array of unsigned integer codes, each strictly less than
        ``2**bits``.
    bits:
        Bits per code (2, 4 or 8).

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of length ``ceil(codes.size * bits / 8)``.
    """
    bits = BitWidth.from_bits(int(bits))
    if not bits.is_quantized:
        raise ValueError("FP16 values are not bit-packed")
    codes = np.asarray(codes)
    if codes.size and int(codes.max(initial=0)) > bits.qmax:
        raise ValueError(f"codes exceed the {bits.name} range [0, {bits.qmax}]")
    flat = codes.reshape(-1).astype(np.uint8)
    if bits is BitWidth.INT8:
        return flat.copy()
    per_byte = _codes_per_byte(bits)
    pad = (-flat.size) % per_byte
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)])
    flat = flat.reshape(-1, per_byte)
    packed = np.zeros(flat.shape[0], dtype=np.uint8)
    for slot in range(per_byte):
        packed |= flat[:, slot] << (slot * int(bits))
    return packed


def unpack_codes(
    packed: np.ndarray, bits: BitWidth | int, n_codes: int
) -> np.ndarray:
    """Unpack ``n_codes`` codes from a packed ``uint8`` array.

    Parameters
    ----------
    packed:
        Output of :func:`pack_codes`.
    bits:
        Bits per code used during packing.
    n_codes:
        Number of codes originally packed (needed to trim byte padding).

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of length ``n_codes``.
    """
    bits = BitWidth.from_bits(int(bits))
    if not bits.is_quantized:
        raise ValueError("FP16 values are not bit-packed")
    packed = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if bits is BitWidth.INT8:
        return packed[:n_codes].copy()
    per_byte = _codes_per_byte(bits)
    mask = np.uint8(bits.qmax)
    slots = [
        (packed >> (slot * int(bits))) & mask for slot in range(per_byte)
    ]
    interleaved = np.stack(slots, axis=1).reshape(-1)
    if n_codes > interleaved.size:
        raise ValueError(
            f"requested {n_codes} codes but packed buffer holds only {interleaved.size}"
        )
    return interleaved[:n_codes]


def packed_nbytes(n_codes: int, bits: BitWidth | int) -> int:
    """Number of bytes :func:`pack_codes` produces for ``n_codes`` codes."""
    bits = BitWidth.from_bits(int(bits))
    if bits is BitWidth.INT8:
        return n_codes
    per_byte = _codes_per_byte(bits)
    return (n_codes + per_byte - 1) // per_byte


def pack_code_rows(codes: np.ndarray, bits: BitWidth | int) -> np.ndarray:
    """Pack a ``(m, width)`` code matrix into ``(m, row_bytes)`` ``uint8``.

    Every row starts on a byte boundary (a row that does not fill its last
    byte is zero-padded), so any run of token rows is a plain slice of the
    result: a tensor is packed once and handed out page by page.
    """
    bits = BitWidth.from_bits(int(bits))
    m, width = codes.shape
    pad = (-width) % (8 // int(bits))
    if pad:
        codes = np.pad(codes, ((0, 0), (0, pad)))
    return pack_codes(codes, bits).reshape(m, packed_nbytes(width, bits))


def unpack_code_rows(
    packed: np.ndarray, bits: BitWidth | int, width: int
) -> np.ndarray:
    """Unpack :func:`pack_code_rows` output back to ``(m, width)`` codes."""
    m, row_bytes = packed.shape
    stored = row_bytes * 8 // int(bits)
    return unpack_codes(packed, bits, m * stored).reshape(m, stored)[:, :width]
