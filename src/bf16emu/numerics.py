"""Bit-exact conversions between FP32 and BFLOAT16 or IEEE binary16.

BFLOAT16 is the top 16 bits of the FP32 encoding (1 sign, 8 exponent,
7 mantissa).  Truncation keeps them as they are; round-to-nearest-even
adds 0x7FFF plus the lowest kept bit to the FP32 pattern before the
shift.  bf16 has no subnormals: a result below the minimum normal
flushes to signed zero.  FP16 is standard IEEE binary16 with subnormal
support.  Narrowing to it divides each value by the fp16 quantum of its
binade, rounds the quotient to an integer (ties to even, or toward
zero) and multiplies back; in FP32 each of these steps is exact.

`Precision` names the three formats.  Quantized values are kept as FP32
floats whose low mantissa bits are zero; the ``*_array`` functions take
NumPy arrays or scalars and return uint16 bit patterns or FP32 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Precision",
    "RoundingMode",
    "FormatLimits",
    "format_limits",
    "f32_to_bf16_array",
    "bf16_to_f32_array",
    "f32_to_fp16_array",
    "fp16_to_f32_array",
    "quantize_array",
]


class Precision(Enum):
    FP32 = "fp32"
    BF16 = "bf16"
    FP16 = "fp16"


class RoundingMode(Enum):
    NEAREST_EVEN = "rne"
    TRUNCATE = "trunc"


# (exponent bits, explicit mantissa bits) of each format.
_WIDTHS = {
    Precision.FP32: (8, 23),
    Precision.BF16: (8, 7),
    Precision.FP16: (5, 10),
}


@dataclass(frozen=True)
class FormatLimits:
    max_normal: float
    min_normal: float
    min_subnormal: float | None  # None: subnormals flush to zero
    epsilon: float  # ulp of 1.0


def format_limits(precision: Precision) -> FormatLimits:
    """Closed-form range limits computed from the format layout alone."""
    e, m = _WIDTHS[precision]
    bias = (1 << (e - 1)) - 1
    emax, emin = bias, 1 - bias  # the all-ones exponent is inf and NaN
    max_normal = (2.0 - 2.0 ** -m) * 2.0 ** emax
    min_subnormal = None if precision is Precision.BF16 else 2.0 ** (emin - m)
    return FormatLimits(max_normal, 2.0 ** emin, min_subnormal, 2.0 ** -m)


# ---------------------------------------------------------------------------
# conversions; each keeps its input's shape, so a scalar gives a 0-d array
# ---------------------------------------------------------------------------


# NumPy scalars of the narrowing paths, built once: building one costs
# about a tenth of a small array operation, and a training step narrows
# many small arrays.
_SIXTEEN = np.uint32(16)
_ONE = np.uint32(1)
_RNE_BIAS = np.uint32(0x7FFF)
_HIGH_HALF = np.uint32(0xFFFF0000)
_SIGN = np.uint32(0x80000000)
_F32_EXP = np.uint32(0x7F800000)
_BF16_MANTISSA = np.uint32(0x007F0000)
_QUIET_NAN = np.uint32(0x7FC00000)
_FP16_MIN_NORMAL = np.float32(2.0 ** -14)
_TEN_BINADES = np.uint32(10 << 23)


def _bf16_pattern(x, mode: RoundingMode) -> np.ndarray:
    """The FP32 patterns (uint32) of x narrowed to BF16, shaped like x.

    One uint32 array is rounded, masked and flushed in place; no uint16
    array is made.  The NaN rule costs one reduction unless x holds a
    NaN."""
    f = np.ascontiguousarray(x, dtype=np.float32)
    bits = f.view(np.uint32)
    if mode is RoundingMode.NEAREST_EVEN:
        # Adding 0x7FFF plus the lowest kept bit carries into bit 16
        # exactly when the discarded half is above 0x8000, or equals it
        # with an odd kept half.  Only NaN patterns can wrap around, and
        # those are replaced below.
        r = bits >> _SIXTEEN
        r &= _ONE
        r += _RNE_BIAS
        r += bits
    else:
        r = bits.copy()
    r &= _HIGH_HALF
    # A zero exponent field with a nonzero mantissa is subnormal: flush
    # it to the signed zero (a zero keeps its bits either way).
    np.bitwise_and(r, _SIGN, out=r, where=(r & _F32_EXP) == 0)
    if f.size and np.isnan(f.max()):
        # Keep the truncated payload when nonzero; a payload that lost
        # all its bits would decode as infinity, so canonicalize it.
        nan = np.isnan(f)
        kept = bits[nan] & _HIGH_HALF
        lost = (kept & _BF16_MANTISSA) == 0
        kept[lost] = (kept[lost] & _SIGN) | _QUIET_NAN
        r[nan] = kept
    return r.reshape(np.shape(x))


def f32_to_bf16_array(
    x, mode: RoundingMode = RoundingMode.NEAREST_EVEN
) -> np.ndarray:
    """Convert FP32 values to BF16 bit patterns (uint16).

    NEAREST_EVEN rounds on the discarded low 16 bits with ties to even;
    TRUNCATE keeps the top 16 bits unchanged.  NaN inputs keep their
    payload when its top 7 bits are nonzero (so exactly-widened NaN
    patterns round-trip), otherwise map to the canonical quiet NaN with
    the sign preserved; subnormal results flush to signed zero.
    """
    r = _bf16_pattern(x, mode)
    r >>= _SIXTEEN
    return r.astype(np.uint16)


def bf16_to_f32_array(bits) -> np.ndarray:
    """Exact widening: BF16 bits become the top 16 bits of an FP32 pattern."""
    b = np.ascontiguousarray(bits, dtype=np.uint16).astype(np.uint32)
    return (b << _SIXTEEN).view(np.float32).reshape(np.shape(bits))


def _fp16_values(x, mode: RoundingMode) -> np.ndarray:
    """x narrowed to binary16, as FP32 values shaped like x.

    The quantum of |x| < 2^-14 is the subnormal step 2^-24; above, it is
    2^-10 times the power of two of x's binade.  So q keeps x's exponent
    field, raised to that of 2^-14, less 10, and x / q rounded to an
    integer, times q, is the result: both scalings are by powers of two
    and exact, and a rounding that carries into the next binade lands
    on its power of two.  Holds the result and q, nothing else of full
    size, unless some |x| is 2^15 or more."""
    f = np.ascontiguousarray(x, dtype=np.float32)
    q = f.view(np.uint32) & _F32_EXP
    special = None
    if f.size and np.maximum.reduce(q, None) >= 0x47000000:
        # Some |x| >= 2^15, inf or NaN.  For |x| >= 65520 (the tie of
        # 65504 and 2^16) a table gives the result: top for finite x, inf
        # for infinite x, the quiet NaN for NaN.  Those inputs become
        # zeros of their sign, so the arithmetic below never overflows or
        # meets a NaN, and the entry is or-ed into the result (0 for
        # every other x).
        bits = f.view(np.uint32)
        mag = bits & np.uint32(0x7FFFFFFF)
        inf, qnan = _F32_EXP, _QUIET_NAN
        over = mag >= np.uint32(0x477FF000)
        kind = over.view(np.uint8) + (mag >= inf) + (mag > inf)  # 0 to 3
        top = inf if mode is RoundingMode.NEAREST_EVEN \
            else np.uint32(0x477FE000)  # 65504: truncation stays finite
        special = np.array([0, top, inf, qnan], np.uint32)[kind]
        mag *= over
        f = (bits ^ mag).view(np.float32)
    qf = q.view(np.float32)
    np.maximum(qf, _FP16_MIN_NORMAL, out=qf)
    q -= _TEN_BINADES
    r = f / qf
    if mode is RoundingMode.NEAREST_EVEN:
        np.rint(r, out=r)
    else:
        np.trunc(r, out=r)
    r *= qf
    if special is not None:
        r.view(np.uint32)[...] |= special
    return r.reshape(np.shape(x))


def f32_to_fp16_array(
    x, mode: RoundingMode = RoundingMode.NEAREST_EVEN
) -> np.ndarray:
    """Convert FP32 values to IEEE binary16 bit patterns (uint16).

    NEAREST_EVEN rounds with ties to even and overflows to infinity;
    TRUNCATE rounds toward zero, so finite overflow saturates to the
    maximum finite value, 65504.  Subnormal results are kept.  NaN
    inputs map to the canonical quiet NaN with the sign preserved.
    The values are those of `quantize_array`; scaled by 2^-112 they
    take FP32's exponent bias and fp16 subnormals become FP32 ones, so
    bits 13 to 27 of that pattern and its sign are the fp16 pattern.
    """
    v = _fp16_values(x, mode).reshape(-1) * np.float32(2.0 ** -112)
    b = v.view(np.uint32)
    h = (b >> np.uint32(16)) & np.uint32(0x8000)
    h |= (b >> np.uint32(13)) & np.uint32(0x7FFF)
    return h.astype(np.uint16).reshape(np.shape(x))


def fp16_to_f32_array(bits) -> np.ndarray:
    """Exact widening of binary16 patterns to FP32 (subnormals included)."""
    b = np.ascontiguousarray(bits, dtype=np.uint16)
    return b.view(np.float16).astype(np.float32).reshape(np.shape(bits))


def quantize_array(x, precision: Precision,
                   mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> np.ndarray:
    """Project FP32 values onto the values exactly representable in a format.

    Storage stays FP32; the result is a new array and the operation is
    idempotent.
    """
    if precision is Precision.BF16:
        return _bf16_pattern(x, mode).view(np.float32)
    if precision is Precision.FP16:
        return _fp16_values(x, mode)
    return np.array(x, dtype=np.float32, order="C")
