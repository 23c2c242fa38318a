"""Bit-exact scalar and bulk conversions for BFLOAT16 and IEEE binary16.

BFLOAT16 is the top 16 bits of the FP32 encoding (1 sign, 8 exponent,
7 mantissa).  Truncation keeps them as they are; round-to-nearest-even
adds 0x7FFF plus the lowest kept bit to the FP32 pattern before the
shift.  FP16 is standard IEEE binary16 with subnormal support; narrowing
to it is NumPy's float32 -> float16 cast, which rounds to nearest even
exactly, and truncation steps that result back by one ulp where it
rounded away from zero.

Quantized values are usually kept as FP32 floats whose low mantissa bits
are zero; the ``*_array`` functions operate on numpy arrays and are what
the tensor layer uses.  The scalar wrappers return small bit-pattern
wrapper objects for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "RoundingMode",
    "SubnormalPolicy",
    "FpClass",
    "FormatSpec",
    "FormatLimits",
    "FP32_SPEC",
    "FP16_SPEC",
    "BF16_SPEC",
    "BF16_SPEC_SUBNORMAL",
    "Bf16Bits",
    "Fp16Bits",
    "f32_to_bf16",
    "bf16_to_f32",
    "f32_to_fp16",
    "fp16_to_f32",
    "quantize_scalar",
    "format_limits",
    "classify",
    "f32_to_bf16_array",
    "bf16_to_f32_array",
    "f32_to_fp16_array",
    "fp16_to_f32_array",
    "quantize_array",
]


class RoundingMode(Enum):
    NEAREST_EVEN = "rne"
    TRUNCATE = "trunc"


class SubnormalPolicy(Enum):
    SUPPORTED = "supported"
    FLUSH_TO_ZERO = "ftz"


class FpClass(Enum):
    ZERO = "zero"
    SUBNORMAL = "subnormal"
    NORMAL = "normal"
    INFINITE = "infinite"
    NAN = "nan"


# (exponent_bits, mantissa_bits, bias) rows that may be instantiated.
_ALLOWED_ROWS = {
    (8, 23, 127),  # FP32
    (5, 10, 15),   # FP16
    (8, 7, 127),   # BF16
}


@dataclass(frozen=True)
class FormatSpec:
    """Storage layout of a floating-point format.

    ``mantissa_bits`` counts explicit stored bits (hidden bit excluded).
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    bias: int
    subnormal_policy: SubnormalPolicy = SubnormalPolicy.SUPPORTED

    def __post_init__(self):
        row = (self.exponent_bits, self.mantissa_bits, self.bias)
        if row not in _ALLOWED_ROWS:
            raise ValueError(f"unsupported format layout {row}")
        # Only the bf16 narrowing can flush; fp16 keeps its subnormals and
        # fp32 is not narrowed at all.
        if self.subnormal_policy is SubnormalPolicy.FLUSH_TO_ZERO \
                and self.mantissa_bits != 7:
            raise ValueError(f"{self.name}: flush-to-zero is supported "
                             "only for the bf16 layout")


FP32_SPEC = FormatSpec("fp32", 8, 23, 127)
FP16_SPEC = FormatSpec("fp16", 5, 10, 15)
# Table-style BF16 has no subnormals; flushing on conversion output is the
# default, with a pure bit-masking variant available for comparison.
BF16_SPEC = FormatSpec("bf16", 8, 7, 127, SubnormalPolicy.FLUSH_TO_ZERO)
BF16_SPEC_SUBNORMAL = FormatSpec("bf16-subnormal", 8, 7, 127)


@dataclass(frozen=True)
class FormatLimits:
    max_normal: float
    min_normal: float
    min_subnormal: float | None
    epsilon: float  # ulp of 1.0


def format_limits(spec: FormatSpec) -> FormatLimits:
    """Closed-form range limits computed from the format layout alone."""
    emax = (1 << spec.exponent_bits) - 2 - spec.bias
    emin = 1 - spec.bias
    m = spec.mantissa_bits
    max_normal = (2.0 - 2.0 ** -m) * 2.0 ** emax
    min_normal = 2.0 ** emin
    if spec.subnormal_policy is SubnormalPolicy.FLUSH_TO_ZERO:
        min_subnormal = None
    else:
        min_subnormal = 2.0 ** (emin - m)
    return FormatLimits(max_normal, min_normal, min_subnormal, 2.0 ** -m)


@dataclass(frozen=True)
class Bf16Bits:
    """A BFLOAT16 bit pattern: sign(1) exponent(8, bias 127) mantissa(7)."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= 0xFFFF:
            raise ValueError("bf16 pattern must fit in 16 bits")

    @property
    def sign(self) -> int:
        return (self.bits >> 15) & 1

    @property
    def exponent(self) -> int:
        return (self.bits >> 7) & 0xFF

    @property
    def mantissa(self) -> int:
        return self.bits & 0x7F


@dataclass(frozen=True)
class Fp16Bits:
    """An IEEE binary16 bit pattern: sign(1) exponent(5, bias 15) mantissa(10)."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= 0xFFFF:
            raise ValueError("fp16 pattern must fit in 16 bits")

    @property
    def sign(self) -> int:
        return (self.bits >> 15) & 1

    @property
    def exponent(self) -> int:
        return (self.bits >> 10) & 0x1F

    @property
    def mantissa(self) -> int:
        return self.bits & 0x3FF


# ---------------------------------------------------------------------------
# bulk (numpy) conversions
# ---------------------------------------------------------------------------


def f32_to_bf16_array(
    x,
    mode: RoundingMode = RoundingMode.NEAREST_EVEN,
    *,
    flush_subnormals: bool = True,
) -> np.ndarray:
    """Convert FP32 values to BF16 bit patterns (uint16).

    NEAREST_EVEN rounds on the discarded low 16 bits with ties to even;
    TRUNCATE keeps the top 16 bits unchanged.  NaN inputs keep their
    payload when its top 7 bits are nonzero (so exactly-widened NaN
    patterns round-trip), otherwise map to the canonical quiet NaN with
    the sign preserved; subnormal results flush to signed zero unless
    ``flush_subnormals`` is disabled.
    """
    f = np.ascontiguousarray(x, dtype=np.float32)
    bits = f.view(np.uint32)
    is_nan = np.isnan(f)

    if mode is RoundingMode.NEAREST_EVEN:
        # Adding 0x7FFF plus the lowest kept bit carries into bit 16
        # exactly when the discarded half is above 0x8000, or equals it
        # with an odd kept half.  Only NaN patterns can wrap around, and
        # those are replaced below.
        bits = bits + (np.uint32(0x7FFF)
                       + ((bits >> np.uint32(16)) & np.uint32(1)))
    out = (bits >> np.uint32(16)).astype(np.uint16)
    if np.any(is_nan):
        # Keep the truncated payload when nonzero; a payload that lost
        # all its bits would decode as infinity, so canonicalize it.
        kept = (f.view(np.uint32) >> np.uint32(16)).astype(np.uint16)
        lost = (kept & np.uint16(0x007F)) == 0
        canon = ((kept & np.uint16(0x8000)) | np.uint16(0x7FC0))
        out = np.where(is_nan, np.where(lost, canon, kept), out)
    if flush_subnormals:
        sub = ((out & np.uint16(0x7F80)) == 0) & ((out & np.uint16(0x007F)) != 0)
        out = np.where(sub, out & np.uint16(0x8000), out)
    return out


def bf16_to_f32_array(bits) -> np.ndarray:
    """Exact widening: BF16 bits become the top 16 bits of an FP32 pattern."""
    b = np.ascontiguousarray(bits, dtype=np.uint16).astype(np.uint32)
    return (b << np.uint32(16)).view(np.float32)


def f32_to_fp16_array(
    x, mode: RoundingMode = RoundingMode.NEAREST_EVEN
) -> np.ndarray:
    """Convert FP32 values to IEEE binary16 bit patterns (uint16).

    NEAREST_EVEN is NumPy's IEEE float32 -> float16 cast: ties to even,
    subnormal results kept, overflow to infinity.  TRUNCATE steps that
    result back by one ulp wherever it rounded away from zero, so
    overflow saturates to the maximum finite value (round toward zero
    never leaves the finite range).  NaN inputs map to the canonical
    quiet NaN with the sign preserved.
    """
    f = np.ascontiguousarray(x, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        h = f.astype(np.float16)
    out = h.view(np.uint16)
    if mode is RoundingMode.TRUNCATE:
        # Sign-magnitude encoding: one less is one ulp toward zero, and
        # infinity minus one is the maximum finite value.
        away = np.abs(h.astype(np.float32)) > np.abs(f)
        out = out - away.astype(np.uint16)
    is_nan = np.isnan(f)
    if np.any(is_nan):
        sign = (f.view(np.uint32)[is_nan] >> np.uint32(16)).astype(np.uint16)
        out[is_nan] = (sign & np.uint16(0x8000)) | np.uint16(0x7E00)
    return out


def fp16_to_f32_array(bits) -> np.ndarray:
    """Exact widening of binary16 patterns to FP32 (subnormals included)."""
    b = np.ascontiguousarray(bits, dtype=np.uint16)
    return b.view(np.float16).astype(np.float32)


def quantize_array(x, spec: FormatSpec,
                   mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> np.ndarray:
    """Project FP32 values onto the set exactly representable in ``spec``.

    Storage stays FP32; the operation is idempotent.
    """
    f = np.ascontiguousarray(x, dtype=np.float32)
    if spec.exponent_bits == 8 and spec.mantissa_bits == 23:
        return f.copy()
    if spec.mantissa_bits == 7:
        ftz = spec.subnormal_policy is SubnormalPolicy.FLUSH_TO_ZERO
        return bf16_to_f32_array(f32_to_bf16_array(f, mode, flush_subnormals=ftz))
    return fp16_to_f32_array(f32_to_fp16_array(f, mode))


# ---------------------------------------------------------------------------
# scalar wrappers
# ---------------------------------------------------------------------------


def f32_to_bf16(x: float, mode: RoundingMode = RoundingMode.NEAREST_EVEN,
                *, flush_subnormals: bool = True) -> Bf16Bits:
    bits = f32_to_bf16_array(np.float32(x), mode,
                             flush_subnormals=flush_subnormals)
    return Bf16Bits(int(bits.ravel()[0]))


def bf16_to_f32(b: Bf16Bits) -> float:
    return float(bf16_to_f32_array(np.uint16(b.bits)).ravel()[0])


def f32_to_fp16(x: float,
                mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> Fp16Bits:
    return Fp16Bits(int(f32_to_fp16_array(np.float32(x), mode).ravel()[0]))


def fp16_to_f32(h: Fp16Bits) -> float:
    return float(fp16_to_f32_array(np.uint16(h.bits)).ravel()[0])


def quantize_scalar(x: float, spec: FormatSpec,
                    mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> float:
    return float(quantize_array(np.float32(x), spec, mode).ravel()[0])


def classify(x) -> FpClass:
    """IEEE classification of a float value or a 16-bit pattern wrapper."""
    if isinstance(x, Bf16Bits):
        return _classify_fields(x.exponent, x.mantissa, 0xFF)
    if isinstance(x, Fp16Bits):
        return _classify_fields(x.exponent, x.mantissa, 0x1F)
    v = float(x)
    if math.isnan(v):
        return FpClass.NAN
    if math.isinf(v):
        return FpClass.INFINITE
    if v == 0.0:
        return FpClass.ZERO
    bits = int(np.float32(v).view(np.uint32))
    return _classify_fields((bits >> 23) & 0xFF, bits & 0x7FFFFF, 0xFF)


def _classify_fields(exponent: int, mantissa: int, emask: int) -> FpClass:
    if exponent == emask:
        return FpClass.NAN if mantissa else FpClass.INFINITE
    if exponent == 0:
        return FpClass.SUBNORMAL if mantissa else FpClass.ZERO
    return FpClass.NORMAL
