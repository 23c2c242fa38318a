"""Independent rounding and arithmetic oracles used by the tests.

Two oracles, both independent of the bit-twiddling conversion path:

* `round_exact` works on exact rationals (Python Fractions / integers)
  and is the ground truth for small structured sweeps.
* `round_vectorized` decomposes float64 values with frexp and rounds the
  scaled significand with np.rint (ties to even) / np.trunc.  Every
  intermediate is exactly representable in float64, so it is exact too,
  and fast enough for 1e7-point sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class OracleFormat:
    precision: int          # significand bits including the hidden bit
    emin: int               # minimum normal exponent (value = 2**emin)
    emax: int               # maximum normal exponent
    flush_subnormals: bool = False


BF16_FTZ = OracleFormat(precision=8, emin=-126, emax=127,
                        flush_subnormals=True)
FP16 = OracleFormat(precision=11, emin=-14, emax=15)


def round_exact(x: float, fmt: OracleFormat, mode: str) -> float:
    """Round a finite float to the format using exact integer arithmetic.

    mode is "rne" or "trunc".  Returns the rounded value as a float
    (exact: the result always fits in float64).
    """
    if x == 0.0 or np.isnan(x) or np.isinf(x):
        return float(x)
    frac = Fraction(x)
    sign = -1 if frac < 0 else 1
    mag = abs(frac)

    # Exponent e with 2**e <= mag < 2**(e+1).
    e = mag.numerator.bit_length() - mag.denominator.bit_length()
    if mag < Fraction(2) ** e:
        e -= 1
    assert Fraction(2) ** e <= mag < Fraction(2) ** (e + 1)

    # Grid spacing: ulp = 2**(e - p + 1) for normals, fixed for subnormals.
    p = fmt.precision
    if e < fmt.emin:
        ulp_exp = fmt.emin - p + 1
    else:
        ulp_exp = e - p + 1
    ulp = Fraction(2) ** ulp_exp
    q, r = divmod(mag, ulp)
    if mode == "trunc":
        rounded = q * ulp
    else:
        half = ulp / 2
        if r > half or (r == half and q % 2 == 1):
            q += 1
        rounded = q * ulp

    max_normal = (Fraction(2) - Fraction(2) ** (1 - p)) * Fraction(2) ** fmt.emax
    if rounded > max_normal:
        if mode == "trunc":
            rounded = max_normal
        else:
            return float(sign) * float("inf")
    if fmt.flush_subnormals and rounded != 0 and rounded < Fraction(2) ** fmt.emin:
        rounded = Fraction(0)
    result = float(sign * rounded)
    if result == 0.0:
        return 0.0 if sign > 0 else -0.0
    return result


def round_vectorized(x: np.ndarray, fmt: OracleFormat,
                     mode: str) -> np.ndarray:
    """Exact float64-based rounding of an array of finite/special floats."""
    x = np.asarray(x, np.float64)
    out = np.empty_like(x)
    special = ~np.isfinite(x) | (x == 0.0)
    out[special] = x[special]

    v = x[~special]
    m, e = np.frexp(v)  # v = m * 2**e, 0.5 <= |m| < 1
    # frexp exponent e relates to the IEEE exponent E by E = e - 1.
    p_eff = np.where(e - 1 < fmt.emin, fmt.precision - (fmt.emin - (e - 1)),
                     fmt.precision)
    p_eff = np.maximum(p_eff, -2)
    scaled = np.ldexp(m, p_eff)
    if mode == "trunc":
        rounded = np.trunc(scaled)
    else:
        rounded = np.rint(scaled)  # ties to even, exact on this grid
    res = np.ldexp(rounded, e - p_eff)

    max_normal = float((2.0 - 2.0 ** (1 - fmt.precision)) * 2.0 ** fmt.emax)
    over = np.abs(res) > max_normal
    if mode == "trunc":
        res[over] = np.sign(res[over]) * max_normal
    else:
        res[over] = np.sign(res[over]) * np.inf
    if fmt.flush_subnormals:
        sub = (res != 0) & (np.abs(res) < 2.0 ** fmt.emin)
        res = np.where(sub, np.copysign(0.0, res), res)
    # Preserve the sign of results rounded to zero.
    res = np.where(res == 0, np.copysign(0.0, v), res)
    out[~special] = res
    return out


def gemm_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordered FP32 GEMM with one vectorised step per k.

    The accumulator starts at +0.0 and takes each product a[:, j] * b[j]
    in turn.  Every operation is an FP32 multiply or add of whole (m, n)
    arrays, so it is the scalar-loop order of the kernel tests at a speed
    that allows k in the hundreds of thousands.
    """
    a = np.asarray(a, np.float32)
    b = np.asarray(b, np.float32)
    acc = np.zeros((a.shape[0], b.shape[1]), np.float32)
    for j in range(a.shape[1]):
        acc = acc + a[:, j, None] * b[j, None, :]
    return acc
