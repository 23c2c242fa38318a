"""Independent rounding and arithmetic oracles used by the tests.

Two rounding oracles, both independent of the bit-twiddling conversion
path:

* `round_exact` works on exact rationals (Python Fractions / integers)
  and is the ground truth for small structured sweeps.
* `round_vectorized` decomposes float64 values with frexp and rounds the
  scaled significand with np.rint (ties to even) / np.trunc.  Every
  intermediate is exactly representable in float64, so it is exact too,
  and fast enough for 1e7-point sweeps.

`fp16_boundary_bits` is a sweep of FP32 patterns around every fp16
rounding boundary.  `gemm_loop` is the ordered FP32 GEMM one k step at
a time, and the `conv2d_*_nchw` functions lower a convolution to it in
NCHW, with the window matrices' columns in (n, i, j) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def fp16_boundary_bits() -> np.ndarray:
    """FP32 patterns on and around every fp16 rounding boundary, (N, 6).

    Every exponent from 2^-26 to 2^17, and the all-ones one (infinity and
    NaN), both signs, every top-10-bit mantissa.  The bits below the fp16
    quantum (13 for normal results, up to the whole mantissa for
    subnormal ones) are 0, 1, half-1, half, half+1 and all-ones in the
    six columns.  552960 patterns.
    """
    exps = np.r_[np.arange(101, 145), 255].astype(np.uint32)
    drop = np.clip(126 - exps.astype(np.int64), 13, 23).astype(np.uint32)
    half = np.uint32(1) << (drop - np.uint32(1))
    low = np.stack([np.zeros_like(half), np.ones_like(half), half - 1, half,
                    half + 1, 2 * half - 1], axis=1)
    kept = ~(2 * half - 1)
    tops = np.arange(1024, dtype=np.uint32) << np.uint32(13)
    bits = ((exps << np.uint32(23))[:, None, None]
            | (tops[None, :, None] & kept[:, None, None])
            | low[:, None, :])
    return np.concatenate([bits, bits | np.uint32(0x80000000)]).reshape(-1, 6)


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


# ---------------------------------------------------------------------------
# convolution lowered to gemm_loop in NCHW
# ---------------------------------------------------------------------------
#
# Each output element sums the same products in the same order as in
# ``kernels.conv2d_forward``/``conv2d_backward``; only where it sits in
# the GEMMs' outputs differs.  So the bits agree everywhere but in NaN
# payloads, which can depend on an element's place in its row.


def _extent(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def im2col_nchw(x, k, stride, pad):
    """(C*k*k, N*Ho*Wo): a row per (c, u, v), a column per (n, i, j)."""
    n, c, h, w = x.shape
    ho, wo = _extent(h, k, stride, pad), _extent(w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    wins = sliding_window_view(xp, (k, k), axis=(2, 3))[
        :, :, :ho * stride:stride, :wo * stride:stride]
    return wins.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, n * ho * wo)


def col2im_nchw(cols, x_shape, k, stride, pad):
    """Adds the windows of cols (C*k*k, N*Ho*Wo) into a +0 image one
    (u, v) offset at a time, then drops the padding."""
    n, c, h, w = x_shape
    ho, wo = _extent(h, k, stride, pad), _extent(w, k, stride, pad)
    wins = cols.reshape(c, k, k, n, ho, wo)
    p, s = pad, stride
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), np.float32)
    for u in range(k):
        for v in range(k):
            xp[:, :, u:u + ho * s:s, v:v + wo * s:s] += \
                wins[:, u, v].transpose(1, 0, 2, 3)
    return xp[:, :, p:p + h, p:p + w].copy()


def conv2d_forward_nchw(x, w, stride, pad):
    f, _, k, _ = w.shape
    n, _, h, wd = x.shape
    ho, wo = _extent(h, k, stride, pad), _extent(wd, k, stride, pad)
    out = gemm_loop(w.reshape(f, -1), im2col_nchw(x, k, stride, pad))
    return out.reshape(f, n, ho, wo).transpose(1, 0, 2, 3).copy()


def conv2d_backward_nchw(x, w, dy, stride, pad):
    """(dx, dw): dx's GEMM sums over the output channels, dw's over the
    output pixels (n, i, j) in row-major order."""
    f, _, k, _ = w.shape
    dy_t = dy.transpose(1, 0, 2, 3).reshape(f, -1)
    dx = col2im_nchw(gemm_loop(w.reshape(f, -1).T, dy_t), x.shape, k,
                     stride, pad)
    dw = gemm_loop(dy_t, im2col_nchw(x, k, stride, pad).T)
    return dx, dw.reshape(w.shape)
