"""The emulator against this host's own BF16 and F16C instructions.

Small C files are built with gcc and called through ctypes:
``VDPBF16PS`` (a bf16 dot product with FP32 accumulation),
``VCVTNEPS2BF16`` (FP32 to bf16, round to nearest even) and
``VCVTPS2PH`` (FP32 to binary16, round to nearest even).  Each is
compared bit for bit; the known differences are pinned as exact sets.
Without gcc, or without the ``avx512_bf16`` or ``f16c`` CPU flag, the
tests that need it skip.
"""

import ctypes
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from bf16emu.kernels import _gemm
from bf16emu.numerics import (RoundingMode, f32_to_bf16_array,
                              f32_to_fp16_array)

from oracles import fp16_boundary_bits

_C_SOURCE = r"""
#include <immintrin.h>
#include <stdint.h>

/* out[l] = VDPBF16PS chain over `pairs` steps.  a and b hold, for each
   step, 16 lanes of 2 bf16 values: element 2l and 2l+1 of the vector. */
void dot16(const uint16_t *a, const uint16_t *b, int pairs, float *out)
{
    __m512 acc = _mm512_setzero_ps();
    for (int i = 0; i < pairs; i++) {
        __m512i va = _mm512_loadu_si512(a + 32 * i);
        __m512i vb = _mm512_loadu_si512(b + 32 * i);
        acc = _mm512_dpbf16_ps(acc, (__m512bh)va, (__m512bh)vb);
    }
    _mm512_storeu_ps(out, acc);
}

/* n must be a multiple of 16. */
void cvt(const float *x, uint16_t *y, long n)
{
    for (long i = 0; i < n; i += 16) {
        __m256bh r = _mm512_cvtneps_pbh(_mm512_loadu_ps(x + i));
        _mm256_storeu_si256((__m256i *)(y + i), (__m256i)r);
    }
}
"""

_F16C_SOURCE = r"""
#include <immintrin.h>
#include <stdint.h>

/* VCVTPS2PH, round to nearest even.  n must be a multiple of 8. */
void cvt_ph(const float *x, uint16_t *y, long n)
{
    for (long i = 0; i < n; i += 8) {
        __m128i r = _mm256_cvtps_ph(_mm256_loadu_ps(x + i),
                                    _MM_FROUND_TO_NEAREST_INT);
        _mm_storeu_si128((__m128i *)(y + i), r);
    }
}
"""

LANES = 16


def _cpu_has(flag: str) -> bool:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return any(line.startswith("flags") and flag in line.split()
               for line in text.splitlines())


def _build(tmp_path_factory, name: str, source: str, flags: list[str]):
    if shutil.which("gcc") is None:
        pytest.skip("gcc not found")
    tmp = tmp_path_factory.mktemp(name)
    src = tmp / f"{name}.c"
    so = tmp / f"{name}.so"
    src.write_text(source)
    subprocess.run(["gcc", "-O2", *flags, "-shared", "-fPIC", "-o", str(so),
                    str(src)], check=True, capture_output=True, timeout=120)
    return ctypes.CDLL(str(so))


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    if not _cpu_has("avx512_bf16"):
        pytest.skip("CPU lacks the avx512_bf16 flag")
    handle = _build(tmp_path_factory, "bf16hw", _C_SOURCE,
                    ["-mavx512f", "-mavx512bf16"])
    u16p = ctypes.POINTER(ctypes.c_uint16)
    f32p = ctypes.POINTER(ctypes.c_float)
    handle.dot16.argtypes = [u16p, u16p, ctypes.c_int, f32p]
    handle.dot16.restype = None
    handle.cvt.argtypes = [f32p, u16p, ctypes.c_long]
    handle.cvt.restype = None
    return handle


@pytest.fixture(scope="module")
def f16c(tmp_path_factory):
    if not _cpu_has("f16c"):
        pytest.skip("CPU lacks the f16c flag")
    handle = _build(tmp_path_factory, "f16chw", _F16C_SOURCE,
                    ["-mavx", "-mf16c"])
    handle.cvt_ph.argtypes = [ctypes.POINTER(ctypes.c_float),
                              ctypes.POINTER(ctypes.c_uint16), ctypes.c_long]
    handle.cvt_ph.restype = None
    return handle


def _ptr(arr: np.ndarray, ctype):
    assert arr.flags.c_contiguous
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def hw_dot16(lib, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Per-lane hardware dot products of (16, k) bf16 bit patterns."""
    lanes, k = a_bits.shape
    assert lanes == LANES and k % 2 == 0 and b_bits.shape == (lanes, k)
    # Step i takes lane l's elements 2i and 2i+1 from vector slots 2l, 2l+1.
    a = np.ascontiguousarray(
        a_bits.reshape(lanes, k // 2, 2).transpose(1, 0, 2), np.uint16)
    b = np.ascontiguousarray(
        b_bits.reshape(lanes, k // 2, 2).transpose(1, 0, 2), np.uint16)
    out = np.empty(lanes, np.float32)
    lib.dot16(_ptr(a, ctypes.c_uint16), _ptr(b, ctypes.c_uint16), k // 2,
              _ptr(out, ctypes.c_float))
    return out


def hw_cvt(lib, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, np.float32)
    assert x.size % LANES == 0
    y = np.empty(x.size, np.uint16)
    lib.cvt(_ptr(x, ctypes.c_float), _ptr(y, ctypes.c_uint16), x.size)
    return y


def normal_bf16_bits(rng, shape) -> np.ndarray:
    """Normal bf16 patterns with exponents in [-20, 20]: the instruction
    treats subnormal inputs as zero, and no product or partial sum of
    these can be subnormal."""
    sign = rng.integers(0, 2, shape, dtype=np.uint16) << 15
    exp = rng.integers(127 - 20, 127 + 21, shape).astype(np.uint16) << 7
    mant = rng.integers(0, 128, shape, dtype=np.uint16)
    return sign | exp | mant


def as_f32(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << 16).view(np.float32)


def test_dot_product_is_gemm_order_with_pairs_swapped(lib):
    rng = np.random.default_rng(20191)
    mismatched_plain = 0
    lanes_checked = 0
    for k in range(2, 162, 4):
        for _ in range(5):
            a = normal_bf16_bits(rng, (LANES, k))
            b = normal_bf16_bits(rng, (LANES, k))
            hw = hw_dot16(lib, a, b)
            # Lane l is the diagonal element (l, l) of a @ b.T.
            af, bf = as_f32(a), as_f32(b).T
            swap = np.arange(k).reshape(-1, 2)[:, ::-1].ravel()
            emu = np.diagonal(_gemm(af[:, swap], bf[swap, :]))
            assert np.array_equal(hw.view(np.uint32), emu.view(np.uint32)), k
            plain = np.diagonal(_gemm(af, bf))
            mismatched_plain += int(np.count_nonzero(
                hw.view(np.uint32) != plain.view(np.uint32)))
            lanes_checked += LANES
    assert lanes_checked == 3200
    # Without the swap the order disagrees, so the swap is what is pinned.
    assert mismatched_plain > 0


def test_conversion_differs_only_on_nan_and_subnormal_round_up(lib):
    rng = np.random.default_rng(20192)
    bits = rng.integers(0, 2 ** 32, 1 << 20, dtype=np.uint32)
    edges = np.uint32([0x00000000, 0x80000000, 0x00000001, 0x007FFFFF,
                       0x00800000, 0x7F7FFFFF, 0x7F800000, 0xFF800000,
                       0x7F800001, 0x7FC00000, 0xFF80FFFF, 0x3F808000,
                       0x3F818000, 0x007F8000, 0x807F8000, 0x007F7FFF])
    x = np.concatenate([bits, edges]).view(np.float32)
    hw = hw_cvt(lib, x)
    emu = f32_to_bf16_array(x, RoundingMode.NEAREST_EVEN)

    nan = np.isnan(x)
    subnormal = (x != 0) & (np.abs(x) < np.float32(2.0 ** -126))
    # The hardware quiets NaNs (sets bit 0x0040); the emulator keeps a
    # signalling payload.  It also treats FP32 subnormal inputs as zero,
    # while the emulator rounds the largest ones up to the bf16 minimum
    # normal, 0x0080.
    quieted = nan & ((emu & 0x0040) == 0)
    zeroed = subnormal & ((emu & 0x7FFF) == 0x0080)
    expected = emu.copy()
    expected[nan] |= np.uint16(0x0040)
    expected[zeroed] &= np.uint16(0x8000)

    assert np.array_equal(hw, expected)
    differ = np.flatnonzero(hw != emu)
    assert np.array_equal(differ, np.flatnonzero(quieted | zeroed))
    assert np.count_nonzero(quieted) > 1000 and np.count_nonzero(zeroed) > 10


def test_fp16_conversion_differs_only_in_nan_payloads(f16c):
    rng = np.random.default_rng(20193)
    bits = np.concatenate([fp16_boundary_bits().ravel(),
                           rng.integers(0, 2 ** 32, 1 << 20,
                                        dtype=np.uint32)])
    x = bits.view(np.float32)
    assert x.size % 8 == 0
    hw = np.empty(x.size, np.uint16)
    f16c.cvt_ph(_ptr(x, ctypes.c_float), _ptr(hw, ctypes.c_uint16), x.size)
    emu = f32_to_fp16_array(x, RoundingMode.NEAREST_EVEN)

    # The instruction sets a NaN's quiet bit and keeps the top 10 bits of
    # its mantissa; the emulator gives the quiet NaN of its sign, 0x7E00.
    nan = np.isnan(x)
    payload = ((bits >> 13) & 0x01FF).astype(np.uint16)
    expected = emu.copy()
    expected[nan] |= payload[nan]

    assert np.array_equal(hw, expected)
    differ = np.flatnonzero(hw != emu)
    assert np.array_equal(differ, np.flatnonzero(nan & (payload != 0)))
    assert differ.size > 10_000
    # Subnormal results are among the equal ones.
    sub = ((emu & 0x7C00) == 0) & ((emu & 0x03FF) != 0)
    assert np.count_nonzero(sub) > 50_000
