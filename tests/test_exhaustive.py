"""Exhaustive check of the FP32 narrowing paths over all 2^32 bit patterns.

Every non-NaN FP32 pattern is converted and compared bit for bit with
``oracles.round_vectorized``; every NaN pattern is checked against the
documented NaN rule of its format.  ``quantize_array``, the projection
training runs, must give the bits of the widened narrowing, NaNs
included.  Each case takes about 5 minutes on one core, so the module
is marked ``slow`` and left out of the default run.  Run it with::

    pytest -m slow tests/test_exhaustive.py

Cases are independent; ``-k bf16`` and ``-k fp16`` split the work over
two processes.
"""

import numpy as np
import pytest

from bf16emu.numerics import (
    Precision,
    RoundingMode,
    bf16_to_f32_array,
    f32_to_bf16_array,
    f32_to_fp16_array,
    fp16_to_f32_array,
    quantize_array,
)

from oracles import BF16_FTZ, FP16, round_vectorized

pytestmark = pytest.mark.slow

RNE = RoundingMode.NEAREST_EVEN
TRUNC = RoundingMode.TRUNCATE
CHUNK = 1 << 22


def bf16_nan_rule(top16: np.ndarray) -> np.ndarray:
    """Truncated payload if any of its 7 bits survive, else sign | 0x7FC0."""
    lost = (top16 & 0x007F) == 0
    return np.where(lost, (top16 & 0x8000) | 0x7FC0, top16).astype(np.uint16)


def fp16_nan_rule(top16: np.ndarray) -> np.ndarray:
    """Canonical quiet NaN with the input's sign."""
    return ((top16 & 0x8000) | 0x7E00).astype(np.uint16)


CASES = [
    pytest.param(Precision.BF16, RNE, f32_to_bf16_array, bf16_to_f32_array,
                 BF16_FTZ, bf16_nan_rule, id="bf16-rne-ftz"),
    pytest.param(Precision.BF16, TRUNC, f32_to_bf16_array,
                 bf16_to_f32_array, BF16_FTZ, bf16_nan_rule,
                 id="bf16-trunc-ftz"),
    pytest.param(Precision.FP16, RNE, f32_to_fp16_array, fp16_to_f32_array,
                 FP16, fp16_nan_rule, id="fp16-rne"),
    pytest.param(Precision.FP16, TRUNC, f32_to_fp16_array,
                 fp16_to_f32_array, FP16, fp16_nan_rule, id="fp16-trunc"),
]


def _first_mismatch(bits: np.ndarray, got: np.ndarray,
                    want: np.ndarray) -> str:
    i = int(np.flatnonzero(got != want)[0])
    return f"input 0x{int(bits[i]):08X}: got 0x{int(got[i]):X}, " \
           f"want 0x{int(want[i]):X}"


@pytest.mark.parametrize("precision, mode, narrow, widen, fmt, nan_rule",
                         CASES)
def test_every_fp32_pattern(precision, mode, narrow, widen, fmt, nan_rule):
    offsets = np.arange(CHUNK, dtype=np.uint32)
    for start in range(0, 1 << 32, CHUNK):
        bits = offsets + np.uint32(start)
        x = bits.view(np.float32)
        got = narrow(x, mode)
        nan = np.isnan(x)

        want_nan = nan_rule((bits[nan] >> 16).astype(np.uint16))
        assert np.array_equal(got[nan], want_nan), \
            _first_mismatch(bits[nan], got[nan], want_nan)

        ok = ~nan
        got_f32 = widen(got[ok]).view(np.uint32)
        want_f32 = round_vectorized(x[ok], fmt, mode.value) \
            .astype(np.float32).view(np.uint32)
        assert np.array_equal(got_f32, want_f32), \
            _first_mismatch(bits[ok], got_f32, want_f32)

        q = quantize_array(x, precision, mode).view(np.uint32)
        widened = widen(got).view(np.uint32)
        assert np.array_equal(q, widened), _first_mismatch(bits, q, widened)
