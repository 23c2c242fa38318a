"""Exhaustive check of the FP32 narrowing paths over all 2^32 bit patterns.

Every non-NaN FP32 pattern is converted and compared bit for bit with
``oracles.round_vectorized``; every NaN pattern is checked against the
documented NaN rule of its format.  Each case takes about 5 (bf16) to
15 (fp16) minutes on one core, so the module is marked ``slow`` and left
out of the default run.  Run it with::

    pytest -m slow tests/test_exhaustive.py

Cases are independent; ``-k bf16`` and ``-k fp16`` split the work over
two processes.
"""

import numpy as np
import pytest

from bf16emu.numerics import (
    RoundingMode,
    bf16_to_f32_array,
    f32_to_bf16_array,
    f32_to_fp16_array,
    fp16_to_f32_array,
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
    pytest.param(lambda x: f32_to_bf16_array(x, RNE), bf16_to_f32_array,
                 BF16_FTZ, "rne", bf16_nan_rule, id="bf16-rne-ftz"),
    pytest.param(lambda x: f32_to_bf16_array(x, TRUNC), bf16_to_f32_array,
                 BF16_FTZ, "trunc", bf16_nan_rule, id="bf16-trunc-ftz"),
    pytest.param(lambda x: f32_to_fp16_array(x, RNE), fp16_to_f32_array,
                 FP16, "rne", fp16_nan_rule, id="fp16-rne"),
    pytest.param(lambda x: f32_to_fp16_array(x, TRUNC), fp16_to_f32_array,
                 FP16, "trunc", fp16_nan_rule, id="fp16-trunc"),
]


def _first_mismatch(bits: np.ndarray, got: np.ndarray,
                    want: np.ndarray) -> str:
    i = int(np.flatnonzero(got != want)[0])
    return f"input 0x{int(bits[i]):08X}: got 0x{int(got[i]):X}, " \
           f"want 0x{int(want[i]):X}"


@pytest.mark.parametrize("narrow, widen, fmt, mode, nan_rule", CASES)
def test_every_fp32_pattern(narrow, widen, fmt, mode, nan_rule):
    offsets = np.arange(CHUNK, dtype=np.uint32)
    for start in range(0, 1 << 32, CHUNK):
        bits = offsets + np.uint32(start)
        x = bits.view(np.float32)
        got = narrow(x)
        nan = np.isnan(x)

        want_nan = nan_rule((bits[nan] >> 16).astype(np.uint16))
        assert np.array_equal(got[nan], want_nan), \
            _first_mismatch(bits[nan], got[nan], want_nan)

        ok = ~nan
        got_f32 = widen(got[ok]).view(np.uint32)
        want_f32 = round_vectorized(x[ok], fmt, mode) \
            .astype(np.float32).view(np.uint32)
        assert np.array_equal(got_f32, want_f32), \
            _first_mismatch(bits[ok], got_f32, want_f32)
