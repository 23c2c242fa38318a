import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bf16emu.numerics import (
    Precision,
    RoundingMode,
    bf16_to_f32_array,
    f32_to_bf16_array,
    f32_to_fp16_array,
    format_limits,
    fp16_to_f32_array,
    quantize_array,
)

from oracles import (BF16_FTZ, FP16, fp16_boundary_bits, round_exact,
                     round_vectorized)

RNE = RoundingMode.NEAREST_EVEN
TRUNC = RoundingMode.TRUNCATE


def f32_from_bits(bits: int) -> float:
    return float(np.uint32(bits).view(np.float32))


def bits_from_f32(x: float) -> int:
    return int(np.float32(x).view(np.uint32))


class TestBf16Conversion:
    def test_exact_value_unchanged(self):
        assert f32_to_bf16_array(1.0, RNE) == 0x3F80

    def test_tie_rounds_to_even(self):
        # 0x3F808000 is an exact tie whose lower candidate is even.
        assert f32_to_bf16_array(f32_from_bits(0x3F808000), RNE) == 0x3F80
        # 0x3F818000 ties with an odd lower candidate.
        assert f32_to_bf16_array(f32_from_bits(0x3F818000), RNE) == 0x3F82
        assert bf16_to_f32_array(np.uint16(0x3F82)) == 1.015625

    def test_fp32_max_overflows_to_inf(self):
        assert f32_to_bf16_array(f32_from_bits(0x7F7FFFFF), RNE) == 0x7F80

    def test_truncate_is_bit_mask(self):
        assert f32_to_bf16_array(f32_from_bits(0x40490FDB), TRUNC) == 0x4049
        assert bf16_to_f32_array(np.uint16(0x4049)) == 3.140625

    def test_truncate_keeps_max_finite(self):
        assert f32_to_bf16_array(f32_from_bits(0x7F7FFFFF), TRUNC) == 0x7F7F

    def test_nan_is_canonical_quiet_with_sign(self):
        assert f32_to_bf16_array(float("nan"), RNE) == 0x7FC0
        neg_nan = f32_from_bits(0xFF800001)
        assert f32_to_bf16_array(neg_nan, TRUNC) == 0xFFC0

    def test_signed_zero_preserved(self):
        assert f32_to_bf16_array(-0.0, RNE) == 0x8000
        assert f32_to_bf16_array(0.0, TRUNC) == 0x0000

    def test_subnormal_flush_default_and_switch(self):
        # bf16 has no subnormals: every result below 2**-126 is signed 0.
        tiny = f32_from_bits(0x00000001)  # smallest fp32 subnormal
        assert f32_to_bf16_array(tiny, TRUNC) == 0x0000
        bigger_sub = f32_from_bits(0x00400000)
        assert f32_to_bf16_array(bigger_sub, TRUNC) == 0x0000
        assert f32_to_bf16_array(-bigger_sub, RNE) == 0x8000

    def test_widening_examples(self):
        assert bf16_to_f32_array(np.uint16(0x3F80)) == 1.0
        v = float(bf16_to_f32_array(np.uint16(0x7F7F)))
        assert math.isclose(v, 3.3895e38, rel_tol=1e-4)
        assert bf16_to_f32_array(np.uint16(0xC049)) == -3.140625

    def test_scalar_in_scalar_out(self):
        assert f32_to_bf16_array(np.float32(1.0)).shape == ()
        assert bf16_to_f32_array(np.uint16(0x3F80)).shape == ()
        x = np.ones((2, 3), np.float32).T
        assert f32_to_bf16_array(x).shape == (3, 2)
        assert quantize_array(x, Precision.FP32).flags.c_contiguous


class TestFp16Conversion:
    def test_max_finite(self):
        assert f32_to_fp16_array(65504.0, RNE) == 0x7BFF

    def test_below_min_subnormal_underflows(self):
        assert f32_to_fp16_array(1e-10, RNE) == 0x0000

    def test_subnormal_result(self):
        h = f32_to_fp16_array(1e-5, RNE)
        assert (int(h) >> 10) & 0x1F == 0
        assert fp16_to_f32_array(h) == 168 * 2.0 ** -24

    def test_widening(self):
        assert fp16_to_f32_array(np.uint16(0x3C00)) == 1.0
        assert float(fp16_to_f32_array(np.uint16(0x0001))) == \
            pytest.approx(5.9604645e-8)
        assert fp16_to_f32_array(np.uint16(0xFC00)) == float("-inf")

    def test_overflow_modes(self):
        assert f32_to_fp16_array(1e6, RNE) == 0x7C00
        assert f32_to_fp16_array(1e6, TRUNC) == 0x7BFF

    def test_tie_threshold_at_two_pow_minus_25(self):
        assert f32_to_fp16_array(2.0 ** -25, RNE) == 0x0000
        assert f32_to_fp16_array(
            f32_from_bits(bits_from_f32(2.0 ** -25) + 1), RNE) == 0x0001

    def test_nan_canonical(self):
        assert f32_to_fp16_array(float("nan"), RNE) == 0x7E00

    def test_overflow_nan_and_underflow_raise_no_warning(self):
        x = np.float32([65520.0, 1e30, -np.inf, np.nan, 1e-30, -1e-30,
                        0.0, 3.0e38])
        x.view(np.uint32)[6] = 0x7F800001  # a signalling NaN
        want = {RNE: [0x7C00, 0x7C00, 0xFC00, 0x7E00, 0x0000, 0x8000,
                      0x7E00, 0x7C00],
                TRUNC: [0x7BFF, 0x7BFF, 0xFC00, 0x7E00, 0x0000, 0x8000,
                        0x7E00, 0x7BFF]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode, bits in want.items():
                assert f32_to_fp16_array(x, mode).tolist() == bits
                got = quantize_array(x, Precision.FP16, mode)
                assert np.array_equal(
                    got.view(np.uint32),
                    fp16_to_f32_array(np.uint16(bits)).view(np.uint32))

    @pytest.mark.parametrize("mode", [RNE, TRUNC])
    @pytest.mark.parametrize("bits", [
        0x33800000,     # 2**-24, the smallest subnormal
        0x33000000,     # 2**-25, the tie between 0 and 2**-24
        0x33000001,     # just above that tie
        0x387FFFFF,     # just under 2**-14
        0x38800000,     # 2**-14, the smallest normal
        0x477FE000,     # 65504, the largest finite value
        0x477FEFFF,     # 65519.996, just under the tie with infinity
        0x477FF000,     # 65520
    ])
    def test_boundaries_match_exact_oracle(self, mode, bits):
        for b in (bits, bits | 0x80000000):
            x = f32_from_bits(b)
            got = fp16_to_f32_array(f32_to_fp16_array(x, mode))
            want = round_exact(x, FP16, mode.value)
            assert bits_from_f32(got) == bits_from_f32(want), hex(b)

    @pytest.mark.parametrize("mode", [RNE, TRUNC])
    def test_in_and_out_of_range_elements_interleaved(self, mode):
        rng = np.random.default_rng(8)
        mag = 2.0 ** rng.uniform(-30, 20, size=(64, 48))
        x = (mag * rng.choice([-1.0, 1.0], size=mag.shape)).astype(np.float32)
        x[::5, ::3] = 0.0
        x[1::7, 2::5] = -np.inf
        x[3::11, ::7] = 1e30
        x[2::9, 1::4] = 2.0 ** -25
        out = f32_to_fp16_array(x, mode)
        assert out.shape == x.shape
        got = fp16_to_f32_array(out)
        want = round_vectorized(x, FP16, mode.value).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        q = quantize_array(x, Precision.FP16, mode)
        assert np.array_equal(q.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("mode", [RNE, TRUNC])
    def test_zero_d_empty_and_strided_inputs(self, mode):
        rng = np.random.default_rng(9)
        mag = 2.0 ** rng.uniform(-30, 20, size=(24, 40))
        x = (mag * rng.choice([-1.0, 1.0], size=mag.shape)).astype(np.float32)
        x[3, ::4] = np.nan
        inputs = [np.asfortranarray(x), x.T, x[::-2, 1::3], x[5, 7],
                  np.float32(-1e-6), -3.0e-8, x[:0], np.empty((0, 4),
                                                              np.float32)]
        for a in inputs:
            q = quantize_array(a, Precision.FP16, mode)
            h = f32_to_fp16_array(a, mode)
            assert isinstance(q, np.ndarray) and isinstance(h, np.ndarray)
            assert q.shape == h.shape == np.shape(a)
            assert q.dtype == np.float32 and q.flags.c_contiguous
            assert h.dtype == np.uint16
            assert np.array_equal(fp16_to_f32_array(h).view(np.uint32),
                                  q.view(np.uint32))
            v = np.asarray(a, np.float32)
            nan = np.isnan(v)
            want = round_vectorized(v[~nan], FP16, mode.value)
            assert np.array_equal(q[~nan].view(np.uint32),
                                  want.astype(np.float32).view(np.uint32))
            assert np.array_equal(q[nan].view(np.uint32),
                                  (v[nan].view(np.uint32)
                                   & np.uint32(0x80000000))
                                  | np.uint32(0x7FC00000))


class TestQuantizeScalar:
    def test_pi_bf16(self):
        assert quantize_array(3.14159274, Precision.BF16, RNE) == 3.140625

    def test_fixed_point(self):
        assert quantize_array(1.0, Precision.BF16, TRUNC) == 1.0

    def test_fp16_underflow_signed(self):
        q = float(quantize_array(-1e-10, Precision.FP16, RNE))
        assert q == 0.0 and math.copysign(1.0, q) == -1.0

    def test_idempotent(self):
        q1 = quantize_array(0.1, Precision.BF16, RNE)
        assert quantize_array(q1, Precision.BF16, RNE) == q1

    def test_fp32_identity(self):
        assert quantize_array(0.1, Precision.FP32, RNE) == np.float32(0.1)


class TestFormatLimits:
    def test_fp32_row(self):
        lim = format_limits(Precision.FP32)
        fi = np.finfo(np.float32)
        assert lim.max_normal == float(fi.max)
        assert lim.min_normal == float(fi.tiny)
        assert lim.min_subnormal == float(fi.smallest_subnormal)
        assert lim.epsilon == float(fi.eps)

    def test_bf16_row(self):
        lim = format_limits(Precision.BF16)
        assert math.isclose(lim.max_normal, 3.38e38, rel_tol=5e-3)
        assert math.isclose(lim.min_normal, 1.17e-38, rel_tol=5e-3)
        assert lim.min_subnormal is None
        assert lim.epsilon == 2.0 ** -7

    def test_fp16_row(self):
        lim = format_limits(Precision.FP16)
        assert lim.max_normal == 65504.0
        assert math.isclose(lim.min_normal, 6.10e-5, rel_tol=5e-3)
        assert math.isclose(lim.min_subnormal, 5.96e-8, rel_tol=5e-3)


class TestRoundTrip:
    def test_all_bf16_patterns_both_modes(self):
        # Every pattern comes back unchanged except the 252 subnormal
        # ones, which flush to zero of their sign.
        bits = np.arange(1 << 16, dtype=np.uint16)
        sub = ((bits & 0x7F80) == 0) & ((bits & 0x007F) != 0)
        want = np.where(sub, bits & 0x8000, bits)
        widened = bf16_to_f32_array(bits)
        for mode in (RNE, TRUNC):
            assert np.array_equal(f32_to_bf16_array(widened, mode), want)


class TestOracleAgreement:
    """Conversions must bit-match the exact rational oracle."""

    @staticmethod
    def structured_sweep():
        exps = np.arange(256, dtype=np.uint32) << 23
        lows = np.array([0x0000, 0x7FFF, 0x8000, 0x8001, 0xFFFF],
                        np.uint32)
        highs = np.array([0x0000, 0x00554 << 3], np.uint32)  # mantissa top
        grid = (exps[:, None, None] | lows[None, :, None]
                | highs[None, None, :]).reshape(-1)
        return np.concatenate([grid, grid | np.uint32(0x80000000)])

    def check_bf16(self, bits32, mode_name, mode):
        x = bits32.view(np.float32)
        got = bf16_to_f32_array(f32_to_bf16_array(x, mode))
        for xi, gi in zip(x, got):
            if np.isnan(xi):
                assert np.isnan(gi)
                continue
            want = round_exact(float(xi), BF16_FTZ, mode_name)
            assert bits_from_f32(want) == bits_from_f32(float(gi)), \
                f"bf16 {mode_name} mismatch at {hex(int(xi.view(np.uint32)))}"

    def test_bf16_structured_sweep_vs_exact_oracle(self):
        sweep = self.structured_sweep()
        self.check_bf16(sweep, "rne", RNE)
        self.check_bf16(sweep, "trunc", TRUNC)

    def test_fp16_structured_sweep_vs_exact_oracle(self):
        sweep = self.structured_sweep()
        x = sweep.view(np.float32)
        for mode_name, mode in (("rne", RNE), ("trunc", TRUNC)):
            got = fp16_to_f32_array(f32_to_fp16_array(x, mode))
            for xi, gi in zip(x, got):
                if np.isnan(xi):
                    assert np.isnan(gi)
                    continue
                want = round_exact(float(xi), FP16, mode_name)
                assert bits_from_f32(want) == bits_from_f32(float(gi))

    def test_random_sample_vs_vectorized_oracle(self):
        # Smaller sibling of the acceptance sweep; full 1e7 runs there.
        rng = np.random.default_rng(7)
        bits32 = rng.integers(0, 1 << 32, size=200_000, dtype=np.uint64)
        x = bits32.astype(np.uint32).view(np.float32)
        finite = np.isfinite(x)
        x = x[finite].astype(np.float64)
        for fmt, convert in (
            (BF16_FTZ, lambda v, m: bf16_to_f32_array(
                f32_to_bf16_array(v.astype(np.float32), m))),
            (FP16, lambda v, m: fp16_to_f32_array(
                f32_to_fp16_array(v.astype(np.float32), m))),
        ):
            for mode_name, mode in (("rne", RNE), ("trunc", TRUNC)):
                want = round_vectorized(x, fmt, mode_name).astype(np.float32)
                got = convert(x, mode)
                assert np.array_equal(want.view(np.uint32),
                                      got.view(np.uint32))

    @pytest.mark.parametrize("mode", [RNE, TRUNC], ids=["rne", "trunc"])
    def test_bf16_boundary_patterns_vs_vectorized_oracle(self, mode):
        # Every high half with the low halves on and around the rounding
        # boundaries: 524288 patterns, as a 2-D array.  quantize_array and
        # f32_to_bf16_array share one projection; both are checked.
        highs = np.arange(1 << 16, dtype=np.uint32) << 16
        lows = np.uint32([0, 1, 0x4000, 0x7FFF, 0x8000, 0x8001, 0xC000,
                          0xFFFF])
        bits = highs[:, None] | lows[None, :]
        x = bits.view(np.float32)
        got = quantize_array(x, Precision.BF16, mode)
        assert got.shape == x.shape and got.dtype == np.float32
        got_bits = got.view(np.uint32)
        assert np.array_equal(f32_to_bf16_array(x, mode),
                              (got_bits >> 16).astype(np.uint16))
        nan = np.isnan(x)
        want = round_vectorized(x[~nan], BF16_FTZ, mode.value)
        assert np.array_equal(got_bits[~nan],
                              want.astype(np.float32).view(np.uint32))
        # NaN: the truncated payload if any of its 7 bits survive, else
        # the quiet NaN of its sign.
        top = bits[nan] & np.uint32(0xFFFF0000)
        lost = (top & np.uint32(0x007F0000)) == 0
        want_nan = np.where(lost, (top & np.uint32(0x80000000))
                            | np.uint32(0x7FC00000), top)
        assert np.array_equal(got_bits[nan], want_nan)

    @pytest.mark.parametrize("mode", [RNE, TRUNC], ids=["rne", "trunc"])
    def test_fp16_boundary_patterns_vs_vectorized_oracle(self, mode):
        # oracles.fp16_boundary_bits: 552960 patterns on and around every
        # fp16 rounding boundary from 2^-26 to 2^17, plus inf and NaN.
        # quantize_array and f32_to_fp16_array share one narrowing; both
        # are checked.
        bits = fp16_boundary_bits()
        x = bits.view(np.float32)
        got = quantize_array(x, Precision.FP16, mode)
        assert got.shape == x.shape and got.dtype == np.float32
        got_bits = got.view(np.uint32)
        packed = fp16_to_f32_array(f32_to_fp16_array(x, mode))
        assert np.array_equal(packed.view(np.uint32), got_bits)
        nan = np.isnan(x)
        assert np.count_nonzero(nan) > 10_000
        want = round_vectorized(x[~nan], FP16, mode.value)
        assert np.array_equal(got_bits[~nan],
                              want.astype(np.float32).view(np.uint32))
        # NaN: the quiet NaN of its sign, the fp16 0x7E00 widened.
        want_nan = (bits[nan] & np.uint32(0x80000000)) \
            | np.uint32(0x7FC00000)
        assert np.array_equal(got_bits[nan], want_nan)

    def test_numpy_float16_cast_agrees(self):
        # Third, library-provided reference for the fp16 RNE path.
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(100_000) * 10.0 ** rng.integers(
            -8, 8, size=100_000)).astype(np.float32)
        ours = f32_to_fp16_array(x, RNE)
        with np.errstate(over="ignore"):
            theirs = x.astype(np.float16).view(np.uint16)
        assert np.array_equal(ours, theirs)


class TestProperties:
    @given(st.floats(width=32, allow_nan=False))
    @settings(max_examples=300)
    def test_idempotence(self, x):
        for precision in (Precision.BF16, Precision.FP16):
            for mode in (RNE, TRUNC):
                q = quantize_array(x, precision, mode)
                assert quantize_array(q, precision, mode) == q or np.isnan(q)

    @given(st.floats(width=32, allow_nan=False),
           st.floats(width=32, allow_nan=False))
    @settings(max_examples=300)
    def test_monotonicity(self, x, y):
        if x > y:
            x, y = y, x
        for precision in (Precision.BF16, Precision.FP16):
            for mode in (RNE, TRUNC):
                assert quantize_array(x, precision, mode) <= \
                    quantize_array(y, precision, mode)

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_truncation_toward_zero(self, x):
        for precision in (Precision.BF16, Precision.FP16):
            q = float(quantize_array(x, precision, TRUNC))
            assert abs(q) <= abs(x)
            if q != 0:
                assert math.copysign(1.0, q) == math.copysign(1.0, x)

    @given(st.floats(min_value=2.0 ** -126, max_value=2.0 ** 127, width=32))
    @settings(max_examples=300)
    def test_half_ulp_bound_in_normal_range(self, x):
        q = float(quantize_array(x, Precision.BF16, RNE))
        bound = 2.0 ** -8 * 2.0 ** math.floor(math.log2(abs(x)))
        assert abs(q - x) <= bound * (1 + 1e-12)


class TestRangeSeparation:
    def test_bf16_keeps_what_fp16_flushes(self):
        rng = np.random.default_rng(3)
        exps = rng.uniform(np.log10(1.18e-38), -10.0, size=20_000)
        mags = (10.0 ** exps).astype(np.float32)
        signs = np.where(rng.random(20_000) < 0.5, -1.0, 1.0).astype(np.float32)
        x = mags * signs
        as_fp16 = fp16_to_f32_array(f32_to_fp16_array(x, RNE))
        assert np.all(as_fp16 == 0.0)
        as_bf16 = quantize_array(x, Precision.BF16, RNE)
        assert np.all(as_bf16 != 0.0)
        rel = np.abs(as_bf16.astype(np.float64) - x.astype(np.float64)) \
            / np.abs(x.astype(np.float64))
        assert rel.max() <= 2.0 ** -8
