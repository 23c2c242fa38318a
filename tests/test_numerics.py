import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bf16emu.numerics import (
    BF16_SPEC,
    BF16_SPEC_SUBNORMAL,
    Bf16Bits,
    FP16_SPEC,
    FP32_SPEC,
    FormatSpec,
    Fp16Bits,
    FpClass,
    RoundingMode,
    SubnormalPolicy,
    bf16_to_f32,
    bf16_to_f32_array,
    classify,
    f32_to_bf16,
    f32_to_bf16_array,
    f32_to_fp16,
    f32_to_fp16_array,
    format_limits,
    fp16_to_f32,
    fp16_to_f32_array,
    quantize_array,
    quantize_scalar,
)

from oracles import BF16_FTZ, BF16_SUB, FP16, round_exact, round_vectorized

RNE = RoundingMode.NEAREST_EVEN
TRUNC = RoundingMode.TRUNCATE


def f32_from_bits(bits: int) -> float:
    return float(np.uint32(bits).view(np.float32))


def bits_from_f32(x: float) -> int:
    return int(np.float32(x).view(np.uint32))


class TestBf16Conversion:
    def test_exact_value_unchanged(self):
        assert f32_to_bf16(1.0, RNE).bits == 0x3F80

    def test_tie_rounds_to_even(self):
        # 0x3F808000 is an exact tie whose lower candidate is even.
        assert f32_to_bf16(f32_from_bits(0x3F808000), RNE).bits == 0x3F80
        # 0x3F818000 ties with an odd lower candidate.
        assert f32_to_bf16(f32_from_bits(0x3F818000), RNE).bits == 0x3F82
        assert bf16_to_f32(Bf16Bits(0x3F82)) == 1.015625

    def test_fp32_max_overflows_to_inf(self):
        assert f32_to_bf16(f32_from_bits(0x7F7FFFFF), RNE).bits == 0x7F80

    def test_truncate_is_bit_mask(self):
        assert f32_to_bf16(f32_from_bits(0x40490FDB), TRUNC).bits == 0x4049
        assert bf16_to_f32(Bf16Bits(0x4049)) == 3.140625

    def test_truncate_keeps_max_finite(self):
        assert f32_to_bf16(f32_from_bits(0x7F7FFFFF), TRUNC).bits == 0x7F7F

    def test_nan_is_canonical_quiet_with_sign(self):
        assert f32_to_bf16(float("nan"), RNE).bits == 0x7FC0
        neg_nan = f32_from_bits(0xFF800001)
        assert f32_to_bf16(neg_nan, TRUNC).bits == 0xFFC0

    def test_signed_zero_preserved(self):
        assert f32_to_bf16(-0.0, RNE).bits == 0x8000
        assert f32_to_bf16(0.0, TRUNC).bits == 0x0000

    def test_subnormal_flush_default_and_switch(self):
        tiny = f32_from_bits(0x00000001)  # smallest fp32 subnormal
        assert f32_to_bf16(tiny, TRUNC).bits == 0x0000
        assert f32_to_bf16(tiny, TRUNC, flush_subnormals=False).bits == 0x0000
        bigger_sub = f32_from_bits(0x00400000)
        assert f32_to_bf16(bigger_sub, TRUNC).bits == 0x0000
        assert f32_to_bf16(bigger_sub, TRUNC,
                           flush_subnormals=False).bits == 0x0040

    def test_widening_examples(self):
        assert bf16_to_f32(Bf16Bits(0x3F80)) == 1.0
        v = bf16_to_f32(Bf16Bits(0x7F7F))
        assert math.isclose(v, 3.3895e38, rel_tol=1e-4)
        assert bf16_to_f32(Bf16Bits(0xC049)) == -3.140625


class TestFp16Conversion:
    def test_max_finite(self):
        assert f32_to_fp16(65504.0, RNE).bits == 0x7BFF

    def test_below_min_subnormal_underflows(self):
        assert f32_to_fp16(1e-10, RNE).bits == 0x0000

    def test_subnormal_result(self):
        h = f32_to_fp16(1e-5, RNE)
        assert h.exponent == 0
        assert fp16_to_f32(h) == 168 * 2.0 ** -24

    def test_widening(self):
        assert fp16_to_f32(Fp16Bits(0x3C00)) == 1.0
        assert fp16_to_f32(Fp16Bits(0x0001)) == pytest.approx(5.9604645e-8)
        assert fp16_to_f32(Fp16Bits(0xFC00)) == float("-inf")

    def test_overflow_modes(self):
        assert f32_to_fp16(1e6, RNE).bits == 0x7C00
        assert f32_to_fp16(1e6, TRUNC).bits == 0x7BFF

    def test_tie_threshold_at_two_pow_minus_25(self):
        assert f32_to_fp16(2.0 ** -25, RNE).bits == 0x0000
        assert f32_to_fp16(f32_from_bits(bits_from_f32(2.0 ** -25) + 1),
                           RNE).bits == 0x0001

    def test_nan_canonical(self):
        assert f32_to_fp16(float("nan"), RNE).bits == 0x7E00

    def test_overflow_nan_and_underflow_raise_no_warning(self):
        x = np.float32([65520.0, 1e30, -np.inf, np.nan, 1e-30])
        want = {RNE: [0x7C00, 0x7C00, 0xFC00, 0x7E00, 0x0000],
                TRUNC: [0x7BFF, 0x7BFF, 0xFC00, 0x7E00, 0x0000]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode, bits in want.items():
                assert f32_to_fp16_array(x, mode).tolist() == bits

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
            got = fp16_to_f32(f32_to_fp16(x, mode))
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


class TestQuantizeScalar:
    def test_pi_bf16(self):
        assert quantize_scalar(3.14159274, BF16_SPEC, RNE) == 3.140625

    def test_fixed_point(self):
        assert quantize_scalar(1.0, BF16_SPEC, TRUNC) == 1.0

    def test_fp16_underflow_signed(self):
        q = quantize_scalar(-1e-10, FP16_SPEC, RNE)
        assert q == 0.0 and math.copysign(1.0, q) == -1.0

    def test_idempotent(self):
        q1 = quantize_scalar(0.1, BF16_SPEC, RNE)
        assert quantize_scalar(q1, BF16_SPEC, RNE) == q1

    def test_fp32_identity(self):
        assert quantize_scalar(0.1, FP32_SPEC, RNE) == np.float32(0.1)


class TestFormatLimits:
    def test_bf16_row(self):
        lim = format_limits(BF16_SPEC)
        assert math.isclose(lim.max_normal, 3.38e38, rel_tol=5e-3)
        assert math.isclose(lim.min_normal, 1.17e-38, rel_tol=5e-3)
        assert lim.min_subnormal is None
        assert lim.epsilon == 2.0 ** -7

    def test_fp16_row(self):
        lim = format_limits(FP16_SPEC)
        assert lim.max_normal == 65504.0
        assert math.isclose(lim.min_normal, 6.10e-5, rel_tol=5e-3)
        assert math.isclose(lim.min_subnormal, 5.96e-8, rel_tol=5e-3)

    def test_only_table_rows_instantiable(self):
        with pytest.raises(ValueError):
            FormatSpec("fp8", 4, 3, 7)

    @pytest.mark.parametrize("row", [(5, 10, 15), (8, 23, 127)],
                             ids=["fp16", "fp32"])
    def test_flush_to_zero_only_on_bf16_row(self, row):
        # fp16 narrowing keeps subnormals (1e-6 stays ~1.01e-6), so an
        # FTZ fp16 spec would report min_subnormal=None and not flush.
        with pytest.raises(ValueError, match="flush-to-zero"):
            FormatSpec("x", *row, SubnormalPolicy.FLUSH_TO_ZERO)
        FormatSpec("x", *row, SubnormalPolicy.SUPPORTED)


class TestClassify:
    @pytest.mark.parametrize("value,expected", [
        (Bf16Bits(0x7F80), FpClass.INFINITE),
        (Bf16Bits(0x7FC0), FpClass.NAN),
        (Fp16Bits(0x0001), FpClass.SUBNORMAL),
        (Fp16Bits(0x3C00), FpClass.NORMAL),
        (0.0, FpClass.ZERO),
        (float("inf"), FpClass.INFINITE),
        (1.5, FpClass.NORMAL),
    ])
    def test_cases(self, value, expected):
        assert classify(value) is expected


class TestRoundTrip:
    def test_all_bf16_patterns_both_modes(self):
        bits = np.arange(1 << 16, dtype=np.uint16)
        widened = bf16_to_f32_array(bits)
        for mode in (RNE, TRUNC):
            back = f32_to_bf16_array(widened, mode, flush_subnormals=False)
            assert np.array_equal(back, bits)


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

    def check_bf16(self, bits32, mode_name, mode, fmt, flush):
        x = bits32.view(np.float32)
        got = bf16_to_f32_array(
            f32_to_bf16_array(x, mode, flush_subnormals=flush))
        for xi, gi in zip(x, got):
            if np.isnan(xi):
                assert np.isnan(gi)
                continue
            want = round_exact(float(xi), fmt, mode_name)
            assert bits_from_f32(want) == bits_from_f32(float(gi)), \
                f"bf16 {mode_name} mismatch at {hex(int(xi.view(np.uint32)))}"

    def test_bf16_structured_sweep_vs_exact_oracle(self):
        sweep = self.structured_sweep()
        self.check_bf16(sweep, "rne", RNE, BF16_FTZ, True)
        self.check_bf16(sweep, "trunc", TRUNC, BF16_FTZ, True)
        self.check_bf16(sweep, "rne", RNE, BF16_SUB, False)

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
        for spec in (BF16_SPEC, FP16_SPEC):
            for mode in (RNE, TRUNC):
                q = quantize_scalar(x, spec, mode)
                assert quantize_scalar(q, spec, mode) == q or np.isnan(q)

    @given(st.floats(width=32, allow_nan=False),
           st.floats(width=32, allow_nan=False))
    @settings(max_examples=300)
    def test_monotonicity(self, x, y):
        if x > y:
            x, y = y, x
        for spec in (BF16_SPEC, FP16_SPEC):
            for mode in (RNE, TRUNC):
                assert quantize_scalar(x, spec, mode) <= \
                    quantize_scalar(y, spec, mode)

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_truncation_toward_zero(self, x):
        for spec in (BF16_SPEC, FP16_SPEC):
            q = quantize_scalar(x, spec, TRUNC)
            assert abs(q) <= abs(x)
            if q != 0:
                assert math.copysign(1.0, q) == math.copysign(1.0, x)

    @given(st.floats(min_value=2.0 ** -126, max_value=2.0 ** 127, width=32))
    @settings(max_examples=300)
    def test_half_ulp_bound_in_normal_range(self, x):
        q = quantize_scalar(x, BF16_SPEC, RNE)
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
        as_bf16 = quantize_array(x, BF16_SPEC, RNE)
        assert np.all(as_bf16 != 0.0)
        rel = np.abs(as_bf16.astype(np.float64) - x.astype(np.float64)) \
            / np.abs(x.astype(np.float64))
        assert rel.max() <= 2.0 ** -8
