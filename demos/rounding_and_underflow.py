"""Show how the rounding mode changes narrowed values.

Round-to-nearest-even splits ties toward the even mantissa, so errors
cancel on average.  Truncation always moves toward zero and builds a
systematic bias, which is exactly what shows up later as slightly worse
training losses.
"""

import numpy as np

from bf16emu.numerics import (
    RoundingMode,
    bf16_to_f32_array,
    f32_to_bf16_array,
    f32_to_fp16_array,
    fp16_to_f32_array,
)


def bits16(v):
    return f"0x{int(v):04X}"


def main():
    print("bf16 keeps 8 mantissa bits, so the tie point sits halfway")
    print("between neighbours 2^-7 apart:\n")
    cases = [
        np.float32(1.0) + np.float32(2 ** -8),        # tie, rounds down
        np.float32(1.0 + 2 ** -7) + np.float32(2 ** -8),  # tie, rounds up
        np.float32(np.pi),
    ]
    for x in cases:
        rne = f32_to_bf16_array(x, RoundingMode.NEAREST_EVEN)
        trn = f32_to_bf16_array(x, RoundingMode.TRUNCATE)
        print(f"  {float(x):.9f}: rne -> {bits16(rne)} "
              f"({float(bf16_to_f32_array(rne)):.9f}), "
              f"trunc -> {bits16(trn)} ({float(bf16_to_f32_array(trn)):.9f})")

    print("\nfp16 underflow, step by step:")
    for v in [1e-4, 6.2e-5, 1e-5, 1e-7, 1e-8]:
        back = float(fp16_to_f32_array(f32_to_fp16_array(np.float32(v))))
        note = "subnormal" if 0 < back < 6.1e-5 else \
            ("flushed to zero" if back == 0.0 else "normal")
        rel = abs(back - v) / v if back else 1.0
        print(f"  {v:8.1e} -> {back:12.6e}  ({note}, rel err {rel:.1e})")
    print("\nSubnormals keep small fp16 values alive but with fading")
    print("precision; below the last subnormal the value is simply gone.")
    print("bf16 represents all of these to within 1/256.")


if __name__ == "__main__":
    main()
