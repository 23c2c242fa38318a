"""Walk through the representable ranges of fp32, fp16 and bf16.

bf16 keeps the fp32 exponent, so it covers the same huge range at a
quarter of the relative precision.  fp16 trades range for mantissa bits
and dies early at the bottom: anything below ~6e-5 is subnormal and
anything below ~6e-8 flushes to zero.
"""

import numpy as np

from bf16emu.numerics import Precision, format_limits, quantize_array


def show(precision):
    lim = format_limits(precision)
    sub = "none (flushed)" if lim.min_subnormal is None \
        else f"{lim.min_subnormal:.4e}"
    print(f"{precision.value}: max normal {lim.max_normal:.4e}, "
          f"min normal {lim.min_normal:.4e}, min subnormal {sub}, "
          f"epsilon {lim.epsilon:.4e}")


def main():
    for precision in (Precision.FP32, Precision.FP16, Precision.BF16):
        show(precision)

    print()
    probes = [1e38, 7e4, 1.0, 1e-4, 1e-6, 1e-7, 1e-8, 1e-38, 1e-40]
    print(f"{'value':>8}  {'as bf16':>13}  {'as fp16':>13}")
    for v in probes:
        b = quantize_array(np.float32(v), Precision.BF16)
        h = quantize_array(np.float32(v), Precision.FP16)
        print(f"{v:8.0e}  {float(b):13.6e}  {float(h):13.6e}")
    print("\nfp16 saturates above 65504 and flushes tiny magnitudes "
          "that bf16 still represents.")


if __name__ == "__main__":
    main()
