"""Software emulation of BFLOAT16 mixed-precision training.

Quantized tensors stay in FP32 storage with every element exactly
representable in the tagged 16-bit format, so FP32 arithmetic reproduces
16-bit-input / FP32-accumulator kernels bit for bit.  `Precision` names
the formats; the ``*_array`` functions in `numerics` convert FP32 values
to and from bf16 (which flushes subnormals) and fp16 bit patterns.
"""

from .numerics import (
    FormatLimits,
    Precision,
    RoundingMode,
    format_limits,
)
from .tensor import (
    QuantPolicy,
    RngStream,
    Tensor,
    quantize_tensor,
)

__all__ = [
    "FormatLimits",
    "Precision",
    "QuantPolicy",
    "RngStream",
    "RoundingMode",
    "Tensor",
    "format_limits",
    "quantize_tensor",
]
