"""Dense FP32 tensors with a precision tag, quantization, init and I/O.

A tensor tagged BF16 or FP16 still stores FP32 values; the tag, a
`numerics.Precision`, asserts that every element is exactly
representable in the tagged format, so FP32 kernels operating on it
reproduce the 16-bit-input / FP32-accumulator arithmetic bit for bit.
Only `netgraph` (between its layers) and the dump format carry the tag;
parameters, optimizers and the harness hold plain float32 arrays, and
`init_tensor` returns one.  A `QuantPolicy` names only the target format
and rounding mode; the network decides which tensors it applies to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Precision, RoundingMode, quantize_array

__all__ = [
    "Tensor",
    "ShapeError",
    "TensorIOError",
    "BadMagicError",
    "UnknownVersionError",
    "TruncatedPayloadError",
    "RngStream",
    "HeNormal",
    "XavierUniform",
    "QuantPolicy",
    "quantize_tensor",
    "init_tensor",
    "dump_tensor",
    "load_tensor",
]


class ShapeError(ValueError):
    pass


class TensorIOError(IOError):
    pass


class BadMagicError(TensorIOError):
    pass


class UnknownVersionError(TensorIOError):
    pass


class TruncatedPayloadError(TensorIOError):
    pass


@dataclass
class Tensor:
    """Row-major FP32 array plus the precision its values are exact in."""

    data: np.ndarray
    tag: Precision = Precision.FP32

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def quantize_tensor(t: Tensor, target: Precision,
                    mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> Tensor:
    """Elementwise projection onto ``target``; shape preserved, idempotent."""
    return Tensor(quantize_array(t.data, target, mode), target)


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: same (seed, stream) is reproducible
    on every platform, independent of draw order elsewhere."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.seed & _MASK64, self.stream & _MASK64]))

    def child(self, index: int) -> "RngStream":
        mixed = (self.stream * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
        return RngStream(self.seed, mixed)


# ---------------------------------------------------------------------------
# initialization schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeNormal:
    fan_in: int

    def __post_init__(self):
        if self.fan_in <= 0:
            raise ValueError("HeNormal requires positive fan_in")


@dataclass(frozen=True)
class XavierUniform:
    fan_in: int
    fan_out: int

    def __post_init__(self):
        if self.fan_in <= 0 or self.fan_out <= 0:
            raise ValueError("XavierUniform requires positive fans")


def init_tensor(shape, scheme, rng: RngStream) -> np.ndarray:
    """Deterministic FP32 initialization from a counter-based stream."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"invalid shape {shape}")
    gen = rng.generator()
    if isinstance(scheme, HeNormal):
        std = np.sqrt(2.0 / scheme.fan_in)
        data = gen.normal(0.0, std, size=shape)
    elif isinstance(scheme, XavierUniform):
        limit = np.sqrt(6.0 / (scheme.fan_in + scheme.fan_out))
        data = gen.uniform(-limit, limit, size=shape)
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return data.astype(np.float32)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"BF16EMU1"
_VERSION = 1
_TAG_CODES = {Precision.FP32: 0, Precision.BF16: 1, Precision.FP16: 2}
_TAG_FROM_CODE = {v: k for k, v in _TAG_CODES.items()}


def dump_tensor(t: Tensor, path) -> None:
    """Write a tensor as magic, version u32, tag u8, rank u32, extents
    u64[rank], then raw little-endian FP32 payload."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBI", _VERSION, _TAG_CODES[t.tag],
                             t.data.ndim))
        fh.write(struct.pack(f"<{t.data.ndim}Q", *t.data.shape))
        fh.write(t.data.astype("<f4").tobytes())


def load_tensor(path) -> Tensor:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(_MAGIC) or raw[: len(_MAGIC)] != _MAGIC:
        raise BadMagicError(f"{path}: not a tensor dump (bad magic)")
    off = len(_MAGIC)
    head = struct.calcsize("<IBI")
    if len(raw) < off + head:
        raise TruncatedPayloadError(f"{path}: truncated header")
    version, tag_code, rank = struct.unpack_from("<IBI", raw, off)
    if version != _VERSION:
        raise UnknownVersionError(f"{path}: unknown format version {version}")
    if tag_code not in _TAG_FROM_CODE:
        raise TensorIOError(f"{path}: unknown precision tag {tag_code}")
    off += head
    if len(raw) < off + 8 * rank:
        raise TruncatedPayloadError(f"{path}: truncated extents")
    shape = struct.unpack_from(f"<{rank}Q", raw, off)
    off += 8 * rank
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    if len(raw) != off + 4 * count:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(raw) - off} bytes, expected {4 * count}")
    data = np.frombuffer(raw, dtype="<f4", offset=off).reshape(shape).copy()
    return Tensor(data, _TAG_FROM_CODE[tag_code])


# ---------------------------------------------------------------------------
# quantization policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantPolicy:
    """The 16-bit format tensors are quantized to, and the rounding.

    Which tensors are quantized is fixed by the dataflow in
    ``netgraph._quantize``, not by the policy.
    """

    precision: Precision = Precision.FP32
    mode: RoundingMode = RoundingMode.NEAREST_EVEN

    @property
    def identity(self) -> bool:
        return self.precision is Precision.FP32
