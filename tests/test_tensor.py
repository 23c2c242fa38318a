import dataclasses

import numpy as np
import pytest

from bf16emu.numerics import Precision, RoundingMode
from bf16emu.tensor import (
    BadMagicError,
    HeNormal,
    QuantPolicy,
    RngStream,
    ShapeError,
    Tensor,
    TruncatedPayloadError,
    UnknownVersionError,
    XavierUniform,
    dump_tensor,
    init_tensor,
    load_tensor,
    quantize_tensor,
)

from oracles import BF16_FTZ, FP16, round_vectorized

RNE = RoundingMode.NEAREST_EVEN


class TestTensor:
    def test_storage_is_contiguous_fp32(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3).T)
        assert t.data.dtype == np.float32
        assert t.data.flags.c_contiguous
        assert t.shape == (3, 2)


class TestQuantizeTensor:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((4, 5)) * 1e3).astype(np.float32)
        t = quantize_tensor(Tensor(x), Precision.BF16, RNE)
        want = round_vectorized(x.astype(np.float64), BF16_FTZ, "rne")
        assert np.array_equal(t.data, want.astype(np.float32))
        assert t.tag is Precision.BF16

    def test_fp32_is_identity(self):
        x = np.float32([0.1, 0.2, 0.3])
        t = quantize_tensor(Tensor(x), Precision.FP32)
        assert np.array_equal(t.data, x)

    def test_idempotent(self):
        x = np.float32(np.random.default_rng(1).standard_normal(100))
        once = quantize_tensor(Tensor(x), Precision.FP16, RNE)
        twice = quantize_tensor(once, Precision.FP16, RNE)
        assert np.array_equal(once.data, twice.data)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).generator().standard_normal(8)
        b = RngStream(42, 7).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_independent_of_order(self):
        root = RngStream(3)
        first = root.child(0).generator().standard_normal(4)
        _ = root.child(1).generator().standard_normal(4)
        again = root.child(0).generator().standard_normal(4)
        assert np.array_equal(first, again)

    def test_children_distinct(self):
        root = RngStream(5)
        draws = {tuple(root.child(i).generator().standard_normal(4))
                 for i in range(20)}
        assert len(draws) == 20


class TestInit:
    def test_deterministic(self):
        a = init_tensor((8, 8), HeNormal(fan_in=8), RngStream(9, 1))
        b = init_tensor((8, 8), HeNormal(fan_in=8), RngStream(9, 1))
        assert np.array_equal(a, b)
        assert type(a) is np.ndarray and a.dtype == np.float32

    def test_he_normal_stats(self):
        t = init_tensor((200, 500), HeNormal(fan_in=500), RngStream(2))
        std = float(t.std())
        assert abs(std - np.sqrt(2.0 / 500)) < 0.05 * np.sqrt(2.0 / 500)
        assert abs(float(t.mean())) < 0.001

    def test_xavier_bounds(self):
        t = init_tensor((64, 64), XavierUniform(64, 64), RngStream(4))
        limit = np.sqrt(6.0 / 128)
        assert np.all(np.abs(t) <= limit)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeNormal(0)
        with pytest.raises(ValueError):
            XavierUniform(4, 0)
        with pytest.raises(ShapeError):
            init_tensor((0, 3), HeNormal(3), RngStream(0))


class TestDumpLoad:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        x[0, 0, 0] = np.inf
        x[0, 0, 1] = -np.inf
        x[0, 0, 2] = np.nan
        x[0, 0, 3] = -0.0
        t = Tensor(x, Precision.FP16)
        path = tmp_path / "t.tensor"
        dump_tensor(t, path)
        back = load_tensor(path)
        assert back.tag is Precision.FP16
        assert back.shape == t.shape
        assert np.array_equal(back.data.view(np.uint32),
                              t.data.view(np.uint32))

    def test_header_layout(self, tmp_path):
        t = Tensor(np.zeros((2, 3), np.float32), Precision.BF16)
        path = tmp_path / "t.tensor"
        dump_tensor(t, path)
        raw = path.read_bytes()
        assert raw[:8] == b"BF16EMU1"
        assert raw[8:12] == (1).to_bytes(4, "little")   # version
        assert raw[12] == 1                             # bf16 tag code
        assert raw[13:17] == (2).to_bytes(4, "little")  # rank
        assert int.from_bytes(raw[17:25], "little") == 2
        assert int.from_bytes(raw[25:33], "little") == 3
        assert len(raw) == 33 + 4 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(BadMagicError):
            load_tensor(path)

    def test_unknown_version(self, tmp_path):
        t = Tensor(np.zeros(3, np.float32))
        path = tmp_path / "t.tensor"
        dump_tensor(t, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(UnknownVersionError):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        t = Tensor(np.zeros(10, np.float32))
        path = tmp_path / "t.tensor"
        dump_tensor(t, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedPayloadError):
            load_tensor(path)


class TestQuantPolicy:
    def test_defaults(self):
        p = QuantPolicy(Precision.BF16)
        assert p.precision is Precision.BF16
        assert p.mode is RNE
        assert not p.identity
        # Format and rounding are all a policy sets; which tensors are
        # quantized is fixed by the network's dataflow.
        assert [f.name for f in dataclasses.fields(QuantPolicy)] == [
            "precision", "mode"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.precision = Precision.FP16

    def test_fp32_identity(self):
        assert QuantPolicy().identity
