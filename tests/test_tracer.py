"""The benchmark's tracer must still find every entry point it wraps.

``benchmarks/tracer.py`` looks kernels and helpers up by name, so renaming
one breaks only traced benchmark runs; installing the tracer here makes
that fail the default test run instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from bf16emu import kernels, tensor
from bf16emu.kernels import PoolKind

TRACER_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKED = ("_gemm", "_im2col", "_col2im", "pool_forward", "pool_backward",
          "lstm_cell_forward", "lstm_cell_backward")


def test_detail_tracer_installs_and_uninstalls():
    originals = {name: getattr(kernels, name) for name in HOOKED}
    quantize = tensor.quantize_tensor
    tracer = load_tracer().Tracer(detail=True)
    tracer.install()
    try:
        for name in HOOKED:
            assert getattr(kernels, name).__wrapped__ is originals[name]
        assert tensor.quantize_tensor.__wrapped__ is quantize
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        _, cache = kernels.pool_forward(PoolKind.MAX, x, 2)
        kernels.pool_backward(np.ones((1, 2, 2, 1), np.float32), cache)
        kernels._im2col(x, 2, 1, 0)
        c = np.zeros((2, 3), np.float32)
        _, _, cell = kernels.lstm_cell_forward(np.ones((2, 12), np.float32),
                                               c)
        kernels.lstm_cell_backward(np.ones_like(c), c, cell)
    finally:
        tracer.uninstall()
    for name in HOOKED:
        assert getattr(kernels, name) is originals[name]
    assert tensor.quantize_tensor is quantize
    # Pooling reshapes its tiles and calls neither _im2col nor _col2im,
    # so its span stays a leaf and the two figures do not overlap.  The
    # LSTM cell is gate arithmetic: its GEMMs run in the layer around it,
    # so its span is a leaf too.
    assert {key[:2] for key in tracer.agg} == {
        ("kernels.pool", "kernels.pool"), ("kernels.im2col", "kernels.im2col"),
        ("kernels.lstm_cell", "kernels.lstm_cell")}
