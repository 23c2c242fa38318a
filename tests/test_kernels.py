import math

import numpy as np
import pytest

from bf16emu import harness, kernels
from bf16emu.kernels import (
    PoolKind,
    batchnorm_backward,
    batchnorm_forward,
    binary_log_loss,
    conv2d_backward,
    conv2d_forward,
    dropout,
    lstm_cell_backward,
    lstm_cell_forward,
    pool_backward,
    pool_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
    _gemm,
)
from bf16emu.numerics import Precision, quantize_array
from bf16emu.tensor import RngStream, ShapeError, Tensor

from oracles import conv2d_backward_nchw, conv2d_forward_nchw, gemm_loop


# ---------------------------------------------------------------------------
# independent scalar-loop oracles
# ---------------------------------------------------------------------------


def gemm_oracle(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), np.float32)
    for i in range(m):
        for jn in range(n):
            acc = np.float32(0.0)
            for j in range(k):
                acc = np.float32(acc + np.float32(a[i, j] * b[j, jn]))
            out[i, jn] = acc
    return out


def conv_oracle(x, w, stride, pad):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo), np.float32)
    for b in range(n):
        for fo in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = np.float32(0.0)
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride + u - pad
                                s = j * stride + v - pad
                                if 0 <= r < h and 0 <= s < wd:
                                    acc = np.float32(acc + np.float32(
                                        x[b, ci, r, s] * w[fo, ci, u, v]))
                    out[b, fo, i, j] = acc
    return out


def conv_dx_oracle(x_shape, w, dy, stride, pad):
    """dx of a convolution: each input pixel adds the contributions of the
    windows covering it in (u, v) order, each an ordered sum over the
    output channels, into +0."""
    n, c, h, wd = x_shape
    f, _, kh, kw = w.shape
    _, _, ho, wo = dy.shape
    s, p = stride, pad
    dx = np.zeros(x_shape, np.float32)
    for b in range(n):
        for ci in range(c):
            for r in range(h):
                for q in range(wd):
                    acc = np.float32(0.0)
                    for u in range(kh):
                        for v in range(kw):
                            i, ri = divmod(r + p - u, s)
                            j, rj = divmod(q + p - v, s)
                            if ri or rj or not (0 <= i < ho and 0 <= j < wo):
                                continue
                            part = np.float32(0.0)
                            for fo in range(f):
                                part = np.float32(part + np.float32(
                                    dy[b, fo, i, j] * w[fo, ci, u, v]))
                            acc = np.float32(acc + part)
                    dx[b, ci, r, q] = acc
    return dx


def conv_dw_oracle(x, w_shape, dy, stride, pad):
    """dw of a convolution: each weight sums its products over the output
    pixels (n, i, j) in row-major order, into +0, padding included."""
    f, c, kh, kw = w_shape
    n, _, ho, wo = dy.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dw = np.zeros(w_shape, np.float32)
    for fo in range(f):
        for ci in range(c):
            for u in range(kh):
                for v in range(kw):
                    acc = np.float32(0.0)
                    for b in range(n):
                        for i in range(ho):
                            for j in range(wo):
                                acc = np.float32(acc + np.float32(
                                    dy[b, fo, i, j]
                                    * xp[b, ci, i * stride + u,
                                         j * stride + v]))
                    dw[fo, ci, u, v] = acc
    return dw


def pool_oracle(kind, x, window, stride, dy):
    """(y, dx) of pooling by scalar loops.  Max takes the first row-major
    winner, or the first NaN; avg sums its window into +0 in row-major
    order and divides by window**2.  Each input pixel adds its windows'
    shares in (u, v) order into +0."""
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    k = np.float32(window * window)
    y = np.zeros((n, c, ho, wo), np.float32)
    share = np.zeros((n, c, ho, wo, window, window), np.float32)
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    vals = [x[b, ch, i * stride + u, j * stride + v]
                            for u in range(window) for v in range(window)]
                    if kind is PoolKind.MAX:
                        # As np.argmax: the first NaN wins outright.
                        best = 0
                        for t in range(1, len(vals)):
                            if np.isnan(vals[best]):
                                break
                            if np.isnan(vals[t]) or vals[t] > vals[best]:
                                best = t
                        y[b, ch, i, j] = vals[best]
                        share[b, ch, i, j].flat[best] = dy[b, ch, i, j]
                    else:
                        acc = np.float32(0.0)
                        for val in vals:
                            acc = np.float32(acc + val)
                        y[b, ch, i, j] = np.float32(acc / k)
                        share[b, ch, i, j] = np.float32(dy[b, ch, i, j] / k)
    dx = np.zeros(x.shape, np.float32)
    for b in range(n):
        for ch in range(c):
            for r in range(h):
                for q in range(w):
                    acc = np.float32(0.0)
                    for u in range(window):
                        for v in range(window):
                            i, ri = divmod(r - u, stride)
                            j, rj = divmod(q - v, stride)
                            if ri or rj or not (0 <= i < ho and 0 <= j < wo):
                                continue
                            acc = np.float32(acc + share[b, ch, i, j, u, v])
                    dx[b, ch, r, q] = acc
    return y, dx


def batch_last(a):
    """An NCHW array in the kernels' batch-last (C, H, W, N) layout."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def nchw(a):
    """A batch-last (C, H, W, N) array in NCHW."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


# The conv and pool kernels on NCHW arrays, the layout of the oracles,
# through the batch-last layout the kernels take and return.


def conv_fwd(x, w, *args, **kwargs):
    return nchw(conv2d_forward(batch_last(x), w, *args, **kwargs))


def conv_bwd(x, w, dy, *args, **kwargs):
    dx, dw = conv2d_backward(batch_last(x), w, batch_last(dy), *args,
                             **kwargs)
    return (None if dx is None else nchw(dx)), dw


def pool_fwd(kind, x, window):
    y, cache = pool_forward(kind, batch_last(x), window)
    return nchw(y), cache


def pool_bwd(dy, cache):
    return nchw(pool_backward(batch_last(dy), cache))


def fd_grad(loss_fn, x, h_rel=1e-3):
    """Central finite differences of a scalar loss over array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        h = h_rel * max(1.0, abs(float(flat[i])))
        orig = flat[i]
        flat[i] = np.float32(orig + h)
        hi = loss_fn(x)
        flat[i] = np.float32(orig - h)
        lo = loss_fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (float(np.float32(orig + h))
                             - float(np.float32(orig - h)))
    return g


def assert_grads_close(analytic, numeric, tol=1e-3):
    a = np.asarray(analytic, np.float64)
    n = np.asarray(numeric, np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    assert np.max(np.abs(a - n) / denom) <= tol


def rand_bf16(rng, shape, scale=1.0):
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    return quantize_array(x, Precision.BF16)


# ---------------------------------------------------------------------------
# gemm
# ---------------------------------------------------------------------------


# Positive FP32 special values: 0, the smallest and largest subnormal,
# the smallest normal, 1, the largest finite, inf; bf16's smallest and
# largest subnormal and largest finite; fp16's smallest subnormal,
# largest subnormal, smallest normal and largest finite; two quiet NaNs
# with different payloads.
SPECIAL = np.uint32([
    0x00000000, 0x00000001, 0x007FFFFF, 0x00800000, 0x3F800000,
    0x7F7FFFFF, 0x7F800000,
    0x00010000, 0x007F0000, 0x7F7F0000,
    0x33800000, 0x387FC000, 0x38800000, 0x477FE000,
    0x7FC00001, 0x7FC00002,
]).view(np.float32)

# Every GEMM shape (m, k, n) of the three benchmark workloads, training
# and batch-512 evaluation.
WORKLOAD_SHAPES = [
    # conv-bf16
    (4, 128, 64), (8, 9, 8192), (8, 9, 32768), (8, 8192, 9),
    (16, 72, 2048), (16, 72, 8192), (16, 2048, 72), (72, 16, 2048),
    (128, 4, 64), (128, 64, 4), (512, 64, 4),
    # lstm-bf16
    (1, 128, 32), (128, 1, 32), (128, 1, 128), (128, 32, 1),
    (128, 32, 128), (128, 128, 1), (128, 128, 32), (512, 1, 128),
    (512, 32, 1), (512, 32, 128),
    # mlp-fp16
    (2, 128, 64), (64, 128, 2), (64, 128, 64), (128, 2, 64), (128, 64, 2),
    (128, 64, 64), (512, 2, 64), (512, 64, 2), (512, 64, 64),
]


def spread_fp32(rng, shape):
    """fp32 values with exponents spread over 2^-20..2^20, so that a sum
    taken in another order rounds differently."""
    return (rng.standard_normal(shape)
            * 2.0 ** rng.integers(-20, 21, shape)).astype(np.float32)


def layouts(x):
    """x as a C array, a Fortran array, the .T view of a C array (the
    layout of W.T and dy.T in the dense and LSTM layers) and a view with
    negative strides on both axes."""
    return [x, np.asfortranarray(x), np.ascontiguousarray(x.T).T,
            x[::-1, ::-1].copy()[::-1, ::-1]]


class TestGemm:
    def test_identity(self):
        b = rand_bf16(np.random.default_rng(0), (2, 3))
        out = _gemm(np.eye(2, dtype=np.float32), b)
        assert np.array_equal(out, b)
        assert out.dtype == np.float32

    def test_product_of_two_bf16_values_is_exact(self):
        out = _gemm(np.float32([[3.140625]]), np.float32([[1.015625]]))
        assert out[0, 0] == np.float32(3.189697265625)

    def test_fp32_accumulator_keeps_small_addend(self):
        a = np.float32([[2.0 ** 20, 1.0]])
        b = np.float32([[1.0], [1.0]])
        assert _gemm(a, b)[0, 0] == 1048577.0
        # The same sum rounded through bf16 loses the 1.0.
        s = quantize_array(np.float32([1048577.0]), Precision.BF16)
        assert s[0] == 1048576.0

    # m*n == 1 stays on the per-k loop, since einsum would reduce the k
    # axis in SIMD partial sums.
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (4, 7, 4),
                                       (2, 8, 3), (1, 7, 1), (1, 8, 1),
                                       (1, 128, 1), (1, 1000, 1),
                                       (129, 3, 128)])
    def test_matches_scalar_oracle(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rand_bf16(rng, (m, k))
        b = rand_bf16(rng, (k, n))
        got = _gemm(a, b)
        want = gemm_oracle(a, b)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("k", [161, 209])
    def test_long_k_matches_per_k_loop(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((64, k)).astype(np.float32)
        b = rng.standard_normal((k, 64)).astype(np.float32)
        got = _gemm(a, b)
        want = gemm_loop(a, b)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("shape", [(1, 9, 1), (3, 9, 4)])
    def test_negative_zero_products_sum_to_positive_zero(self, shape):
        m, k, n = shape
        # Every product is -0.0; a sum started at +0.0, as in the loop,
        # stays +0.0.
        a = np.full((m, k), -0.0, np.float32)
        b = np.abs(rand_bf16(np.random.default_rng(4), (k, n)))
        got = _gemm(a, b)
        assert np.array_equal(got.view(np.uint32), np.zeros((m, n), np.uint32))

    # -(1 + 2^-11) + (1 + 2^-12)^2: the product rounds to 1 + 2^-11, so
    # the sum is 0; a fused multiply-add would keep 2^-24.  (64, 2, 8)
    # runs transposed and (1, 2, 1) on the loop.
    @pytest.mark.parametrize("shape", [(1, 2, 1), (8, 2, 64), (64, 2, 8)])
    def test_products_are_rounded_before_the_add(self, shape):
        m, _, n = shape
        a = np.empty((m, 2), np.float32)
        a[:, 0] = -(1 + 2.0 ** -11)
        a[:, 1] = 1 + 2.0 ** -12
        b = np.empty((2, n), np.float32)
        b[0] = 1
        b[1] = 1 + 2.0 ** -12
        got = _gemm(a, b)
        assert np.array_equal(got.view(np.uint32), np.zeros((m, n), np.uint32))

    # Tall outputs (n < m) with 1 < n <= 64 and k >= n/4 run transposed
    # (see kernels._gemm): (8192, 9, 8), (128, 128, 32) and (64, 72, 16);
    # n == 1 and (512, 1, 128) stay on rows.  The result must come back
    # C-contiguous, since reductions downstream follow the layout.
    @pytest.mark.parametrize("shape", [(8192, 9, 8), (128, 128, 32),
                                       (128, 128, 1), (512, 1, 128),
                                       (64, 72, 16)])
    def test_tall_outputs_match_per_k_loop(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m + k + n)
        a = rand_bf16(rng, (m, k))
        b = rand_bf16(rng, (k, n))
        for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b))):
            got = _gemm(x, y)
            assert got.flags.c_contiguous
            want = gemm_loop(a, b)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    # Every layout of each operand against every layout of the other.
    # einsum's loop order follows the operands' strides, so only the
    # k-major copies in _gemm keep k the outer loop.
    @pytest.mark.parametrize("kind", ["fp32", "bf16"])
    @pytest.mark.parametrize("shape", WORKLOAD_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_layouts_match_per_k_loop(self, shape, kind):
        m, k, n = shape
        rng = np.random.default_rng(m * k + n)
        make = spread_fp32 if kind == "fp32" else rand_bf16
        a = make(rng, (m, k))
        b = make(rng, (k, n))
        want = gemm_loop(a, b).view(np.uint32)
        for x in layouts(a):
            for y in layouts(b):
                got = _gemm(x, y)
                assert got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint32), want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_and_nan_propagate_like_scalar_oracle(self):
        rng = np.random.default_rng(5)
        a = rand_bf16(rng, (4, 9)).copy()
        b = rand_bf16(rng, (9, 5)).copy()
        a[0, 3] = np.inf          # meets b[3, 1] == 0: inf * 0 is NaN
        b[3, 1] = 0.0
        a[1, 6] = -np.inf
        a[2, 2] = np.nan
        b[7, 4] = np.inf
        # (4, 9, 5), then its transposed copy (5, 9, 4), which runs
        # transposed.
        for transposed in (False, True):
            x, y = (b.T.copy(), a.T.copy()) if transposed else (a, b)
            got = _gemm(x, y)
            want = gemm_oracle(x, y)
            g = got.T if transposed else got
            assert np.isnan(g[0, 1]) and np.isnan(g[2]).all()
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(4, 9, 5), (5, 9, 4), (12, 3, 2)])
    def test_nan_times_nan_keeps_a_payload(self, shape):
        # x86 returns the first operand's NaN when both are NaN.  On these
        # short rows np.multiply's loop does too, so the product keeps a's
        # payload, as in the per-k loop, only while a's element is the
        # first factor, in either orientation.  (The scalar oracle's
        # compiled multiply returns b's.)
        m, k, n = shape
        a = np.ones((m, k), np.float32)
        b = np.ones((k, n), np.float32)
        a[1, 2] = np.uint32(0x7FC00001).view(np.float32)
        b[2, 1] = np.uint32(0xFFC00002).view(np.float32)
        got = _gemm(a, b).view(np.uint32)
        assert got[1, 1] == 0x7FC00001
        assert np.array_equal(got, gemm_loop(a, b).view(np.uint32))

    # Rows of 2048 and 2049 elements and outputs on each side of 16384
    # elements, at k from 1 to 9, in both orientations; then the LSTM's
    # recurrent (128, 32, 128) and dh/dW_hh (128, 128, 32) GEMMs.  Each
    # runs with b as given and as W.T, the layout of the dense and LSTM
    # layers.  ``bf16`` picks bf16 inputs, or else fp32 inputs spread
    # over 2^-20..2^20, so that each kind meets both row lengths and both
    # sides of 16384.
    @pytest.mark.parametrize("shape, bf16", [
        ((8, 5, 2048), True),
        ((9, 5, 2048), True),
        ((64, 3, 256), True),
        ((65, 3, 256), False),
        ((2048, 9, 8), True),
        ((2048, 9, 9), True),
        ((8, 9, 8192), False),
        ((128, 32, 128), True),
        ((128, 128, 32), True),
        ((7, 5, 2049), True),
        ((8, 5, 2049), False),
        ((2049, 9, 8), False),
        ((129, 1, 128), False),
        ((16385, 3, 1), False),
        ((65, 4, 256), True),
        ((512, 3, 64), False),
        ((512, 4, 64), True),
        ((2048, 3, 9), False),
        ((2048, 4, 9), True),
        ((512, 2, 64), False),
    ])
    def test_switch_point_matches_per_k_loop(self, shape, bf16):
        m, k, n = shape
        rng = np.random.default_rng(m + k + n)
        make = rand_bf16 if bf16 else spread_fp32
        a = make(rng, (m, k))
        b = make(rng, (k, n))
        want = gemm_loop(a, b).view(np.uint32)
        for y in (b, np.asfortranarray(b)):
            got = _gemm(a, y)
            assert np.array_equal(got.view(np.uint32), want)

    # Each side of each bound of einsum's transposed build (n < m,
    # n <= 4k, n <= 64, n > 1), and of the single output element, which
    # runs on the loop: a partial-sum reduction of (1, 4096, 1) changes
    # its bits.
    @pytest.mark.parametrize("shape", [
        (65, 16, 64), (64, 16, 64), (512, 16, 64), (512, 15, 64),
        (512, 32, 64), (512, 32, 65), (512, 32, 2), (512, 32, 1),
        (1, 4096, 1), (1, 4096, 2), (2, 4096, 1),
    ], ids=lambda s: "x".join(map(str, s)))
    def test_swap_bounds_match_per_k_loop(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * k + n)
        a = spread_fp32(rng, (m, k))
        b = spread_fp32(rng, (k, n))
        got = _gemm(a, b)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32),
                              gemm_loop(a, b).view(np.uint32))

    # The per-k loop builds each of these outputs as ``rows`` rows of
    # ``width`` elements: (100, 7, 300) as it is and (300, 80, 100), its
    # transposed twin, transposed; the LSTM's batch-512 evaluation GEMM
    # (512, 32, 128) transposed; conv2's (16, 72, 2048) forward and
    # (72, 16, 2048) weight gradient as they are.  Their sums match the
    # loop, and a NaN in the output rebuilds it on the per-k loop in that
    # layout (``kernels._gemm_loop``), whose NaN payloads then stand.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape, rows, width", [
        ((100, 7, 300), 100, 300), ((300, 80, 100), 100, 300),
        ((512, 32, 128), 128, 512), ((16, 72, 2048), 16, 2048),
        ((72, 16, 2048), 72, 2048),
    ])
    def test_row_blocks_match_per_k_loop(self, shape, rows, width):
        m, k, n = shape
        rng = np.random.default_rng(m * k + n)
        a = spread_fp32(rng, (m, k))
        b = spread_fp32(rng, (k, n))
        for nans in (False, True):
            if nans:
                # A payload in the last row of a from step 1 on, then at
                # step 2 a NaN in every product, with two other payloads.
                a[m - 1, 1] = np.uint32(0x7FC00001).view(np.float32)
                a[:, 2] = np.uint32(0x7FC00003).view(np.float32)
                b[2] = np.uint32(0xFFC00002).view(np.float32)
                want = kernels._gemm_loop(np.ascontiguousarray(a.T), b,
                                          tall=rows != m)
            else:
                want = gemm_loop(a, b)
            want = want.view(np.uint32)
            for y in (b, np.asfortranarray(b)):
                got = _gemm(a, y)
                assert got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint32), want)

    # A NaN anywhere rebuilds the whole output on the loop, so where two
    # NaNs meet, the payload that survives is the loop's.  (100, 40, 300)
    # runs as it is and (300, 40, 100) transposed on the loop, although
    # einsum builds it as it is (n > 64).
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(100, 40, 300), (300, 40, 100)])
    def test_nan_rebuilds_the_whole_output_on_the_loop(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(8)
        a = rand_bf16(rng, (m, k)).copy()
        b = rand_bf16(rng, (k, n)).copy()
        # From step 1 on, row 53 of the output (transposed, column 299 of
        # every row) holds one payload; at step 5 every product is a NaN
        # with another.
        a[53 if m < n else 299, 1] = np.uint32(0x7FC00001).view(np.float32)
        a[:, 5] = np.uint32(0x7FC00003).view(np.float32)
        b[5] = np.uint32(0xFFC00002).view(np.float32)
        if m < n:
            want = gemm_loop(a, b)
        else:
            # The same loop over the transposed output, a's element first.
            acc = np.zeros((n, m), np.float32)
            for j in range(k):
                acc = acc + a[None, :, j] * b[j, :, None]
            want = acc.T
        for y in (b, np.asfortranarray(b)):
            got = _gemm(a, y)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_einsum_products_match_multiply(self):
        # Every pair of SPECIAL and its negation, as one k step of _gemm's
        # einsum in both of its orientations, against np.multiply: the
        # same bits, except that a -0 product comes out +0 (einsum adds
        # it to +0) and NaN * NaN may keep either payload (_gemm then
        # rebuilds the output on the loop).
        v = np.concatenate([SPECIAL, -SPECIAL])
        want = np.multiply(v[:, None], v[None, :])
        at = v[None, :]
        bk = v[None, :]
        rows = np.einsum("jp,jq->pq", at, bk)
        cols = np.einsum("jq,jp->qp", bk, at).T
        both_nan = np.isnan(v[:, None]) & np.isnan(v[None, :])
        want_bits = np.where(want == 0, np.float32(0), want).view(np.uint32)
        nan_bits = {int(u) | 0x00400000 for u in v[np.isnan(v)].view(np.uint32)}
        for got in (rows, cols):
            bits = got.view(np.uint32)
            assert np.array_equal(bits[~both_nan], want_bits[~both_nan])
            assert {int(u) for u in bits[both_nan]} <= nan_bits
        # The set must reach every case it names.
        assert (want.view(np.uint32) == 0x80000000).any()
        assert ((want != 0) & (np.abs(want) < np.float32(2.0 ** -126))).any()
        assert (np.isinf(v[:, None]) & (v[None, :] == 0)
                & np.isnan(want)).any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(4, 9, 5), (12, 9, 4)])
    @pytest.mark.parametrize("case", ["zeros", "nan_a", "nan_both",
                                      "inf_times_zero"])
    def test_special_operands_on_chunked_path(self, shape, case):
        # The einsum path, and with a NaN its rebuild on the loop.
        # (12, 9, 4) runs transposed.  Output (0, 0): +0, -0, then 1 and
        # -1 that cancel to +0, then -0 products onto that +0.  Row 1:
        # products that underflow to -0 and to a negative subnormal.  Then
        # a NaN in a, a NaN in both operands, or inf * 0, one at a time.
        m, k, n = shape
        rng = np.random.default_rng(6)
        a = rand_bf16(rng, (m, k)).copy()
        b = rand_bf16(rng, (k, n)).copy()
        a[0] = [0.0, -0.0, 1.0, -1.0, -0.0, 0.0, -0.0, -0.0, 0.0]
        b[:, 0] = [1.0, 1.0, 0.5, 0.5, 3.0, -1.0, 2.0, 1.0, 1.0]
        a[1, 5:7] = [-2.0 ** -100, -2.0 ** -70]
        b[5:7, 1] = [2.0 ** -100, 2.0 ** -70]
        nan_a = np.uint32(0x7FC00001).view(np.float32)
        nan_b = np.uint32(0xFFC00002).view(np.float32)
        if case == "nan_a":
            a[2, 7] = nan_a
        elif case == "nan_both":
            a[2, 7] = nan_a
            b[7, 1] = nan_b
        elif case == "inf_times_zero":
            a[3, 8] = np.inf
            b[8, 2] = 0.0
        got = _gemm(a, b)
        want = gemm_loop(a, b)
        assert got.view(np.uint32)[0, 0] == 0
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.slow
    @pytest.mark.parametrize("inputs", ["fp32", "bf16"])
    def test_sweep_matches_per_k_loop(self, inputs):
        rng = np.random.default_rng(7)
        for m in range(1, 7):
            for n in range(1, 7):
                for k in [1, 2, 7, 8, 9, 127, 128, 129, 4095, 4096, 4097,
                          65537]:
                    a = rng.standard_normal((m, k)).astype(np.float32)
                    b = rng.standard_normal((k, n)).astype(np.float32)
                    if inputs == "bf16":
                        a = quantize_array(a, Precision.BF16)
                        b = quantize_array(b, Precision.BF16)
                    got = _gemm(a, b)
                    want = gemm_loop(a, b)
                    assert np.array_equal(got.view(np.uint32),
                                          want.view(np.uint32)), (m, k, n)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = rand_bf16(rng, (8, 16))
        b = rand_bf16(rng, (16, 8))
        x = _gemm(a, b)
        y = _gemm(a, b)
        assert np.array_equal(x.view(np.uint32), y.view(np.uint32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _gemm(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))

    def test_exact_product_lemma(self):
        # FP32 product of two bf16 values equals the float64 product
        # whenever the result is finite.
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 1 << 16, size=(2, 1_000_000),
                            dtype=np.uint32).astype(np.uint32)
        vals = (bits << 16).view(np.float32)
        finite = np.all(np.isfinite(vals), axis=0) & \
            np.all((bits & 0x7F80) != 0x7F80, axis=0)
        a, b = vals[0, finite], vals[1, finite]
        with np.errstate(over="ignore", under="ignore"):
            p32 = (a * b).astype(np.float64)
            p64 = a.astype(np.float64) * b.astype(np.float64)
        # Exact whenever the result neither overflows fp32 nor lands in
        # the fp32 subnormal range.
        ok = np.isfinite(p32) & ((p64 == 0.0) | (np.abs(p64) >= 2.0 ** -126))
        assert np.array_equal(p32[ok], p64[ok])


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


class TestConv:
    def test_one_by_one_kernel_scales(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        w = np.float32([2.0, 0.0, 0.0, 2.0]).reshape(2, 2, 1, 1)
        out = conv_fwd(x, w)
        assert np.array_equal(out, 2.0 * x)

    def test_all_ones(self):
        x = np.ones((1, 1, 2, 2), np.float32)
        w = np.ones((1, 1, 2, 2), np.float32)
        out = conv_fwd(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_loop_nest_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rand_bf16(rng, (2, 3, 5, 5))
        w = rand_bf16(rng, (4, 3, 3, 3))
        got = conv_fwd(x, w, stride, pad)
        want = conv_oracle(x, w, stride, pad)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_backward_zero_dy(self):
        rng = np.random.default_rng(5)
        x = rand_bf16(rng, (1, 1, 4, 4))
        w = rand_bf16(rng, (2, 1, 3, 3))
        dy = np.zeros((1, 2, 2, 2), np.float32)
        dx, dw = conv_bwd(x, w, dy)
        assert np.all(dx == 0) and np.all(dw == 0)

    def test_backward_one_by_one_analytic(self):
        x = np.float32([[[[2.0, 3.0], [4.0, 5.0]]]])
        w = np.float32([[[[1.5]]]])
        dy = np.float32([[[[1.0, 0.0], [0.0, 2.0]]]])
        dx, dw = conv_bwd(x, w, dy)
        assert np.array_equal(dx, 1.5 * dy)
        assert dw[0, 0, 0, 0] == 2.0 * 1.0 + 5.0 * 2.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_dx_matches_scalar_oracle(self, stride):
        rng = np.random.default_rng(40 + stride)
        x = rand_bf16(rng, (2, 2, 5, 5))
        w = rand_bf16(rng, (3, 2, 3, 3))
        dy = rand_bf16(rng, (2, 3, 5 if stride == 1 else 3,
                             5 if stride == 1 else 3))
        dx, _ = conv_bwd(x, w, dy, stride, 1)
        want = conv_dx_oracle(x.shape, w, dy, stride, 1)
        assert np.array_equal(dx.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_backward_dw_matches_scalar_oracle(self, stride):
        rng = np.random.default_rng(50 + stride)
        x = rand_bf16(rng, (2, 2, 5, 5))
        w = rand_bf16(rng, (3, 2, 3, 3))
        dy = rand_bf16(rng, (2, 3, 5 if stride == 1 else 3,
                             5 if stride == 1 else 3))
        _, dw = conv_bwd(x, w, dy, stride, 1)
        want = conv_dw_oracle(x, w.shape, dy, stride, 1)
        assert np.array_equal(dw.view(np.uint32), want.view(np.uint32))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.5
        dy = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)

        def loss_x(xv):
            y = conv_fwd(xv, w, pad=1)
            return float((y.astype(np.float64) * dy).sum())

        def loss_w(wv):
            y = conv_fwd(x, wv, pad=1)
            return float((y.astype(np.float64) * dy).sum())

        dx, dw = conv_bwd(x, w, dy, pad=1)
        assert_grads_close(dx, fd_grad(loss_x, x.copy()))
        assert_grads_close(dw, fd_grad(loss_w, w.copy()))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv_fwd(np.zeros((1, 2, 4, 4), np.float32),
                           np.zeros((1, 1, 3, 3), np.float32))

    def test_non_square_kernel(self):
        with pytest.raises(ShapeError):
            conv_fwd(np.zeros((1, 1, 4, 4), np.float32),
                           np.zeros((1, 1, 3, 2), np.float32))


def sprinkle(rng, a, count, values):
    """A copy of a with ``count`` random elements set to ``values`` in
    turn."""
    a = a.copy()
    idx = rng.choice(a.size, count, replace=False)
    a.reshape(-1)[idx] = np.resize(np.float32(values), count)
    return a


def assert_same_bits_nan_by_position(got, want):
    """Equal NaN positions, and equal bits everywhere else: a NaN's
    payload can depend on where its element sits in a GEMM's row."""
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint32)[~nan],
                          want.view(np.uint32)[~nan])


class TestConvLayout:
    """conv2d_forward/backward against the NCHW lowering in oracles, on
    bf16 values with +-0, and with inf and NaN sprinkled in.  The kernels
    take and return batch-last arrays; the references are moved to that
    layout."""

    CASES = {
        # The shipped conv-digits layers, at the training batch and at
        # the evaluation batch.
        "conv1": ((128, 1, 8, 8), 8, 1, 1),
        "conv2": ((128, 8, 4, 4), 16, 1, 1),
        "conv1-eval": ((512, 1, 8, 8), 8, 1, 1),
        "conv2-eval": ((512, 8, 4, 4), 16, 1, 1),
        # Stride 2 leaves the last row and column uncovered.
        "stride2-pad0": ((6, 3, 8, 10), 4, 2, 0),
        "non-square": ((5, 2, 7, 10), 3, 1, 1),
        "n1": ((1, 3, 6, 6), 5, 2, 1),
    }

    @pytest.fixture(params=[(name, specials) for name in CASES
                            for specials in (False, True)],
                    ids=lambda p: p[0] + ("-specials" if p[1] else ""),
                    scope="class")
    def case(self, request):
        name, specials = request.param
        shape, f, stride, pad = self.CASES[name]
        rng = np.random.default_rng(list(self.CASES).index(name))
        n, c, h, w = shape
        ho = (h + 2 * pad - 3) // stride + 1
        wo = (w + 2 * pad - 3) // stride + 1

        def signed_zeros(a):
            return sprinkle(rng, a, max(2, a.size // 100), [0.0, -0.0])

        x = signed_zeros(rand_bf16(rng, shape, 4.0))
        wt = signed_zeros(rand_bf16(rng, (f, c, 3, 3)))
        dy = signed_zeros(rand_bf16(rng, (n, f, ho, wo)))
        bias = rand_bf16(rng, (f,))
        if specials:
            values = [0.0, -0.0, np.inf, -np.inf, np.nan]
            x = sprinkle(rng, x, 10, values)
            dy = sprinkle(rng, dy, 10, values)
            bias[0] = -np.inf
        return specials, x, wt, dy, bias, stride, pad

    @staticmethod
    def check_coverage(specials, a):
        """Without specials every element is finite; with them, some
        must be and some not, or the comparison is idle."""
        finite = np.count_nonzero(np.isfinite(a))
        assert (0 < finite < a.size) if specials else finite == a.size

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_forward(self, case):
        specials, x, w, _, bias, stride, pad = case
        want = conv2d_forward_nchw(x, w, stride, pad)
        self.check_coverage(specials, want)
        xb = batch_last(x)
        assert_same_bits_nan_by_position(conv2d_forward(xb, w, stride, pad),
                                         batch_last(want))
        assert_same_bits_nan_by_position(
            conv2d_forward(xb, w, stride, pad, bias),
            batch_last(want + bias[:, None, None]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_backward(self, case):
        specials, x, w, dy, _, stride, pad = case
        want_dx, want_dw = conv2d_backward_nchw(x, w, dy, stride, pad)
        xb, dyb = batch_last(x), batch_last(dy)
        dx, dw = conv2d_backward(xb, w, dyb, stride, pad)
        self.check_coverage(specials, want_dx)
        if not specials:
            # Every dw element sums over the whole batch, so any inf
            # reaches all of them.
            self.check_coverage(specials, want_dw)
        assert_same_bits_nan_by_position(dx, batch_last(want_dx))
        assert_same_bits_nan_by_position(dw, want_dw)
        _, dw_only = conv2d_backward(xb, w, dyb, stride, pad,
                                     input_grad=False)
        assert np.array_equal(dw_only.view(np.uint32), dw.view(np.uint32))

    def test_window_work_stays_in_im2col_and_col2im(self, monkeypatch):
        """One forward plus backward gathers twice and scatters once, and
        neither the gathers nor the scatter runs a GEMM, so the traced
        kernels.im2col figure covers the layout work and no GEMM."""
        calls = {"_im2col": 0, "_col2im": 0, "_gemm": 0}
        inside = []

        def spy(name):
            fn = getattr(kernels, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                if name == "_gemm":
                    assert not inside, f"_gemm called inside {inside}"
                    return fn(*args, **kwargs)
                inside.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapped

        for name in calls:
            monkeypatch.setattr(kernels, name, spy(name))
        rng = np.random.default_rng(3)
        x = rand_bf16(rng, (2, 5, 5, 4))
        w = rand_bf16(rng, (3, 2, 3, 3))
        y = conv2d_forward(x, w, 1, 1)
        conv2d_backward(x, w, y, 1, 1)
        assert calls == {"_im2col": 2, "_col2im": 1, "_gemm": 3}


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


def bn_params(c, scale=1.0, shift=0.0):
    """Per-channel (gamma, beta) filled with ``scale`` and ``shift``."""
    return np.full(c, scale, np.float32), np.full(c, shift, np.float32)


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        x = np.full((4, 3), 2.5, np.float32)
        y, _ = batchnorm_forward(x, *bn_params(3), 1e-5)
        assert np.allclose(y, 0.0, atol=1e-2)

    def test_two_point_batch(self):
        x = np.float32([[1.0], [3.0]])
        y, _ = batchnorm_forward(x, *bn_params(1), 1e-5)
        assert y[0, 0] == pytest.approx(-0.99999, abs=1e-4)
        assert y[1, 0] == pytest.approx(0.99999, abs=1e-4)

    def test_affine_params(self):
        x = np.random.default_rng(8).standard_normal(
            (6, 2)).astype(np.float32)
        y0, _ = batchnorm_forward(x, *bn_params(2), 1e-5)
        y1, _ = batchnorm_forward(x, *bn_params(2, 2.0, 1.0), 1e-5)
        assert np.allclose(y1, 2.0 * y0 + 1.0, atol=1e-5)

    def test_4d_per_channel(self):
        x = np.random.default_rng(9).standard_normal(
            (2, 3, 4, 4)).astype(np.float32)
        y, _ = batchnorm_forward(x, *bn_params(3), 1e-5)
        for c in range(3):
            assert abs(float(y[:, c].mean())) < 1e-5
            assert float(y[:, c].std()) == pytest.approx(1.0, abs=1e-2)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ShapeError):
            batchnorm_forward(np.zeros((1, 2), np.float32), *bn_params(2),
                              1e-5)

    def test_backward_zero(self):
        gamma, beta = bn_params(2)
        x = np.random.default_rng(10).standard_normal(
            (4, 2)).astype(np.float32)
        _, cache = batchnorm_forward(x, gamma, beta, 1e-5)
        dx, dg, db = batchnorm_backward(np.zeros((4, 2), np.float32), gamma,
                                        cache)
        assert np.all(dx == 0) and np.all(dg == 0) and np.all(db == 0)

    def test_backward_sums_to_zero(self):
        gamma, beta = bn_params(3)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3)).astype(np.float32)
        _, cache = batchnorm_forward(x, gamma, beta, 1e-5)
        dy = rng.standard_normal((8, 3)).astype(np.float32)
        dx, _, _ = batchnorm_backward(dy, gamma, cache)
        assert np.allclose(dx.sum(axis=0), 0.0, atol=1e-4)

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        gamma = rng.standard_normal(3).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        dy = rng.standard_normal((5, 3)).astype(np.float32)

        def loss(xv):
            y, _ = batchnorm_forward(xv, gamma, beta, 1e-5)
            return float((y.astype(np.float64) * dy).sum())

        _, cache = batchnorm_forward(x, gamma, beta, 1e-5)
        dx, dg, db = batchnorm_backward(dy, gamma, cache)
        assert_grads_close(dx, fd_grad(loss, x.copy()))
        _, cache2 = batchnorm_forward(x, gamma, beta, 1e-5)
        xhat = cache2[1]
        assert_grads_close(dg, (dy * xhat).sum(axis=0))
        assert_grads_close(db, dy.sum(axis=0))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class TestActivations:
    def test_relu(self):
        y = relu_forward(np.float32([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, np.float32([0.0, 0.0, 2.0]))

    def test_relu_backward_gate(self):
        dx = relu_backward(np.float32([-1.0, 2.0]), np.float32([3.0, 3.0]))
        assert np.array_equal(dx, np.float32([0.0, 3.0]))

    def test_relu_backward_bits_match_where(self):
        # x > 0 gates dy bit for bit: NaN and both zeros in x close the
        # gate (+0 out), and an open gate passes -0 and NaN payloads of dy.
        rng = np.random.default_rng(15)
        specials = np.float32([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf])
        x = rng.standard_normal(4096).astype(np.float32)
        odd = rng.random(x.size) < 0.3
        x[odd] = rng.choice(specials, int(odd.sum()))
        x[:36] = np.repeat(specials, 6)
        dy = rng.standard_normal(4096).astype(np.float32)
        dy[rng.random(dy.size) < 0.2] = -0.0
        nan_bits = np.uint32([0x7FC00001, 0xFFC00002, 0x7F800003])
        where = rng.random(dy.size) < 0.2
        dy.view(np.uint32)[where] = rng.choice(nan_bits, int(where.sum()))
        dy[:36] = np.tile(np.float32([1.0, -0.0, np.nan, 2.0, -3.0, 0.0]), 6)
        for shape in [(4096,), (64, 64), (4, 4, 16, 16)]:
            xs, dys = x.reshape(shape), dy.reshape(shape)
            want = np.where(xs > 0, dys, np.float32(0))
            got = relu_backward(xs, dys)
            assert got.dtype == np.float32 and got.shape == shape
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(20).astype(np.float32)
        dy = rng.standard_normal(20).astype(np.float32)

        def loss(xv):
            y = relu_forward(xv)
            return float((y.astype(np.float64) * dy).sum())

        dx = relu_backward(x, dy)
        assert_grads_close(dx, fd_grad(loss, x.copy()))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestPool:
    def test_max(self):
        x = np.float32([[[[1.0, 2.0], [3.0, 4.0]]]])
        y, _ = pool_fwd(PoolKind.MAX, x, 2)
        assert y[0, 0, 0, 0] == 4.0

    def test_avg(self):
        x = np.float32([[[[1.0, 2.0], [3.0, 4.0]]]])
        y, _ = pool_fwd(PoolKind.AVG, x, 2)
        assert y[0, 0, 0, 0] == 2.5

    def test_max_tie_breaks_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0, np.float32)
        _, cache = pool_fwd(PoolKind.MAX, x, 2)
        dx = pool_bwd(np.ones((1, 1, 1, 1), np.float32), cache)
        assert dx[0, 0, 0, 0] == 1.0
        assert dx.sum() == 1.0

    def test_max_backward_routes_to_argmax(self):
        x = np.float32([[[[1.0, 9.0], [3.0, 4.0]]]])
        _, cache = pool_fwd(PoolKind.MAX, x, 2)
        dx = pool_bwd(np.float32([[[[5.0]]]]), cache)
        assert dx[0, 0, 0, 1] == 5.0
        assert dx.sum() == 5.0

    def test_avg_backward_spreads(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        _, cache = pool_fwd(PoolKind.AVG, x, 2)
        dx = pool_bwd(np.full((1, 1, 2, 2), 4.0, np.float32), cache)
        assert np.all(dx == 1.0)

    @pytest.mark.parametrize("kind", [PoolKind.MAX, PoolKind.AVG])
    def test_backward_vs_finite_differences(self, kind):
        rng = np.random.default_rng(14)
        # Distinct values so the max winner is stable under FD nudges.
        x = (rng.permutation(32).astype(np.float32) * 0.25).reshape(
            (1, 2, 4, 4))
        dy = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)

        def loss(xv):
            y, _ = pool_fwd(kind, xv, 2)
            return float((y.astype(np.float64) * dy).sum())

        _, cache = pool_fwd(kind, x, 2)
        dx = pool_bwd(dy, cache)
        assert_grads_close(dx, fd_grad(loss, x.copy(), h_rel=1e-4))

    @pytest.mark.parametrize("kind, window", [
        (PoolKind.MAX, 2), (PoolKind.MAX, 3), (PoolKind.AVG, 2),
        (PoolKind.AVG, 3),
    ])
    def test_matches_scalar_oracle(self, kind, window):
        # 7 x 8 leaves a border the tiles miss, on both sides for window 3.
        # Avg at window 3 adds 9 elements, where a NumPy reduction would
        # no longer keep the oracle's row-major order.
        rng = np.random.default_rng(window * 11)
        if kind is PoolKind.MAX:
            # Few distinct values, so windows hold tied maxima; zeros of
            # both signs tie too.
            x = rng.integers(-3, 4, (2, 2, 7, 8)).astype(np.float32)
            x[x == 0] = rng.choice(np.float32([0.0, -0.0]),
                                   int((x == 0).sum()))
        else:
            # Spread magnitudes, so window sums round and their order
            # shows in the bits.
            x = (rng.standard_normal((2, 2, 7, 8))
                 * 2.0 ** rng.integers(-12, 12, (2, 2, 7, 8))
                 ).astype(np.float32)
            # A tile of -0 averages to +0.
            x[0, 0, :window, :window] = -0.0
        dy = rng.standard_normal((2, 2, 7 // window, 8 // window)).astype(
            np.float32)
        dy[rng.random(dy.shape) < 0.25] = -0.0
        y, cache = pool_fwd(kind, x, window)
        dx = pool_bwd(dy, cache)
        want_y, want_dx = pool_oracle(kind, x, window, window, dy)
        assert np.array_equal(y.view(np.uint32), want_y.view(np.uint32))
        assert np.array_equal(dx.view(np.uint32), want_dx.view(np.uint32))

    @pytest.mark.parametrize("hw", [(8, 8), (7, 8)],
                             ids=["tiling", "border"])
    def test_max_nan_payloads_match_scalar_oracle(self, hw):
        # The first NaN of a window in row-major order wins, with its
        # payload, as in np.argmax; max windows hold ties of +0 and -0.
        rng = np.random.default_rng(hw[0] * 100 + 22)
        x = rng.integers(-2, 3, (2, 3) + hw).astype(np.float32)
        x[x == 0] = rng.choice(np.float32([0.0, -0.0]), int((x == 0).sum()))
        nans = rng.random(x.shape) < 0.15
        x.view(np.uint32)[nans] = rng.choice(
            np.uint32([0x7FC00001, 0xFFC00002, 0x7FC00003, 0x7F800004]),
            int(nans.sum()))
        dy = rng.standard_normal((2, 3, hw[0] // 2, hw[1] // 2)).astype(
            np.float32)
        dy[rng.random(dy.shape) < 0.25] = -0.0
        # One share per pixel, so a NaN payload in dy reaches dx with no
        # NaN + NaN whose payload would depend on the add's order.
        dy.view(np.uint32)[rng.random(dy.shape) < 0.15] = 0xFFC00005
        y, cache = pool_fwd(PoolKind.MAX, x, 2)
        dx = pool_bwd(dy, cache)
        want_y, want_dx = pool_oracle(PoolKind.MAX, x, 2, 2, dy)
        assert np.array_equal(y.view(np.uint32), want_y.view(np.uint32))
        assert np.array_equal(dx.view(np.uint32), want_dx.view(np.uint32))

    def test_max_zero_ties_keep_the_first_sign(self):
        x = np.float32([[[[-0.0, 0.0, 0.0, -0.0],
                          [0.0, -0.0, -0.0, 0.0]]]])
        y, cache = pool_fwd(PoolKind.MAX, x, 2)
        assert y.view(np.uint32).tolist() == [[[[0x80000000, 0x00000000]]]]
        dx = pool_bwd(np.float32([[[[1.0, 2.0]]]]), cache)
        assert dx.tolist() == [[[[1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]]

    @pytest.mark.parametrize("hw", [(8, 8), (7, 8)],
                             ids=["tiling", "border"])
    def test_max_backward_of_negative_zero_is_positive_zero(self, hw):
        # Each share is written as share + 0, and -0 + 0 is +0: winners,
        # losers and the missed border all read +0.
        x = np.random.default_rng(16).standard_normal(
            (2, 2) + hw).astype(np.float32)
        y, cache = pool_fwd(PoolKind.MAX, x, 2)
        dx = pool_bwd(np.full(y.shape, -0.0, np.float32), cache)
        assert dx.shape == x.shape
        assert not np.any(dx.view(np.uint32))

    @pytest.mark.parametrize("window", [16, 17])
    def test_max_wide_window_indexes_every_slot(self, window):
        # 256 and 289 slots: winners in the last slots show an index type
        # too narrow for them.
        k2 = window * window
        slots = [0, 127, 128, 200, 255, k2 - 1]
        x = np.tile(np.arange(k2, dtype=np.float32)[::-1].reshape(
            window, window), (1, len(slots) + 1, 1, 1))
        for ch, s in enumerate(slots):
            x[0, ch].flat[s] = np.float32(1000 + s)
        # A NaN in slot 200 beats the larger values after it.
        x[0, -1].flat[200] = np.nan
        x[0, -1].flat[k2 - 1] = np.float32(5000)
        dy = np.arange(1, len(slots) + 2, dtype=np.float32).reshape(
            1, -1, 1, 1)
        y, cache = pool_fwd(PoolKind.MAX, x, window)
        dx = pool_bwd(dy, cache)
        for ch, s in enumerate(slots + [200]):
            assert y[0, ch, 0, 0].tobytes() == x[0, ch].flat[s].tobytes()
            want = np.zeros(k2, np.float32)
            want[s] = dy[0, ch, 0, 0]
            assert np.array_equal(dx[0, ch].reshape(-1), want)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            pool_fwd(PoolKind.MAX, np.zeros((1, 1, 2, 2), np.float32),
                         3)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


class TestDropout:
    def test_p_zero_identity(self):
        x = np.float32([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, 1e-45,
                        3.4e38])
        y, mask = dropout(x, 0.0, RngStream(0))
        assert np.array_equal(y.view(np.uint32), x.view(np.uint32))
        assert np.all(mask == 1.0)

    def test_deterministic(self):
        x = np.ones(100, np.float32)
        _, m1 = dropout(x, 0.5, RngStream(1, 2))
        _, m2 = dropout(x, 0.5, RngStream(1, 2))
        assert np.array_equal(m1, m2)

    def test_expectation_preserved(self):
        x = np.full(1_000_000, 3.0, np.float32)
        y, _ = dropout(x, 0.3, RngStream(4))
        assert float(y.mean()) == pytest.approx(3.0, rel=0.01)

    def test_invalid_probability(self):
        x = np.ones(4, np.float32)
        with pytest.raises(ValueError):
            dropout(x, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            dropout(x, -0.1, RngStream(0))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 4), np.float32),
                                        [0, 1, 2])
        assert loss == pytest.approx(math.log(4.0), abs=1e-6)

    def test_confident_correct(self):
        z = np.zeros((1, 3), np.float32)
        z[0, 1] = 40.0
        loss, _ = softmax_cross_entropy(z, [1])
        assert loss < 1e-6

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((6, 5)).astype(np.float32)
        _, d = softmax_cross_entropy(z, rng.integers(0, 5, 6))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-6)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((4, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 4)

        def loss(zv):
            l, _ = softmax_cross_entropy(zv, labels)
            return l

        _, d = softmax_cross_entropy(z, labels)
        assert_grads_close(d, fd_grad(loss, z.copy()))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3), np.float32), [0, 3])


class TestBinaryLogLoss:
    def test_perfect_prediction_hits_clamp_floor(self):
        loss = binary_log_loss([1.0, 0.0], [1.0, 0.0])
        assert 0.0 < loss < 2e-7

    def test_coin_flip(self):
        loss = binary_log_loss([0.5, 0.5, 0.5], [1.0, 0.0, 1.0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            binary_log_loss([0.5], [1.0, 0.0])


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------


def reference_lstm_cell(pre, c_prev):
    """Unfused gate arithmetic from the pre-activations; FP32 throughout."""
    hsz = c_prev.shape[1]
    sig = lambda v: (1.0 / (1.0 + np.exp(-v))).astype(np.float32)
    i = sig(pre[:, :hsz])
    f = sig(pre[:, hsz:2 * hsz])
    g = np.tanh(pre[:, 2 * hsz:3 * hsz]).astype(np.float32)
    o = sig(pre[:, 3 * hsz:])
    c = f * c_prev + i * g
    h = o * np.tanh(c).astype(np.float32)
    return h, c


def rand_lstm_step(seed, n=2, hsz=2):
    """Pre-activations (n, 4*hsz) and a cell state (n, hsz)."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 4 * hsz)).astype(np.float32),
            rng.standard_normal((n, hsz)).astype(np.float32))


class TestLstmCell:
    def test_zero_everything(self):
        z = np.zeros((2, 2), np.float32)
        h, c, _ = lstm_cell_forward(np.zeros((2, 8), np.float32), z)
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_zero_weights_halve_cell_state(self):
        # Zero pre-activations open every sigmoid gate halfway and zero g.
        c_prev = np.float32([[0.8, -0.4]])
        h, c, _ = lstm_cell_forward(np.zeros((1, 8), np.float32), c_prev)
        assert np.allclose(c, 0.5 * c_prev, atol=1e-7)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-6)

    def test_matches_unfused_reference_bit_exact(self):
        pre, c_prev = rand_lstm_step(17)
        h, c, _ = lstm_cell_forward(pre, c_prev)
        h_ref, c_ref = reference_lstm_cell(pre, c_prev)
        assert np.array_equal(h.view(np.uint32), h_ref.view(np.uint32))
        assert np.array_equal(c.view(np.uint32), c_ref.view(np.uint32))

    def test_backward_zero_upstream(self):
        pre, c_prev = rand_lstm_step(18)
        _, _, cache = lstm_cell_forward(pre, c_prev)
        zeros = np.zeros((2, 2), np.float32)
        dpre, dc_prev = lstm_cell_backward(zeros, zeros.copy(), cache)
        assert dpre.shape == pre.shape and dc_prev.shape == c_prev.shape
        assert np.all(dpre == 0.0) and np.all(dc_prev == 0.0)

    def test_backward_vs_finite_differences(self):
        pre, c_prev = rand_lstm_step(19)
        rng = np.random.default_rng(119)
        dh = rng.standard_normal(c_prev.shape).astype(np.float32)
        dc = rng.standard_normal(c_prev.shape).astype(np.float32)

        def loss(pv, cv):
            h, c, _ = lstm_cell_forward(pv, cv)
            return float((h.astype(np.float64) * dh).sum()
                         + (c.astype(np.float64) * dc).sum())

        _, _, cache = lstm_cell_forward(pre, c_prev)
        dpre, dc_prev = lstm_cell_backward(dh, dc, cache)
        assert_grads_close(dpre, fd_grad(lambda v: loss(v, c_prev),
                                         pre.copy()))
        assert_grads_close(dc_prev, fd_grad(lambda v: loss(pre, v),
                                            c_prev.copy()))

    def test_backward_deterministic(self):
        pre, c_prev = rand_lstm_step(20)
        rng = np.random.default_rng(120)
        dh = rng.standard_normal(c_prev.shape).astype(np.float32)
        dc = rng.standard_normal(c_prev.shape).astype(np.float32)
        _, _, cache = lstm_cell_forward(pre, c_prev)
        first = lstm_cell_backward(dh, dc, cache)
        second = lstm_cell_backward(dh, dc, cache)
        for a, b in zip(first, second):
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lstm_cell_forward(np.zeros((2, 6), np.float32),
                              np.zeros((2, 2), np.float32))


# ---------------------------------------------------------------------------
# calling convention
# ---------------------------------------------------------------------------


def kernel_calls():
    """One call of every function in ``kernels.__all__`` on small arrays."""
    x = np.arange(32, dtype=np.float32).reshape(1, 2, 4, 4)
    xb = batch_last(x)
    w = np.ones((3, 2, 3, 3), np.float32)
    gamma, beta = bn_params(2)
    _, bn_cache = batchnorm_forward(x, gamma, beta, 1e-5)
    _, pool_cache = pool_forward(PoolKind.MAX, xb, 2)
    pre, c = rand_lstm_step(21)
    _, _, cell = lstm_cell_forward(pre, c)
    return {
        "conv2d_forward": lambda: conv2d_forward(xb, w),
        "conv2d_backward": lambda: conv2d_backward(
            xb, w, np.ones((3, 2, 2, 1), np.float32)),
        "batchnorm_forward": lambda: batchnorm_forward(x, gamma, beta, 1e-5),
        "batchnorm_backward": lambda: batchnorm_backward(x, gamma, bn_cache),
        "relu_forward": lambda: relu_forward(x),
        "relu_backward": lambda: relu_backward(x, x),
        "pool_forward": lambda: pool_forward(PoolKind.AVG, xb, 2),
        "pool_backward": lambda: pool_backward(
            np.ones((2, 2, 2, 1), np.float32), pool_cache),
        "dropout": lambda: dropout(x, 0.5, RngStream(0)),
        "softmax_cross_entropy": lambda: softmax_cross_entropy(
            np.zeros((2, 3), np.float32), [0, 2]),
        "binary_log_loss": lambda: binary_log_loss([0.5], [1.0]),
        "lstm_cell_forward": lambda: lstm_cell_forward(pre, c),
        "lstm_cell_backward": lambda: lstm_cell_backward(c, c, cell),
    }


def leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def test_every_kernel_takes_and_returns_arrays():
    # float32 in, float32 out: no kernel re-casts, so no floating-point
    # leaf of any result may be of another dtype.
    calls = kernel_calls()
    assert set(calls) == {name for name in kernels.__all__
                          if not isinstance(getattr(kernels, name), type)}
    z = np.linspace(-3, 3, 12, dtype=np.float32).reshape(4, 3)
    calls["_sigmoid"] = lambda: kernels._sigmoid(z)
    for metric, out, labels in (("accuracy", z, [0, 2, 1, 0]),
                                ("mse", z[:, :1], [0.5, -1.0, 0.0, 2.0]),
                                ("logloss", z[:, 1:2], [0.0, 1.0, 1.0, 0.0])):
        calls[f"_loss_and_grad[{metric}]"] = (
            lambda m=metric, o=out, y=labels: harness._loss_and_grad(m, o, y))
    for name, call in calls.items():
        out = list(leaves(call()))
        assert not any(isinstance(v, Tensor) for v in out), name
        floats = [v for v in out if isinstance(v, (np.ndarray, np.generic))
                  and np.issubdtype(v.dtype, np.floating)]
        assert all(v.dtype == np.float32 for v in floats), name
        assert name == "binary_log_loss" or any(
            isinstance(v, np.ndarray) and v.dtype == np.float32
            for v in floats), name
