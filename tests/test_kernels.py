import math

import numpy as np
import pytest

from bf16emu import kernels
from bf16emu.kernels import (
    ActivationKind,
    BatchNormState,
    ConvSpec,
    GemmAccumOrder,
    LstmWeights,
    PoolKind,
    activation_backward,
    activation_forward,
    batchnorm_backward,
    batchnorm_forward,
    bias_add,
    binary_log_loss,
    conv2d_backward,
    conv2d_forward,
    dropout,
    gemm,
    lstm_cell_backward,
    lstm_cell_forward,
    pool_backward,
    pool_forward,
    softmax_cross_entropy,
)
from bf16emu.tensor import (
    Precision,
    RngStream,
    ShapeError,
    Tensor,
    quantize_tensor,
)

from oracles import gemm_loop

SEQ = GemmAccumOrder.SEQUENTIAL_K
PAIRED = GemmAccumOrder.PAIRED_K


# ---------------------------------------------------------------------------
# independent scalar-loop oracles
# ---------------------------------------------------------------------------


def gemm_oracle(a, b, order):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), np.float32)
    for i in range(m):
        for jn in range(n):
            acc = np.float32(0.0)
            if order is SEQ:
                for j in range(k):
                    acc = np.float32(acc + np.float32(a[i, j] * b[j, jn]))
            else:
                for j in range(0, k - 1, 2):
                    pair = np.float32(
                        np.float32(a[i, j] * b[j, jn])
                        + np.float32(a[i, j + 1] * b[j + 1, jn]))
                    acc = np.float32(acc + pair)
                if k % 2:
                    acc = np.float32(acc + np.float32(a[i, k - 1]
                                                      * b[k - 1, jn]))
            out[i, jn] = acc
    return out


def conv_oracle(x, w, spec):
    n, c, h, wd = x.shape
    f = w.shape[0]
    ho = (h + 2 * spec.pad - spec.kh) // spec.stride + 1
    wo = (wd + 2 * spec.pad - spec.kw) // spec.stride + 1
    out = np.zeros((n, f, ho, wo), np.float32)
    for b in range(n):
        for fo in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = np.float32(0.0)
                    for ci in range(c):
                        for u in range(spec.kh):
                            for v in range(spec.kw):
                                r = i * spec.stride + u - spec.pad
                                s = j * spec.stride + v - spec.pad
                                if 0 <= r < h and 0 <= s < wd:
                                    acc = np.float32(acc + np.float32(
                                        x[b, ci, r, s] * w[fo, ci, u, v]))
                    out[b, fo, i, j] = acc
    return out


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
    return quantize_tensor(Tensor(x), Precision.BF16)


# ---------------------------------------------------------------------------
# gemm
# ---------------------------------------------------------------------------


class TestGemm:
    def test_identity(self):
        b = rand_bf16(np.random.default_rng(0), (2, 3))
        out = gemm(Tensor(np.eye(2, dtype=np.float32)), b)
        assert np.array_equal(out.data, b.data)
        assert out.tag is Precision.FP32

    def test_product_of_two_bf16_values_is_exact(self):
        out = gemm(Tensor(np.float32([[3.140625]])),
                   Tensor(np.float32([[1.015625]])))
        assert out.data[0, 0] == np.float32(3.189697265625)

    def test_fp32_accumulator_keeps_small_addend(self):
        a = Tensor(np.float32([[2.0 ** 20, 1.0]]))
        b = Tensor(np.float32([[1.0], [1.0]]))
        assert gemm(a, b).data[0, 0] == 1048577.0
        # The same sum rounded through bf16 loses the 1.0.
        s = quantize_tensor(Tensor(np.float32([1048577.0])), Precision.BF16)
        assert s.data[0] == 1048576.0

    # m*n == 1 stays on the per-k loop, since reducing the k axis in one
    # NumPy call would sum it pairwise; (96, 5, 96) is above the switch
    # point of the chunked path.
    @pytest.mark.parametrize("order", [SEQ, PAIRED])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (4, 7, 4),
                                       (2, 8, 3), (1, 7, 1), (1, 8, 1),
                                       (1, 128, 1), (1, 1000, 1),
                                       (96, 5, 96)])
    def test_matches_scalar_oracle(self, order, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rand_bf16(rng, (m, k))
        b = rand_bf16(rng, (k, n))
        got = gemm(a, b, order).data
        want = gemm_oracle(a.data, b.data, order)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("order", [SEQ, PAIRED])
    @pytest.mark.parametrize("chunks, rest", [(3, 17), (2, 33)])
    def test_partial_last_chunk_matches_per_k_loop(self, order, chunks, rest):
        # Several whole chunks, a partial one and, for odd k under
        # PAIRED_K, a lone last product.
        k = chunks * (kernels._CHUNK_ELEMS // (64 * 64)) + rest
        rng = np.random.default_rng(k)
        a = rng.standard_normal((64, k)).astype(np.float32)
        b = rng.standard_normal((k, 64)).astype(np.float32)
        got = gemm(Tensor(a), Tensor(b), order).data
        want = gemm_loop(a, b, order is PAIRED)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("order", [SEQ, PAIRED])
    @pytest.mark.parametrize("shape", [(1, 9, 1), (3, 9, 4)])
    def test_negative_zero_products_sum_to_positive_zero(self, order, shape):
        m, k, n = shape
        # Every product is -0.0; a sum started at +0.0, as in the loop,
        # stays +0.0.
        a = Tensor(np.full((m, k), -0.0, np.float32))
        b = Tensor(np.abs(rand_bf16(np.random.default_rng(4), (k, n)).data))
        got = gemm(a, b, order).data
        assert np.array_equal(got.view(np.uint32), np.zeros((m, n), np.uint32))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order", [SEQ, PAIRED])
    def test_inf_and_nan_propagate_like_scalar_oracle(self, order):
        rng = np.random.default_rng(5)
        a = rand_bf16(rng, (4, 9)).data.copy()
        b = rand_bf16(rng, (9, 5)).data.copy()
        a[0, 3] = np.inf          # meets b[3, 1] == 0: inf * 0 is NaN
        b[3, 1] = 0.0
        a[1, 6] = -np.inf
        a[2, 2] = np.nan
        b[7, 4] = np.inf
        got = gemm(Tensor(a), Tensor(b), order).data
        want = gemm_oracle(a, b, order)
        assert np.isnan(got[0, 1]) and np.isnan(got[2]).all()
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.slow
    @pytest.mark.parametrize("inputs", ["fp32", "bf16"])
    @pytest.mark.parametrize("order", [SEQ, PAIRED])
    def test_sweep_matches_per_k_loop(self, order, inputs):
        rng = np.random.default_rng(7)
        for m in range(1, 7):
            for n in range(1, 7):
                ks = [1, 2, 7, 8, 9, 127, 128, 129]
                if m * n > 1:
                    # One either side of the chunk length, by the
                    # kernel's own rule; m*n == 1 never takes that path.
                    chunk = (kernels._CHUNK_ELEMS // (m * n)) & ~1
                    ks += [chunk - 1, chunk, chunk + 1]
                for k in ks:
                    a = rng.standard_normal((m, k)).astype(np.float32)
                    b = rng.standard_normal((k, n)).astype(np.float32)
                    if inputs == "bf16":
                        a = quantize_tensor(Tensor(a), Precision.BF16).data
                        b = quantize_tensor(Tensor(b), Precision.BF16).data
                    got = gemm(Tensor(a), Tensor(b), order).data
                    want = gemm_loop(a, b, order is PAIRED)
                    assert np.array_equal(got.view(np.uint32),
                                          want.view(np.uint32)), (m, k, n)

    def test_orders_can_differ(self):
        # Sequential: ((1 + u) + u) + u sticks at 1.0 (each add is a tie
        # resolved to even).  Paired: (1 + u) + (u + u) = 1 + 2u.
        u = np.float32(2.0 ** -24)
        a = Tensor(np.float32([[1.0, u, u, u]]))
        b = Tensor(np.ones((4, 1), np.float32))
        seq = gemm(a, b, SEQ).data[0, 0]
        paired = gemm(a, b, PAIRED).data[0, 0]
        assert seq == np.float32(1.0)
        assert paired == np.float32(1.0) + np.float32(2.0 ** -23)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = rand_bf16(rng, (8, 16))
        b = rand_bf16(rng, (16, 8))
        x = gemm(a, b, SEQ).data
        y = gemm(a, b, SEQ).data
        assert np.array_equal(x.view(np.uint32), y.view(np.uint32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gemm(Tensor(np.zeros((2, 3), np.float32)),
                 Tensor(np.zeros((4, 2), np.float32)))

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


class TestBiasAdd:
    def test_zeros_plus_bias(self):
        c = Tensor(np.zeros((2, 3), np.float32))
        bias = Tensor(np.float32([1.0, 2.0, 3.0]))
        out = bias_add(c, bias)
        assert np.array_equal(out.data, np.tile(bias.data, (2, 1)))

    def test_bias_zero_identity(self):
        c = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = bias_add(c, Tensor(np.zeros(3, np.float32)))
        assert np.array_equal(out.data, c.data)

    def test_fp32_precision_retained(self):
        # A bias below bf16 precision still shifts the FP32 sum.
        c = quantize_tensor(Tensor(np.float32([[1.0]])), Precision.BF16)
        out = bias_add(c, Tensor(np.float32([1e-5])))
        assert out.data[0, 0] == np.float32(1.0) + np.float32(1e-5)
        assert out.data[0, 0] != 1.0

    def test_channel_axis_for_4d(self):
        c = Tensor(np.zeros((1, 2, 2, 2), np.float32))
        out = bias_add(c, Tensor(np.float32([5.0, 7.0])))
        assert np.all(out.data[0, 0] == 5.0)
        assert np.all(out.data[0, 1] == 7.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bias_add(Tensor(np.zeros((2, 3), np.float32)),
                     Tensor(np.zeros(4, np.float32)))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


class TestConv:
    def test_one_by_one_kernel_scales(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        w = Tensor(np.float32([2.0, 0.0, 0.0, 2.0]).reshape(2, 2, 1, 1))
        spec = ConvSpec(1, 1, in_channels=2, out_channels=2)
        out = conv2d_forward(x, w, spec)
        assert np.array_equal(out.data, 2.0 * x.data)

    def test_all_ones(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32))
        w = Tensor(np.ones((1, 1, 2, 2), np.float32))
        out = conv2d_forward(x, w, ConvSpec(2, 2))
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_loop_nest_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rand_bf16(rng, (2, 3, 5, 5))
        w = rand_bf16(rng, (4, 3, 3, 3))
        spec = ConvSpec(3, 3, stride=stride, pad=pad, in_channels=3,
                        out_channels=4)
        got = conv2d_forward(x, w, spec).data
        want = conv_oracle(x.data, w.data, spec)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_backward_zero_dy(self):
        rng = np.random.default_rng(5)
        x = rand_bf16(rng, (1, 1, 4, 4))
        w = rand_bf16(rng, (2, 1, 3, 3))
        spec = ConvSpec(3, 3, in_channels=1, out_channels=2)
        dy = Tensor(np.zeros((1, 2, 2, 2), np.float32))
        dx, dw = conv2d_backward(x, w, dy, spec)
        assert np.all(dx.data == 0) and np.all(dw.data == 0)

    def test_backward_one_by_one_analytic(self):
        x = Tensor(np.float32([[[[2.0, 3.0], [4.0, 5.0]]]]))
        w = Tensor(np.float32([[[[1.5]]]]))
        spec = ConvSpec(1, 1)
        dy = Tensor(np.float32([[[[1.0, 0.0], [0.0, 2.0]]]]))
        dx, dw = conv2d_backward(x, w, dy, spec)
        assert np.array_equal(dx.data, 1.5 * dy.data)
        assert dw.data[0, 0, 0, 0] == 2.0 * 1.0 + 5.0 * 2.0

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.5
        spec = ConvSpec(3, 3, pad=1, in_channels=2, out_channels=3)
        dy = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)

        def loss_x(xv):
            y = conv2d_forward(Tensor(xv), Tensor(w), spec).data
            return float((y.astype(np.float64) * dy).sum())

        def loss_w(wv):
            y = conv2d_forward(Tensor(x), Tensor(wv), spec).data
            return float((y.astype(np.float64) * dy).sum())

        dx, dw = conv2d_backward(Tensor(x), Tensor(w), Tensor(dy), spec)
        assert_grads_close(dx.data, fd_grad(loss_x, x.copy()))
        assert_grads_close(dw.data, fd_grad(loss_w, w.copy()))

    def test_spec_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_forward(Tensor(np.zeros((1, 2, 4, 4), np.float32)),
                           Tensor(np.zeros((1, 1, 3, 3), np.float32)),
                           ConvSpec(3, 3, in_channels=1, out_channels=1))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        state = BatchNormState(np.ones(3), np.zeros(3))
        x = Tensor(np.full((4, 3), 2.5, np.float32))
        y, _ = batchnorm_forward(x, state)
        assert np.allclose(y.data, 0.0, atol=1e-2)

    def test_two_point_batch(self):
        state = BatchNormState(np.ones(1), np.zeros(1), eps=1e-5)
        x = Tensor(np.float32([[1.0], [3.0]]))
        y, _ = batchnorm_forward(x, state)
        assert y.data[0, 0] == pytest.approx(-0.99999, abs=1e-4)
        assert y.data[1, 0] == pytest.approx(0.99999, abs=1e-4)

    def test_affine_params(self):
        base = BatchNormState(np.ones(2), np.zeros(2))
        scaled = BatchNormState(2.0 * np.ones(2), np.ones(2))
        x = Tensor(np.random.default_rng(8).standard_normal(
            (6, 2)).astype(np.float32))
        y0, _ = batchnorm_forward(x, base)
        y1, _ = batchnorm_forward(x, scaled)
        assert np.allclose(y1.data, 2.0 * y0.data + 1.0, atol=1e-5)

    def test_4d_per_channel(self):
        state = BatchNormState(np.ones(3), np.zeros(3))
        x = Tensor(np.random.default_rng(9).standard_normal(
            (2, 3, 4, 4)).astype(np.float32))
        y, _ = batchnorm_forward(x, state)
        for c in range(3):
            assert abs(float(y.data[:, c].mean())) < 1e-5
            assert float(y.data[:, c].std()) == pytest.approx(1.0, abs=1e-2)

    def test_batch_of_one_rejected(self):
        state = BatchNormState(np.ones(2), np.zeros(2))
        with pytest.raises(ShapeError):
            batchnorm_forward(Tensor(np.zeros((1, 2), np.float32)), state)

    def test_backward_zero(self):
        state = BatchNormState(np.ones(2), np.zeros(2))
        x = Tensor(np.random.default_rng(10).standard_normal(
            (4, 2)).astype(np.float32))
        _, cache = batchnorm_forward(x, state)
        dx, dg, db = batchnorm_backward(
            Tensor(np.zeros((4, 2), np.float32)), state, cache)
        assert np.all(dx.data == 0) and np.all(dg == 0) and np.all(db == 0)

    def test_backward_sums_to_zero(self):
        state = BatchNormState(np.ones(3), np.zeros(3))
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((8, 3)).astype(np.float32))
        _, cache = batchnorm_forward(x, state)
        dy = Tensor(rng.standard_normal((8, 3)).astype(np.float32))
        dx, _, _ = batchnorm_backward(dy, state, cache)
        assert np.allclose(dx.data.sum(axis=0), 0.0, atol=1e-4)

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        gamma = rng.standard_normal(3).astype(np.float32)
        beta = rng.standard_normal(3).astype(np.float32)
        dy = rng.standard_normal((5, 3)).astype(np.float32)

        def loss(xv):
            st = BatchNormState(gamma.copy(), beta.copy())
            y, _ = batchnorm_forward(Tensor(xv), st)
            return float((y.data.astype(np.float64) * dy).sum())

        state = BatchNormState(gamma.copy(), beta.copy())
        _, cache = batchnorm_forward(Tensor(x), state)
        dx, dg, db = batchnorm_backward(Tensor(dy), state, cache)
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))
        _, cache2 = batchnorm_forward(Tensor(x), state)
        xhat = cache2[1]
        assert_grads_close(dg, (dy * xhat).sum(axis=0))
        assert_grads_close(db, dy.sum(axis=0))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class TestActivations:
    def test_relu(self):
        y = activation_forward(ActivationKind.RELU,
                               Tensor(np.float32([-1.0, 0.0, 2.0])))
        assert np.array_equal(y.data, np.float32([0.0, 0.0, 2.0]))

    def test_sigmoid_tanh_at_zero(self):
        z = Tensor(np.float32([0.0]))
        assert activation_forward(ActivationKind.SIGMOID, z).data[0] == 0.5
        assert activation_forward(ActivationKind.TANH, z).data[0] == 0.0

    def test_leaky_relu(self):
        y = activation_forward(ActivationKind.LEAKY_RELU,
                               Tensor(np.float32([-5.0])), alpha=0.2)
        assert y.data[0] == np.float32(0.2) * np.float32(-5.0)

    def test_relu_backward_gate(self):
        dx = activation_backward(ActivationKind.RELU,
                                 Tensor(np.float32([-1.0, 2.0])),
                                 Tensor(np.float32([3.0, 3.0])))
        assert np.array_equal(dx.data, np.float32([0.0, 3.0]))

    def test_sigmoid_derivative_at_zero(self):
        dx = activation_backward(ActivationKind.SIGMOID,
                                 Tensor(np.float32([0.0])),
                                 Tensor(np.float32([1.0])))
        assert dx.data[0] == 0.25

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_backward_vs_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(20).astype(np.float32)
        dy = rng.standard_normal(20).astype(np.float32)

        def loss(xv):
            y = activation_forward(kind, Tensor(xv)).data
            return float((y.astype(np.float64) * dy).sum())

        dx = activation_backward(kind, Tensor(x), Tensor(dy))
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestPool:
    def test_max(self):
        x = Tensor(np.float32([[[[1.0, 2.0], [3.0, 4.0]]]]))
        y, _ = pool_forward(PoolKind.MAX, x, 2, 2)
        assert y.data[0, 0, 0, 0] == 4.0

    def test_avg(self):
        x = Tensor(np.float32([[[[1.0, 2.0], [3.0, 4.0]]]]))
        y, _ = pool_forward(PoolKind.AVG, x, 2, 2)
        assert y.data[0, 0, 0, 0] == 2.5

    def test_max_tie_breaks_to_first_row_major(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0, np.float32))
        _, cache = pool_forward(PoolKind.MAX, x, 2, 2)
        dy = Tensor(np.ones((1, 1, 1, 1), np.float32))
        dx = pool_backward(PoolKind.MAX, dy, cache)
        assert dx.data[0, 0, 0, 0] == 1.0
        assert dx.data.sum() == 1.0

    def test_max_backward_routes_to_argmax(self):
        x = Tensor(np.float32([[[[1.0, 9.0], [3.0, 4.0]]]]))
        _, cache = pool_forward(PoolKind.MAX, x, 2, 2)
        dx = pool_backward(PoolKind.MAX,
                           Tensor(np.float32([[[[5.0]]]])), cache)
        assert dx.data[0, 0, 0, 1] == 5.0
        assert dx.data.sum() == 5.0

    def test_avg_backward_spreads(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        _, cache = pool_forward(PoolKind.AVG, x, 2, 2)
        dx = pool_backward(PoolKind.AVG,
                           Tensor(np.full((1, 1, 2, 2), 4.0, np.float32)),
                           cache)
        assert np.all(dx.data == 1.0)

    @pytest.mark.parametrize("kind", [PoolKind.MAX, PoolKind.AVG])
    def test_backward_vs_finite_differences(self, kind):
        rng = np.random.default_rng(14)
        # Distinct values so the max winner is stable under FD nudges.
        x = (rng.permutation(32).astype(np.float32) * 0.25).reshape(
            (1, 2, 4, 4))
        dy = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)

        def loss(xv):
            y, _ = pool_forward(kind, Tensor(xv), 2, 2)
            return float((y.data.astype(np.float64) * dy).sum())

        _, cache = pool_forward(kind, Tensor(x), 2, 2)
        dx = pool_backward(kind, Tensor(dy), cache)
        assert_grads_close(dx.data, fd_grad(loss, x.copy(), h_rel=1e-4))

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            pool_forward(PoolKind.MAX,
                         Tensor(np.zeros((1, 1, 2, 2), np.float32)), 3, 1)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(5, dtype=np.float32))
        y, mask = dropout(x, 0.0, RngStream(0))
        assert np.array_equal(y.data, x.data)
        assert np.all(mask == 1.0)

    def test_deterministic(self):
        x = Tensor(np.ones(100, np.float32))
        _, m1 = dropout(x, 0.5, RngStream(1, 2))
        _, m2 = dropout(x, 0.5, RngStream(1, 2))
        assert np.array_equal(m1, m2)

    def test_expectation_preserved(self):
        x = Tensor(np.full(1_000_000, 3.0, np.float32))
        y, _ = dropout(x, 0.3, RngStream(4))
        assert float(y.data.mean()) == pytest.approx(3.0, rel=0.01)

    def test_invalid_probability(self):
        x = Tensor(np.ones(4, np.float32))
        with pytest.raises(ValueError):
            dropout(x, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            dropout(x, -0.1, RngStream(0))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(Tensor(np.zeros((3, 4), np.float32)),
                                        [0, 1, 2])
        assert loss == pytest.approx(math.log(4.0), abs=1e-6)

    def test_confident_correct(self):
        z = np.zeros((1, 3), np.float32)
        z[0, 1] = 40.0
        loss, _ = softmax_cross_entropy(Tensor(z), [1])
        assert loss < 1e-6

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((6, 5)).astype(np.float32)
        _, d = softmax_cross_entropy(Tensor(z), rng.integers(0, 5, 6))
        assert np.allclose(d.data.sum(axis=1), 0.0, atol=1e-6)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((4, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 4)

        def loss(zv):
            l, _ = softmax_cross_entropy(Tensor(zv), labels)
            return l

        _, d = softmax_cross_entropy(Tensor(z), labels)
        assert_grads_close(d.data, fd_grad(loss, z.copy()))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3), np.float32)),
                                  [0, 3])


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


def make_lstm_weights(rng, isz, hsz, scale=0.3):
    return LstmWeights(
        w_ih=Tensor((rng.standard_normal((4 * hsz, isz)) * scale)
                    .astype(np.float32)),
        w_hh=Tensor((rng.standard_normal((4 * hsz, hsz)) * scale)
                    .astype(np.float32)),
        bias=Tensor((rng.standard_normal(4 * hsz) * scale)
                    .astype(np.float32)),
    )


def zero_lstm_weights(isz, hsz):
    return LstmWeights(Tensor(np.zeros((4 * hsz, isz), np.float32)),
                       Tensor(np.zeros((4 * hsz, hsz), np.float32)),
                       Tensor(np.zeros(4 * hsz, np.float32)))


def reference_lstm_cell(x, h_prev, c_prev, w):
    """Unfused scalar-composition reference; FP32 throughout."""
    pre = gemm_oracle(x, w.w_ih.data.T.copy(), SEQ) \
        + gemm_oracle(h_prev, w.w_hh.data.T.copy(), SEQ)
    pre = (pre + w.bias.data).astype(np.float32)
    hsz = h_prev.shape[1]
    sig = lambda v: (1.0 / (1.0 + np.exp(-v))).astype(np.float32)
    i = sig(pre[:, :hsz])
    f = sig(pre[:, hsz:2 * hsz])
    g = np.tanh(pre[:, 2 * hsz:3 * hsz]).astype(np.float32)
    o = sig(pre[:, 3 * hsz:])
    c = f * c_prev + i * g
    h = o * np.tanh(c).astype(np.float32)
    return h, c


class TestLstmCell:
    def test_zero_everything(self):
        w = zero_lstm_weights(3, 2)
        z = Tensor(np.zeros((2, 3), np.float32))
        zh = Tensor(np.zeros((2, 2), np.float32))
        h, c, _ = lstm_cell_forward(z, zh, zh.copy(), w)
        assert np.all(h.data == 0.0) and np.all(c.data == 0.0)

    def test_zero_weights_halve_cell_state(self):
        w = zero_lstm_weights(3, 2)
        x = Tensor(np.ones((1, 3), np.float32))
        h_prev = Tensor(np.ones((1, 2), np.float32))
        c_prev = Tensor(np.float32([[0.8, -0.4]]))
        h, c, _ = lstm_cell_forward(x, h_prev, c_prev, w)
        assert np.allclose(c.data, 0.5 * c_prev.data, atol=1e-7)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev.data),
                           atol=1e-6)

    def test_matches_unfused_reference_bit_exact(self):
        rng = np.random.default_rng(17)
        w = make_lstm_weights(rng, 3, 2)
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        h_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        c_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        h, c, _ = lstm_cell_forward(x, h_prev, c_prev, w)
        h_ref, c_ref = reference_lstm_cell(x.data, h_prev.data,
                                           c_prev.data, w)
        assert np.array_equal(h.data.view(np.uint32),
                              h_ref.view(np.uint32))
        assert np.array_equal(c.data.view(np.uint32),
                              c_ref.view(np.uint32))

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(18)
        w = make_lstm_weights(rng, 3, 2)
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        h_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        c_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        _, _, cache = lstm_cell_forward(x, h_prev, c_prev, w)
        zeros = Tensor(np.zeros((2, 2), np.float32))
        outs = lstm_cell_backward(zeros, zeros.copy(), cache)
        for t in outs:
            assert np.all(t.data == 0.0)

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(19)
        isz, hsz, n = 3, 2, 2
        w = make_lstm_weights(rng, isz, hsz)
        x = rng.standard_normal((n, isz)).astype(np.float32)
        h_prev = rng.standard_normal((n, hsz)).astype(np.float32)
        c_prev = rng.standard_normal((n, hsz)).astype(np.float32)
        dh = rng.standard_normal((n, hsz)).astype(np.float32)
        dc = rng.standard_normal((n, hsz)).astype(np.float32)

        def loss(xv, hv, cv, wih, whh, bias):
            weights = LstmWeights(Tensor(wih), Tensor(whh), Tensor(bias))
            h, c, _ = lstm_cell_forward(Tensor(xv), Tensor(hv), Tensor(cv),
                                        weights)
            return float((h.data.astype(np.float64) * dh).sum()
                         + (c.data.astype(np.float64) * dc).sum())

        _, _, cache = lstm_cell_forward(
            Tensor(x), Tensor(h_prev), Tensor(c_prev), w)
        dx, dhp, dcp, dwih, dwhh, dbias = lstm_cell_backward(
            Tensor(dh), Tensor(dc), cache)

        args = [x, h_prev, c_prev, w.w_ih.data, w.w_hh.data, w.bias.data]
        for idx, analytic in enumerate(
                [dx.data, dhp.data, dcp.data, dwih.data, dwhh.data,
                 dbias.data]):
            def partial(v, idx=idx):
                a = [arr.copy() for arr in args]
                a[idx] = v
                return loss(*a)
            assert_grads_close(analytic,
                               fd_grad(partial, args[idx].copy()))

    def test_backward_deterministic(self):
        rng = np.random.default_rng(20)
        w = make_lstm_weights(rng, 3, 2)
        x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        h_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        c_prev = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        dh = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        dc = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        _, _, cache = lstm_cell_forward(x, h_prev, c_prev, w)
        first = lstm_cell_backward(dh, dc, cache)
        second = lstm_cell_backward(dh, dc, cache)
        for a, b in zip(first, second):
            assert np.array_equal(a.data.view(np.uint32),
                                  b.data.view(np.uint32))

    def test_shape_mismatch(self):
        w = zero_lstm_weights(3, 2)
        with pytest.raises(ShapeError):
            lstm_cell_forward(Tensor(np.zeros((2, 4), np.float32)),
                              Tensor(np.zeros((2, 2), np.float32)),
                              Tensor(np.zeros((2, 2), np.float32)),
                              w)
