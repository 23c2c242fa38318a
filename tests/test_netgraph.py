import tracemalloc

import numpy as np
import pytest

from bf16emu import kernels, netgraph
from bf16emu.kernels import PoolKind
from bf16emu.netgraph import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    EltwiseAdd,
    Flatten,
    Lstm,
    Network,
    Pool,
    QuantStats,
    ReLU,
    build_network,
)
from bf16emu.numerics import Precision, quantize_array
from bf16emu.tensor import (
    QuantPolicy,
    RngStream,
    quantize_tensor,
)

from oracles import conv2d_backward_nchw, conv2d_forward_nchw
from test_kernels import assert_grads_close, fd_grad, gemm_oracle, rand_bf16

def mlp_specs():
    return [Dense(2, 8), ReLU(), Dense(8, 2)]


class TestQuantStats:
    def test_counts_only_nonzero_inputs(self):
        s = QuantStats()
        before = np.float32([0.0, 1.0, 1e-30, -1e-30])
        after = np.float32([0.0, 1.0, 0.0, 0.0])
        s.record(before, after)
        assert s.nonzero == 3
        assert s.zeroed == 2
        assert s.underflow_fraction == pytest.approx(2 / 3)

    def test_empty_is_zero(self):
        assert QuantStats().underflow_fraction == 0.0


class TestBuild:
    def test_deterministic_init(self):
        a = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                          RngStream(1))
        b = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                          RngStream(1))
        for pa, pb in zip(a.param_sets(), b.param_sets()):
            assert np.array_equal(pa.master, pb.master)

    def test_different_seeds_differ(self):
        a = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                          RngStream(1))
        b = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                          RngStream(2))
        assert not np.array_equal(
            next(a.param_sets()).master,
            next(b.param_sets()).master)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_network([object()], QuantPolicy(Precision.FP32),
                          RngStream(0))

    def test_eltwise_source_validated(self):
        with pytest.raises(ValueError):
            build_network([Dense(2, 2), EltwiseAdd(source=1)],
                          QuantPolicy(Precision.FP32), RngStream(0))

    @pytest.mark.parametrize("eps", [0.0, -1e-5])
    def test_batchnorm_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            BatchNorm(3, eps=eps)

    @pytest.mark.parametrize("window", [0, -2])
    def test_pool_window_must_be_positive(self, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            Pool(PoolKind.MAX, window)


def every_layer_kind():
    """Every layer kind but the LSTM, on (N, 1, 4, 4) inputs."""
    return [Conv2d(1, 2, 3, pad=1), BatchNorm(2), ReLU(),
            EltwiseAdd(source=0), Pool(PoolKind.MAX, 2), Dropout(0.5),
            Flatten(), Dense(8, 2)]


class TestArrayBoundary:
    """Parameters and the network's inputs and outputs are plain float32
    arrays."""

    @pytest.mark.parametrize("policy", [QuantPolicy(Precision.FP32),
                                        QuantPolicy(Precision.BF16)],
                             ids=["fp32", "bf16"])
    def test_forward_backward_and_params_are_arrays(self, policy):
        net = build_network(every_layer_kind(), policy, RngStream(19))
        x = np.random.default_rng(26).standard_normal(
            (4, 1, 4, 4)).astype(np.float32)
        out, tape = net.forward(x, train=True, step_rng=RngStream(1, 2))
        net.zero_grads()
        dx = net.backward(tape, np.ones(out.shape, np.float32))
        for value in (out, dx):
            assert type(value) is np.ndarray and value.dtype == np.float32
        assert dx.shape == x.shape
        net.refresh_shadows()
        triples = [t for ps in net.param_sets() for t in ps.arrays()]
        assert [key for key, _, _ in triples] == [
            "conv0.w", "conv0.w.bias", "batchnorm1.gamma",
            "batchnorm1.gamma.bias", "dense7.w", "dense7.w.bias"]
        for _, array, grad in triples:
            for a in (array, grad):
                assert type(a) is np.ndarray and a.dtype == np.float32
        for ps in net.param_sets():
            assert type(ps.shadow) is np.ndarray
            assert ps.shadow.dtype == np.float32

    @pytest.mark.parametrize("layout", ["float64", "fortran"])
    @pytest.mark.parametrize("policy", [QuantPolicy(Precision.FP32),
                                        QuantPolicy(Precision.BF16)],
                             ids=["fp32", "bf16"])
    @pytest.mark.parametrize("specs, x_shape", [
        (mlp_specs(), (4, 2)),
        (every_layer_kind(), (4, 1, 4, 4)),
    ], ids=["mlp", "every-layer-kind"])
    def test_inputs_are_read_as_c_contiguous_float32(self, specs, x_shape,
                                                     policy, layout):
        """A float64 or Fortran-ordered ``x`` or ``dy`` gives the float32
        bits of its C-contiguous float32 copy."""
        rng = np.random.default_rng(28)
        x = rng.standard_normal(x_shape)
        dy = rng.standard_normal((x_shape[0], 2))
        if layout == "fortran":
            x, dy = (np.asfortranarray(a, np.float32) for a in (x, dy))

        def run(x, dy):
            net = build_network(specs, policy, RngStream(19))
            out, tape = net.forward(x, train=True, step_rng=RngStream(1, 2))
            dx = net.backward(tape, dy)
            return [out, net.infer(x), dx] + [
                g for ps in net.param_sets() for _, _, g in ps.arrays()]

        want = run(np.ascontiguousarray(x, np.float32),
                   np.ascontiguousarray(dy, np.float32))
        for g, w in zip(run(x, dy), want, strict=True):
            assert g.dtype == np.float32 and same_bits(g, w)

    def test_lstm_params_are_arrays(self):
        net = build_network([Lstm(1, 3), Dense(3, 2)],
                            QuantPolicy(Precision.BF16),
                            RngStream(19))
        keys = [key for ps in net.param_sets() for key, _, _ in ps.arrays()]
        assert keys == ["lstm0.w_ih", "lstm0.w_ih.bias", "lstm0.w_hh",
                        "dense1.w", "dense1.w.bias"]
        out, _ = net.forward(np.zeros((2, 3, 1), np.float32))
        assert type(out) is np.ndarray and out.shape == (2, 2)


class TestFp32Identity:
    """With an FP32 policy the engine is a plain FP32 network: 100 SGD
    steps must match an independently coded reference bit for bit."""

    def test_hundred_steps_bit_exact(self):
        rng = np.random.default_rng(42)
        net = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                            RngStream(7))
        d1, d2 = net.layers[0].params[0], net.layers[2].params[0]
        w1 = d1.master.copy()
        b1 = d1.bias.copy()
        w2 = d2.master.copy()
        b2 = d2.bias.copy()

        x = rng.standard_normal((8, 2)).astype(np.float32)
        target = rng.standard_normal((8, 2)).astype(np.float32)
        lr = np.float32(0.05)
        inv_n = np.float32(1.0 / 8.0)

        for _ in range(100):
            # engine
            out, tape = net.forward(x, train=True)
            dy = (out - target) * inv_n
            net.zero_grads()
            net.backward(tape, dy)
            for ps in net.param_sets():
                for _, w, g in ps.arrays():
                    w -= lr * g
            net.refresh_shadows()

            # reference, scalar-ordered gemm throughout
            pre = gemm_oracle(x, w1.T.copy()) + b1
            h = np.maximum(pre, np.float32(0))
            out_ref = gemm_oracle(h, w2.T.copy()) + b2
            assert np.array_equal(out.view(np.uint32),
                                  out_ref.view(np.uint32))
            dy_ref = (out_ref - target) * inv_n
            dw2 = gemm_oracle(dy_ref.T.copy(), h)
            db2 = dy_ref.sum(axis=0, dtype=np.float32)
            dh = gemm_oracle(dy_ref, w2)
            dpre = np.where(pre > 0, dh, np.float32(0))
            dw1 = gemm_oracle(dpre.T.copy(), x)
            db1 = dpre.sum(axis=0, dtype=np.float32)
            w2 -= lr * dw2
            b2 -= lr * db2
            w1 -= lr * dw1
            b1 -= lr * db1

        assert np.array_equal(d1.master.view(np.uint32),
                              w1.view(np.uint32))
        assert np.array_equal(d1.bias.view(np.uint32),
                              b1.view(np.uint32))
        assert np.array_equal(d2.master.view(np.uint32),
                              w2.view(np.uint32))
        assert np.array_equal(d2.bias.view(np.uint32),
                              b2.view(np.uint32))


class TestShadows:
    def test_shadow_is_quantized_master(self):
        net = build_network(mlp_specs(), QuantPolicy(Precision.BF16),
                            RngStream(3))
        for ps in net.param_sets():
            want = quantize_array(ps.master, Precision.BF16)
            assert np.array_equal(ps.shadow, want)
            assert ps.shadow.dtype == np.float32
            assert ps.shadow is not ps.master

    def test_refresh_tracks_master_updates(self):
        net = build_network(mlp_specs(), QuantPolicy(Precision.BF16),
                            RngStream(3))
        ps = next(net.param_sets())
        ps.master += 0.123
        net.refresh_shadows()
        want = quantize_array(ps.master, Precision.BF16)
        assert np.array_equal(ps.shadow, want)

    def test_master_stays_full_precision(self):
        net = build_network(mlp_specs(), QuantPolicy(Precision.BF16),
                            RngStream(3))
        ps = next(net.param_sets())
        before = ps.master.copy()
        net.refresh_shadows()
        assert np.array_equal(ps.master, before)
        assert ps.master.dtype == np.float32
        assert not np.array_equal(ps.master, ps.shadow)

    def test_bias_never_quantized(self):
        net = build_network(mlp_specs(), QuantPolicy(Precision.FP16),
                            RngStream(3))
        for ps in net.param_sets():
            if ps.bias is not None:
                # A value below fp16 precision must survive in the bias.
                ps.bias[...] = 1e-6
        net.refresh_shadows()
        for ps in net.param_sets():
            if ps.bias is not None:
                assert ps.bias.dtype == np.float32
                assert np.all(ps.bias == np.float32(1e-6))

    def test_batchnorm_params_not_quantized(self):
        specs = [Dense(2, 4), BatchNorm(4), ReLU(), Dense(4, 2)]
        net = build_network(specs, QuantPolicy(Precision.BF16), RngStream(5))
        bn = net.layers[1].params[0]
        bn.master[...] = 1.0 + 2.0 ** -12  # not bf16-representable
        net.refresh_shadows()
        assert np.all(bn.shadow == bn.master)

    def test_unquantized_master_is_its_own_shadow(self):
        # FP32 policy: _quantize returns the master itself, so no copy is
        # made per step; a master update shows in the next forward pass.
        net = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                            RngStream(3))
        for ps in net.param_sets():
            assert ps.shadow is ps.master


class TestBackward:
    def test_tape_consumed_once(self):
        net = build_network(mlp_specs(), QuantPolicy(Precision.FP32),
                            RngStream(0))
        x = np.ones((4, 2), np.float32)
        out, tape = net.forward(x)
        dy = np.ones(out.shape, np.float32)
        net.backward(tape, dy)
        with pytest.raises(RuntimeError):
            net.backward(tape, dy)

    def test_input_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        specs = [Dense(3, 5), ReLU(), Dense(5, 2)]
        net = build_network(specs, QuantPolicy(Precision.FP32), RngStream(9))
        x = rng.standard_normal((4, 3)).astype(np.float32)
        dy = rng.standard_normal((4, 2)).astype(np.float32)

        def loss(xv):
            out, _ = net.forward(xv, train=False)
            return float((out.astype(np.float64) * dy).sum())

        _, tape = net.forward(x, train=False)
        dx = net.backward(tape, dy)
        assert_grads_close(dx, fd_grad(loss, x.copy()))

    def test_eltwise_skip_gradients(self):
        rng = np.random.default_rng(22)
        specs = [Dense(3, 4), ReLU(), Dense(4, 4),
                 EltwiseAdd(source=1)]
        net = build_network(specs, QuantPolicy(Precision.FP32), RngStream(11))
        x = rng.standard_normal((5, 3)).astype(np.float32)
        dy = rng.standard_normal((5, 4)).astype(np.float32)

        out, tape = net.forward(x, train=False)
        # Forward is the residual sum of the two branch outputs.
        assert np.array_equal(out,
                              tape.outputs[2] + tape.outputs[1])

        def loss(xv):
            o, _ = net.forward(xv, train=False)
            return float((o.astype(np.float64) * dy).sum())

        net.zero_grads()
        dx = net.backward(tape, dy)
        assert_grads_close(dx, fd_grad(loss, x.copy()))

    def test_lstm_network_gradient(self):
        # dx and the gradients of both LSTM weights and its bias, over
        # four time steps, against finite differences of the loss.
        rng = np.random.default_rng(23)
        specs = [Lstm(2, 3), Dense(3, 1)]
        net = build_network(specs, QuantPolicy(Precision.FP32), RngStream(13))
        x = rng.standard_normal((2, 4, 2)).astype(np.float32)
        dy = rng.standard_normal((2, 1)).astype(np.float32)

        def loss(xv):
            net.refresh_shadows()
            out, _ = net.forward(xv, train=False)
            return float((out.astype(np.float64) * dy).sum())

        _, tape = net.forward(x, train=False)
        net.zero_grads()
        dx = net.backward(tape, dy)
        assert_grads_close(dx, fd_grad(loss, x.copy()))
        w_ih, w_hh = net.layers[0].params
        for param, grad in ((w_ih.master, w_ih.grad),
                            (w_hh.master, w_hh.grad),
                            (w_ih.bias, w_ih.bias_grad)):
            assert np.any(grad != 0.0)
            # fd_grad perturbs the parameter in place; loss() refreshes
            # the shadows, which under FP32 copy the masters.  These
            # gradients are below 1, where the default tolerance is
            # absolute; the differences here are within 8e-5.
            assert_grads_close(grad, fd_grad(lambda _: loss(x), param),
                               tol=2.5e-4)

    def test_conv_pool_flatten_network_gradient(self):
        rng = np.random.default_rng(24)
        specs = [Conv2d(1, 2, 3, pad=1), ReLU(),
                 Pool(PoolKind.AVG, 2), Flatten(), Dense(8, 2)]
        net = build_network(specs, QuantPolicy(Precision.FP32), RngStream(15))
        x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        dy = rng.standard_normal((2, 2)).astype(np.float32)

        def loss(xv):
            out, _ = net.forward(xv, train=False)
            return float((out.astype(np.float64) * dy).sum())

        _, tape = net.forward(x, train=False)
        net.zero_grads()
        dx = net.backward(tape, dy)
        assert_grads_close(dx, fd_grad(loss, x.copy()))


POLICIES = [QuantPolicy(Precision.FP32), QuantPolicy(Precision.BF16),
            QuantPolicy(Precision.FP16)]
POLICY_IDS = ["fp32", "bf16", "fp16"]

# Nets and input shapes that together build every layer type, an
# EltwiseAdd skip among them.
INFER_NETS = {
    "every-layer": (every_layer_kind, (4, 1, 4, 4)),
    "avg-pool": (lambda: [Conv2d(1, 3, 3, pad=1), Pool(PoolKind.AVG, 3),
                          Flatten(), Dense(12, 2)], (4, 1, 7, 6)),
    "residual-mlp": (lambda: [Dense(3, 4), ReLU(), Dense(4, 4),
                              EltwiseAdd(source=1), BatchNorm(4),
                              Dropout(0.25), Dense(4, 2)], (5, 3)),
    "lstm": (lambda: [Lstm(2, 5), Dense(5, 1)], (3, 6, 2)),
}


class TestInfer:
    """`Network.infer` is `forward(train=False)` without the tape."""

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    @pytest.mark.parametrize("name", sorted(INFER_NETS))
    def test_matches_forward_bits(self, name, policy):
        specs, x_shape = INFER_NETS[name]
        net = build_network(specs(), policy, RngStream(31))
        x = np.random.default_rng(32).standard_normal(x_shape).astype(
            np.float32)
        want, _ = net.forward(x, train=False)
        got = net.infer(x)
        assert type(got) is np.ndarray and got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_lstm_sine_keeps_under_half_the_memory_of_forward(self):
        # The lstm-sine net at the evaluation batch of 512, 32 steps.
        net = build_network([Lstm(1, 32), Dense(32, 1)],
                            QuantPolicy(Precision.BF16), RngStream(33))
        x = np.random.default_rng(34).standard_normal(
            (512, 32, 1)).astype(np.float32)

        def peak(run):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        forward_peak = peak(lambda: net.forward(x, train=False))
        infer_peak = peak(lambda: net.infer(x))
        assert infer_peak < forward_peak / 2


class TestInputGradSkip:
    """``backward(..., input_grad=False)`` lets layer 0 skip its dx and
    changes no parameter gradient and no underflow count."""

    @pytest.mark.parametrize("name, saved", [
        ("dense", 1), ("conv", 1), ("lstm", 6),
    ])
    def test_same_param_grads_fewer_gemms(self, monkeypatch, name, saved):
        specs, x_shape = {
            "dense": ([Dense(3, 4), ReLU(), Dense(4, 2)], (5, 3)),
            "conv": ([Conv2d(1, 2, 3, pad=1), ReLU(), Flatten(),
                      Dense(32, 2)], (3, 1, 4, 4)),
            "lstm": ([Lstm(2, 5), Dense(5, 2)], (3, 6, 2)),
        }[name]
        rng = np.random.default_rng(35)
        x = rng.standard_normal(x_shape).astype(np.float32)
        dy = (rng.standard_normal((x_shape[0], 2)) * 2.0 ** -20).astype(
            np.float32)
        calls = []
        gemm = netgraph.K._gemm

        def counting(a, b):
            calls.append(a.shape)
            return gemm(a, b)

        monkeypatch.setattr(netgraph.K, "_gemm", counting)
        results = []
        for input_grad in (True, False):
            net = build_network(specs, QuantPolicy(Precision.FP16),
                                RngStream(36))
            _, tape = net.forward(x, train=True)
            stats = QuantStats()
            calls.clear()
            dx = net.backward(tape, dy, stats=stats, input_grad=input_grad)
            grads = [g.copy() for ps in net.param_sets()
                     for _, _, g in ps.arrays()]
            results.append((dx, grads, (stats.nonzero, stats.zeroed),
                            len(calls)))
        (dx, grads, counts, n_calls), (none, grads2, counts2, n_calls2) = \
            results
        assert dx is not None and dx.shape == x.shape and none is None
        for g, g2 in zip(grads, grads2):
            assert np.array_equal(g.view(np.uint32), g2.view(np.uint32))
        assert counts == counts2 and counts[0] > 0
        assert n_calls - n_calls2 == saved


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint32),
                                                 b.view(np.uint32))


class TestNchwBoundary:
    """4-D tensors are batch-last between the layers, and NCHW at the
    network's boundary; every result has the bits of an NCHW network."""

    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_conv_network_matches_nchw_reference(self, policy):
        net = build_network([Conv2d(2, 3, 3, pad=1), ReLU(),
                             Conv2d(3, 2, 3, stride=2, pad=1)], policy,
                            RngStream(51))
        rng = np.random.default_rng(52)
        conv1, conv2 = net.layers[0].params[0], net.layers[2].params[0]
        for ps in (conv1, conv2):
            ps.bias[...] = rand_bf16(rng, ps.bias.shape, 0.1)
        x = rng.standard_normal((4, 2, 8, 8)).astype(np.float32)
        dy = rng.standard_normal((4, 2, 4, 4)).astype(np.float32)
        out, tape = net.forward(x, train=True)
        net.zero_grads()
        dx = net.backward(tape, dy)

        def q(a):
            if policy.identity:
                return a
            return quantize_array(a, policy.precision, policy.mode)

        def conv(a, ps, stride):
            y = conv2d_forward_nchw(a, ps.shadow, stride, 1)
            return q(y + ps.bias[:, None, None])

        # The NCHW network: quantize the input and each layer's output,
        # and each error gradient entering a layer, except the one the
        # ReLU passes back, which is exact.
        x0 = q(x)
        y1 = conv(x0, conv1, 1)
        r1 = kernels.relu_forward(y1)
        assert same_bits(out, conv(r1, conv2, 2))
        g2 = q(dy)
        dr1, dw2 = conv2d_backward_nchw(r1, conv2.shadow, g2, 2, 1)
        g1 = kernels.relu_backward(y1, q(dr1))
        want_dx, dw1 = conv2d_backward_nchw(x0, conv1.shadow, g1, 1, 1)
        assert same_bits(dx, want_dx)
        for ps, dw, g in ((conv1, dw1, g1), (conv2, dw2, g2)):
            assert same_bits(ps.grad, dw)
            assert same_bits(ps.bias_grad,
                             g.sum(axis=(0, 2, 3), dtype=np.float32))

    def test_batchnorm_reduces_in_nchw_order(self):
        net = build_network([BatchNorm(3)], QuantPolicy(Precision.FP32),
                            RngStream(53))
        rng = np.random.default_rng(54)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        out, tape = net.forward(x, train=True)
        net.zero_grads()
        dx = net.backward(tape, dy)
        ps = net.layers[0].params[0]
        want, cache = kernels.batchnorm_forward(x, ps.shadow, ps.bias,
                                                1e-5)
        want_dx, dgamma, dbeta = kernels.batchnorm_backward(dy, ps.shadow,
                                                            cache)
        assert same_bits(out, want) and same_bits(dx, want_dx)
        assert same_bits(ps.grad, dgamma) and same_bits(ps.bias_grad, dbeta)

    def test_dropout_mask_is_drawn_in_nchw_shape(self):
        net = build_network([Dropout(0.5)], QuantPolicy(Precision.FP32),
                            RngStream(0))
        rng = np.random.default_rng(55)
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        dy = rng.standard_normal(x.shape).astype(np.float32)
        step = RngStream(1, 5)
        out, tape = net.forward(x, train=True, step_rng=step)
        dx = net.backward(tape, dy)
        want, mask = kernels.dropout(x, 0.5, step.child(0))
        assert same_bits(out, want)
        assert same_bits(dx, dy * mask * np.float32(2.0))


class TestDropoutLayer:
    def test_eval_mode_is_identity(self):
        net = build_network([Dropout(0.5)], QuantPolicy(Precision.FP32),
                            RngStream(0))
        x = np.arange(10, dtype=np.float32).reshape(2, 5)
        out, _ = net.forward(x, train=False)
        assert np.array_equal(out, x)

    def test_train_mode_needs_rng(self):
        net = build_network([Dropout(0.5)], QuantPolicy(Precision.FP32),
                            RngStream(0))
        x = np.ones((2, 5), np.float32)
        with pytest.raises(ValueError):
            net.forward(x, train=True)

    def test_train_mode_deterministic_per_step_rng(self):
        net = build_network([Dropout(0.5)], QuantPolicy(Precision.FP32),
                            RngStream(0))
        x = np.ones((4, 100), np.float32)
        a, _ = net.forward(x, train=True, step_rng=RngStream(1, 5))
        b, _ = net.forward(x, train=True, step_rng=RngStream(1, 5))
        c, _ = net.forward(x, train=True, step_rng=RngStream(1, 6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestUnderflowAccounting:
    def run_tiny_grads(self, policy):
        net = build_network([Dense(4, 4)], policy, RngStream(17))
        x = np.random.default_rng(25).standard_normal(
            (8, 4)).astype(np.float32)
        _, tape = net.forward(x, train=True)
        dy = np.full((8, 4), 1e-12, np.float32)
        stats = QuantStats()
        net.zero_grads()
        net.backward(tape, dy, stats=stats)
        return net, stats

    def test_fp16_flushes_tiny_error_grads(self):
        net, stats = self.run_tiny_grads(QuantPolicy(Precision.FP16))
        assert stats.underflow_fraction == 1.0
        for ps in net.param_sets():
            assert np.all(ps.grad == 0.0)

    def test_bf16_keeps_tiny_error_grads(self):
        net, stats = self.run_tiny_grads(QuantPolicy(Precision.BF16))
        assert stats.underflow_fraction == 0.0
        grads = np.concatenate([ps.grad.reshape(-1)
                                for ps in net.param_sets()])
        assert np.any(grads != 0.0)

    def test_fp32_records_nothing(self):
        _, stats = self.run_tiny_grads(QuantPolicy(Precision.FP32))
        assert stats.nonzero == 0

    def test_bf16_grad_signs_track_fp32(self):
        net32, _ = self.run_tiny_grads(QuantPolicy(Precision.FP32))
        net16, _ = self.run_tiny_grads(QuantPolicy(Precision.BF16))
        g32 = np.concatenate([ps.grad.reshape(-1)
                              for ps in net32.param_sets()])
        g16 = np.concatenate([ps.grad.reshape(-1)
                              for ps in net16.param_sets()])
        agree = np.sign(g32) == np.sign(g16)
        assert agree.mean() >= 0.99


class TestLstmQuantization:
    """Inside its recurrence the LSTM quantizes the hidden state it feeds
    back (act) and its gate-preactivation error gradients (err)."""

    N, T, I, H = 3, 4, 2, 5

    def run(self, policy, monkeypatch=None):
        """Forward and backward of [Lstm, Dense]; returns the step caches,
        the stats and the shapes passed to quantize_tensor by each pass."""
        net = build_network([Lstm(self.I, self.H), Dense(self.H, 2)],
                            policy, RngStream(29))
        rng = np.random.default_rng(30)
        x = rng.standard_normal((self.N, self.T, self.I)).astype(np.float32)
        dy = rng.standard_normal((self.N, 2)).astype(np.float32)
        shapes = []
        if monkeypatch is not None:
            def recording(t, *args):
                shapes.append(t.shape)
                return quantize_tensor(t, *args)
            monkeypatch.setattr(netgraph, "quantize_tensor", recording)
        _, tape = net.forward(x, train=True)
        forward_shapes = list(shapes)
        stats = QuantStats()
        net.zero_grads()
        net.backward(tape, dy, stats=stats)
        steps, _ = tape.caches[0]
        return steps, stats, forward_shapes, shapes[len(forward_shapes):]

    def test_quantize_calls_per_step(self, monkeypatch):
        n, t, i, h = self.N, self.T, self.I, self.H
        _, _, fwd, bwd = self.run(QuantPolicy(Precision.BF16), monkeypatch)
        # Forward: the network input, one (N, H) hidden state per step,
        # then the outputs of both layers.
        assert fwd == [(n, t, i)] + [(n, h)] * t + [(n, h), (n, 2)]
        # Backward: the gradients entering Dense and the LSTM, then one
        # (N, 4H) gate gradient per step.
        assert bwd == [(n, 2), (n, h)] + [(n, 4 * h)] * t

    def test_error_grads_recorded_once_per_step(self):
        _, stats, _, _ = self.run(QuantPolicy(Precision.FP16))
        n, t, h = self.N, self.T, self.H
        # dy entering Dense, dy entering the layer, then the (N, 4H) gate
        # gradient per step, less its forget-gate block at step 0: the
        # cell starts from c = 0, so that block is exactly zero and is
        # not counted.
        assert stats.nonzero == n * 2 + n * h + t * n * 4 * h - n * h

    def test_cell_inputs_follow_activation_rule(self):
        steps, _, _, _ = self.run(QuantPolicy(Precision.BF16))
        assert len(steps) == self.T
        for xt, hq, _ in steps:
            for v in (xt, hq):
                q = quantize_array(v, Precision.BF16)
                assert np.array_equal(v.view(np.uint32), q.view(np.uint32))
        # Under FP32 nothing is rounded: the fed-back state is the
        # cell's own output.
        steps, _, _, _ = self.run(QuantPolicy(Precision.FP32))
        for (_, _, cell), (_, hq, _) in zip(steps, steps[1:]):
            *_, o, c = cell
            assert np.array_equal(hq, o * np.tanh(c).astype(np.float32))


class TestQuantizationPlacement:
    def test_dense_output_quantized_after_fp32_bias(self):
        net = build_network([Dense(2, 2)], QuantPolicy(Precision.BF16),
                            RngStream(19))
        ps = net.layers[0].params[0]
        # Identity weights: off the diagonal the output is Q(bias) != 0,
        # on it Q(1 + bias) == 1, so a dropped bias or one added after Q
        # both show.
        ps.master[...] = np.eye(2, dtype=np.float32)
        ps.bias[...] = np.float32(1e-5)
        net.refresh_shadows()
        x = np.eye(2, dtype=np.float32)
        out, _ = net.forward(x, train=False)
        # Output equals Q(shadow.T row + bias): bias added in FP32 first,
        # then the sum is projected onto the bf16 grid.
        want = quantize_array(x @ ps.shadow.T + np.float32(1e-5),
                              Precision.BF16)
        assert np.array_equal(out, want)

    def test_conv_output_quantized_after_fp32_channel_bias(self):
        net = build_network([Conv2d(1, 2, 1)], QuantPolicy(Precision.BF16),
                            RngStream(19))
        ps = net.layers[0].params[0]
        ps.master[...] = np.float32(1.0)
        ps.bias[...] = np.float32([1e-5, 2e-5])
        net.refresh_shadows()
        out, _ = net.forward(np.float32([[[[0.0, 1.0]]]]), train=False)
        # Channel f reads Q(bias[f]) where the input is 0, so each channel
        # gets its own bias; where the input is 1 it reads Q(1 + bias[f]),
        # which is 1.0 only if the bias was added in FP32 before Q.
        for f, b in enumerate(np.float32([1e-5, 2e-5])):
            q = quantize_array(b, Precision.BF16)
            assert out[0, f, 0, 0] == q != 0.0
            assert out[0, f, 0, 1] == np.float32(1.0)
        assert out[0, 0, 0, 0] != out[0, 1, 0, 0]

    @pytest.mark.parametrize("specs, x_shape", [
        (mlp_specs(), (4, 2)),
        (every_layer_kind(), (4, 1, 4, 4)),
    ], ids=["mlp", "every-layer-kind"])
    def test_activations_quantized_between_layers(self, specs, x_shape):
        net = build_network(specs, QuantPolicy(Precision.BF16), RngStream(19))
        x = np.random.default_rng(26).standard_normal(
            x_shape).astype(np.float32)
        _, tape = net.forward(x, train=True, step_rng=RngStream(1, 2))
        assert len(tape.outputs) == len(specs)
        for out in tape.outputs:
            requantized = quantize_array(out, Precision.BF16)
            assert np.array_equal(out.view(np.uint32),
                                  requantized.view(np.uint32))

    def test_output_of_non_gemm_last_layer_quantized(self):
        net = build_network([Dense(2, 4), BatchNorm(4)],
                            QuantPolicy(Precision.BF16), RngStream(19))
        x = np.random.default_rng(27).standard_normal(
            (4, 2)).astype(np.float32)
        _, tape = net.forward(x, train=False)
        out = tape.outputs[-1]
        requantized = quantize_array(out, Precision.BF16)
        assert np.array_equal(out.view(np.uint32), requantized.view(np.uint32))

    def test_error_grad_entering_batchnorm_not_quantized(self):
        # Under the default rules the gradients entering both Dense
        # layers are quantized (and counted); the one entering BatchNorm
        # stays FP32 and is not.
        n = 8
        net = build_network([Dense(2, 4), BatchNorm(4), Dense(4, 2)],
                            QuantPolicy(Precision.FP16), RngStream(31))
        rng = np.random.default_rng(32)
        x = rng.standard_normal((n, 2)).astype(np.float32)
        dy = rng.standard_normal((n, 2)).astype(np.float32)
        _, tape = net.forward(x, train=True)
        stats = QuantStats()
        net.zero_grads()
        net.backward(tape, dy, stats=stats)
        assert stats.nonzero == n * 2 + n * 4


class TestSelectionPassThrough:
    """ReLU and max pooling only select or zero values, so their results
    are exact and are not quantized again; the error gradients they pass
    back are still counted.  Flatten's results, the input Dropout returns
    when it is off and the gradient EltwiseAdd passes back are exact too,
    and are neither quantized nor counted."""

    X_SHAPE = (4, 1, 6, 6)

    @staticmethod
    def selecting():
        return [Conv2d(1, 2, 3, pad=1), ReLU(), Pool(PoolKind.MAX, 3),
                Flatten(), Dense(8, 3)]

    @staticmethod
    def non_selecting():
        return [Conv2d(1, 2, 3, pad=1), Pool(PoolKind.AVG, 3), Flatten(),
                Dense(8, 3)]

    @staticmethod
    def passing_through():
        """Run with ``train=False``, so Dropout returns its input."""
        return [Conv2d(1, 2, 3, pad=1), Dropout(0.5), ReLU(),
                EltwiseAdd(source=1), Flatten(), Dense(72, 3)]

    def run(self, specs, policy, monkeypatch, train=True):
        """One forward and backward; returns the (layer class, role) of
        each quantize_tensor call per pass, the stats, and per layer the
        gradient it received and the one it passed back.  Every layer
        result must be a C-contiguous float32 array."""
        net = build_network(specs, policy, RngStream(41))
        rng = np.random.default_rng(42)
        x = rng.standard_normal(self.X_SHAPE).astype(np.float32)
        # Small enough that fp16 flushes some of the error gradients.
        dy = (rng.standard_normal((4, 3)) * 2.0 ** -23).astype(np.float32)
        calls, site = [], []
        original = netgraph._quantize

        def quantize(a, exact, ctx, layer_class, role, *args):
            site.append((layer_class, role))
            try:
                return original(a, exact, ctx, layer_class, role, *args)
            finally:
                site.pop()

        def recording(t, *args):
            calls.append(site[-1])
            return quantize_tensor(t, *args)

        def array(a):
            assert type(a) is np.ndarray and a.dtype == np.float32
            assert a.flags.c_contiguous
            return a

        grads = {}
        for layer in net.layers:
            def forward(x, ctx, tape, inner=layer.forward):
                return array(inner(x, ctx, tape))

            def backward(g, ctx, cache, input_grad, layer=layer,
                         inner=layer.backward):
                out = array(inner(g, ctx, cache, input_grad))
                grads[layer.index] = (g, out)
                return out
            monkeypatch.setattr(layer, "forward", forward)
            monkeypatch.setattr(layer, "backward", backward)
        monkeypatch.setattr(netgraph, "_quantize", quantize)
        monkeypatch.setattr(netgraph, "quantize_tensor", recording)
        _, tape = net.forward(x, train=train)
        n_forward = len(calls)
        stats = QuantStats()
        net.backward(tape, dy, stats=stats)
        return (sorted(calls[:n_forward]), sorted(calls[n_forward:]), stats,
                dy, grads)

    @pytest.mark.parametrize("policy", [QuantPolicy(Precision.BF16),
                                        QuantPolicy(Precision.FP16)],
                             ids=["bf16", "fp16"])
    def test_selections_are_not_quantized_again(self, policy, monkeypatch):
        fwd, bwd, _, _, _ = self.run(self.selecting(), policy, monkeypatch)
        # The network input and the conv and dense outputs; the ReLU,
        # pool and flatten outputs are exact.
        assert fwd == [("conv", "act"), ("conv", "act"), ("gemm", "act")]
        # The gradients entering dense and flatten; those that flatten,
        # the pool and the ReLU pass back are exact.
        assert bwd == [("eltwise", "err"), ("gemm", "err")]

    @pytest.mark.parametrize("policy", [QuantPolicy(Precision.BF16),
                                        QuantPolicy(Precision.FP16)],
                             ids=["bf16", "fp16"])
    def test_non_selections_are_quantized(self, policy, monkeypatch):
        fwd, bwd, _, _, _ = self.run(self.non_selecting(), policy,
                                     monkeypatch)
        assert fwd == sorted([("conv", "act"), ("conv", "act"),
                              ("pool", "act"), ("gemm", "act")])
        # Flatten passes its exact gradient to the avg pool; the avg
        # pool's is quantized on entering the conv.
        assert bwd == sorted([("gemm", "err"), ("eltwise", "err"),
                              ("conv", "err")])

    @pytest.mark.parametrize("policy, precision", [
        (QuantPolicy(Precision.BF16), Precision.BF16),
        (QuantPolicy(Precision.FP16), Precision.FP16)], ids=["bf16", "fp16"])
    def test_stats_count_the_gradients_selections_pass_back(
            self, policy, precision, monkeypatch):
        _, _, stats, dy, grads = self.run(self.selecting(), policy,
                                          monkeypatch)
        # The gradient entering layer i, before and after quantization:
        # what layer i + 1 passed back, and what layer i received.
        before = {i: grads[i + 1][1] if i + 1 in grads else dy
                  for i in grads}
        # Counted: the gradients entering dense (4) and flatten (3), and
        # those the ReLU (into 0) and the pool (into 1) pass back exact.
        # Flatten's pass-through into the pool (2) is not.
        counted = (4, 3, 1, 0)
        nonzero = sum(int(np.count_nonzero(before[i])) for i in counted)
        zeroed = sum(int(np.count_nonzero((before[i] != 0)
                                          & (grads[i][0] == 0)))
                     for i in counted)
        assert (stats.nonzero, stats.zeroed) == (nonzero, zeroed)
        assert stats.nonzero > 0
        if precision is Precision.FP16:
            assert stats.zeroed > 0
        # The selections passed back values already in the format.
        for i in (1, 0):
            q = quantize_array(before[i], precision)
            assert np.array_equal(q.view(np.uint32),
                                  before[i].view(np.uint32))

    @pytest.mark.parametrize("policy", [QuantPolicy(Precision.BF16),
                                        QuantPolicy(Precision.FP16)],
                             ids=["bf16", "fp16"])
    def test_returned_inputs_are_not_quantized_again(self, policy,
                                                     monkeypatch):
        fwd, bwd, stats, dy, grads = self.run(self.passing_through(), policy,
                                              monkeypatch, train=False)
        # The network input, the conv, sum and dense outputs; the input
        # the Dropout returns and the ReLU and flatten outputs are exact.
        assert fwd == sorted([("conv", "act"), ("conv", "act"),
                              ("eltwise", "act"), ("gemm", "act")])
        # The gradients entering dense and flatten, and the sum of the
        # ReLU's exact gradient and the skip gradient, which is new
        # arithmetic, entering the Dropout.  The gradient the EltwiseAdd
        # passes back enters the ReLU as it is, and the one the Dropout
        # passes back enters the conv.
        assert bwd == sorted([("gemm", "err"), ("eltwise", "err"),
                              ("dropout", "err")])
        assert grads[2][0] is grads[3][1] and grads[0][0] is grads[1][1]
        # Only the three quantized gradients are counted: those entering
        # dense (5), flatten (4) and the Dropout (1), before quantization.
        before = {5: dy, 4: grads[5][1], 1: grads[2][1] + grads[3][1]}
        nonzero = sum(int(np.count_nonzero(b)) for b in before.values())
        zeroed = sum(int(np.count_nonzero((b != 0) & (grads[i][0] == 0)))
                     for i, b in before.items())
        assert (stats.nonzero, stats.zeroed) == (nonzero, zeroed)
