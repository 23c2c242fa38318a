import numpy as np
import pytest

from bf16emu.kernels import ActivationKind, GemmAccumOrder, PoolKind
from bf16emu.netgraph import (
    Activation,
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
    build_network,
)
from bf16emu.tensor import (
    Precision,
    QuantPolicy,
    RngStream,
    Tensor,
    quantize_tensor,
)

from test_kernels import assert_grads_close, fd_grad, gemm_oracle

SEQ = GemmAccumOrder.SEQUENTIAL_K
RELU = ActivationKind.RELU


def mlp_specs():
    return [Dense(2, 8), Activation(RELU), Dense(8, 2)]


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
        a = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(1))
        b = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(1))
        for pa, pb in zip(a.param_sets(), b.param_sets()):
            assert np.array_equal(pa.master.data, pb.master.data)

    def test_different_seeds_differ(self):
        a = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(1))
        b = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(2))
        assert not np.array_equal(
            next(a.param_sets()).master.data,
            next(b.param_sets()).master.data)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_network([object()], QuantPolicy.fp32(), RngStream(0))

    def test_eltwise_source_validated(self):
        with pytest.raises(ValueError):
            build_network([Dense(2, 2), EltwiseAdd(source=1)],
                          QuantPolicy.fp32(), RngStream(0))


class TestFp32Identity:
    """With an FP32 policy the engine is a plain FP32 network: 100 SGD
    steps must match an independently coded reference bit for bit."""

    def test_hundred_steps_bit_exact(self):
        rng = np.random.default_rng(42)
        net = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(7))
        d1, d2 = net.layers[0].params[0], net.layers[2].params[0]
        w1 = d1.master.data.copy()
        b1 = d1.bias.data.copy()
        w2 = d2.master.data.copy()
        b2 = d2.bias.data.copy()

        x = rng.standard_normal((8, 2)).astype(np.float32)
        target = rng.standard_normal((8, 2)).astype(np.float32)
        lr = np.float32(0.05)
        inv_n = np.float32(1.0 / 8.0)

        for _ in range(100):
            # engine
            out, tape = net.forward(Tensor(x), train=True)
            dy = (out.data - target) * inv_n
            net.zero_grads()
            net.backward(tape, Tensor(dy))
            for ps in net.param_sets():
                ps.master.data -= lr * ps.grad
                if ps.bias is not None:
                    ps.bias.data -= lr * ps.bias_grad
            net.refresh_shadows()

            # reference, scalar-ordered gemm throughout
            pre = gemm_oracle(x, w1.T.copy(), SEQ) + b1
            h = np.maximum(pre, np.float32(0))
            out_ref = gemm_oracle(h, w2.T.copy(), SEQ) + b2
            assert np.array_equal(out.data.view(np.uint32),
                                  out_ref.view(np.uint32))
            dy_ref = (out_ref - target) * inv_n
            dw2 = gemm_oracle(dy_ref.T.copy(), h, SEQ)
            db2 = dy_ref.sum(axis=0, dtype=np.float32)
            dh = gemm_oracle(dy_ref, w2, SEQ)
            dpre = np.where(pre > 0, dh, np.float32(0))
            dw1 = gemm_oracle(dpre.T.copy(), x, SEQ)
            db1 = dpre.sum(axis=0, dtype=np.float32)
            w2 -= lr * dw2
            b2 -= lr * db2
            w1 -= lr * dw1
            b1 -= lr * db1

        assert np.array_equal(d1.master.data.view(np.uint32),
                              w1.view(np.uint32))
        assert np.array_equal(d1.bias.data.view(np.uint32),
                              b1.view(np.uint32))
        assert np.array_equal(d2.master.data.view(np.uint32),
                              w2.view(np.uint32))
        assert np.array_equal(d2.bias.data.view(np.uint32),
                              b2.view(np.uint32))


class TestShadows:
    def test_shadow_is_quantized_master(self):
        net = build_network(mlp_specs(), QuantPolicy.bf16(), RngStream(3))
        for ps in net.param_sets():
            want = quantize_tensor(ps.master, Precision.BF16)
            assert np.array_equal(ps.shadow.data, want.data)
            assert ps.shadow.tag is Precision.BF16

    def test_refresh_tracks_master_updates(self):
        net = build_network(mlp_specs(), QuantPolicy.bf16(), RngStream(3))
        ps = next(net.param_sets())
        ps.master.data += 0.123
        net.refresh_shadows()
        want = quantize_tensor(ps.master, Precision.BF16)
        assert np.array_equal(ps.shadow.data, want.data)

    def test_master_stays_full_precision(self):
        net = build_network(mlp_specs(), QuantPolicy.bf16(), RngStream(3))
        ps = next(net.param_sets())
        before = ps.master.data.copy()
        net.refresh_shadows()
        assert np.array_equal(ps.master.data, before)
        assert ps.master.tag is Precision.FP32

    def test_bias_never_quantized(self):
        net = build_network(mlp_specs(), QuantPolicy.fp16(), RngStream(3))
        for ps in net.param_sets():
            if ps.bias is not None:
                # A value below fp16 precision must survive in the bias.
                ps.bias.data[...] = 1e-6
        net.refresh_shadows()
        for ps in net.param_sets():
            if ps.bias is not None:
                assert ps.bias.tag is Precision.FP32
                assert np.all(ps.bias.data == np.float32(1e-6))

    def test_batchnorm_params_not_quantized(self):
        specs = [Dense(2, 4), BatchNorm(4), Activation(RELU), Dense(4, 2)]
        net = build_network(specs, QuantPolicy.bf16(), RngStream(5))
        bn = net.layers[1].params[0]
        bn.master.data[...] = 1.0 + 2.0 ** -12  # not bf16-representable
        net.refresh_shadows()
        assert np.all(bn.shadow.data == bn.master.data)


class TestBackward:
    def test_tape_consumed_once(self):
        net = build_network(mlp_specs(), QuantPolicy.fp32(), RngStream(0))
        x = Tensor(np.ones((4, 2), np.float32))
        out, tape = net.forward(x)
        dy = Tensor(np.ones(out.shape, np.float32))
        net.backward(tape, dy)
        with pytest.raises(RuntimeError):
            net.backward(tape, dy)

    def test_input_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        specs = [Dense(3, 5), Activation(ActivationKind.TANH), Dense(5, 2)]
        net = build_network(specs, QuantPolicy.fp32(), RngStream(9))
        x = rng.standard_normal((4, 3)).astype(np.float32)
        dy = rng.standard_normal((4, 2)).astype(np.float32)

        def loss(xv):
            out, _ = net.forward(Tensor(xv), train=False)
            return float((out.data.astype(np.float64) * dy).sum())

        _, tape = net.forward(Tensor(x), train=False)
        dx = net.backward(tape, Tensor(dy))
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))

    def test_eltwise_skip_gradients(self):
        rng = np.random.default_rng(22)
        specs = [Dense(3, 4), Activation(RELU), Dense(4, 4),
                 EltwiseAdd(source=1)]
        net = build_network(specs, QuantPolicy.fp32(), RngStream(11))
        x = rng.standard_normal((5, 3)).astype(np.float32)
        dy = rng.standard_normal((5, 4)).astype(np.float32)

        out, tape = net.forward(Tensor(x), train=False)
        # Forward is the residual sum of the two branch outputs.
        assert np.array_equal(out.data,
                              tape.outputs[2].data + tape.outputs[1].data)

        def loss(xv):
            o, _ = net.forward(Tensor(xv), train=False)
            return float((o.data.astype(np.float64) * dy).sum())

        net.zero_grads()
        dx = net.backward(tape, Tensor(dy))
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))

    def test_lstm_network_gradient(self):
        rng = np.random.default_rng(23)
        specs = [Lstm(2, 3), Dense(3, 1)]
        net = build_network(specs, QuantPolicy.fp32(), RngStream(13))
        x = rng.standard_normal((2, 4, 2)).astype(np.float32)
        dy = rng.standard_normal((2, 1)).astype(np.float32)

        def loss(xv):
            out, _ = net.forward(Tensor(xv), train=False)
            return float((out.data.astype(np.float64) * dy).sum())

        _, tape = net.forward(Tensor(x), train=False)
        net.zero_grads()
        dx = net.backward(tape, Tensor(dy))
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))

    def test_conv_pool_flatten_network_gradient(self):
        rng = np.random.default_rng(24)
        specs = [Conv2d(1, 2, 3, pad=1), Activation(RELU),
                 Pool(PoolKind.AVG, 2, 2), Flatten(), Dense(8, 2)]
        net = build_network(specs, QuantPolicy.fp32(), RngStream(15))
        x = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        dy = rng.standard_normal((2, 2)).astype(np.float32)

        def loss(xv):
            out, _ = net.forward(Tensor(xv), train=False)
            return float((out.data.astype(np.float64) * dy).sum())

        _, tape = net.forward(Tensor(x), train=False)
        net.zero_grads()
        dx = net.backward(tape, Tensor(dy))
        assert_grads_close(dx.data, fd_grad(loss, x.copy()))


class TestDropoutLayer:
    def test_eval_mode_is_identity(self):
        net = build_network([Dropout(0.5)], QuantPolicy.fp32(), RngStream(0))
        x = Tensor(np.arange(10, dtype=np.float32).reshape(2, 5))
        out, _ = net.forward(x, train=False)
        assert np.array_equal(out.data, x.data)

    def test_train_mode_needs_rng(self):
        net = build_network([Dropout(0.5)], QuantPolicy.fp32(), RngStream(0))
        x = Tensor(np.ones((2, 5), np.float32))
        with pytest.raises(ValueError):
            net.forward(x, train=True)

    def test_train_mode_deterministic_per_step_rng(self):
        net = build_network([Dropout(0.5)], QuantPolicy.fp32(), RngStream(0))
        x = Tensor(np.ones((4, 100), np.float32))
        a, _ = net.forward(x, train=True, step_rng=RngStream(1, 5))
        b, _ = net.forward(x, train=True, step_rng=RngStream(1, 5))
        c, _ = net.forward(x, train=True, step_rng=RngStream(1, 6))
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestUnderflowAccounting:
    def run_tiny_grads(self, policy):
        net = build_network([Dense(4, 4)], policy, RngStream(17))
        x = Tensor(np.random.default_rng(25).standard_normal(
            (8, 4)).astype(np.float32))
        _, tape = net.forward(x, train=True)
        dy = Tensor(np.full((8, 4), 1e-12, np.float32))
        stats = QuantStats()
        net.zero_grads()
        net.backward(tape, dy, stats=stats)
        return net, stats

    def test_fp16_flushes_tiny_error_grads(self):
        net, stats = self.run_tiny_grads(QuantPolicy.fp16())
        assert stats.underflow_fraction == 1.0
        for ps in net.param_sets():
            assert np.all(ps.grad == 0.0)

    def test_bf16_keeps_tiny_error_grads(self):
        net, stats = self.run_tiny_grads(QuantPolicy.bf16())
        assert stats.underflow_fraction == 0.0
        grads = np.concatenate([ps.grad.reshape(-1)
                                for ps in net.param_sets()])
        assert np.any(grads != 0.0)

    def test_fp32_records_nothing(self):
        _, stats = self.run_tiny_grads(QuantPolicy.fp32())
        assert stats.nonzero == 0

    def test_bf16_grad_signs_track_fp32(self):
        net32, _ = self.run_tiny_grads(QuantPolicy.fp32())
        net16, _ = self.run_tiny_grads(QuantPolicy.bf16())
        g32 = np.concatenate([ps.grad.reshape(-1)
                              for ps in net32.param_sets()])
        g16 = np.concatenate([ps.grad.reshape(-1)
                              for ps in net16.param_sets()])
        agree = np.sign(g32) == np.sign(g16)
        assert agree.mean() >= 0.99


class TestLstmQuantization:
    """The lstm rule alone decides how the cell's inputs and its
    gate-preactivation error gradients are quantized."""

    N, T, I, H = 3, 4, 2, 5

    def run(self, policy):
        net = build_network([Lstm(self.I, self.H), Dense(self.H, 2)],
                            policy, RngStream(29))
        rng = np.random.default_rng(30)
        x = Tensor(rng.standard_normal(
            (self.N, self.T, self.I)).astype(np.float32))
        dy = Tensor(rng.standard_normal((self.N, 2)).astype(np.float32))
        _, tape = net.forward(x, train=True)
        stats = QuantStats()
        net.zero_grads()
        net.backward(tape, dy, stats=stats)
        steps, _ = tape.caches[0]
        return steps, stats

    def test_error_grads_recorded_once_per_step(self):
        policy = QuantPolicy.fp16()
        _, on = self.run(policy)
        _, off = self.run(policy.with_rule("lstm",
                                           quantize_error_grads=False))
        n, t, h = self.N, self.T, self.H
        # dy entering the layer, then the (N, 4H) gate gradient per step,
        # less its forget-gate block at step 0: the cell starts from
        # c = 0, so that block is exactly zero and is not counted.
        assert on.nonzero - off.nonzero == n * h + t * n * 4 * h - n * h

    def test_cell_inputs_follow_activation_rule(self):
        policy = QuantPolicy.bf16()
        steps, _ = self.run(policy)
        assert len(steps) == self.T
        assert all(c["xq"].tag is Precision.BF16 for c in steps)
        assert all(c["hq"].tag is Precision.BF16 for c in steps)
        steps, _ = self.run(policy.with_rule("lstm",
                                             quantize_activations=False))
        assert all(c["xq"].tag is Precision.FP32 for c in steps)
        assert all(c["hq"].tag is Precision.FP32 for c in steps)


class TestQuantizationPlacement:
    def test_dense_output_quantized_after_fp32_bias(self):
        net = build_network([Dense(2, 2)], QuantPolicy.bf16(), RngStream(19))
        ps = net.layers[0].params[0]
        ps.bias.data[...] = np.float32(1e-5)
        net.refresh_shadows()
        x = Tensor(np.eye(2, dtype=np.float32))
        out, _ = net.forward(x, train=False)
        # Output equals Q(shadow.T row + bias): bias added in FP32 first,
        # then the sum is projected onto the bf16 grid.
        want = quantize_tensor(
            Tensor(x.data @ ps.shadow.data.T + np.float32(1e-5)),
            Precision.BF16)
        assert np.array_equal(out.data, want.data)

    def test_activations_quantized_between_layers(self):
        net = build_network(mlp_specs(), QuantPolicy.bf16(), RngStream(19))
        x = Tensor(np.random.default_rng(26).standard_normal(
            (4, 2)).astype(np.float32))
        _, tape = net.forward(x, train=False)
        dense_out = tape.outputs[0]
        requantized = quantize_tensor(dense_out, Precision.BF16)
        assert np.array_equal(dense_out.data, requantized.data)
