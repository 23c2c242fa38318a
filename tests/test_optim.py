import copy

import numpy as np
import pytest

from bf16emu.netgraph import ParamSet
from bf16emu.optim import Adam, AdamConfig, LossScaler, Sgd, SgdConfig
from bf16emu.numerics import Precision
from bf16emu.tensor import Tensor, quantize_tensor


def make_ps(w, bias=None):
    w = np.asarray(w, np.float32)
    ps = ParamSet("p", Tensor(w.copy()), Tensor(w.copy()),
                  np.zeros(w.shape, np.float32))
    if bias is not None:
        bias = np.asarray(bias, np.float32)
        ps.bias = Tensor(bias.copy())
        ps.bias_grad = np.zeros(bias.shape, np.float32)
    return ps


class TestConfigs:
    def test_sgd_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(lr=0.0)
        with pytest.raises(ValueError):
            SgdConfig(lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SgdConfig(lr=0.1, weight_decay=-1.0)

    def test_adam_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(lr=-0.1)
        with pytest.raises(ValueError):
            AdamConfig(lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(lr=0.1, eps=0.0)


class TestSgd:
    def test_plain_step(self):
        ps = make_ps([1.0])
        ps.grad[...] = 0.5
        Sgd(SgdConfig(lr=0.1)).step([ps])
        assert ps.master.data[0] == np.float32(0.95)

    def test_zero_grad_no_move(self):
        ps = make_ps([[1.0, 2.0]], bias=[3.0])
        Sgd(SgdConfig(lr=0.1, momentum=0.9)).step([ps])
        assert np.array_equal(ps.master.data, np.float32([[1.0, 2.0]]))
        assert ps.bias.data[0] == 3.0

    def test_momentum_matches_hand_unroll(self):
        lr, mu = np.float32(0.1), np.float32(0.9)
        ps = make_ps([1.0])
        opt = Sgd(SgdConfig(lr=0.1, momentum=0.9))
        w = np.float32(1.0)
        v = np.float32(0.0)
        for g in (0.5, -0.25, 0.125):
            ps.grad[...] = g
            opt.step([ps])
            g32 = np.float32(g)
            v = np.float32(mu * v - lr * g32)
            w = np.float32(w + v)
            assert ps.master.data[0] == w

    def test_nesterov_matches_hand_unroll(self):
        lr, mu = np.float32(0.1), np.float32(0.9)
        ps = make_ps([1.0])
        opt = Sgd(SgdConfig(lr=0.1, momentum=0.9, nesterov=True))
        w = np.float32(1.0)
        v = np.float32(0.0)
        for g in (0.5, -0.25, 0.125):
            ps.grad[...] = g
            opt.step([ps])
            g32 = np.float32(g)
            v = np.float32(mu * v - lr * g32)
            w = np.float32(w + np.float32(mu * v - lr * g32))
            assert ps.master.data[0] == w

    def test_weight_decay_folded_into_grad(self):
        ps = make_ps([2.0])
        ps.grad[...] = 0.0
        Sgd(SgdConfig(lr=0.1, weight_decay=0.5)).step([ps])
        # g_eff = 0 + 0.5*2 = 1; w = 2 - 0.1*1
        assert ps.master.data[0] == np.float32(2.0) - np.float32(0.1)

    def test_bias_updated_too(self):
        ps = make_ps([1.0], bias=[1.0])
        ps.grad[...] = 1.0
        ps.bias_grad[...] = 2.0
        Sgd(SgdConfig(lr=0.1)).step([ps])
        assert ps.master.data[0] == np.float32(0.9)
        assert ps.bias.data[0] == np.float32(0.8)

    def test_master_stays_fp32_tagged(self):
        ps = make_ps([1.0])
        ps.grad[...] = 0.1
        Sgd(SgdConfig(lr=0.1)).step([ps])
        assert ps.master.tag is Precision.FP32


class TestAdam:
    def test_first_step_is_signed_lr(self):
        ps = make_ps([1.0, -1.0, 0.5])
        ps.grad[...] = np.float32([0.3, -7.0, 1e-4])
        Adam(AdamConfig(lr=0.01)).step([ps])
        delta = ps.master.data - np.float32([1.0, -1.0, 0.5])
        want = -0.01 * np.sign([0.3, -7.0, 1e-4])
        assert np.max(np.abs(delta - want) / np.abs(want)) <= 1e-3

    def test_zero_grad_no_update(self):
        ps = make_ps([1.0])
        Adam(AdamConfig(lr=0.01)).step([ps])
        assert ps.master.data[0] == 1.0

    def test_three_step_trace_matches_reference(self):
        cfg = AdamConfig(lr=0.01)
        ps = make_ps([2.0])
        opt = Adam(cfg)
        lr = np.float32(cfg.lr)
        b1 = np.float32(cfg.beta1)
        b2 = np.float32(cfg.beta2)
        eps = np.float32(cfg.eps)
        one = np.float32(1)
        w = np.float32(2.0)
        m = np.float32(0.0)
        v = np.float32(0.0)
        for t, g in enumerate((0.5, -0.3, 0.9), start=1):
            ps.grad[...] = g
            opt.step([ps])
            g32 = np.float32(g)
            m = np.float32(m * b1 + (one - b1) * g32)
            v = np.float32(v * b2 + (one - b2) * (g32 * g32))
            c1 = np.float32(1.0 - cfg.beta1 ** t)
            c2 = np.float32(1.0 - cfg.beta2 ** t)
            mhat = np.float32(m / c1)
            vhat = np.float32(v / c2)
            w = np.float32(w - lr * mhat / (np.float32(np.sqrt(vhat)) + eps))
            assert ps.master.data[0] == w

    def test_bias_gets_its_own_moments(self):
        ps = make_ps([1.0], bias=[1.0])
        opt = Adam(AdamConfig(lr=0.01))
        ps.grad[...] = 1.0
        ps.bias_grad[...] = -1.0
        opt.step([ps])
        assert ps.master.data[0] < 1.0
        assert ps.bias.data[0] > 1.0


class TestStateKey:
    @pytest.mark.parametrize("make_opt", [
        lambda: Sgd(SgdConfig(lr=0.1, momentum=0.9, nesterov=True)),
        lambda: Adam(AdamConfig(lr=0.01)),
    ], ids=["sgd", "adam"])
    def test_copy_with_same_name_continues_state(self, make_opt):
        # State follows ParamSet.name: a fresh copy of a parameter set
        # picks up its velocity or moments, bit for bit.  Every copy stays
        # alive, so no id() value is reused along the way.
        grads = [(0.5, -0.25), (-0.125, 0.75), (0.375, 0.5)]

        def run(fresh_copy_each_step):
            ps = make_ps([1.0, -2.0], bias=[3.0])
            opt = make_opt()
            kept = []
            for g, gb in grads:
                if fresh_copy_each_step:
                    ps = copy.deepcopy(ps)
                    kept.append(ps)
                ps.grad[...] = g
                ps.bias_grad[...] = gb
                opt.step([ps])
            return ps

        want, got = run(False), run(True)
        assert np.array_equal(got.master.data.view(np.uint32),
                              want.master.data.view(np.uint32))
        assert np.array_equal(got.bias.data.view(np.uint32),
                              want.bias.data.view(np.uint32))


class TestLossScaler:
    def test_power_of_two_enforced(self):
        LossScaler(1.0)
        LossScaler(1024.0)
        LossScaler(2.0 ** 20)
        with pytest.raises(ValueError):
            LossScaler(3.0)
        with pytest.raises(ValueError):
            LossScaler(0.0)
        with pytest.raises(ValueError):
            LossScaler(-2.0)

    def test_identity_at_one(self):
        t = Tensor(np.float32([1.0, 2.0]))
        out = LossScaler(1.0).scale_loss_grad(t)
        assert np.array_equal(out.data, t.data)

    def test_scale_then_unscale_is_bit_exact(self):
        rng = np.random.default_rng(27)
        g = rng.standard_normal((16, 16)).astype(np.float32)
        ps = make_ps(np.zeros((16, 16)), bias=np.zeros(16))
        scaler = LossScaler(1024.0)
        ps.grad[...] = g * np.float32(1024.0)
        ps.bias_grad[...] = g[0] * np.float32(1024.0)
        scaler.unscale_grads([ps])
        assert np.array_equal(ps.grad.view(np.uint32), g.view(np.uint32))
        assert np.array_equal(ps.bias_grad.view(np.uint32),
                              g[0].view(np.uint32))

    def test_fp16_rescue_of_tiny_gradient(self):
        # 1e-8 sits below half the fp16 min subnormal (5.96e-8), so the
        # unscaled pipeline loses it entirely.
        tiny = Tensor(np.float32([1e-8]))
        flushed = quantize_tensor(tiny, Precision.FP16)
        assert flushed.data[0] == 0.0
        # Scaled by 2^20 it survives, and unscaling recovers ~1e-8.
        scaler = LossScaler(2.0 ** 20)
        scaled = scaler.scale_loss_grad(tiny)
        q = quantize_tensor(scaled, Precision.FP16)
        assert q.data[0] != 0.0
        ps = make_ps([0.0])
        ps.grad[...] = q.data
        scaler.unscale_grads([ps])
        assert ps.grad[0] == pytest.approx(1e-8, rel=1e-2)
