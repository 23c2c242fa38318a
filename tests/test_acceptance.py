"""Acceptance gate: one test per criterion, one printed verdict line each.

The parity criteria train real (desk-scale) runs from the default
configs, so this module takes a few minutes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from bf16emu import cli
from bf16emu.harness import (
    ExperimentConfig,
    compare_runs,
    config_from_mapping,
    parse_config_file,
    run_experiment,
    _network_specs,
)
from bf16emu.kernels import (
    PoolKind,
    batchnorm_backward,
    batchnorm_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)
from bf16emu.netgraph import BatchNorm, Dense, Lstm, build_network
from bf16emu.numerics import (
    Precision,
    RoundingMode,
    bf16_to_f32_array,
    f32_to_bf16_array,
    f32_to_fp16_array,
    fp16_to_f32_array,
)
from bf16emu.tensor import QuantPolicy, RngStream, load_tensor

from controls import Bf16Masters, configs_differ_only_in

from oracles import BF16_FTZ, FP16, round_exact, round_vectorized
from test_kernels import (assert_grads_close, conv_bwd, conv_fwd, fd_grad,
                          pool_bwd, pool_fwd)
from test_netgraph import TestFp32Identity

RNE = RoundingMode.NEAREST_EVEN
TRUNC = RoundingMode.TRUNCATE

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def load_cfg(name: str, tmp_path, arm: str, **overrides):
    mapping = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    cfg = config_from_mapping(mapping)
    overrides["out"] = str(tmp_path / arm)
    return config_from_mapping(
        {k: str(v) for k, v in overrides.items()}, base=cfg)


def test_criterion_01_conversion_bit_exactness():
    t0 = time.time()

    # Structured sweep: every exponent x selected low-16 patterns x signs.
    exps = np.arange(256, dtype=np.uint32) << 23
    lows = np.array([0x0000, 0x7FFF, 0x8000, 0x8001, 0xFFFF], np.uint32)
    grid = (exps[:, None] | lows[None, :]).reshape(-1)
    grid = np.concatenate([grid, grid | np.uint32(0x80000000)])
    x = grid.view(np.float32)
    cases = [
        ("bf16/rne", lambda v: bf16_to_f32_array(f32_to_bf16_array(v, RNE)),
         BF16_FTZ, "rne"),
        ("bf16/trunc", lambda v: bf16_to_f32_array(
            f32_to_bf16_array(v, TRUNC)), BF16_FTZ, "trunc"),
        ("fp16/rne", lambda v: fp16_to_f32_array(f32_to_fp16_array(v, RNE)),
         FP16, "rne"),
        ("fp16/trunc", lambda v: fp16_to_f32_array(
            f32_to_fp16_array(v, TRUNC)), FP16, "trunc"),
    ]
    for name, convert, fmt, mode in cases:
        got = convert(x)
        for xi, gi in zip(x, got):
            if np.isnan(xi):
                assert np.isnan(gi), name
                continue
            want = round_exact(float(xi), fmt, mode)
            assert np.float32(want).view(np.uint32) == \
                np.float32(gi).view(np.uint32), \
                f"{name} at {hex(int(np.float32(xi).view(np.uint32)))}"

    # 1e7 uniform-random FP32 bit patterns against the vectorized oracle.
    rng = np.random.default_rng(12345)
    bits = rng.integers(0, 1 << 32, size=10_000_000,
                        dtype=np.uint64).astype(np.uint32)
    xr = bits.view(np.float32)
    nan = np.isnan(xr)
    with np.errstate(invalid="ignore"):
        xr64 = xr.astype(np.float64)
    for name, convert, fmt, mode in cases:
        got = convert(xr)
        assert np.all(np.isnan(got[nan])), name
        want = round_vectorized(xr64[~nan], fmt, mode).astype(np.float32)
        assert np.array_equal(want.view(np.uint32),
                              got[~nan].view(np.uint32)), name

    elapsed = time.time() - t0
    report(1, "conversion vs independent rounding oracles", elapsed < 60,
           f"2560-point structured sweep + 1e7 random patterns, "
           f"{elapsed:.1f}s")


def test_criterion_02_bf16_round_trip():
    t0 = time.time()
    bits = np.arange(1 << 16, dtype=np.uint16)
    widened = bf16_to_f32_array(bits)
    ok = True
    for mode in (RNE, TRUNC):
        # bf16 flushes subnormals, so everything except the 252 subnormal
        # patterns round-trips exactly; those become zero of their sign.
        ftz = f32_to_bf16_array(widened, mode)
        sub = ((bits & 0x7F80) == 0) & ((bits & 0x007F) != 0)
        ok &= np.array_equal(ftz[~sub], bits[~sub])
        ok &= np.all(ftz[sub] == (bits[sub] & 0x8000))
    elapsed = time.time() - t0
    report(2, "all 2^16 bf16 patterns round-trip", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_criterion_03_limits_table(capsys):
    assert cli.main(["limits"]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        rows[parts[0]] = parts[1:]
    expected = {
        ("bf16", 0): 3.38e38, ("bf16", 1): 1.17e-38,
        ("fp16", 0): 6.55e4, ("fp16", 1): 6.10e-5, ("fp16", 2): 5.96e-8,
    }
    ok = True
    for (fmt, col), want in expected.items():
        got = float(rows[fmt][col])
        ok &= abs(got - want) / want < 5e-3  # 3 significant digits
    report(3, "limits command reproduces the published range table", ok)


def test_criterion_04_exact_product_property():
    rng = np.random.default_rng(777)
    n = 10_000_000
    bits = rng.integers(0, 1 << 16, size=(2, n),
                        dtype=np.uint32).astype(np.uint32)
    vals = (bits << 16).view(np.float32)
    finite = np.all((bits & 0x7F80) != 0x7F80, axis=0)
    a, b = vals[0, finite], vals[1, finite]
    with np.errstate(over="ignore", under="ignore"):
        p32 = a * b
        p64 = a.astype(np.float64) * b.astype(np.float64)
    # FP32 product is always the correctly rounded double product, and
    # bit-exact wherever the double product is itself in FP32 range.
    with np.errstate(over="ignore"):
        correctly_rounded = np.array_equal(
            p32.view(np.uint32),
            p64.astype(np.float32).view(np.uint32))
    in_range = np.isfinite(p32) & ((p64 == 0) | (np.abs(p64) >= 2.0 ** -126))
    exact = np.array_equal(p32[in_range].astype(np.float64), p64[in_range])
    overflow = ~np.isfinite(p32)
    overflow_ok = np.all(np.abs(p64[overflow]) > 3.4e38)
    ok = correctly_rounded and exact and bool(overflow_ok)
    report(4, "bf16 pair products exact in fp32", ok,
           f"{n} random pairs, {int(in_range.sum())} in range")


def test_criterion_05_gradient_checks():
    t0 = time.time()
    instances = 0
    pol = QuantPolicy(Precision.FP32)

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)

        # conv
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = (rng.standard_normal((2, 2, 3, 3)) * 0.5).astype(np.float32)
        dy = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        dx, dw = conv_bwd(x, w, dy, pad=1)
        assert_grads_close(dx, fd_grad(
            lambda v: float((conv_fwd(v, w, pad=1)
                             .astype(np.float64) * dy).sum()), x.copy()))
        assert_grads_close(dw, fd_grad(
            lambda v: float((conv_fwd(x, v, pad=1)
                             .astype(np.float64) * dy).sum()), w.copy()))

        # batchnorm
        xb = rng.standard_normal((4, 3)).astype(np.float32)
        dyb = rng.standard_normal((4, 3)).astype(np.float32)
        gamma = np.ones(3, np.float32)
        beta = np.zeros(3, np.float32)
        _, cache = batchnorm_forward(xb, gamma, beta, 1e-5)
        dxb, _, _ = batchnorm_backward(dyb, gamma, cache)

        def bn_loss(v):
            y, _ = batchnorm_forward(v, gamma, beta, 1e-5)
            return float((y.astype(np.float64) * dyb).sum())
        assert_grads_close(dxb, fd_grad(bn_loss, xb.copy()))

        # relu
        xa = rng.standard_normal(16).astype(np.float32)
        # keep inputs away from the kink at zero, where central
        # differences straddle the non-smooth point
        xa = np.where(np.abs(xa) < 0.05, np.float32(0.3), xa)
        dya = rng.standard_normal(16).astype(np.float32)
        dxa = relu_backward(xa, dya)
        assert_grads_close(dxa, fd_grad(
            lambda v: float((relu_forward(v).astype(np.float64)
                             * dya).sum()),
            xa.copy()))

        # pooling (distinct values keep the max winner stable)
        kind = PoolKind.MAX if seed % 2 else PoolKind.AVG
        xp = (rng.permutation(16).astype(np.float32) * 0.25).reshape(
            1, 1, 4, 4)
        dyp = rng.standard_normal((1, 1, 2, 2)).astype(np.float32)
        _, cache = pool_fwd(kind, xp, 2)
        dxp = pool_bwd(dyp, cache)

        def pool_loss(v, kind=kind):
            y, _ = pool_fwd(kind, v, 2)
            return float((y.astype(np.float64) * dyp).sum())
        # pooling is piecewise linear and window entries differ by
        # >= 0.25, so a large step is exact and drowns fp32 noise
        assert_grads_close(dxp, fd_grad(pool_loss, xp.copy(), h_rel=1e-2))

        # softmax cross entropy
        z = rng.standard_normal((4, 3)).astype(np.float32)
        labels = rng.integers(0, 3, 4)
        _, d = softmax_cross_entropy(z, labels)
        assert_grads_close(d, fd_grad(
            lambda v: softmax_cross_entropy(v, labels)[0], z.copy()))

        # lstm layer over three steps (gate arithmetic and its GEMMs)
        lstm = build_network([Lstm(2, 2), Dense(2, 1)], pol,
                             RngStream(seed))
        xl = rng.standard_normal((2, 3, 2)).astype(np.float32)
        dyl = rng.standard_normal((2, 1)).astype(np.float32)
        _, tape = lstm.forward(xl, train=False)
        lstm.zero_grads()
        dxl = lstm.backward(tape, dyl)

        def lstm_loss(v):
            out, _ = lstm.forward(v, train=False)
            return float((out.astype(np.float64) * dyl).sum())
        assert_grads_close(dxl, fd_grad(lstm_loss, xl.copy()))

        # full network (dense + batchnorm + dense)
        net = build_network([Dense(3, 4), BatchNorm(4), Dense(4, 2)], pol,
                            RngStream(seed))
        xn = rng.standard_normal((3, 3)).astype(np.float32)
        dyn = rng.standard_normal((3, 2)).astype(np.float32)
        _, tape = net.forward(xn, train=False)
        net.zero_grads()
        dxn = net.backward(tape, dyn)

        def net_loss(v):
            out, _ = net.forward(v, train=False)
            return float((out.astype(np.float64) * dyn).sum())
        assert_grads_close(dxn, fd_grad(net_loss, xn.copy()))

        instances += 7

    elapsed = time.time() - t0
    report(5, "backward kernels match finite differences", elapsed < 60,
           f"{instances} instances across 7 op families, {elapsed:.1f}s")


def test_criterion_06_fp32_identity():
    TestFp32Identity().test_hundred_steps_bit_exact()
    report(6, "fp32 policy bit-identical to plain fp32 over 100 steps",
           True)


def run_arm(cfg):
    return run_experiment(cfg)


def parity_gaps(name, tmp_path):
    fp32 = load_cfg(name, tmp_path, "fp32")
    bf16 = load_cfg(name, tmp_path, "bf16", precision="bf16")
    assert configs_differ_only_in([fp32, bf16], {"precision"})
    r32 = run_arm(fp32)
    r16 = run_arm(bf16)
    f32, f16 = r32.final, r16.final
    metric_gap = abs(f32.eval_metric - f16.eval_metric)
    loss_rel = abs(f32.loss - f16.loss) / abs(f32.loss)
    return metric_gap, loss_rel, f32, f16


def test_criterion_07_bf16_parity_classification(tmp_path):
    acc_gap_mlp, loss_rel_mlp, _, _ = parity_gaps("mlp-circles", tmp_path)
    acc_gap_cnn, loss_rel_cnn, _, _ = parity_gaps("conv-digits", tmp_path)
    ok = (acc_gap_mlp <= 0.01 and loss_rel_mlp <= 0.02
          and acc_gap_cnn <= 0.01 and loss_rel_cnn <= 0.02)
    report(7, "bf16-rne parity on mlp-circles and conv-digits", ok,
           f"acc gaps {acc_gap_mlp:.4f}/{acc_gap_cnn:.4f}, "
           f"loss rel {loss_rel_mlp:.4f}/{loss_rel_cnn:.4f}")


def test_criterion_07_loss_bound_rejects_bf16_masters(tmp_path,
                                                      monkeypatch):
    # Negative control: the mlp-circles bf16 arm with every master rounded
    # to bf16 after each step, i.e. with no FP32 master, must fail
    # criterion 7's 2% train-loss bound.
    f32 = run_arm(load_cfg("mlp-circles", tmp_path, "fp32")).final
    make_optimizer = ExperimentConfig.make_optimizer
    monkeypatch.setattr(ExperimentConfig, "make_optimizer",
                        lambda cfg: Bf16Masters(make_optimizer(cfg)))
    ctl = run_arm(load_cfg("mlp-circles", tmp_path, "bf16-masters",
                           precision="bf16")).final
    loss_rel = abs(f32.loss - ctl.loss) / abs(f32.loss)
    report(7, "2% loss bound rejects mlp-circles with bf16 masters",
           loss_rel > 0.02, f"loss {f32.loss:.5f} vs {ctl.loss:.5f}, "
           f"rel {loss_rel:.4f}")


def test_criterion_08_lstm_parity(tmp_path):
    fp32 = load_cfg("lstm-sine", tmp_path, "fp32")
    bf16 = load_cfg("lstm-sine", tmp_path, "bf16", precision="bf16")
    r32 = run_arm(fp32)
    r16 = run_arm(bf16)
    rel = abs(r32.final.eval_metric - r16.final.eval_metric) \
        / r32.final.eval_metric
    report(8, "bf16-rne lstm-sine MSE within 5% of fp32", rel <= 0.05,
           f"mse {r32.final.eval_metric:.6f} vs {r16.final.eval_metric:.6f},"
           f" rel {rel:.4f}")


def test_criterion_09_rne_vs_truncation(tmp_path):
    fp32 = run_arm(load_cfg("logistic-ctr", tmp_path, "fp32"))
    rne = run_arm(load_cfg("logistic-ctr", tmp_path, "bf16-rne",
                           precision="bf16"))
    trunc = run_arm(load_cfg("logistic-ctr", tmp_path, "bf16-trunc",
                             precision="bf16", rounding="trunc"))
    bayes = json.loads(fp32.summary_path.read_text())["bayes_logloss"]
    summary = compare_runs(
        [fp32.csv_path, rne.csv_path, trunc.csv_path],
        out_dir=tmp_path / "cmp", reference=bayes)
    report_txt = (tmp_path / "cmp" / "report.txt").read_text()
    assert "reference value" in report_txt
    base = fp32.final.eval_metric
    rel_rne = abs(rne.final.eval_metric - base) / base
    rel_trunc = abs(trunc.final.eval_metric - base) / base
    ordering = ("trunc >= rne" if trunc.final.eval_metric
                >= rne.final.eval_metric else "trunc < rne")
    ok = rel_rne <= 0.02 and rel_trunc <= 0.02
    report(9, "bf16 rne and trunc log loss within 2% of fp32", ok,
           f"fp32 {base:.5f}, rne {rne.final.eval_metric:.5f}, trunc "
           f"{trunc.final.eval_metric:.5f}, bayes {bayes:.5f}; observed "
           f"{ordering} (reported, not asserted)")


def test_criterion_10_fp16_underflow_demo(tmp_path):
    t0 = time.time()
    fp32 = run_arm(load_cfg("fp16-stress", tmp_path, "fp32"))
    bf16 = run_arm(load_cfg("fp16-stress", tmp_path, "bf16",
                            precision="bf16"))
    fp16_s1 = run_arm(load_cfg("fp16-stress", tmp_path, "fp16-s1",
                               precision="fp16"))
    fp16_ls = run_arm(load_cfg("fp16-stress", tmp_path, "fp16-ls",
                               precision="fp16", loss_scale=2.0 ** 20))

    # The unscaled fp16 arm must lose every nonzero error gradient and
    # therefore never move a parameter.
    all_underflow = all(r.grad_underflow_frac == 1.0
                        for r in fp16_s1.rows[1:])
    # epoch losses over frozen weights differ only by the shuffle's
    # summation order; parameter freezing itself is checked bit-exactly
    losses = [r.loss for r in fp16_s1.rows[1:]]
    flat = (max(losses) - min(losses)) / abs(losses[0]) < 1e-6
    cfg = fp16_s1.config
    fresh = build_network(_network_specs(cfg.task), cfg.policy(),
                          RngStream(cfg.seed, 1).child(0))
    frozen = True
    model_dir = Path(cfg.out) / "model"
    for ps in fresh.param_sets():
        for key, array, _ in ps.arrays():
            dumped = load_tensor(model_dir / f"{key}.tensor")
            frozen &= bool(np.array_equal(dumped.data.view(np.uint32),
                                          array.view(np.uint32)))

    base = fp32.final.loss
    rel_bf16 = abs(bf16.final.loss - base) / base
    rel_rescue = abs(fp16_ls.final.loss - base) / base
    elapsed = time.time() - t0
    ok = (all_underflow and flat and frozen and rel_bf16 <= 0.05
          and rel_rescue <= 0.05 and elapsed < 60)
    report(10, "fp16 underflow demo with loss-scaling rescue", ok,
           f"fp16/S=1 underflow 100% and frozen; bf16 rel {rel_bf16:.4f}, "
           f"fp16/S=2^20 rel {rel_rescue:.4f}, {elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    a = run_arm(load_cfg("logistic-ctr", tmp_path, "a", epochs=2))
    b = run_arm(load_cfg("logistic-ctr", tmp_path, "b", epochs=2))
    la = a.csv_path.read_text().splitlines()
    lb = b.csv_path.read_text().splitlines()
    # wall_ms is wall-clock time and inherently non-reproducible; all
    # computed columns must match byte for byte.
    stripped_a = [",".join(l.split(",")[:-1]) for l in la]
    stripped_b = [",".join(l.split(",")[:-1]) for l in lb]
    ok = stripped_a == stripped_b and len(la) == len(lb)
    report(11, "re-run with identical config reproduces the metrics CSV",
           ok, "byte-identical up to the wall_ms column")
