import dataclasses
import json

import numpy as np
import pytest

from bf16emu import cli
from bf16emu import datasets
from bf16emu.datasets import gen_dataset
from bf16emu.harness import (
    CSV_HEADER,
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    SchemaError,
    compare_runs,
    config_from_mapping,
    configs_differ_only_in,
    parse_config_file,
    run_experiment,
)
from bf16emu.numerics import Precision
from bf16emu.tensor import load_tensor


class TestConfigFile:
    def test_parse_key_value_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\n"
            "task = mlp-circles\n"
            "lr=0.05   # trailing comment\n"
            "\n"
            "epochs = 3\n")
        mapping = parse_config_file(path)
        assert mapping == {"task": "mlp-circles", "lr": "0.05",
                           "epochs": "3"}

    def test_parse_rejects_bare_words(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("this is not a config\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_typed_fields(self):
        cfg = config_from_mapping({
            "task": "logistic-ctr", "precision": "bf16", "epochs": "5",
            "lr": "0.3", "nesterov": "false", "seed": "9",
        })
        assert cfg.task == "logistic-ctr"
        assert cfg.precision == "bf16"
        assert cfg.epochs == 5
        assert cfg.lr == 0.3
        assert cfg.nesterov is False
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"learning_rate": "0.1"})

    def test_policy_override_keys(self):
        # Which tensors are quantized is fixed; the per-layer-class
        # policy.<class>.<flag> keys were removed and are unknown keys.
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping(
                {"precision": "bf16",
                 "policy.gemm.quantize_error_grads": "false"})
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"policy_overrides": "{}"})

    def test_policy_key_validation(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"policy.attention.quantize_weights": "true"})
        with pytest.raises(ConfigError):
            config_from_mapping({"policy.gemm.no_such_flag": "true"})
        with pytest.raises(ConfigError, match="policy_overrides"):
            ExperimentConfig(policy_overrides={
                "gemm": {"quantize_error_grads": False}}).validate()

    @pytest.mark.parametrize("key, raw", [
        ("epochs", "ten"), ("seed", "1.5"), ("lr", "fast"),
        ("nesterov", "maybe")])
    def test_unparsable_value_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: raw})

    def test_overrides_win_over_base(self):
        base = config_from_mapping({"precision": "bf16", "lr": "0.2"})
        cfg = config_from_mapping({"precision": "fp32"}, base=base)
        assert cfg.precision == "fp32"
        assert cfg.lr == 0.2


class TestValidation:
    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="imagenet").validate()

    def test_loss_scale_power_of_two(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(precision="fp16", loss_scale=3.0).validate()
        ExperimentConfig(precision="fp16", loss_scale=1024.0).validate()

    def test_only_fp16_may_scale(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(precision="bf16", loss_scale=2.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(precision="fp32", loss_scale=2.0).validate()
        ExperimentConfig(precision="fp16", loss_scale=2.0).validate()

    def test_paired_accum_order_rejected(self, tmp_path):
        # The paired order was removed; the GEMM adds in one order.
        path = tmp_path / "c.cfg"
        path.write_text("accum_order = paired\n")
        with pytest.raises(ConfigError, match="paired"):
            config_from_mapping(parse_config_file(path))
        with pytest.raises(ConfigError, match="paired"):
            config_from_mapping({"accum_order": "paired"})
        with pytest.raises(ConfigError, match="paired"):
            ExperimentConfig(accum_order="paired").validate()
        cfg = config_from_mapping({"accum_order": "sequential"})
        assert cfg.accum_order == "sequential"

    def test_accum_order_field_kept_for_golden_digests(self):
        # benchmarks/golden.json is keyed on dataclasses.asdict(cfg); a
        # missing field would move every workload to the cross-run gate.
        assert dataclasses.asdict(ExperimentConfig())["accum_order"] == \
            "sequential"

    def test_policy_overrides_field_kept_for_golden_digests(self):
        assert dataclasses.asdict(ExperimentConfig())["policy_overrides"] == {}

    @pytest.mark.parametrize("key", ["lr", "momentum", "weight_decay",
                                     "beta1", "beta2", "adam_eps",
                                     "loss_prescale", "loss_scale"])
    def test_non_finite_floats_rejected(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=key):
                config_from_mapping({"precision": "fp16", key: value})
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig(**{key: float(value)}).validate()

    def test_differ_only_in(self):
        a = ExperimentConfig(precision="fp32", out="runs/a")
        b = ExperimentConfig(precision="bf16", out="runs/b")
        c = ExperimentConfig(precision="bf16", lr=0.5, out="runs/c")
        assert configs_differ_only_in([a, b], {"precision"})
        assert not configs_differ_only_in([a, c], {"precision"})


class TestDatasets:
    @pytest.mark.parametrize("task", ["mlp-circles", "conv-digits",
                                      "lstm-sine", "logistic-ctr"])
    def test_deterministic(self, task):
        a = gen_dataset(task, 3)
        b = gen_dataset(task, 3)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.eval_y, b.eval_y)

    def test_circles_balanced(self):
        ds = gen_dataset("mlp-circles", 1)
        frac = float((ds.train_y == 1).mean())
        assert abs(frac - 0.5) <= 0.02
        assert ds.train_x.shape == (4096, 2)
        assert ds.eval_x.shape == (1024, 2)

    def test_digits_shapes(self):
        ds = gen_dataset("conv-digits", 1)
        assert ds.train_x.shape == (4096, 1, 8, 8)
        assert set(np.unique(ds.train_y)) <= {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_digits_match_per_image_roll(self, seed):
        # The reference: each template rolled with np.roll, one image at a
        # time, from the same draws in the same order.
        gen = np.random.default_rng(seed)
        y = gen.integers(0, 4, size=64)
        shifts = gen.integers(-1, 2, size=(64, 2))
        noise = gen.normal(0.0, 0.25, size=(64, 8, 8))
        templates = datasets._digit_templates()
        want = np.empty((64, 1, 8, 8), np.float32)
        for i in range(64):
            want[i, 0] = np.roll(templates[y[i]], tuple(shifts[i]),
                                 axis=(0, 1)) + noise[i]
        x, labels = datasets._digits_split(np.random.default_rng(seed), 64)
        assert x.dtype == np.float32 and labels.dtype == np.int64
        assert np.array_equal(x.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(labels, y)

    def test_sine_shapes(self):
        ds = gen_dataset("lstm-sine", 1)
        assert ds.train_x.shape == (2048, 32, 1)
        assert ds.train_y.shape == (2048, 1)
        assert np.all(np.abs(ds.train_x) <= 1.0)

    def test_ctr_bayes_logloss(self):
        ds = gen_dataset("logistic-ctr", 1)
        assert ds.metric == "logloss"
        assert 0.0 < ds.bayes_logloss < np.log(2.0)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            gen_dataset("mnist", 0)


def tiny_cfg(tmp_path, **kw):
    base = dict(task="logistic-ctr", epochs=2, batch_size=64, max_train=256,
                lr=0.5, out=str(tmp_path / "run"))
    base.update(kw)
    return ExperimentConfig(**base).validate()


def read_csv_lines(path):
    return path.read_text().splitlines()


def strip_wall_ms(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRunExperiment:
    def test_zero_epochs_writes_initial_row_only(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path, epochs=0))
        lines = read_csv_lines(result.csv_path)
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("0,0,")

    def test_one_row_per_epoch(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path, epochs=3))
        assert len(result.rows) == 4
        assert [r.epoch for r in result.rows] == [0, 1, 2, 3]
        assert result.rows[-1].iter == 3 * (256 // 64)

    def test_training_reduces_loss(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path, epochs=5, max_train=2048))
        assert result.rows[-1].loss < result.rows[0].loss

    def test_deterministic_metrics(self, tmp_path):
        r1 = run_experiment(tiny_cfg(tmp_path, out=str(tmp_path / "a")))
        r2 = run_experiment(tiny_cfg(tmp_path, out=str(tmp_path / "b")))
        a = strip_wall_ms(read_csv_lines(r1.csv_path))
        b = strip_wall_ms(read_csv_lines(r2.csv_path))
        assert a == b

    def test_model_dump_and_manifest(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path, epochs=1))
        model_dir = result.csv_path.parent / "model"
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["layers"]
        for entry in manifest["layers"]:
            t = load_tensor(model_dir / entry["file"])
            assert list(t.shape) == entry["shape"]
            assert t.tag is Precision.FP32

    def test_summary_contents(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path, epochs=1))
        summary = json.loads(result.summary_path.read_text())
        assert summary["task"] == "logistic-ctr"
        assert summary["diverged"] is False
        assert "bayes_logloss" in summary

    def test_divergence_halts_with_record(self, tmp_path):
        cfg = tiny_cfg(tmp_path, task="mlp-circles", lr=1e30, epochs=3,
                       max_train=128, batch_size=64)
        with pytest.raises(DivergenceError) as err:
            run_experiment(cfg)
        assert err.value.iteration >= 1
        lines = read_csv_lines(tmp_path / "run" / "metrics.csv")
        assert lines[0] == ",".join(CSV_HEADER)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["diverged"] is True

    def test_underflow_fraction_reported(self, tmp_path):
        cfg = tiny_cfg(tmp_path, precision="fp16", loss_prescale=1e-12,
                       epochs=1)
        result = run_experiment(cfg)
        assert result.rows[-1].grad_underflow_frac == 1.0


class TestCompare:
    def make_run(self, tmp_path, name, **kw):
        return run_experiment(tiny_cfg(tmp_path, out=str(tmp_path / name),
                                       **kw))

    def test_self_comparison_zero_gap(self, tmp_path):
        r = self.make_run(tmp_path, "base")
        summary = compare_runs([r.csv_path, r.csv_path])
        assert all(g == 0.0 for g in summary.max_metric_gap.values())
        assert all(g == 0.0 for g in summary.final_loss_rel_gap.values())

    def test_report_written_and_sorted(self, tmp_path):
        a = self.make_run(tmp_path, "fp32")
        b = self.make_run(tmp_path, "bf16", precision="bf16")
        out = tmp_path / "cmp"
        summary = compare_runs([a.csv_path, b.csv_path], out_dir=out,
                               reference=0.5)
        report = (out / "report.txt").read_text()
        assert "fp32" in report and "bf16" in report
        assert "reference value: 0.5" in report
        machine = json.loads((out / "summary.json").read_text())
        assert machine["baseline"] == "fp32"
        assert summary.reference == 0.5

    def test_schema_error_on_missing_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,iter,loss\n0,0,1.0\n")
        good = self.make_run(tmp_path, "ok")
        with pytest.raises(SchemaError):
            compare_runs([good.csv_path, bad])

    def test_needs_two_runs(self, tmp_path):
        r = self.make_run(tmp_path, "solo")
        with pytest.raises(SchemaError):
            compare_runs([r.csv_path])


class TestCli:
    def write_cfg(self, tmp_path, **kw):
        lines = {"task": "logistic-ctr", "epochs": "1", "batch_size": "64",
                 "max_train": "256", "lr": "0.5",
                 "out": str(tmp_path / "run")}
        lines.update({k: str(v) for k, v in kw.items()})
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        return path

    def test_limits_output(self, capsys):
        assert cli.main(["limits"]) == 0
        out = capsys.readouterr().out
        assert "bf16" in out and "fp16" in out
        assert "3.3895e+38" in out
        assert "1.1755e-38" in out
        assert "6.5504e+04" in out
        assert "6.1035e-05" in out
        assert "5.9605e-08" in out

    def test_train_success(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_train_override_flags(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "alt"
        code = cli.main(["train", "--config", str(cfg),
                         "--precision", "bf16", "--seed", "5",
                         "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["precision"] == "bf16"
        assert summary["seed"] == 5

    def test_usage_error_is_exit_1(self, capsys):
        assert cli.main(["train"]) == 1
        assert cli.main(["nonsense"]) == 1

    def test_config_error_is_exit_1(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, task="imagenet")
        assert cli.main(["train", "--config", str(cfg)]) == 1

    def test_unparsable_value_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, epochs="ten")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "epochs" in err

    def test_nan_lr_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, lr="nan")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        {"lr": "-0.1"},
        {"momentum": "1.5"},
        {"max_train": "-5"},
        {"max_train": "10", "batch_size": "128"},
    ], ids=["negative-lr", "momentum-above-1", "negative-max-train",
            "split-below-batch"])
    def test_unusable_values_are_config_errors(self, tmp_path, capsys,
                                               overrides):
        cfg = self.write_cfg(tmp_path, **overrides)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_is_exit_1(self, tmp_path, capsys):
        assert cli.main(["train", "--config",
                         str(tmp_path / "absent.cfg")]) == 1

    def test_divergence_is_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, task="mlp-circles", lr="1e30",
                             epochs="3", max_train="128")
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_compare_cli(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        csvp = str(tmp_path / "run" / "metrics.csv")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--out", str(out), csvp, csvp]) == 0
        assert (out / "report.txt").exists()

    def test_compare_bad_csv_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert cli.main(["compare", "--out", str(tmp_path / "c"),
                         str(bad), str(bad)]) == 1
