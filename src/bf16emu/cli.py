"""Command line front end: train, compare and limits subcommands.

Exit status: 0 success, 2 training divergence (NaN loss), 1 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    PRECISIONS,
    ROUNDINGS,
    ConfigError,
    DivergenceError,
    SchemaError,
    compare_runs,
    config_from_mapping,
    parse_config_file,
)
from .numerics import Precision, format_limits


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # divergence here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bf16emu",
                     description="Mixed-precision training emulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one training experiment",
                           parents=[], add_help=True)
    train.add_argument("--config", required=True,
                       help="flat key=value config file")
    train.add_argument("--precision", choices=PRECISIONS)
    train.add_argument("--rounding", choices=ROUNDINGS)
    train.add_argument("--loss-scale", type=float, dest="loss_scale")
    train.add_argument("--seed", type=int)
    train.add_argument("--out")

    comp = sub.add_parser("compare", help="compare metrics CSVs of >=2 runs")
    comp.add_argument("--out", required=True, help="report output directory")
    comp.add_argument("--reference", type=float, default=None,
                      help="external reference value echoed in the report")
    comp.add_argument("csvs", nargs="+", help="metrics.csv paths")

    sub.add_parser("limits", help="print computed format range limits")
    return parser


def _cmd_train(args) -> int:
    try:
        mapping = parse_config_file(args.config)
    except OSError as exc:
        print(f"bf16emu: cannot read config: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    for key in ("precision", "rounding", "loss_scale", "seed", "out"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    try:
        cfg = config_from_mapping(mapping)
        cfg = config_from_mapping(overrides, base=cfg)
        from .harness import run_experiment
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"bf16emu: config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"bf16emu: {exc}", file=sys.stderr)
        return 2
    final = result.final
    print(f"run complete: {result.csv_path}")
    print(f"final loss {final.loss:.6g}, eval metric {final.eval_metric:.6g}")
    return 0


def _cmd_compare(args) -> int:
    try:
        summary = compare_runs(args.csvs, out_dir=args.out,
                               reference=args.reference)
    except (SchemaError, OSError) as exc:
        print(f"bf16emu: {exc}", file=sys.stderr)
        return 1
    print(args.out + "/report.txt")
    for arm in summary.arms:
        print(f"{arm.name}: final loss {arm.final_loss:.6g}, "
              f"eval metric {arm.final_metric:.6g}")
    return 0


def _cmd_limits() -> int:
    print(f"{'format':<15}{'max_normal':<15}{'min_normal':<15}"
          f"{'min_subnormal':<15}{'epsilon':<12}")
    for precision in (Precision.FP32, Precision.FP16, Precision.BF16):
        lim = format_limits(precision)
        sub = "N/A" if lim.min_subnormal is None else f"{lim.min_subnormal:.4e}"
        print(f"{precision.value:<15}{lim.max_normal:<15.4e}"
              f"{lim.min_normal:<15.4e}{sub:<15}{lim.epsilon:<12.4e}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if argv is None:
            raise
        return int(exc.code or 0)
    if args.command == "train":
        code = _cmd_train(args)
    elif args.command == "compare":
        code = _cmd_compare(args)
    else:
        code = _cmd_limits()
    if argv is None:
        raise SystemExit(code)
    return code


if __name__ == "__main__":
    main()
