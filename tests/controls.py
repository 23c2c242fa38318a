"""Negative-control arms: training runs built to break one half of the
recipe, so that a parity gate can be shown to reject them.

`Bf16Masters` wraps an optimizer so that after each step every master
weight and bias is rounded to bf16 (round to nearest even), as if the
masters were kept in bf16: the arm with no FP32 master (Micikevicius et
al., *Mixed Precision Training*, arXiv 1710.03740, section 3.1).  Tests
install it by wrapping `ExperimentConfig.make_optimizer`; the library has
no option for it.

`configs_differ_only_in` checks that the configs of a parity comparison
differ in the precision alone.
"""

from __future__ import annotations

from dataclasses import fields

from bf16emu.harness import ExperimentConfig
from bf16emu.numerics import Precision, RoundingMode, quantize_array


class Bf16Masters:
    """An optimizer whose masters are rounded to bf16 after every step."""

    def __init__(self, optimizer):
        self.optimizer = optimizer

    def step(self, param_sets):
        param_sets = list(param_sets)
        self.optimizer.step(param_sets)
        for ps in param_sets:
            for _, w, _ in ps.arrays():
                w[...] = quantize_array(w, Precision.BF16,
                                        RoundingMode.NEAREST_EVEN)


def configs_differ_only_in(configs, allowed: set[str]) -> bool:
    """True when all configs agree on every field outside ``allowed``.

    ``out`` is always allowed to differ (arms write to disjoint folders)."""
    allowed = set(allowed) | {"out"}
    ref = configs[0]
    for cfg in configs[1:]:
        for f in fields(ExperimentConfig):
            if f.name in allowed:
                continue
            if getattr(cfg, f.name) != getattr(ref, f.name):
                return False
    return True
