"""Span tracer that wraps bf16emu's entry points from outside the package.

Spans are opened and closed around calls into each module (`datasets`,
`numerics` via `tensor.quantize_tensor`, `kernels`, `netgraph`, `optim`,
`harness`).  A training step is a root span that opens when
`Network.zero_grads` is entered and closes when `Network.refresh_shadows`
returns.  Spans are aggregated in memory by (root, name, role):

* ``outer_s`` -- inclusive time of spans not nested in a span of the same
  name, so a name's total never counts an interval twice;
* ``self_s`` -- span time minus the time covered by child spans;
* ``units`` / ``extra`` -- work counts taken at the boundary (elements,
  FLOPs, elements a quantization left unchanged).

Counting runs after a span's end time is taken and is booked as tracer
overhead, so for every root: duration = sum of self times + overhead.

With ``detail=False`` only the step roots and the evaluation passes are
timed; that is the untraced mode the end-to-end metrics come from.
"""

from __future__ import annotations

import time

import numpy as np

_now = time.perf_counter

STEP = "harness.step"
EVAL = "harness.eval"

_ROLES = {"netgraph.refresh_shadows": "weight", "netgraph.forward": "act",
          "netgraph.backward": "err"}


class _Frame:
    __slots__ = ("name", "root", "t0", "child")

    def __init__(self, name, root):
        self.name = name
        self.root = root
        self.child = 0.0
        self.t0 = _now()


class _JsonProxy:
    """Stands in for the `json` module inside harness to time its dumps."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, detail: bool):
        self.detail = detail
        self.stack: list[_Frame] = []
        self.depth: dict[str, int] = {}
        # (root, name, role) -> [calls, outer_s, self_s, units, extra]
        self.agg: dict[tuple, list] = {}
        self.overhead: dict[str, float] = {}
        self.step_s: list[float] = []
        self.eval_s: list[float] = []     # evaluation passes after set-up
        self.first_step: float | None = None
        self._step: _Frame | None = None
        self._undo: list = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> _Frame:
        root = self.stack[0].name if self.stack else name
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = _Frame(name, root)
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, post=None, args=(), result=None) -> float:
        t1 = _now()
        self.stack.pop()
        dur = t1 - frame.t0
        role, units, extra = "", 0, 0
        if post is not None and result is not None:
            role, units, extra = post(self, args, result)
        key = (frame.root, frame.name, role)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        depth = self.depth[frame.name]
        self.depth[frame.name] = depth - 1
        entry[0] += 1
        if depth == 1:
            entry[1] += dur
        entry[2] += dur - frame.child
        entry[3] += units
        entry[4] += extra
        if self.stack:
            t2 = _now()
            self.stack[-1].child += t2 - frame.t0
            self.overhead[frame.root] = (self.overhead.get(frame.root, 0.0)
                                         + t2 - t1)
        return dur

    def span(self, name: str, fn, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                raise
            tracer._close(frame, post, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def role(self) -> str:
        for frame in reversed(self.stack):
            role = _ROLES.get(frame.name)
            if role is not None:
                return role
        return ""

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, fn, wrapper):
        """Replace every module-level binding of ``fn`` by ``wrapper``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the entry points of the imported ``bf16emu`` package."""
        from bf16emu import datasets, harness, kernels, netgraph, optim, tensor
        modules = (datasets, tensor, kernels, netgraph, optim, harness)
        net_cls = netgraph.Network
        zero_grads = net_cls.zero_grads
        refresh = net_cls.refresh_shadows
        if self.detail:
            zero_grads = self.span("netgraph.zero_grads", zero_grads)
            refresh = self.span("netgraph.refresh_shadows", refresh)
        tracer = self

        def step_zero_grads(net):
            if not tracer.stack:
                tracer._step = tracer._open(STEP)
                if tracer.first_step is None:
                    tracer.first_step = tracer._step.t0
            return zero_grads(net)

        def step_refresh_shadows(net):
            out = refresh(net)
            step = tracer._step
            if step is not None and len(tracer.stack) == 1 \
                    and tracer.stack[0] is step:
                tracer.step_s.append(tracer._close(step))
                tracer._step = None
            return out

        self._set(net_cls, "zero_grads", step_zero_grads)
        self._set(net_cls, "refresh_shadows", step_refresh_shadows)

        eval_metric = harness._eval_metric

        def timed_eval(*args, **kwargs):
            frame = tracer._open(EVAL)
            try:
                return eval_metric(*args, **kwargs)
            finally:
                dur = tracer._close(frame)
                if tracer.first_step is not None and not tracer.stack:
                    tracer.eval_s.append(dur)

        self._set(harness, "_eval_metric", timed_eval)
        if not self.detail:
            return

        self._rebind(modules, datasets.gen_dataset,
                     self.span("datasets.gen", datasets.gen_dataset))
        self._rebind(modules, tensor.quantize_tensor,
                     self.span("numerics.quantize", tensor.quantize_tensor,
                               _post_quantize))
        self._rebind(modules, kernels._gemm,
                     self.span("kernels.gemm", kernels._gemm, _post_gemm))
        groups = {"kernels.im2col": ("_im2col", "_col2im"),
                  "kernels.pool": ("pool_forward", "pool_backward"),
                  "kernels.lstm_cell": ("lstm_cell_forward",
                                        "lstm_cell_backward")}
        named = {fn for fns in groups.values() for fn in fns}
        groups["kernels.other"] = tuple(
            attr for attr in kernels.__all__
            if attr not in named and callable(getattr(kernels, attr))
            and not isinstance(getattr(kernels, attr), type))
        for name, attrs in groups.items():
            for attr in attrs:
                fn = getattr(kernels, attr)
                self._rebind(modules, fn, self.span(name, fn))
        for method in ("forward", "backward"):
            self._set(net_cls, method,
                      self.span(f"netgraph.{method}", getattr(net_cls, method)))
        for cls, method in ((optim.Sgd, "step"), (optim.Adam, "step"),
                            (optim.LossScaler, "unscale_grads")):
            self._set(cls, method, self.span("optim.step",
                                             getattr(cls, method)))
        self._rebind(modules, harness._loss_and_grad,
                     self.span("harness.loss", harness._loss_and_grad))
        for attr in ("_write_rows", "_dump_model"):
            self._set(harness, attr,
                      self.span("harness.io", getattr(harness, attr)))
        self._set(harness, "json", _JsonProxy(
            harness.json, self.span("harness.io", harness.json.dump)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def total(self, name: str, field: int, root: str = STEP,
              role: str | None = None):
        return sum(v[field] for (r, n, ro), v in self.agg.items()
                   if r == root and n == name and (role is None or ro == role))

    def self_ms_per_step(self) -> dict[str, float]:
        """Self time of every span name inside steps, plus tracer overhead."""
        steps = max(len(self.step_s), 1)
        out: dict[str, float] = {}
        for (root, name, _), v in self.agg.items():
            if root == STEP:
                out[name] = out.get(name, 0.0) + v[2] * 1e3 / steps
        out["trace.overhead"] = self.overhead.get(STEP, 0.0) * 1e3 / steps
        return out

    def layer_metrics(self, epochs: int) -> dict[str, float]:
        steps = max(len(self.step_s), 1)
        calls, outer, self_s, units, extra = range(5)

        def per_step_ms(name, field=outer, role=None):
            return self.total(name, field, role=role) * 1e3 / steps

        gemm_s = self.total("kernels.gemm", outer)
        quant_s = self.total("numerics.quantize", outer)
        quant_elems = self.total("numerics.quantize", units)
        netgraph_self = sum(v[self_s] for (r, n, _), v in self.agg.items()
                            if r == STEP and n.startswith("netgraph."))
        return {
            "kernels.gemm.ms_per_step": per_step_ms("kernels.gemm"),
            "kernels.gemm.calls_per_step":
                self.total("kernels.gemm", calls) / steps,
            "kernels.gemm.gflops":
                self.total("kernels.gemm", units) / gemm_s / 1e9
                if gemm_s else 0.0,
            "kernels.gemm.longk_ms_per_step":
                per_step_ms("kernels.gemm", role="longk"),
            "kernels.im2col.ms_per_step": per_step_ms("kernels.im2col"),
            "kernels.pool.ms_per_step": per_step_ms("kernels.pool"),
            "kernels.lstm_cell.self_ms_per_step":
                per_step_ms("kernels.lstm_cell", self_s),
            "numerics.quantize.ms_per_step": per_step_ms("numerics.quantize"),
            "numerics.quantize.elems_per_step": quant_elems / steps,
            "numerics.quantize.melems_per_s":
                quant_elems / quant_s / 1e6 if quant_s else 0.0,
            "numerics.quantize.weight_ms_per_step":
                per_step_ms("numerics.quantize", role="weight"),
            "numerics.quantize.act_ms_per_step":
                per_step_ms("numerics.quantize", role="act"),
            "numerics.quantize.err_ms_per_step":
                per_step_ms("numerics.quantize", role="err"),
            "numerics.quantize.noop_frac":
                self.total("numerics.quantize", extra) / quant_elems
                if quant_elems else 0.0,
            "netgraph.forward.ms_per_step": per_step_ms("netgraph.forward"),
            "netgraph.backward.ms_per_step": per_step_ms("netgraph.backward"),
            "netgraph.refresh_shadows.ms_per_step":
                per_step_ms("netgraph.refresh_shadows"),
            "netgraph.self_ms_per_step": netgraph_self * 1e3 / steps,
            "optim.step.ms_per_step": per_step_ms("optim.step"),
            "harness.eval.ms_per_epoch": sum(self.eval_s) * 1e3 / max(epochs, 1),
            "harness.io.ms_per_run":
                self.total("harness.io", outer, root="harness.io") * 1e3,
            "datasets.gen_ms":
                self.total("datasets.gen", outer, root="datasets.gen") * 1e3,
        }


def _post_gemm(tracer, args, result):
    m, k = args[0].shape
    n = args[1].shape[1]
    return ("longk" if k > m * n else ""), 2 * m * n * k, 0


def _post_quantize(tracer, args, result):
    before = args[0].data
    same = np.count_nonzero(before.view(np.uint32)
                            == result.data.view(np.uint32))
    return tracer.role(), before.size, int(same)
