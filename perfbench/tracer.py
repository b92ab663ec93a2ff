"""Layer tracing by wrapping rollsim's module attributes from outside.

Nothing in the package is edited. `Tracer.install` replaces each call site
listed in LAYERS with a timing wrapper and `uninstall` restores the
originals. Python resolves a module global at call time, so a wrapper on
`rollsim._core.deriv` sees every call `run_loop` makes with the pure-Python
kernels. Compiled numba kernels bind their callees when they compile, so the
inner kernels are left alone under numba and reported as hidden.

Coarse layers ("span") keep one record per call: name, start, end and the
enclosing span. Hot inner layers ("agg") keep only a call count with total
and self time. A site that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    label: str
    module: str                        # where the program looks the callee up
    attr: str
    mode: str                          # "span" or "agg"
    inner: bool = False                # called from inside the compiled loop
    result: Optional[Callable] = None  # return value -> count summed per call


def _steps(out):
    return out[2]  # run_loop returns (ys, us, n_done)


LAYERS = (
    Layer("cli.main", "rollsim.cli", "main", "span"),
    Layer("config.load_scenario", "rollsim.cli", "load_scenario", "span"),
    Layer("simulate.run", "rollsim.cli", "run", "span"),
    Layer("core.run_loop", "rollsim._core", "run_loop", "span",
          result=_steps),
    Layer("core.deriv", "rollsim._core", "deriv", "agg", inner=True),
    Layer("core.bias", "rollsim._core", "bias", "agg", inner=True),
    Layer("core.mass_matrix", "rollsim._core", "mass_matrix", "agg",
          inner=True),
    Layer("core.gravity", "rollsim._core", "gravity", "agg", inner=True),
    Layer("core.chol_solve4", "rollsim._core", "chol_solve4", "agg",
          inner=True),
    Layer("core.pd_input", "rollsim._core", "pd_input", "agg", inner=True),
    Layer("core.mag_torque", "rollsim._core", "mag_torque", "agg",
          inner=True),
    Layer("core.energies_batch", "rollsim._core", "energies_batch", "span"),
    Layer("core.pm_batch", "rollsim._core", "pm_batch", "span"),
    Layer("simulate._detect_all", "rollsim.simulate", "_detect_all", "span"),
    Layer("output.write_outputs", "rollsim.cli", "write_outputs", "span"),
    Layer("output.format_csv", "rollsim.output", "format_csv", "span"),
    Layer("cli.summarize", "rollsim.cli", "summarize", "span"),
    Layer("dynamics.errata_compare", "rollsim.cli", "errata_compare", "span"),
    Layer("dynamics.printed_terms", "rollsim.dynamics", "printed_terms", "agg"),
    Layer("kinematics.velocities", "rollsim.dynamics", "velocities", "agg"),
    Layer("kinematics.positions", "rollsim.dynamics", "positions", "agg"),
)


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    result: int = 0


class Tracer:
    """Spans and per-layer totals of the calls made between install and uninstall."""

    def __init__(self, layers=LAYERS, skip_inner: bool = False):
        self.layers = layers
        self.skip_inner = skip_inner
        self.spans = []      # (request, id, name, start, end, parent id)
        self.totals = {}     # label -> Totals, reset by begin()
        self.absent = []
        self.hidden = []
        self.request = 0
        self._stack = []     # [start, child time, enclosing span id]
        self._saved = []
        self._epoch = time.perf_counter()

    def install(self):
        self.absent, self.hidden = [], []
        for layer in self.layers:
            self.totals.setdefault(layer.label, Totals())
            if layer.inner and self.skip_inner:
                self.hidden.append(layer.label)
                continue
            module = importlib.import_module(layer.module)
            fn = getattr(module, layer.attr, None)
            if fn is None:
                self.absent.append(layer.label)
                continue
            self._saved.append((module, layer.attr, fn))
            setattr(module, layer.attr, self._wrap(layer, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin(self, request: int):
        """Start a new invocation: totals restart, spans keep accumulating."""
        self.request = request
        for t in self.totals.values():
            t.calls, t.total_s, t.self_s, t.result = 0, 0.0, 0.0, 0

    def children_s(self, name: str) -> float:
        """Summed duration of the direct children of this request's `name` span."""
        ids = {s[1] for s in self.spans if s[0] == self.request and s[2] == name}
        return sum(s[4] - s[3] for s in self.spans
                   if s[0] == self.request and s[5] in ids)

    def _wrap(self, layer, fn):
        stack = self._stack
        clock = time.perf_counter
        label = layer.label
        is_span = layer.mode == "span"
        result = layer.result
        spans = self.spans
        totals = self.totals

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            span_id = len(spans) if is_span else parent
            if is_span:
                spans.append(None)  # reserve the id; filled in on return
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                acc = totals[label]
                acc.calls += 1
                acc.total_s += dur
                acc.self_s += dur - frame[1]
                if is_span:
                    spans[span_id] = (self.request, span_id, label,
                                      frame[0] - self._epoch,
                                      end - self._epoch, parent)
            if result is not None:
                acc.result += int(result(out))
            return out

        traced.__wrapped__ = fn
        return traced
