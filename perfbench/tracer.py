"""Span tracing of blowuplab's public functions, installed from outside the package.

``Tracer.install`` replaces each target with a wrapper in every ``blowuplab``
module namespace that holds it (names bound by ``from ... import`` included)
and, for methods, on the class.  A wrapper records one span per call
(name, start, end, parent span, op id) in memory and bumps the work counters
that are read from arguments or returned objects.  ``Tracer.uninstall``
restores the originals.  A target that no longer exists is skipped, so its
counters stay at zero.

Everything runs on one thread, so spans nest strictly and a layer's self
time is its span duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer)
TARGETS = [
    ("blowuplab.cli", "dispatch", "cli"),
    ("blowuplab.auxcalc", "build_aux_table", "auxcalc.build"),
    ("blowuplab.auxcalc", "compute_B", "auxcalc.build"),
    ("blowuplab.auxcalc", "compute_bhat1", "auxcalc.build"),
    ("blowuplab.auxcalc", "check_hypothesis", "auxcalc.check"),
    ("blowuplab.auxcalc", "AuxTable.B_at", "auxcalc.lookup"),
    ("blowuplab.auxcalc", "AuxTable.g_at", "auxcalc.lookup"),
    ("blowuplab.auxcalc", "AuxTable.log_beta_at", "auxcalc.lookup"),
    ("blowuplab.auxcalc", "AuxTable.Gamma_at", "auxcalc.lookup"),
    ("blowuplab.auxcalc", "AuxTable.invert_B", "auxcalc.invert"),
    ("blowuplab.quadrature", "integrate_adaptive", "quadrature.integrate"),
    ("blowuplab.quadrature", "gauss_kronrod_panel", "quadrature.panel"),
    ("blowuplab.coeffs", "DampingModel.b", "coeffs.b"),
    ("blowuplab.coeffs", "DampingModel.db", "coeffs.db"),
    ("blowuplab.testfn", "ScalingFamily.F0", "testfn.F0"),
    ("blowuplab.functional", "scan_condition", "functional.scan"),
    ("blowuplab.functional", "H_alpha", "functional.scan"),
    ("blowuplab.functional", "G_alpha", "functional.G_alpha"),
    ("blowuplab.functional", "data_functional", "functional.data"),
    ("blowuplab.exponents", "p_crit_damped", "exponents"),
    ("blowuplab.simulator", "run", "simulator.run"),
    ("blowuplab.simulator", "sweep_p", "simulator.sweep"),
    ("blowuplab.simulator", "convergence_test", "simulator.verify"),
]

# metric prefix -> the span layers whose self time it sums
SELF_TIME = {
    "cli": ("cli",),
    "auxcalc.build": ("auxcalc.build",),
    "auxcalc.lookup": ("auxcalc.lookup",),
    "auxcalc.invert": ("auxcalc.invert",),
    "auxcalc.check": ("auxcalc.check",),
    "quadrature": ("quadrature.integrate", "quadrature.panel"),
    "coeffs": ("coeffs.b", "coeffs.db"),
    "testfn.F0": ("testfn.F0",),
    "functional.G_alpha": ("functional.G_alpha",),
    "functional.scan": ("functional.scan",),
    "functional.data": ("functional.data",),
    "exponents": ("exponents",),
    "simulator.run": ("simulator.run",),
    "simulator.sweep": ("simulator.sweep",),
    "simulator.verify": ("simulator.verify",),
}

# metric -> span layers whose escaping exceptions it counts
ERRORS = {
    "auxcalc.errors": ("auxcalc.build", "auxcalc.lookup", "auxcalc.invert", "auxcalc.check"),
    "quadrature.errors": ("quadrature.integrate", "quadrature.panel"),
    "simulator.errors": ("simulator.run", "simulator.sweep", "simulator.verify"),
}


def _points(args) -> int:
    """Number of evaluation points in a method call ``(self, t)``; scalars count 1."""
    return int(getattr(args[1], "size", 1)) if len(args) > 1 else 1


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        # span: [layer, name, start, end, parent index, op id, child time]
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.op = -1
        self._patches: list = []
        self._exc = None
        self._exc_layers: set = set()

    # -- counters read at the layer boundary -----------------------------

    def _before(self, layer: str, parent_layer: str, args) -> None:
        if layer == "auxcalc.lookup":
            # a bridge called from inside another bridge is not a new request
            if parent_layer != "auxcalc.lookup":
                self.counts["auxcalc.lookup.calls"] += 1
                self.counts["auxcalc.lookup.points"] += _points(args)
        elif layer == "coeffs.b":
            self.counts["coeffs.b.points"] += _points(args)

    def _after(self, name: str, result) -> None:
        c = self.counts
        if name == "build_aux_table":
            c["auxcalc.build.cells"] += len(result.grid) - 1
        elif name == "run":
            steps = len(result.times) - 1
            c["simulator.steps"] += steps
            c["simulator.cell_steps"] += len(result.r) * steps
            key = {"blowup": "rows_blowup", "survived": "rows_survived",
                   "boundary_contaminated": "rows_contaminated"}.get(result.verdict)
            if key:
                c[f"simulator.{key}"] += 1

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            self._before(layer, spans[parent][0] if parent >= 0 else "", args)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._record_error(exc, layer)
                raise
            finally:
                end = perf_counter()
                span[3] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][6] += end - span[2]
            self._after(name, result)
            return result

        return traced

    def _record_error(self, exc: BaseException, layer: str) -> None:
        # one exception unwinding through nested spans counts once per layer
        if exc is not self._exc:
            self._exc, self._exc_layers = exc, set()
        if layer not in self._exc_layers:
            self._exc_layers.add(layer)
            self.errors[layer] += 1

    def install(self) -> list:
        """Patch every target that exists; returns the targets that are missing."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "blowuplab" or n.startswith("blowuplab."))]
        for module_name, path, layer in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
            else:
                original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, layer, attr)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return missing

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._exc, self._exc_layers = None, set()

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict:
        by_layer = defaultdict(float)
        for layer, _, start, end, _, _, child in self.spans:
            by_layer[layer] += (end - start) - child
        return {prefix: sum(by_layer[layer] for layer in layers)
                for prefix, layers in SELF_TIME.items()}

    def layer_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path) -> None:
        """Dump the spans as CSV (times in seconds from the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,layer,name,start_s,end_s,parent,op\n")
            for i, (layer, name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i},{layer},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
