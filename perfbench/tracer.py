"""In-memory span tracer for the layers of thurston_kit.

Each traced function is wrapped and the wrapper is rebound in every
``thurston_kit.*`` module namespace that holds the original, so calls
between modules (``from .pants import delta_closed``) and calls inside a
module (``h2.shear`` calling ``h2.triangle_median``) both pass through it.
Tracing can be switched off by binding the originals again.  A span
records (name, start, end, parent span, op id, raised); spans stay in
memory until :meth:`Tracer.write` dumps them.  The self time of a span
is its duration minus the durations of its direct children, which on one
thread are nested inside it.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter_ns

#: functions wrapped per module of thurston_kit, each with the end-to-end
#: metric a change to it should move
LAYERS: dict[str, tuple[str, ...]] = {
    # op_p50_ms on oracle (argparse is rebuilt per call); <1% of envelope
    "cli": ("main",),
    # oracle only
    "h2": ("shear", "triangle_median", "mobius_apply", "axis_translation", "orthofoot", "orthofoot_to_ideal"),
    # oracle (delta_oracle) and genus2 (delta_closed, complex-step derivatives)
    "pants": ("delta_oracle", "delta_closed", "delta_scale_derivative", "shear_coords"),
    # small everywhere: a guard that should not move
    "stretch": ("stretch_point", "twist_along_stretch", "twist_width_closed"),
    # envelope mainly, and the middle constants of genus2 sweeps;
    # candidate_slopes is rebuilt on every envelope_widths call
    "torus": ("envelope_widths", "candidate_slopes"),
    # genus2
    "bounds": ("run_sweep",),
    # genus2 throughput; dedupe_points and nnls take about half of it
    "cube": ("cloud", "dedupe_points", "hull", "extreme_points_brute", "nnls"),
}

#: result sizes summed per function, for the work ratios
SIZES = {
    "torus.candidate_slopes": lambda result: len(result),
    "cube.cloud": lambda result: len(result),
    "cube.dedupe_points": lambda result: len(result[0]),
}

#: (metric, numerator, denominator); numerators and denominators are
#: ("calls" | "size", span name).  A ratio with a zero base reads 0.
RATIOS = (
    ("h2.shear_per_oracle", ("calls", "h2.shear"), ("calls", "pants.delta_oracle")),
    ("torus.slopes_per_cell", ("size", "torus.candidate_slopes"), ("calls", "torus.envelope_widths")),
    ("cube.unique_per_candidate", ("size", "cube.dedupe_points"), ("size", "cube.cloud")),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for module, funcs in LAYERS.items():
        for fn in funcs:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
            units[f"{module}.{fn}.errors"] = "count"
        units[f"{module}.self_s"] = "s"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    units["cube.hull_brute_agree_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Span store and function wrapper; one per traced worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int, bool] | None] = []
        self.sizes: dict[str, int] = {name: 0 for name in SIZES}
        self.op = -1
        self._stack: list[int] = []
        #: (module, attribute, original, wrapped) for every rebinding
        self._bindings: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, raised)
            if size is not None:
                sizes[name] += size(result)
            return result

        return traced

    def install(self) -> None:
        """Find every binding of the functions in LAYERS across the loaded
        thurston_kit modules and wrap it; tracing starts inactive."""
        modules = [m for key, m in sys.modules.items() if key == "thurston_kit" or key.startswith("thurston_kit.")]
        for module, funcs in LAYERS.items():
            home = sys.modules[f"thurston_kit.{module}"]
            for fn in funcs:
                original = getattr(home, fn)
                wrapped = self.wrap(f"{module}.{fn}", original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._bindings.append((m, attr, original, wrapped))

    def set_active(self, active: bool) -> None:
        """Bind the wrapped functions (active) or the originals."""
        for module, attr, original, wrapped in self._bindings:
            setattr(module, attr, wrapped if active else original)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and errors per function, self_s per module, ratios."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {f"{m}.{f}": 0 for m, funcs in LAYERS.items() for f in funcs}
        self_ns = dict.fromkeys(calls, 0)
        errors = dict.fromkeys(calls, 0)
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            errors[name] += raised
        out: dict[str, float] = {}
        for module, funcs in LAYERS.items():
            total = 0
            for fn in funcs:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = self_ns[key] / 1e9
                out[f"{key}.errors"] = errors[key]
                total += self_ns[key]
            out[f"{module}.self_s"] = total / 1e9
        counts = {"calls": calls, "size": self.sizes}
        for metric, (nkind, nname), (dkind, dname) in RATIOS:
            den = counts[dkind][dname]
            out[metric] = counts[nkind][nname] / den if den else 0.0
        return out

    def write(self, path: Path) -> None:
        """One CSV line per span: op,name,start_ns,end_ns,parent,raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write("op,name,start_ns,end_ns,parent,raised\n")
            for name, start, end, parent, op, raised in self.spans:
                fh.write(f"{op},{name},{start},{end},{parent},{int(raised)}\n")
