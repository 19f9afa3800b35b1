"""Envelope-width bound expressions and grid sweeps certifying boundedness.

Each evaluator implements one displayed bound with its validity regime
enforced (no silent infinities); :func:`run_sweep` classifies a grid of
(l0, t) cells into thin / middle / thick regimes by the size of
u = l0 e^{-t} and evaluates the applicable bound.  Every inequality is
reported as numbers (lhs, rhs, empirical constant), never as a bare
boolean at an unknown constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .stretch import log_coth, width_point
from .torus import envelope_cells

#: systole threshold is never quantified by the theory; the artifact picks a
#: number, caps it at log 2, and records it in every report
DEFAULT_EPSILON = min(0.3, 0.99 * math.log(2.0))


class RegimeError(ValueError):
    """Bound evaluated outside its validity regime."""


def earthquake_bound(l_alpha: float, t: float) -> float:
    """log(e^{l_alpha/2} t): distance bound for the time-t earthquake,
    up to an additive constant reported separately by calibration."""
    if not t > 0:
        raise RegimeError("earthquake bound needs t > 0")
    return 0.5 * l_alpha + math.log(t)


def intersection_bound(l_alpha: float, l_beta: float, eps: float) -> float:
    """4 l_alpha l_beta / eps^2: intersection bound for arcs in the eps-thick part."""
    if not eps > 0:
        raise RegimeError("thickness eps must be positive")
    return 4.0 * l_alpha * l_beta / (eps * eps)


def collar_width(l: float) -> float:
    """2 log(1/l): collar width lower bound, valid for 0 < l <= 1/e."""
    if not 0.0 < l <= 1.0 / math.e:
        raise RegimeError(f"collar bound is used only for 0 < l <= 1/e, got {l}")
    return 2.0 * math.log(1.0 / l)


def ratio_bound_thin(l0: float, t: float, eps: float) -> float:
    """Dual-curve length-ratio bound in the thin regime l0 e^{-t} <= eps < 1."""
    if not (0.0 < eps < 1.0):
        raise RegimeError("eps must lie in (0, 1)")
    u = l0 * math.exp(-t)
    if not (l0 > 0 and u <= eps):
        raise RegimeError(f"thin bound needs l0 e^-t <= eps, got u = {u}")
    return 1.0 + (u / math.log(1.0 / eps)) * 4.0 * (math.exp(-t) * log_coth(l0) + log_coth(u))


def decay_factor(u: float) -> float:
    """e^{2u} log coth(u); uniformly bounded on u >= 1 (tends to 2)."""
    return scaled_log_coth(2.0, u)


def decay_factor_unbounded(u: float, delta: float = 0.1) -> float:
    """e^{(2+delta)u} log coth(u); grows without bound for any delta > 0."""
    if not delta > 0:
        raise RegimeError("delta must be positive")
    return scaled_log_coth(2.0 + delta, u)


def scaled_log_coth(a: float, u: float) -> float:
    """e^{a u} log coth(u), evaluated stably for large u.

    log coth u = 2 e^{-2u} (1 + e^{-4u}/3 + ...), so the product behaves
    like 2 e^{(a-2)u}; the asymptotic branch avoids underflow once
    e^{-2u} is subnormal.
    """
    if not u > 0:
        raise RegimeError("argument must be positive")
    if u > 300.0:
        return 2.0 * math.exp((a - 2.0) * u)
    return math.exp(a * u) * log_coth(u)


def thick_bound(l0: float, t: float) -> float:
    """Pre-simplification thick-regime expression 4 e^u (e^{-t} log coth l0 + log coth u).

    This is the log-argument fed to the earthquake bound on the thick
    part; its uniform boundedness reduces to that of e^{2u} log coth u.
    """
    u = l0 * math.exp(-t)
    if not u > 1.0:
        raise RegimeError(f"thick bound needs l0 e^-t > 1, got u = {u}")
    return 4.0 * math.exp(u) * (math.exp(-t) * log_coth(l0) + log_coth(u))


@dataclass(frozen=True, slots=True)
class SweepGrid:
    """Evaluation grid: l0 values, t values, and the thin threshold eps."""

    l0_values: tuple[float, ...]
    t_values: tuple[float, ...]
    epsilon: float = DEFAULT_EPSILON
    max_q: int = 30

    def __post_init__(self) -> None:
        object.__setattr__(self, "l0_values", tuple(float(v) for v in self.l0_values))
        object.__setattr__(self, "t_values", tuple(float(v) for v in self.t_values))
        if not self.l0_values or not self.t_values:
            raise ValueError("grid axes must be non-empty")
        if any(not v > 0 for v in self.l0_values) or any(v < 0 for v in self.t_values):
            raise ValueError("l0 values must be positive and t values non-negative")
        if list(self.l0_values) != sorted(self.l0_values) or list(self.t_values) != sorted(self.t_values):
            raise ValueError("grid axes must be sorted ascending")
        if not 0.0 < self.epsilon <= math.log(2.0):
            raise ValueError("epsilon must lie in (0, log 2]")


@dataclass(frozen=True)
class SweepReport:
    """Rows (l0, t, regime, bound value) plus per-regime summaries."""

    rows: tuple[tuple[float, float, str, float], ...]
    epsilon: float
    regime_sup: dict
    regime_argmax: dict
    middle_constants: dict
    global_bounded: bool

    def summary(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "regime_sup": dict(sorted(self.regime_sup.items())),
            "regime_argmax": {k: list(v) for k, v in sorted(self.regime_argmax.items())},
            "middle_constants": {repr(k): v for k, v in sorted(self.middle_constants.items())},
            "global_bounded": self.global_bounded,
            "n_rows": len(self.rows),
        }


def classify(l0: float, t: float, eps: float) -> str:
    """Regime of a grid cell: thin (u <= eps), thick (u > 1), middle otherwise."""
    u = l0 * math.exp(-t)
    if u <= eps:
        return "thin"
    if u > 1.0:
        return "thick"
    return "middle"


def run_sweep(grid: SweepGrid) -> SweepReport:
    """Evaluate the applicable bound on every cell and summarize suprema.

    Thin cells use the dual-ratio bound, thick cells the decay-based
    expression, and middle cells the triangle-inequality bridge
    2(1 - eps) + d(Y0^R, Y0^L) measured with the distance estimator at
    the cross-section where the curve has length one (one constant per
    l0, all from one batched pass).
    """
    middle = _middle_constants(grid)
    rows: list[tuple[float, float, str, float]] = []
    sup: dict[str, float] = {}
    argmax: dict[str, tuple[float, float]] = {}
    bounded = True
    for l0 in grid.l0_values:
        for t in grid.t_values:
            regime = classify(l0, t, grid.epsilon)
            if t == 0.0:
                # the two endpoints coincide and the twist width vanishes
                val = 0.0
            elif regime == "thin":
                val = ratio_bound_thin(l0, t, grid.epsilon)
            elif regime == "thick":
                val = thick_bound(l0, t)
            else:
                val = 2.0 * (1.0 - grid.epsilon) + middle[l0]
            rows.append((l0, t, regime, val))
            if not math.isfinite(val):
                bounded = False
            if regime not in sup or val > sup[regime]:
                sup[regime] = val
                argmax[regime] = (l0, t)
    return SweepReport(
        rows=tuple(rows),
        epsilon=grid.epsilon,
        regime_sup=sup,
        regime_argmax=argmax,
        middle_constants=middle,
        global_bounded=bounded,
    )


def _middle_constants(grid: SweepGrid) -> dict[float, float]:
    """{l0: max of both direction estimates at the length-one cross-section
    (signed stretch time log l_alpha of the :func:`width_point` of l0)} for
    every l0 with a middle cell at t > 0."""
    l0s = [
        l0
        for l0 in dict.fromkeys(grid.l0_values)
        if any(t != 0.0 and classify(l0, t, grid.epsilon) == "middle" for t in grid.t_values)
    ]
    cells = [(y, math.log(y.lengths[0])) for y in (width_point("S11", l0) for l0 in l0s)]
    return {l0: max(widths) for l0, widths in zip(l0s, envelope_cells(cells, grid.max_q))}


def format_float(x: float) -> str:
    return format(x, ".17g")


def sweep_csv(report: SweepReport) -> str:
    """CSV with header l0,t,regime,bound_value; '.' decimals, LF endings."""
    lines = ["l0,t,regime,bound_value"]
    for l0, t, regime, val in report.rows:
        lines.append(f"{format_float(l0)},{format_float(t)},{regime},{format_float(val)}")
    return "\n".join(lines) + "\n"


def sweep_json(report: SweepReport) -> str:
    return json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
