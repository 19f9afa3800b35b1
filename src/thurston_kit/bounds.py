"""Envelope-width bound expressions and grid sweeps certifying boundedness.

:func:`run_sweep` classifies each cell of a validated (l0, t) grid once by
u = l0 e^{-t} into thin / middle / thick, evaluates the bound of each:
:func:`ratio_bound_thin`, the distance-estimator bridge, or
:func:`thick_bound` (bounded as :func:`decay_factor` is), and summarizes
the rows.  Each evaluator enforces its validity regime (no silent
infinities).  Every inequality is reported as numbers (lhs, rhs, empirical
constant), never as a bare boolean at an unknown constant.
"""

from __future__ import annotations

import math
import sys

from .stretch import log_coth, width_point
from .torus import envelope_widths

#: systole threshold is never quantified by the theory; the artifact picks a
#: number below the thin part's cap of log 2 and records it in every report
DEFAULT_EPSILON = 0.3


class RegimeError(ValueError):
    """Bound evaluated outside its validity regime."""


def ratio_bound_thin(l0: float, t: float, eps: float) -> float:
    """Dual-curve length-ratio bound in the thin regime l0 e^{-t} <= eps < 1."""
    if not (0.0 < eps < 1.0):
        raise RegimeError("eps must lie in (0, 1)")
    u = l0 * math.exp(-t)
    if not (l0 > 0 and u <= eps):
        raise RegimeError(f"thin bound needs l0 e^-t <= eps, got u = {u}")
    if u < sys.float_info.min:
        # the correction term is below 1e-300, where log coth(u) may fail
        return 1.0
    return 1.0 + (u / math.log(1.0 / eps)) * 4.0 * (math.exp(-t) * log_coth(l0) + log_coth(u))


def decay_factor(u: float) -> float:
    """e^{2u} log coth(u); uniformly bounded on u >= 1 (tends to 2)."""
    return scaled_log_coth(2.0, u)


def decay_factor_unbounded(u: float) -> float:
    """e^{(2+delta)u} log coth(u) at delta = 0.1; it grows without bound for any delta > 0."""
    return scaled_log_coth(2.1, u)


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
    Past u = 300, where log coth u nears the subnormal range, e^u is folded
    into each term: e^{-t} e^{u - l0} S(l0) + S(u) with S(v) = e^v log coth v.
    Past u = 708.4, where 4 e^u overflows, a :class:`RegimeError` names u.
    """
    u = l0 * math.exp(-t)
    if not u > 1.0:
        raise RegimeError(f"thick bound needs l0 e^-t > 1, got u = {u}")
    scale = 4.0 * math.exp(u) if u < 709.0 else math.inf
    if scale == math.inf:
        raise RegimeError(f"thick bound is out of float reach: 4 e^u overflows at u = {u!r} (l0 = {l0!r}, t = {t!r})")
    if u > 300.0:
        return 4.0 * (math.exp(-t) * math.exp(u - l0) * scaled_log_coth(1.0, l0) + scaled_log_coth(1.0, u))
    return scale * (math.exp(-t) * log_coth(l0) + log_coth(u))


def classify(l0: float, t: float) -> str:
    """Regime of a grid cell: thin (u <= ``DEFAULT_EPSILON``), thick (u > 1), middle otherwise."""
    u = l0 * math.exp(-t)
    if u <= DEFAULT_EPSILON:
        return "thin"
    if u > 1.0:
        return "thick"
    return "middle"


def run_sweep(l0_values: tuple[float, ...], t_values: tuple[float, ...], max_q: int) -> tuple[list, dict]:
    """Rows (l0, t, regime, bound value) of the grid, and their summary.

    Thin cells use the dual-ratio bound, thick cells the decay-based
    expression, and middle cells the triangle-inequality bridge
    2(1 - eps) + d(Y0^R, Y0^L) measured with the distance estimator at
    the cross-section where the curve has length one (one constant per
    l0, all from one batched pass); eps is ``DEFAULT_EPSILON`` throughout.
    """
    cells = [(l0, t, classify(l0, t)) for l0 in l0_values for t in t_values]
    bridged = dict.fromkeys(l0 for l0, t, regime in cells if t != 0.0 and regime == "middle")
    middle = _middle_constants(list(bridged), max_q)
    rows = []
    for l0, t, regime in cells:
        if t == 0.0:
            # the two endpoints coincide and the twist width vanishes
            val = 0.0
        elif regime == "thin":
            val = ratio_bound_thin(l0, t, DEFAULT_EPSILON)
        elif regime == "thick":
            val = thick_bound(l0, t)
        else:
            val = 2.0 * (1.0 - DEFAULT_EPSILON) + middle[l0]
        rows.append((l0, t, regime, val))
    sup, argmax = {}, {}  # per regime: the largest value and the first cell reaching it
    for l0, t, regime, val in rows:
        if regime not in sup or val > sup[regime]:
            sup[regime], argmax[regime] = val, [l0, t]
    return rows, {
        "epsilon": DEFAULT_EPSILON,
        "regime_sup": dict(sorted(sup.items())),
        "regime_argmax": dict(sorted(argmax.items())),
        "middle_constants": {repr(k): v for k, v in sorted(middle.items())},
        "global_bounded": all(math.isfinite(row[3]) for row in rows),
        "n_rows": len(rows),
    }


def _middle_constants(l0s: list[float], max_q: int) -> dict[float, float]:
    """{l0: max of both direction estimates at the length-one cross-section
    (stretch time log l_alpha of the :func:`width_point` of l0)}."""
    cells = [(y, math.log(y.lengths[0])) for y in (width_point("S11", l0) for l0 in l0s)]
    return {l0: max(widths) for l0, widths in zip(l0s, envelope_widths(cells, max_q))}
