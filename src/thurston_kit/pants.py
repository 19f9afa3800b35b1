"""Shear coordinates and twist-offset functions on hyperbolic pairs of pants.

A geodesic triangulation of a pair of pants is determined by the number
of leaf ends spiraling into each cuff -- one of (2,2,2), (4,1,1),
(1,4,1), (1,1,4) -- together with a twist direction (+1 = left, -1 =
right) at each cuff, giving 32 topological types.

For a cuff ``c`` the twist offset ``delta`` is the signed distance along
the cuff's axis lift from the shear reference point to the foot of the
perpendicular dropped from a neighboring cuff's axis.  The closed forms
and :func:`delta_oracle`, which recomputes the same quantity
constructively in the upper half-plane from the lifted configuration and
validates the closed forms, branch on the number of leaf ends at ``c``
(2, 4 or 1), which :func:`_roles` resolves once per call.  One side of a
stretch vector, :func:`delta_side`, takes the offset, its complex-step
rate and the offsets at the lengths scaled by e^{+-h} from one call.

Lift normalization used everywhere (and by the oracle): the cuff axis is
the upward imaginary axis with the pants on its left, the fan of leaf
lifts asymptotic to the cuff consists of vertical lines whose first gap
has Euclidean width one, and the shear reference point is the incircle
median of the first fan triangle transported to the axis along a
horocycle about infinity.
"""

from __future__ import annotations

import cmath  # with math, the only scalar namespaces: no "from math import", no float()/complex() coercion (for mpmath)
import math
from dataclasses import dataclass
from typing import Callable

from .h2 import (
    INF,
    GeometryError,
    _far_height,
    _geodesic,
    _inverse,
    _mobius,
    _near_height,
    _triangle,
    axis_translation,
    ideal,
    mobius_apply,
    orthofoot,
    orthofoot_to_ideal,
    triangle_median,
)

#: cuff lengths below this are rejected as singular (formulas blow up at 0)
MIN_CUFF_LENGTH = 1e-12

#: the four admissible leaf-end distributions over the cuffs
LEAF_DISTRIBUTIONS = ((2, 2, 2), (4, 1, 1), (1, 4, 1), (1, 1, 4))


class SingularCuffError(ValueError):
    """Distinguished cuff length is zero (or numerically indistinguishable)."""


@dataclass(frozen=True, slots=True)
class PantsMetric:
    """Cuff lengths of a hyperbolic pair of pants; 0 encodes a puncture."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self) -> None:
        for v in (self.l1, self.l2, self.l3):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"cuff length {v} must be finite and non-negative")

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.l1, self.l2, self.l3)

    def scaled(self, factor: float) -> "PantsMetric":
        return PantsMetric(self.l1 * factor, self.l2 * factor, self.l3 * factor)


@dataclass(frozen=True, slots=True)
class PantsTriangulation:
    """One of the 32 geodesic triangulation types of a pair of pants."""

    ends: tuple[int, int, int]
    #: twist direction per cuff: +1 twists left, -1 twists right
    signs: tuple[int, int, int]

    def __post_init__(self) -> None:
        if tuple(self.ends) not in LEAF_DISTRIBUTIONS:
            raise ValueError(f"leaf-end distribution {self.ends} is not one of {LEAF_DISTRIBUTIONS}")
        object.__setattr__(self, "ends", tuple(self.ends))
        object.__setattr__(self, "signs", tuple(self.signs))
        if len(self.signs) != 3 or any(e not in (1, -1) for e in self.signs):
            raise ValueError("twist signs must be +1 or -1")

    def label(self) -> str:
        letters = "".join("L" if e == 1 else "R" for e in self.signs)
        return f"{''.join(map(str, self.ends))}-{letters}"


def enumerate_triangulations() -> list[PantsTriangulation]:
    """All 32 triangulation types (4 leaf distributions x 8 sign patterns)."""
    out = []
    for ends in LEAF_DISTRIBUTIONS:
        for bits in range(8):
            signs = tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(3))
            out.append(PantsTriangulation(ends, signs))
    return out


#: the two other cuffs of each cuff, in increasing order
_OTHER_CUFFS = ((1, 2), (0, 2), (0, 1))


def _shear_coord(l, e, ends: tuple[int, int, int], i: int, j: int):
    """Shear coordinate of the leaf between cuffs ``i`` and ``j`` (0-based).

    ``l`` may carry complex entries, as in :func:`_delta_core`.
    """
    if ends == (2, 2, 2):
        k = 3 - i - j
        return 0.5 * (e[k] * l[k] - e[i] * l[i] - e[j] * l[j])
    m = ends.index(4)
    if i == j == m:
        a, b = _OTHER_CUFFS[m]
        return 0.5 * (-e[m] * l[m] + e[a] * l[a] + e[b] * l[b])
    other = j if i == m else i
    return -e[other] * l[other]


def shear_coords(p: PantsMetric, t: PantsTriangulation) -> dict[str, float]:
    """Shear coordinate of each leaf, keyed by its cuff pair (e.g. 's12', 's11').

    Only the labels meaningful for the triangulation type are present.
    """
    if t.ends == (2, 2, 2):
        pairs = [(0, 1), (0, 2), (1, 2)]
    else:
        m = t.ends.index(4)
        pairs = [(m, m)] + [(m, i) for i in range(3) if i != m]
    l, e = p.lengths, t.signs
    return {f"s{min(i, j) + 1}{max(i, j) + 1}": _shear_coord(l, e, t.ends, i, j) for i, j in pairs}


def _check_length(lengths, cuff: int) -> None:
    if lengths[cuff] < MIN_CUFF_LENGTH:
        raise SingularCuffError(f"cuff {cuff} has length {lengths[cuff]}; twist offset is singular")


def _roles(p: PantsMetric, t: PantsTriangulation, cuff: int) -> tuple[int, int, int]:
    """Resolve (leaf ends n at the cuff, perpendicular cuff j, remaining cuff k)
    for a cuff whose twist offset is defined.

    The perpendicular is dropped from cuff ``j``'s axis: the 4-end cuff
    when the cuff has one leaf end, else the cyclically next cuff.
    """
    if cuff not in (0, 1, 2):
        raise ValueError("cuff index must be 0, 1 or 2")
    _check_length(p.lengths, cuff)
    n = t.ends[cuff]
    j = t.ends.index(4) if n == 1 else (cuff + 1) % 3
    return n, j, 3 - cuff - j


def _delta_core(l, e, ends: tuple[int, int, int], cuff: int, j: int, k: int, n: int):
    """Closed-form twist offset; complex-capable for analytic differentiation.

    ``l`` may carry complex entries (an infinitesimal imaginary part
    implements exact differentiation of the log-coth-type expressions).
    Each exponential is computed once; the leaf-end cases share one tail.
    """
    exp, log = cmath.exp, cmath.log
    ec, lc = e[cuff], l[cuff]
    try:
        if n == 2:
            num = 1 + exp(_shear_coord(l, e, ends, cuff, j))
            e_jk = exp(_shear_coord(l, e, ends, j, k))
            frac = (e_jk + exp(-e[j] * l[j])) / (e_jk + 1)
        elif n == 4:
            s_cj = _shear_coord(l, e, ends, cuff, j)
            s_cc, s_ck = _shear_coord(l, e, ends, cuff, cuff), _shear_coord(l, e, ends, cuff, k)
            num = 1 + exp(s_cj) + exp(s_cj + s_cc) + exp(s_cj + s_cc + s_ck)
            frac = exp(-e[j] * l[j])
        else:
            s_jj, s_jk = _shear_coord(l, e, ends, j, j), _shear_coord(l, e, ends, j, k)
            # the common three-term sum of frac's numerator and denominator, added left to right
            three = exp(s_jj) + exp(s_jj + s_jk) + exp(2 * s_jj + s_jk)
            num, frac = 1, (three + exp(-e[j] * l[j])) / (three + 1)
        x = num / (exp(-ec * lc) - 1)
        g = (x + 1) * (x + frac)
    except OverflowError:  # an exponential of a long cuff
        g = math.inf
    if not 0 < g.real < math.inf:  # overflowed, or cancelled: its log would drop an i*pi
        what = "g overflows" if g.real == math.inf else f"g = {g.real!r} <= 0"
        raise ValueError(f"twist offset at cuff {cuff} is out of float reach: "
                         f"{what} at lengths {tuple(v.real for v in l)}")
    return ec * 0.5 * log(g)


#: the complex step of :func:`delta_scale_derivative` and the scale e^{i h} it applies
_STEP = 1e-100
_STEP_SCALE = cmath.exp(complex(0.0, _STEP))


def _scale_rate(p: PantsMetric, t: PantsTriangulation, cuff: int, j: int, k: int, n: int) -> float:
    lc = tuple(x * _STEP_SCALE for x in p.lengths)
    return _delta_core(lc, t.signs, t.ends, cuff, j, k, n).imag / _STEP


def delta_closed(p: PantsMetric, t: PantsTriangulation, cuff: int) -> float:
    """Closed-form twist offset at ``cuff`` (0-based) for triangulation ``t``; a
    ``ValueError`` names the cuff where the log argument cancels to <= 0 or overflows (long cuffs)."""
    n, j, k = _roles(p, t, cuff)
    return _delta_core(p.lengths, t.signs, t.ends, cuff, j, k, n).real


def delta_scale_derivative(p: PantsMetric, t: PantsTriangulation, cuff: int) -> float:
    """d/ds at s = 0 of ``delta_closed(p.scaled(e^s), t, cuff)``, by
    complex-step differentiation.

    The offset is analytic in the scale, so an infinitesimal imaginary
    perturbation gives the exact derivative (no cancellation error).
    """
    n, j, k = _roles(p, t, cuff)
    return _scale_rate(p, t, cuff, j, k, n)


def delta_side(
    p: PantsMetric, t: PantsTriangulation, cuff: int, up: PantsMetric, down: PantsMetric
) -> tuple[float, float, float, float]:
    """One side of a stretch vector: ``delta_closed`` at ``p``, its
    ``delta_scale_derivative``, and ``delta_closed`` at ``up`` and ``down``
    (``p`` scaled by e^h and e^-h), bit for bit.

    The roles are resolved once; the four evaluations run in that order, and
    the first that fails raises what the separate call would.
    """
    n, j, k = _roles(p, t, cuff)
    e, ends = t.signs, t.ends
    d0 = _delta_core(p.lengths, e, ends, cuff, j, k, n).real
    rate = _scale_rate(p, t, cuff, j, k, n)
    _check_length(up.lengths, cuff)
    d_up = _delta_core(up.lengths, e, ends, cuff, j, k, n).real
    _check_length(down.lengths, cuff)
    return d0, rate, d_up, _delta_core(down.lengths, e, ends, cuff, j, k, n).real


# ---------------------------------------------------------------------------
# constructive oracle
# ---------------------------------------------------------------------------


def _solve_monotone(f: Callable[[float], float], u0: float, u1: float) -> float:
    """Secant solve of f(u) = 0.

    The gap equations below are linear in the log-width parameter, so the
    secant step is exact; a stalled or non-converging secant raises.
    """
    f0, f1 = f(u0), f(u1)
    for _ in range(80):
        if abs(f1) <= 1e-13:
            return u1
        if f1 == f0:
            break
        u0, u1, f0 = u1, u1 - f1 * (u1 - u0) / (f1 - f0), f1
        f1 = f(u1)
    raise GeometryError("gap equation did not converge")


def _next_gap(prev_gap: float, sigma: float) -> float:
    """Width of the next fan/spiral gap from the constructive shear condition.

    Solved in the frame where the shared vertical line sits at 0 (shears
    are invariant under the parabolic transport fixing infinity), so tiny
    gaps are not absorbed by large coordinates.  That line is the standard
    axis, on which both triangles already lie with their shared vertices
    exact, so the previous triangle's half of the shear is computed once
    and each secant step computes only the new triangle's half.  The
    condition is the float expression of the full shear minus sigma, so
    the widths are bit-identical to solving with :func:`h2.shear`.  A gap
    whose log-width u leaves the float range (e^u overflows or underflows
    to 0) raises a :class:`GeometryError` that names u.
    """
    log_h1 = math.log(_near_height(_triangle(-prev_gap, 0.0, INF)))

    def cond(u: float) -> float:
        try:
            width = math.exp(u)
        except OverflowError:
            width = 0.0
        if width == 0.0:
            raise GeometryError(f"gap log-width {u} leaves the float range")
        return math.log(_far_height(_triangle(0.0, width, INF))) - log_h1 - sigma

    return math.exp(_solve_monotone(cond, 0.0, 1.0))


def _gap_widths(first_gap: float, shears: list[float]) -> list[float]:
    """Consecutive gap widths of one period, starting from ``first_gap``."""
    gaps = [first_gap]
    for sigma in shears:
        gaps.append(_next_gap(gaps[-1], sigma))
    return gaps


def _linear_root(f: Callable[[float], float], what: str) -> float:
    """Root of a condition f linear in its argument, from f(0) and f(1); a
    :class:`GeometryError` names the condition when the two values are equal."""
    f0, f1 = f(0.0), f(1.0)
    if f1 == f0:
        raise GeometryError(f"{what} condition is degenerate")
    return -f0 / (f1 - f0)


def _deck_endpoint(length: float, sign: int, target: float) -> float:
    """Axis endpoint v such that the deck translation of the given length
    along (v, inf) (contracting for left twists, expanding for right) carries
    the vertical line at 0 to the vertical line at ``target``.

    The condition is linear in v; it is solved from two evaluations of the
    actual isometry action.
    """

    def condition(v: float) -> float:
        axis = (INF, v) if sign == 1 else (v, INF)
        return mobius_apply(axis_translation(*axis, length), 0.0) - target

    return _linear_root(condition, "deck translation")


def oracle_details(p: PantsMetric, t: PantsTriangulation, cuff: int) -> dict:
    """Constructive computation of the twist offset; returns intermediates.

    Builds the lifted configuration in the upper half-plane: solves the fan
    around the cuff axis from constructive shears, closes it up with the
    cuff's deck translation, passes to the frame of the first fan leaf,
    solves the spiral period around the perpendicular cuff, locates that
    cuff's axis from its deck translation, and measures the signed distance
    from the transported incircle median to the perpendicular foot.
    """
    n, j, k = _roles(p, t, cuff)
    l = p.lengths
    e = t.signs

    def sc(i: int, jj: int) -> float:
        # cuff pair in increasing order, as shear_coords reports the leaf;
        # the order fixes the rounding of the (2,2,2) sum
        return _shear_coord(l, e, t.ends, min(i, jj), max(i, jj))

    if n == 2:
        fan_shears = [sc(cuff, j)]
        spiral_shears = [sc(j, k), sc(cuff, j)]
    elif n == 4:
        fan_shears = [sc(cuff, j), sc(cuff, cuff), sc(cuff, k)]
        spiral_shears = [sc(cuff, j)]
    else:
        fan_shears = []
        spiral_shears = [sc(j, j), sc(j, k), sc(j, j), sc(cuff, j)]

    # fan period width from constructive shears (first gap normalized to 1)
    width = math.fsum(_gap_widths(1.0, fan_shears))

    # close the fan with the cuff's deck translation: deck(x) = x + width,
    # where deck translates along the axis by the cuff length (towards 0
    # for a left twist).  The condition is linear in x.
    deck = axis_translation(*((INF, 0.0) if e[cuff] == 1 else (0.0, INF)), l[cuff])

    def closure(x: float) -> float:
        return mobius_apply(deck, x) - (x + width)

    x = _linear_root(closure, "fan closure")

    # frame of the first fan leaf: phi maps the half-circle (x, x+1) to the
    # standard axis with the image of the fan triangle as (-1, 0, inf)
    phi = _mobius(-1.0, x, 1.0, -(x + 1.0))
    t1 = _triangle(x, x + 1.0, INF)
    img = (mobius_apply(phi, INF), mobius_apply(phi, x), mobius_apply(phi, x + 1.0))
    # projectively (-1, 0, inf): the pole image may round to a huge finite value
    if abs(img[0] + 1.0) > 1e-9 or abs(img[1]) > 1e-9 or (math.isfinite(img[2]) and abs(img[2]) < 1e9):
        raise GeometryError("fan frame normalization failed")
    # spiral period width: gaps after the width-one image triangle
    w = math.fsum(_gap_widths(1.0, spiral_shears)[1:])

    # perpendicular cuff axis: second endpoint from its deck translation,
    # or the parabolic limit when that cuff is a puncture
    if l[j] < MIN_CUFF_LENGTH:
        p_star = mobius_apply(_inverse(phi), INF)
        foot = orthofoot_to_ideal(0.0, INF, p_star)
    else:
        v = _deck_endpoint(l[j], e[j], w)
        p_star = mobius_apply(_inverse(phi), ideal(v))
        foot = orthofoot(0.0, INF, *_geodesic(x + 1.0, p_star))

    # shear reference point: incircle median of the first fan triangle on
    # its edge 3, (inf, x), transported to the axis along the horocycle
    # about infinity
    q = (0.0, triangle_median(t1, 3)[1])

    return {
        "x": x,
        "fan_width": width,
        "period_width": w,
        "p_star": p_star,
        "foot": foot,
        "q": q,
        "delta": e[cuff] * (math.log(foot[1]) - math.log(q[1])),
    }


def delta_oracle(p: PantsMetric, t: PantsTriangulation, cuff: int) -> float:
    """Twist offset at ``cuff`` computed constructively in the half-plane."""
    return oracle_details(p, t, cuff)["delta"]
