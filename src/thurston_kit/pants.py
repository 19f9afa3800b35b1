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
(2, 4 or 1), which :func:`_side` resolves once per process with the
shear terms of each side and of the oracle's leaves.  The oracle's gap
solve computes the shear halves that no gap changes once per scalar
namespace (:func:`_fixed_heights`).  The sides of stretch vectors
(:func:`_delta_sides`) take the offset, its complex-step rate and the
offsets at the lengths scaled by e^{+-h} in one pass.

Lift normalization used everywhere (and by the oracle): the cuff axis is
the upward imaginary axis with the pants on its left, the fan of leaf
lifts asymptotic to the cuff consists of vertical lines whose first gap
has Euclidean width one, and the shear reference point is the incircle
median of the first fan triangle transported to the axis along a
horocycle about infinity.
"""

from __future__ import annotations

import cmath  # with math, the only scalar namespaces: no "from math import", no float()/complex() coercion (for mpmath)
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

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


def _signed(l) -> tuple:
    """The signed lengths that shear terms index: 2 i is 1 * l[i] and 2 i + 1 is -1 * l[i]."""
    a, b, c = l
    return (1 * a, -1 * a, 1 * b, -1 * b, 1 * c, -1 * c)


def _shear_coord(ends: tuple[int, int, int], e: tuple[int, int, int], i: int, j: int) -> tuple[int, ...]:
    """Terms of the shear coordinate of the leaf between cuffs ``i`` and ``j``
    (0-based): one signed length, or three summed left to right and halved
    (:func:`_shear`).  As x - y rounds as x + (-y), the (2,2,2) shear
    0.5 (e_k l_k - e_i l_i - e_j l_j) adds the terms of -e_i l_i and -e_j l_j.
    """
    if ends == (2, 2, 2):
        k = 3 - i - j
        return (2 * k + (e[k] < 0), 2 * i + (e[i] > 0), 2 * j + (e[j] > 0))
    m = ends.index(4)
    if i == j == m:
        a, b = _OTHER_CUFFS[m]
        return (2 * m + (e[m] > 0), 2 * a + (e[a] < 0), 2 * b + (e[b] < 0))
    other = j if i == m else i
    return (2 * other + (e[other] > 0),)


def _shear(signed, terms: tuple[int, ...]):
    """The shear coordinate of the :func:`_shear_coord` ``terms`` at the :func:`_signed` lengths."""
    if len(terms) == 1:
        return signed[terms[0]]
    a, b, c = terms
    return 0.5 * (signed[a] + signed[b] + signed[c])


def shear_coords(p: PantsMetric, t: PantsTriangulation) -> dict[str, float]:
    """Shear coordinate of each leaf, keyed by its cuff pair (e.g. 's12', 's11').

    Only the labels meaningful for the triangulation type are present.  A
    shear whose half-sum overflows raises, though its value may be finite.
    """
    if t.ends == (2, 2, 2):
        pairs = [(0, 1), (0, 2), (1, 2)]
    else:
        m = t.ends.index(4)
        pairs = [(m, m)] + [(m, i) for i in range(3) if i != m]
    signed = _signed(p.lengths)
    shears = {f"s{min(i, j) + 1}{max(i, j) + 1}": _shear(signed, _shear_coord(t.ends, t.signs, i, j)) for i, j in pairs}
    for key, value in shears.items():
        if not math.isfinite(value):
            raise ValueError(f"shear {key} is out of float reach: its half-sum overflows at lengths {p.lengths}")
    return shears


def _check_length(lengths, cuff: int) -> None:
    if lengths[cuff] < MIN_CUFF_LENGTH:
        raise SingularCuffError(f"cuff {cuff} has length {lengths[cuff]}; twist offset is singular")


@functools.cache
def _side(ends: tuple[int, int, int], e: tuple[int, int, int], cuff: int) -> tuple:
    """The side of ``cuff`` in the triangulation (``ends``, ``e``) as ints, which
    serve every scalar namespace: (cuff, its leaf ends n, e_c, the terms of s_cj
    and s_jk (n = 2), s_cc and s_ck (n = 4) or s_jj and s_jk (n = 1), the terms
    -e_j l_j and -e_c l_c, j, and the terms of the oracle's fan leaves about the
    cuff and of its spiral leaves about cuff j).  The perpendicular is dropped
    from cuff ``j``'s axis: the 4-end cuff when the cuff has one leaf end, else
    the cyclically next.  Each oracle leaf's cuff pair is in increasing order, as
    :func:`shear_coords` reports the leaf, and each closed-form pair in the order
    its formula names it: the order of a (2,2,2) sum's terms fixes its rounding."""
    n = ends[cuff]
    j = ends.index(4) if n == 1 else (cuff + 1) % 3
    k = 3 - cuff - j
    first, second, fan, spiral = {
        2: ((cuff, j), (j, k), ((cuff, j),), ((j, k), (cuff, j))),
        4: ((cuff, cuff), (cuff, k), ((cuff, j), (cuff, cuff), (cuff, k)), ((cuff, j),)),
        1: ((j, j), (j, k), (), ((j, j), (j, k), (j, j), (cuff, j))),
    }[n]
    leaves = (tuple(_shear_coord(ends, e, min(pair), max(pair)) for pair in pairs) for pairs in (fan, spiral))
    return (cuff, n, e[cuff], _shear_coord(ends, e, *first), _shear_coord(ends, e, *second),
            2 * j + (e[j] > 0), 2 * cuff + (e[cuff] > 0), j, *leaves)


def _roles(lengths, t: PantsTriangulation, cuff: int) -> tuple:
    """The resolved side of a cuff whose twist offset is defined at the cuff
    ``lengths``; the cuff index is checked first, then its length."""
    if cuff not in (0, 1, 2):
        raise ValueError("cuff index must be 0, 1 or 2")
    _check_length(lengths, cuff)
    return _side(t.ends, t.signs, cuff)


#: the sum of the cuff lengths below which :func:`_delta_core` runs in float.
#: Below it every exponent is under 300, where ``math.exp`` is ``cmath.exp``'s
#: real part (cmath scales arguments above 708.39 by e), and every value stays
#: finite, where float and complex arithmetic round alike (they part at inf and nan)
_FLOAT_REACH = 150.0


def _exp(signed):
    """The exponential of :func:`_delta_core` at the :func:`_signed` lengths
    ``signed``: ``math.exp`` for float lengths summing below :data:`_FLOAT_REACH`,
    so that the offset runs in float, else ``cmath.exp``."""
    short = type(signed[0]) is float and signed[0] + signed[2] + signed[4] < _FLOAT_REACH
    return math.exp if short else cmath.exp


def _delta_core(signed, side: tuple, exp):
    """Closed-form twist offset of a resolved side at the :func:`_signed` lengths
    ``signed``, which may be complex (an infinitesimal imaginary part implements
    exact differentiation of the log-coth-type expressions), with their :func:`_exp`.
    The shears are summed in place, each exponential is computed once, and the
    leaf-end cases share one tail.  The log is ``cmath.log`` at float lengths too:
    its real part rounds unlike ``math.log``'s.
    """
    log = cmath.log
    cuff, n, ec, (a, b, c), second, perp, neg, _, _, _ = side
    try:
        first = 0.5 * (signed[a] + signed[b] + signed[c])
        if n == 2:
            num = 1 + exp(first)
            a, b, c = second
            e_jk = exp(0.5 * (signed[a] + signed[b] + signed[c]))
            frac = (e_jk + exp(signed[perp])) / (e_jk + 1)
        elif n == 4:
            # s_cj is -e_j l_j, the exponent of frac
            s_cj = signed[perp]
            frac = exp(s_cj)
            num = 1 + frac + exp(s_cj + first) + exp(s_cj + first + signed[second[0]])
        else:
            s_jk = signed[second[0]]
            # the common three-term sum of frac's numerator and denominator, added left to right
            three = exp(first) + exp(first + s_jk) + exp(2 * first + s_jk)
            num, frac = 1, (three + exp(signed[perp])) / (three + 1)
        x = num / (exp(signed[neg]) - 1)
        g = (x + 1) * (x + frac)
    except OverflowError:  # an exponential of a long cuff
        g = math.inf
    if not 0 < g.real < math.inf:  # overflowed, or cancelled: its log would drop an i*pi
        what = "g overflows" if g.real == math.inf else f"g = {g.real!r} <= 0"
        raise ValueError(f"twist offset at cuff {cuff} is out of float reach: "
                         f"{what} at lengths {tuple(v.real for v in signed[::2])}")
    return ec * 0.5 * log(g)


#: the complex step of :func:`delta_scale_derivative`
_STEP = 1e-100


def _stepped(lengths) -> tuple:
    """The signed lengths scaled by e^{i h} from ``cmath``, float or mpmath, where the offset's imaginary part is h times its rate."""
    scale = cmath.exp(1j * _STEP)
    return _signed(tuple(x * scale for x in lengths))


def delta_closed(p: PantsMetric, t: PantsTriangulation, cuff: int) -> float:
    """Closed-form twist offset at ``cuff`` (0-based) for triangulation ``t``; a
    ``ValueError`` names the cuff where the log argument cancels to <= 0 or overflows (long cuffs)."""
    signed = _signed(p.lengths)
    return _delta_core(signed, _roles(p.lengths, t, cuff), _exp(signed)).real


def delta_scale_derivative(p: PantsMetric, t: PantsTriangulation, cuff: int) -> float:
    """d/ds at s = 0 of ``delta_closed(p.scaled(e^s), t, cuff)``, by complex-step
    differentiation at the precision of the lengths: the offset is analytic in the scale, so
    an infinitesimal imaginary perturbation gives the exact derivative (no cancellation error).
    """
    stepped = _stepped(p.lengths)
    return _delta_core(stepped, _roles(p.lengths, t, cuff), _exp(stepped)).imag / _STEP


def _delta_sides(p: PantsMetric, up: PantsMetric, down: PantsMetric, sides: Iterable[tuple]) -> list[tuple]:
    """Per (triangulation, cuff) side, in one pass: ``delta_closed`` at ``p``, its
    ``delta_scale_derivative``, and ``delta_closed`` at ``up`` and ``down``, bit
    for bit, each metric's signed lengths and :func:`_exp` made once.  Each side
    checks its cuff and runs the four in that order, so the first that fails raises."""
    l, l_up, l_down = p.lengths, up.lengths, down.lengths
    signed, stepped, signed_up, signed_down = _signed(l), _stepped(l), _signed(l_up), _signed(l_down)
    exp, exp_stepped, exp_up, exp_down = map(_exp, (signed, stepped, signed_up, signed_down))
    table = []
    for t, cuff in sides:
        side = _roles(l, t, cuff)
        d0 = _delta_core(signed, side, exp).real
        rate = _delta_core(stepped, side, exp_stepped).imag / _STEP
        _check_length(l_up, cuff)
        d_up = _delta_core(signed_up, side, exp_up).real
        _check_length(l_down, cuff)
        table.append((d0, rate, d_up, _delta_core(signed_down, side, exp_down).real))
    return table


# ---------------------------------------------------------------------------
# constructive oracle
# ---------------------------------------------------------------------------


def _solve_monotone(f: Callable[[float], float], f0: float, f1: float) -> float:
    """Secant solve of f(u) = 0 from u = 0 and u = 1, where f is ``f0`` and ``f1``.

    The gap equations below are linear in the log-width parameter, so the
    secant step is exact; a stalled or non-converging secant raises.
    """
    u0, u1 = 0.0, 1.0
    for _ in range(80):
        if abs(f1) <= 1e-13:
            return u1
        if f1 == f0:
            break
        u0, u1, f0 = u1, u1 - f1 * (u1 - u0) / (f1 - f0), f1
        f1 = f(u1)
    raise GeometryError("gap equation did not converge")


@functools.cache
def _fixed_heights(num) -> tuple:
    """Log heights that no gap solve changes, once per scalar namespace ``num``
    (float ``math``, or mpmath at its first call's precision, which a precision
    change must clear): the near half of the width-one gap (-1, 0, inf) that opens
    each period and the far halves of (0, e^u, inf) at the secant's starts u = 0 and 1.
    They are 0, 0 and 1 (exactly in float; at 50 digits the last is one ulp below 1) but
    come from the kernel like every other height, so the oracle stays constructive at any precision.
    """
    near = num.log(_near_height(_triangle(-1.0, 0.0, INF)))
    return (near, *(num.log(_far_height(_triangle(0.0, num.exp(u), INF))) for u in (0.0, 1.0)))


def _next_gap(prev_gap: float, sigma: float) -> float:
    """Width of the next fan/spiral gap from the constructive shear condition.

    Solved in the frame where the shared vertical line sits at 0 (shears
    are invariant under the parabolic transport fixing infinity), so tiny
    gaps are not absorbed by large coordinates.  That line is the standard
    axis, on which both triangles already lie with their shared vertices
    exact, so the previous triangle's half of the shear is computed once
    per solve (a width-one gap's, and the secant's start values, come from
    :func:`_fixed_heights`) and each secant step computes only the new
    triangle's half.  The condition is the float expression of the full
    shear minus sigma, so the widths are bit-identical to solving with
    :func:`h2.shear`.  A gap whose log-width u leaves the float range (e^u
    overflows or underflows to 0) raises a :class:`GeometryError` that names u.
    """
    near_one, far_0, far_1 = _fixed_heights(math)
    log_h1 = near_one if prev_gap == 1.0 else math.log(_near_height(_triangle(-prev_gap, 0.0, INF)))

    def cond(u: float) -> float:
        try:
            width = math.exp(u)
        except OverflowError:
            width = 0.0
        if width == 0.0:
            raise GeometryError(f"gap log-width {u} leaves the float range")
        return math.log(_far_height(_triangle(0.0, width, INF))) - log_h1 - sigma

    return math.exp(_solve_monotone(cond, far_0 - log_h1 - sigma, far_1 - log_h1 - sigma))


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
    l = p.lengths
    *_, j, fan, spiral = _roles(l, t, cuff)
    e, signed = t.signs, _signed(l)
    fan_shears = [_shear(signed, terms) for terms in fan]
    spiral_shears = [_shear(signed, terms) for terms in spiral]

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
