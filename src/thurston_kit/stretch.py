"""Twist evolution along stretch paths and twist widths between them.

A stretch for time t scales every decomposition curve by e^s, s = -t, so
positive t runs backward (as the envelope and the twist widths do) and
negative t forward, in every function here; the twist of curve c evolves as

    theta_c = theta_c(0) e^s + (D1(0) + D2(0)) e^s - D1(s) - D2(s)

where D_i(s) is the twist offset of the pair of pants on side i of c,
evaluated with every length scaled by e^s (offsets are 1/2 log of
rational expressions in exponentials of lengths, so scaling the shear
coordinates and scaling the lengths agree).  The stretch vector of a
completion is the derivative in s at s = 0 of every twist coordinate
(:func:`stretch_vectors`), the quantity whose convex hull ``cube``
studies on the genus-two surface.

Each surface is one row of ``_SURFACES``: the (pants, cuff) pair on each
side of each decomposition curve, the leaf ends of each pair of pants in
the uniform completions, the cuff lengths every pair of pants sees, and
the ratio l_alpha / l0 of the closed-form width (:func:`width_point`).
The rows are the once-punctured torus S11 (one pair of pants glued to
itself), the four-times punctured sphere S04 (two pants with two
puncture cuffs each) and the genus-two surface S2 (two pants glued along
all three curves).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .pants import PantsMetric, PantsTriangulation, _delta_sides, delta_closed

if TYPE_CHECKING:
    import numpy as np


class _Surface(NamedTuple):
    sides: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    ends: tuple[tuple[int, int, int], ...]
    metric: Callable[[tuple[float, ...]], PantsMetric]
    width_ratio: float | None


_SURFACES = {
    "S11": _Surface((((0, 0), (0, 1)),), ((2, 2, 2),), lambda l: PantsMetric(l[0], l[0], 0.0), 2.0),
    "S04": _Surface((((0, 0), (1, 0)),), ((4, 1, 1),) * 2, lambda l: PantsMetric(l[0], 0.0, 0.0), 4.0),
    "S2": _Surface(tuple(((0, c), (1, c)) for c in range(3)), ((2, 2, 2),) * 2, lambda l: PantsMetric(*l), None),
}
SURFACES = tuple(_SURFACES)


def _surface(name: str) -> _Surface:
    if name not in _SURFACES:
        raise ValueError(f"surface must be one of {SURFACES}")
    return _SURFACES[name]


def curve_count(surface: str) -> int:
    """Number of decomposition curves (length/twist pairs) of ``surface``."""
    return len(_surface(surface).sides)


class SpecMismatchError(ValueError):
    """Stretch specifications disagree where they are required to match."""


@dataclass(frozen=True, slots=True)
class FNPoint:
    """Fenchel-Nielsen coordinates for a supported surface, kept as given (floats, or ``mpmath.mpf`` at any precision)."""

    surface: str
    lengths: tuple[float, ...]
    twists: tuple[float, ...]

    def __post_init__(self) -> None:
        n = curve_count(self.surface)
        object.__setattr__(self, "lengths", tuple(self.lengths))
        object.__setattr__(self, "twists", tuple(self.twists))
        if len(self.lengths) != n or len(self.twists) != n:
            raise ValueError(f"{self.surface} needs {n} length/twist pairs")
        if any(not (math.isfinite(v) and v > 0) for v in self.lengths):
            raise ValueError("curve lengths must be finite and positive")
        if not all(math.isfinite(v) for v in self.twists):
            raise ValueError("twists must be finite")


def width_point(surface: str, l0: float) -> FNPoint:
    """The untwisted point whose closed-form twist width has parameter l0:
    l_alpha = 2 l0 on S11 and 4 l0 on S04; S2 has no closed-form width."""
    ratio = _surface(surface).width_ratio
    if ratio is None:
        raise ValueError(f"{surface} has no closed-form twist width")
    return FNPoint(surface, (ratio * l0,), (0.0,))


@dataclass(frozen=True, slots=True)
class StretchSpec:
    """A stretched completion of the pants decomposition of a surface.

    ``triangulations`` holds one :class:`PantsTriangulation` per pair of
    pants.  Twist signs must agree across every shared curve (the
    spiraling direction belongs to the leaf, not to a side).
    """

    surface: str
    triangulations: tuple[PantsTriangulation, ...]

    def __post_init__(self) -> None:
        row = _surface(self.surface)
        object.__setattr__(self, "triangulations", tuple(self.triangulations))
        if len(self.triangulations) != len(row.ends):
            raise ValueError(f"{self.surface} needs {len(row.ends)} pants triangulations")
        for curve, ((p1, c1), (p2, c2)) in enumerate(row.sides):
            if self.triangulations[p1].signs[c1] != self.triangulations[p2].signs[c2]:
                raise SpecMismatchError(f"twist signs disagree across curve {curve}")


def left_spec(surface: str) -> StretchSpec:
    """The left-twisting completion (all twist signs +1)."""
    return _signed_spec(surface, 1)


def right_spec(surface: str) -> StretchSpec:
    """The right-twisting completion (all twist signs -1)."""
    return _signed_spec(surface, -1)


@lru_cache(maxsize=None)
def _signed_spec(surface: str, sign: int) -> StretchSpec:
    tris = tuple(PantsTriangulation(ends, (sign, sign, sign)) for ends in _surface(surface).ends)
    return StretchSpec(surface, tris)


def _offset_drift(x: FNPoint, spec: StretchSpec, curve: int, s: float) -> float:
    """(D1(0) + D2(0)) e^s - (D1(s) + D2(s)) for the two pants adjacent to the
    curve; at s = 0 it is 0.0 and evaluates no offset."""
    if s == 0.0:
        return 0.0
    row = _SURFACES[x.surface]
    metric, f = row.metric(x.lengths), math.exp(s)
    d0, ds = (
        sum(delta_closed(m, spec.triangulations[pants], cuff) for pants, cuff in row.sides[curve])
        for m in (metric, metric.scaled(f))
    )
    return d0 * f - ds


def _signed_time(t: float) -> float:
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    s = -t
    if s > math.log(sys.float_info.max):
        raise ValueError(f"stretch time is out of float reach: lengths scale by e^{s!r}, which overflows")
    return s


def twist_along_stretch(x: FNPoint, spec: StretchSpec, curve: int, t: float) -> float:
    """Twist coordinate of ``curve`` after stretching ``x`` along ``spec``
    for time ``t``; time 0 evaluates no offset and adds +0.0 to the twist."""
    if spec.surface != x.surface:
        raise SpecMismatchError("spec surface does not match the point")
    s = _signed_time(t)
    twist = x.twists[curve] * math.exp(s) + _offset_drift(x, spec, curve, s)
    if not math.isfinite(twist):
        raise ValueError(f"twist of curve {curve} is out of float reach after the stretch (lengths scale by e^{s!r})")
    return twist


def stretch_point(x: FNPoint, spec: StretchSpec, t: float) -> FNPoint:
    """Full Fenchel-Nielsen image of ``x`` under the stretch for time ``t``;
    time 0 evaluates no offset and adds to every twist the +0.0 of a zero drift."""
    f = math.exp(_signed_time(t))
    twists = tuple(twist_along_stretch(x, spec, c, t) for c in range(len(x.twists)))
    return FNPoint(x.surface, tuple(v * f for v in x.lengths), twists)


#: relative agreement required between analytic and central-difference rates
DERIVATIVE_CHECK_REL = 1e-6
#: the central difference's log-scale step: at cuffs of 7 to 9, 1e-6 loses more to rounding than 3e-4 to truncation
_CHECK_STEP = 3e-4


class SidePlan(NamedTuple):
    """Specs reduced to the pants sides their stretch vectors sum."""

    #: the one surface of the specs
    surface: str
    #: each distinct (triangulation, cuff) side, in order of first use
    sides: tuple[tuple[PantsTriangulation, int], ...]
    #: (len(specs) * curves, 2) side indices: the two sides of each
    #: (spec, curve) pair, spec by spec
    index: np.ndarray


def side_plan(specs: Sequence[StretchSpec]) -> SidePlan:
    """The :class:`SidePlan` of specs on exactly one surface, the input of
    :func:`stretch_vectors`; a caller with fixed specs builds it once."""
    # imported here, not at module level: only the cube needs arrays
    import numpy as np

    surfaces = {spec.surface for spec in specs}
    if len(surfaces) != 1:
        raise SpecMismatchError("stretch vectors need specs on one surface")
    (surface,) = surfaces
    pants_cuffs = [side for pair in _SURFACES[surface].sides for side in pair]
    sides: dict[tuple[PantsTriangulation, int], int] = {}
    index = np.array(
        [sides.setdefault((spec.triangulations[p], c), len(sides)) for spec in specs for p, c in pants_cuffs], dtype=int
    ).reshape(-1, 2)
    # a plan may be cached and shared, as the cube's is
    index.setflags(write=False)
    return SidePlan(surface, tuple(sides), index)


def stretch_vectors(x: FNPoint, plan: SidePlan) -> np.ndarray:
    """The stretch vectors at ``x`` of the specs of ``plan`` (see
    :func:`side_plan`), one row per spec of a (len(specs), curves) float
    array: per curve c,

        theta_c'(0) = theta_c(0) + D1(0) + D2(0) - d/ds [D1 + D2](0),

    with the offsets differentiated analytically (complex step); a central
    difference (step ``_CHECK_STEP``) must agree to ``DERIVATIVE_CHECK_REL`` relative.
    The plan's sides go through the pants kernel in one pass, four evaluations
    each in order of first use; the first that fails raises before any check.
    Each row sums its sides as the per-spec formula does (``0.0 + D1 + D2``,
    then ``theta + total - rate``), bit for bit.
    """
    import numpy as np

    if plan.surface != x.surface:
        raise SpecMismatchError("stretch vectors need specs on the surface of the point")
    row = _SURFACES[x.surface]
    metric = row.metric(x.lengths)
    up, down = metric.scaled(math.exp(_CHECK_STEP)), metric.scaled(math.exp(-_CHECK_STEP))
    # (offset, rate, offset at e^h, offset at e^-h) per side; the first side that fails raises
    values = np.array(_delta_sides(metric, up, down, plan.sides)).reshape(-1, 4)
    values[:, 2] -= values[:, 3]
    # each (spec, curve) pair sums its two sides from 0.0 in order
    total0, dtotal, diff = (0.0 + values[plan.index[:, 0], :3] + values[plan.index[:, 1], :3]).T
    num = diff / (2.0 * _CHECK_STEP)
    bad = np.abs(num - dtotal) > DERIVATIVE_CHECK_REL * np.maximum(1.0, np.abs(dtotal))
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(
            f"analytic rate {float(dtotal[k])} and central difference {float(num[k])} "
            f"disagree at curve {k % len(row.sides)}"
        )
    count = len(plan.index) // len(row.sides)
    return (np.tile(x.twists, count) + total0 - dtotal).reshape(count, len(row.sides))


def twist_width(x: FNPoint, lam: StretchSpec, nu: StretchSpec, curve: int, t: float) -> float:
    """Difference of the twist of ``curve`` along ``lam`` and along ``nu``.

    Independent of the twist coordinates of ``x`` (the linear theta-term
    cancels), and antisymmetric in (lam, nu).
    """
    if lam.surface != nu.surface or lam.surface != x.surface:
        raise SpecMismatchError("specs must live on the surface of the point")
    s = _signed_time(t)
    return _offset_drift(x, lam, curve, s) - _offset_drift(x, nu, curve, s)


def log_coth(u: float) -> float:
    """log coth(u) = log1p(w) - log(1 - w) with w = e^{-2u}, for u > 0.

    For w > 1/2 (small u) the factor 1 - w is taken from expm1, which
    keeps the digits that 1 - w cancels; otherwise log1p(-w) is accurate
    and expm1 is not (relative error 0.5 at u = 20).  Against a 50-digit
    mpmath reference the relative error stays below 1.2 machine epsilon
    on 20,000 log-uniform samples of u in [1e-15, 353]; past that the
    result is subnormal.
    """
    if not u > 0:
        raise ValueError("log coth needs a positive argument")
    w = math.exp(-2.0 * u)
    if w > 0.5:
        return math.log1p(w) - math.log(-math.expm1(-2.0 * u))
    return math.log1p(w) - math.log1p(-w)


def twist_width_closed(l0: float, t: float) -> float:
    """Closed-form twist width between the left and right stretches.

    At the point :func:`width_point` maps l0 to, on the once-punctured torus
    or the four-times punctured sphere, the twists at time t (backward for
    t > 0, forward for t < 0) differ by

        theta(left, t) - theta(right, t)
            = 4 e^s log coth(l0) - 4 log coth(l0 e^s),    s = -t

    Direct algebra on the twist-offset closed forms produces coth(l0), and the
    constructive half-plane oracle agrees.  The printed convention halves both
    arguments: it is ``twist_width_closed(l0 / 2, t)``, bit for bit, kept only
    for comparison; the reconciliation report records the difference.
    """
    if not l0 > 0:
        raise ValueError("l0 must be positive")
    if l0 == math.inf:
        raise ValueError("l0 must be finite")
    f = math.exp(_signed_time(t))
    u = l0 * f
    # a subnormal u has lost digits, and log coth(u) = t - log(l0) + O(u^2) to far below one ulp
    log_coth_u = log_coth(u) if u >= sys.float_info.min else t - math.log(l0)
    width = 4.0 * f * log_coth(l0) - 4.0 * log_coth_u
    if not math.isfinite(width):
        raise ValueError(f"twist width is out of float reach at t = {t!r}")
    return width
