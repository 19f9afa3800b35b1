"""Twist evolution along stretch paths and twist widths between them.

Along a stretch path every curve of the stretched decomposition scales
its length by e^t, and the twist coordinate of a decomposition curve c
evolves as

    theta_c(t) = theta_c(0) e^t + (D1(0) + D2(0)) e^t - D1(t) - D2(t)

where D_i(s) is the twist offset of the pair of pants on side i of c,
evaluated with every length scaled by e^s (offsets are 1/2 log of
rational expressions in exponentials of lengths, so scaling the shear
coordinates and scaling the lengths agree).  Negative s gives the
backward path.

Surfaces supported: the once-punctured torus S11 (one curve, one pair
of pants seen from both sides), the four-times punctured sphere S04
(one curve, two pants with two puncture cuffs each) and the genus-two
surface S2 (three curves, two pants glued along all three).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pants import PantsMetric, PantsTriangulation, TwistSigns, delta_closed

SURFACES = ("S11", "S04", "S2")


class SpecMismatchError(ValueError):
    """Stretch specifications disagree where they are required to match."""


@dataclass(frozen=True, slots=True)
class FNPoint:
    """Fenchel-Nielsen coordinates for a supported surface."""

    surface: str
    lengths: tuple[float, ...]
    twists: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.surface not in SURFACES:
            raise ValueError(f"surface must be one of {SURFACES}")
        n = self.curve_count()
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "twists", tuple(float(v) for v in self.twists))
        if len(self.lengths) != n or len(self.twists) != n:
            raise ValueError(f"{self.surface} needs {n} length/twist pairs")
        if any(not (math.isfinite(v) and v > 0) for v in self.lengths):
            raise ValueError("curve lengths must be finite and positive")

    def curve_count(self) -> int:
        return 3 if self.surface == "S2" else 1


def _pants_count(surface: str) -> int:
    return 1 if surface == "S11" else 2


def _pants_metric(surface: str, lengths: tuple[float, ...]) -> PantsMetric:
    """Cuff lengths of one pair of pants of the decomposition.

    Every pair of pants of these decompositions sees the same lengths:
    on S11 the two glued cuffs are the same curve, on S04 the other
    cuffs are punctures, and on S2 both pants border all three curves.
    """
    if surface == "S11":
        return PantsMetric(lengths[0], lengths[0], 0.0)
    if surface == "S04":
        return PantsMetric(lengths[0], 0.0, 0.0)
    return PantsMetric(*lengths)


def _sides(surface: str, curve: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(pants index, cuff index) for the two sides of a decomposition curve."""
    if surface == "S11":
        return ((0, 0), (0, 1))
    if surface == "S04":
        return ((0, 0), (1, 0))
    return ((0, curve), (1, curve))


@dataclass(frozen=True, slots=True)
class StretchSpec:
    """A stretched completion of the pants decomposition of a surface.

    ``triangulations`` holds one :class:`PantsTriangulation` per pair of
    pants.  Twist signs must agree across every shared curve (the
    spiraling direction belongs to the leaf, not to a side).
    """

    surface: str
    triangulations: tuple[PantsTriangulation, ...]
    direction: str = "forward"
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.surface not in SURFACES:
            raise ValueError(f"surface must be one of {SURFACES}")
        object.__setattr__(self, "triangulations", tuple(self.triangulations))
        if len(self.triangulations) != _pants_count(self.surface):
            raise ValueError(f"{self.surface} needs {_pants_count(self.surface)} pants triangulations")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if self.duration is not None and not self.duration >= 0:
            raise ValueError("duration must be non-negative")
        for curve in range(3 if self.surface == "S2" else 1):
            (p1, c1), (p2, c2) = _sides(self.surface, curve)
            s1 = self.triangulations[p1].signs.signs[c1]
            s2 = self.triangulations[p2].signs.signs[c2]
            if s1 != s2:
                raise SpecMismatchError(f"twist signs disagree across curve {curve}")


def _uniform_signs(sign: int) -> TwistSigns:
    return TwistSigns(sign, sign, sign)


def left_spec(surface: str, duration: float | None = None, direction: str = "backward") -> StretchSpec:
    """The left-twisting completion (all twist signs +1)."""
    return _signed_spec(surface, 1, duration, direction)


def right_spec(surface: str, duration: float | None = None, direction: str = "backward") -> StretchSpec:
    """The right-twisting completion (all twist signs -1)."""
    return _signed_spec(surface, -1, duration, direction)


def _signed_spec(surface: str, sign: int, duration: float | None, direction: str) -> StretchSpec:
    signs = _uniform_signs(sign)
    if surface == "S11":
        tris = (PantsTriangulation((2, 2, 2), signs),)
    elif surface == "S04":
        tris = (PantsTriangulation((4, 1, 1), signs), PantsTriangulation((4, 1, 1), signs))
    else:
        tris = (PantsTriangulation((2, 2, 2), signs), PantsTriangulation((2, 2, 2), signs))
    return StretchSpec(surface, tris, direction, duration)


def stretch_lengths(x: FNPoint, t: float) -> FNPoint:
    """Scale every decomposition-curve length by e^t; twists untouched."""
    f = math.exp(t)
    return FNPoint(x.surface, tuple(v * f for v in x.lengths), x.twists)


def _offset_drift(x: FNPoint, spec: StretchSpec, curve: int, s: float) -> float:
    """(D1(0) + D2(0)) e^s - (D1(s) + D2(s)) for the two pants adjacent to the
    curve, grouped so that it cancels exactly at s = 0."""
    metric = _pants_metric(x.surface, x.lengths)
    d0, ds = (
        sum(delta_closed(m, spec.triangulations[pants], cuff) for pants, cuff in _sides(x.surface, curve))
        for m in (metric, metric.scaled(math.exp(s)))
    )
    return d0 * math.exp(s) - ds


def _signed_time(spec: StretchSpec, t: float | None) -> float:
    if t is None:
        if spec.duration is None:
            raise SpecMismatchError("no time given and the spec carries no duration")
        t = spec.duration
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return -t if spec.direction == "backward" else t


def twist_along_stretch(x: FNPoint, spec: StretchSpec, curve: int = 0, t: float | None = None) -> float:
    """Twist coordinate of ``curve`` after stretching ``x`` along ``spec``.

    ``t`` defaults to the spec's duration; the spec's direction selects the
    forward (s = +t) or backward (s = -t) evolution.
    """
    if spec.surface != x.surface:
        raise SpecMismatchError("spec surface does not match the point")
    s = _signed_time(spec, t)
    return x.twists[curve] * math.exp(s) + _offset_drift(x, spec, curve, s)


def stretch_point(x: FNPoint, spec: StretchSpec, t: float | None = None) -> FNPoint:
    """Full Fenchel-Nielsen image of ``x`` under the stretch."""
    s = _signed_time(spec, t)
    lengths = tuple(v * math.exp(s) for v in x.lengths)
    twists = tuple(twist_along_stretch(x, spec, c, t) for c in range(x.curve_count()))
    return FNPoint(x.surface, lengths, twists)


def twist_width(x: FNPoint, lam: StretchSpec, nu: StretchSpec, curve: int = 0, t: float | None = None) -> float:
    """Difference of the twist of ``curve`` along ``lam`` and along ``nu``.

    Independent of the twist coordinates of ``x`` (the linear theta-term
    cancels), and antisymmetric in (lam, nu).
    """
    if lam.surface != nu.surface or lam.surface != x.surface:
        raise SpecMismatchError("specs must live on the surface of the point")
    if lam.direction != nu.direction:
        raise SpecMismatchError("specs must share a direction")
    if lam.duration != nu.duration:
        raise SpecMismatchError("specs must share a duration")
    s = _signed_time(lam, t)
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


def twist_width_closed(l0: float, t: float, convention: str = "reconciled") -> float:
    """Closed-form twist width between the backward left and right stretches.

    For the once-punctured torus take l0 = l_alpha/2, for the four-times
    punctured sphere l0 = l_alpha/4; then

        theta(left, -t) - theta(right, -t)
            = 4 e^{-t} log coth(l0) - 4 log coth(l0 e^{-t})

    This is the 'reconciled' convention: direct algebra on the twist-offset
    closed forms produces coth(l0), and the constructive half-plane oracle
    agrees.  The 'printed' convention halves both arguments and is kept
    only for comparison; the reconciliation report records the difference.
    """
    if not l0 > 0:
        raise ValueError("l0 must be positive")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if convention == "reconciled":
        a = l0
    elif convention == "printed":
        a = l0 / 2.0
    else:
        raise ValueError("convention must be 'reconciled' or 'printed'")
    return 4.0 * math.exp(-t) * log_coth(a) - 4.0 * log_coth(a * math.exp(-t))
