"""Holonomy model of the once-punctured torus and a length-ratio distance estimator.

Every input is a point (l, tau) in Fenchel-Nielsen coordinates along the
curve alpha.  Its lengths are those of the holonomy with generators

    A = diag(e^{l/2}, e^{-l/2})            (axis = imaginary axis)
    B = B0 * diag(e^{tau/2}, e^{-tau/2})   (twist pre-composed)

where B0 is the symmetric hyperbolic with axis the unit half-circle and
cosh(l_B/2) = coth(l/2), the unique choice (with tr B > 0) making the
commutator trace -2, i.e. the cusp relation x^2 + y^2 + z^2 = xyz for
(x, y, z) = (tr A, tr B, tr AB).  The matrices are never formed: the
engine seeds its integer slopes from (l, tau) directly.

Simple closed curves correspond to extended rationals p/q (slope of B is
0, slope of A is infinity); the curve word is conjugate to the
Christoffel block product prod_i diag(e^{u_i/2}, e^{-u_i/2}) B0, where
u_i = k_i l + tau and the cutting-sequence exponents k_i sum to p.  One
engine, :func:`_log_lengths`, sets each integer slope in closed form and
every other slope as M(left parent) M(right parent) over its Stern-Brocot
parents: one 2x2 product per slope, in at most max_q - 1 levels that are
vectorised over endpoints.  All entries are positive, so nothing
cancels, and a log scale keeps huge words in range.
The trace form tr W(a+b) = tr a tr b - tr W(a-b) is not used: it runs a
decaying recurrence forward and loses all digits at large twist.

The distance estimator is the maximum of log(l_s(Y)/l_s(X)) over a
finite Stern-Brocot slope family (every reduced slope with q <= max_q
and |p| <= max_q).  It is a lower bound for the sup over all simple
closed curves, monotone in max_q, and reports raw max ratios without
any additive constant.  Envelope widths are batched: :func:`envelope_cells`
evaluates the backward stretch endpoints of many (y, t) cells as the
columns of shared passes, since a pass costs mostly its fixed per-level
overhead and little per column.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .stretch import FNPoint, left_spec, right_spec, stretch_point

@dataclass(frozen=True, slots=True)
class Slope:
    """Extended rational p/q in lowest terms; q = 0 (with p = 1) is infinity."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if q < 0:
            p, q = -p, -q
        if q == 0:
            if p == 0:
                raise ValueError("slope 0/0 is not a curve")
            p = 1
        else:
            g = gcd(abs(p), q)
            if g != 1:
                raise ValueError(f"slope {self.p}/{self.q} is not in lowest terms")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        if q == 0:
            return Slope(1, 0)
        g = gcd(abs(p), abs(q))
        return Slope(p // g, q // g) if q > 0 else Slope(-p // g, -q // g)

    def intersection(self, other: "Slope") -> int:
        return abs(self.p * other.q - other.p * self.q)

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


_LOG_HUGE = 30.0
#: node x column budget of one batched length pass, about 0.8 MB of
#: matrices (8 envelope cells at max_q = 30); larger batches save
#: little per column and grow the working set
_CHUNK_NODE_COLUMNS = 20_000
_Plan = tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray]


def _plan(slopes: Sequence[Slope]) -> _Plan:
    """(ints, levels, slope_node): the evaluation order of slopes on the Farey graph.

    Nodes 0 .. len(ints) - 1 are the integer slopes ``ints``.  Every other
    node is the product of its Stern-Brocot parents, which have smaller
    denominators; ``levels`` holds their (left, right) node indices for
    the denominators 2, 3, ... in turn, and ``slope_node[j]`` is the node of
    the j-th slope, -1 for infinity.
    """
    by_q: dict[int, set[int]] = {1: set()}
    for s in slopes:
        if s.q:
            by_q.setdefault(s.q, set()).add(s.p)
    parents = {}
    for q in range(max(by_q), 1, -1):
        for p in by_q.get(q, ()):
            # left parent a/b: p b - a q = 1 with 0 < b < q
            b = pow(p, -1, q)
            a = (p * b - 1) // q
            parents[p, q] = (a, b), (p - a, q - b)
            by_q.setdefault(b, set()).add(a)
            by_q.setdefault(q - b, set()).add(p - a)
    dens = sorted(by_q)
    index = {node: i for i, node in enumerate((p, q) for q in dens for p in sorted(by_q[q]))}
    levels = tuple(
        tuple(np.array([index[parents[p, q][side]] for p in sorted(by_q[q])]) for side in (0, 1))
        for q in dens[1:]
    )
    slope_node = np.array([index[s.p, s.q] if s.q else -1 for s in slopes], dtype=np.intp)
    return np.array(sorted(by_q[1]), dtype=float), levels, slope_node


@lru_cache(maxsize=8)
def _family(max_q: int) -> tuple[tuple[Slope, ...], _Plan]:
    """The default slope family of :func:`candidate_slopes` with its plan, built on first use."""
    slopes = tuple(candidate_slopes(max_q))
    return slopes, _plan(slopes)


def _seed(x: FNPoint) -> tuple[float, float, tuple[tuple[float, float], tuple[float, float]]]:
    """(l, tau, B0): up to conjugacy the slope n/1 has the word
    diag(e^{u/2}, e^{-u/2}) B0, u = n l + tau."""
    if x.surface != "S11":
        raise ValueError("the holonomy model covers the once-punctured torus only")
    l = x.lengths[0]
    # coth(l/2) and 1/sinh(l/2) in a form that stays finite for every length
    cb, sb = 1.0 / math.tanh(l / 2.0), -2.0 * math.exp(-l / 2.0) / math.expm1(-l)
    return l, x.twists[0], ((cb, sb), (sb, cb))


def _log_lengths(endpoints: Sequence[FNPoint], plan: _Plan) -> np.ndarray:
    """log curve lengths, one row per slope of the plan and one column per
    Fenchel-Nielsen point; slope infinity is log l.  Raises where a word's
    |trace|/2 rounds to within 1e-14 of 1, so its length is below working
    precision, except for integer slopes, whose |trace|/2 - 1 has an exact
    form."""
    ints, levels, slope_node = plan
    lam, tau, core = (np.array(v) for v in zip(*map(_seed, endpoints)))
    start = len(ints)
    size = start + sum(len(left) for left, _ in levels)
    M, logscale = np.empty((2, 2, size, len(lam))), np.empty((size, len(lam)))
    # diag(e^{u/2}, e^{-u/2}) scaled by e^{-|u|/2}, so no exp overflows
    u = ints[:, None] * lam + tau
    rows = np.stack((np.exp(np.minimum(u, 0.0)), np.exp(-np.maximum(u, 0.0))))
    M[:, :, :start] = core.transpose(1, 2, 0)[:, :, None] * rows[:, None]
    logscale[:start] = np.abs(u) / 2.0
    for left, right in levels:
        a, b = M.take(left, axis=2), M.take(right, axis=2)
        prod = a[:, 0, None] * b[0] + a[:, 1, None] * b[1]
        scale = np.abs(prod).max(axis=(0, 1))
        stop = start + len(left)
        M[:, :, start:stop] = prod / scale
        logscale[start:stop] = logscale[left] + logscale[right] + np.log(scale)
        start = stop
    node = slope_node[slope_node >= 0]
    with np.errstate(divide="ignore"):
        lh = logscale[node] + np.log(np.abs(M[0, 0, node] + M[1, 1, node]) / 2.0)
    if not np.all(lh < np.inf):
        raise ValueError("word evaluation overflowed")
    # arccosh(y) = log(2y) - 1/(4y^2) - ...; the correction is below 1e-26
    lengths = 2.0 * (lh + math.log(2.0))
    small = lh <= _LOG_HUGE
    y = np.exp(lh[small])
    lengths[small] = 2.0 * np.arccosh(np.maximum(y, 1.0))
    flat = y <= 1.0 + 1e-14
    if np.any(flat):
        error = ValueError(f"word is elliptic or parabolic (|tr|/2 = {y.min()}): length below working precision")
        rows, cols = (i[flat] for i in np.nonzero(small))
        if not np.all(node[rows] < len(ints)):
            raise error
        # an integer slope of a point with a long alpha:
        # |tr|/2 = coth(l/2) cosh(u/2) rounds to 1, but |tr|/2 - 1 is
        # 2 coth(l/2) sinh^2(u/4) + 2/expm1(l), a sum of positive terms
        # (the second written so that no exponential overflows)
        l, u = lam[cols], ints[node[rows]] * lam[cols] + tau[cols]
        w = 2.0 * np.sinh(u / 4.0) ** 2 / np.tanh(l / 2.0) - 2.0 * np.exp(-l) / np.expm1(-l)
        if not np.all(w > 0.0):
            raise error
        lengths[rows, cols] = 2.0 * np.log1p(w + np.sqrt(w * (w + 2.0)))
    out = np.tile(np.log(lam), (len(slope_node), 1))
    out[slope_node >= 0] = np.log(lengths)
    return out


def curve_length(x: FNPoint, slope: Slope) -> float:
    """Length 2 arccosh(|tr W|/2) of the slope's curve word at the point x.

    The alpha-curve (slope infinity) is read off the coordinate l, as
    exp(log l) with relative error about eps |log l|, not off a trace,
    which would lose half the precision for very short curves.
    Raises as :func:`_log_lengths` does.
    """
    return math.exp(_log_lengths((x,), _plan((slope,)))[0, 0])


def candidate_slopes(max_q: int) -> list[Slope]:
    """Stern-Brocot slope family: every reduced p/q with q <= max_q and
    |p| <= max_q, plus the infinite slope.

    Families nest as max_q grows, so estimators built on them are
    monotone in max_q.
    """
    if max_q < 1:
        raise ValueError("max_q must be at least 1")
    out = {Slope(1, 0)}
    for q in range(1, max_q + 1):
        for p in range(-max_q, max_q + 1):
            if gcd(abs(p), q) == 1:
                out.add(Slope(p, q))
    return sorted(out, key=lambda s: (s.q, s.p))


def dth_estimate(x: FNPoint, y: FNPoint, max_q: int = 30, slopes: list[Slope] | None = None) -> float:
    """Lower estimate of the Thurston distance: max over the slope family
    of log(l_s(y)/l_s(x)).

    The family is ``candidate_slopes(max_q)`` unless ``slopes`` is given.  Monotone
    non-decreasing in max_q (the families nest).  This is a raw max-ratio
    report over a finite family; no additive marking constant is claimed
    and no exactness: the estimate certifies lower bounds only.
    """
    plan = _family(max_q)[1] if slopes is None else _plan(slopes)
    ll = _log_lengths((x, y), plan)
    return float(np.max(ll[:, 1] - ll[:, 0], initial=-math.inf))


def envelope_widths(y: FNPoint, t: float, max_q: int = 30) -> tuple[float, float]:
    """(d(YL, YR), d(YR, YL)) estimates between the backward stretch endpoints.

    One cell of :func:`envelope_cells`, which batches many cells.
    """
    return envelope_cells(((y, t),), max_q)[0]


def envelope_cells(cells: Sequence[tuple[FNPoint, float]], max_q: int = 30) -> list[tuple[float, float]]:
    """:func:`envelope_widths` of every (y, t) cell, in order.

    The backward stretch endpoints of all cells are the columns of
    :func:`_log_lengths` passes over the default slope family of
    :func:`dth_estimate`, in chunks of at most ``_CHUNK_NODE_COLUMNS``
    plan nodes times columns, so the working set stays bounded.  Each
    endpoint's lengths are shared by the two directions.  A chunk that
    fails is evaluated again cell by cell, so the error is the one its
    first failing cell raises on its own.
    """
    slopes, plan = _family(max_q)
    # the family's plan has one node per finite slope
    step = max(1, _CHUNK_NODE_COLUMNS // (2 * len(slopes)))
    out: list[tuple[float, float]] = []
    for i in range(0, len(cells), step):
        chunk = cells[i : i + step]
        try:
            ll = _log_lengths([p for y, t in chunk for p in _endpoints_signed(y, t)], plan)
        except (ValueError, ArithmeticError):
            ll = np.hstack([_log_lengths(_endpoints_signed(y, t), plan) for y, t in chunk])
        # the reverse direction is not the negated forward one, which
        # would give -0.0 where the endpoints coincide
        d_lr = np.max(ll[:, 1::2] - ll[:, 0::2], axis=0)
        d_rl = np.max(ll[:, 0::2] - ll[:, 1::2], axis=0)
        out.extend(zip(d_lr.tolist(), d_rl.tolist()))
    return out


def earthquake(x: FNPoint, t: float) -> FNPoint:
    """Earthquake along alpha: shift the twist by t, lengths unchanged."""
    return FNPoint(x.surface, x.lengths, (x.twists[0] + t,) + x.twists[1:])


def short_marking(x: FNPoint, max_q: int = 30) -> tuple[Slope, Slope]:
    """(beta, beta'): the shortest slope and the shortest slope crossing it.

    Ties are broken by smaller q, then smaller |p|, then positive p.
    """
    slopes, plan = _family(max_q)
    lengths = dict(zip(slopes, np.exp(_log_lengths((x,), plan)[:, 0]).tolist()))

    def pick(cands: list[Slope]) -> Slope:
        lmin = min(lengths[s] for s in cands)
        tied = [s for s in cands if lengths[s] <= lmin + 1e-12]
        return min(tied, key=lambda s: (s.q, abs(s.p), s.p < 0))

    beta = pick(slopes)
    dual = pick([s for s in slopes if s.intersection(beta) >= 1])
    return beta, dual


def stretch_endpoints(y: FNPoint, t: float) -> tuple[FNPoint, FNPoint]:
    """Backward stretch endpoints (left completion, right completion) at time t.

    Both have alpha-length l_alpha(y) e^{-t}; their twist gap is the
    closed-form twist width at l0 = l_alpha(y)/2.
    """
    if not t >= 0:
        raise ValueError("t must be non-negative")
    return _endpoints_signed(y, t)


def _endpoints_signed(y: FNPoint, t: float) -> tuple[FNPoint, FNPoint]:
    yl = stretch_point(y, left_spec(y.surface), t)
    yr = stretch_point(y, right_spec(y.surface), t)
    return yl, yr
