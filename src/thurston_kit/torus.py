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

Simple closed curves correspond to extended rationals p/q, each written
as the int pair (p, q) in lowest terms with q >= 0 (slope of B is
(0, 1), slope of A is infinity, (1, 0)); the curve word is conjugate to the
Christoffel block product prod_i diag(e^{u_i/2}, e^{-u_i/2}) B0, where
u_i = k_i l + tau and the cutting-sequence exponents k_i sum to p.  One
engine, :func:`_log_lengths`, sets each integer slope in closed form and
every other slope as M(left parent) M(right parent) over its Stern-Brocot
parents: one 2x2 product per slope, in at most max_q - 1 levels that are
vectorised over endpoints, each level one gather from a flat state and a
few array operations.  All entries are positive, so nothing cancels, and
a log scale keeps huge words in range.
The trace form tr W(a+b) = tr a tr b - tr W(a-b) is not used: it runs a
decaying recurrence forward and loses all digits at large twist.

The distance estimator is the maximum of log(l_s(Y)/l_s(X)) over a
finite Stern-Brocot slope family (every reduced slope with q <= max_q
and |p| <= max_q).  It is a lower bound for the sup over all simple
closed curves, monotone in max_q, and reports raw max ratios without
any additive constant.  The maximum is taken at infinity and the integer
slopes first, in a pass with no Farey level.  Simple-curve length
extends to a norm on R^2, so the ratio on each cone between n/1 and
(n + 1)/1 has an upper bound from those lengths alone: a chord over the
triangle inequality, against secants and the collar bound
(:func:`_cone_bounds`).  The integer slopes decide the maximum when every
cone's bound lies below it by ``_SLACK`` = 1e-12 in the log, far above
the lengths' float error; only the other pairs take the family pass.
The answer is the family maximum bit for bit either way, since a slope's
length has the same bits in every plan.  Envelope widths are batched:
:func:`envelope_widths` evaluates the backward stretch endpoints of many
(y, t) cells as the columns of shared passes, since a pass costs mostly
its fixed per-level overhead and little per column; a cell at t = 0 is
(0, 0) with no pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING

from .stretch import FNPoint, left_spec, right_spec, stretch_point

# numpy is imported where it is used, so importing this module loads none
if TYPE_CHECKING:
    import numpy as np
    _Plan = tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]

_LOG_HUGE = 30.0
#: log 1.5: an integer slope whose log half-trace is below it takes the
#: exact form of |tr|/2 - 1 in :func:`_log_lengths`
_LOG_NEAR_ONE = math.log(1.5)
#: node x column budget of one batched length pass, about 0.8 MB of
#: matrices (8 envelope cells at max_q = 30); larger batches save
#: little per column and grow the working set
_CHUNK_NODE_COLUMNS = 20_000


def _plan(slopes: Sequence[tuple[int, int]]) -> _Plan:
    """(ints, levels, slope_node): the evaluation order of slopes on the Farey graph.

    Nodes 0 .. len(ints) - 1 are the integer slopes ``ints``.  Every other
    node is the product of its Stern-Brocot parents, which have smaller
    denominators, one level per denominator 2, 3, ... in turn.  A level of
    n nodes is the 18 n row indices of its one gather from the state of
    :func:`_log_lengths`, five blocks of one row per node (m00, m01, m10,
    m11, log scale): [a_i0 | a_i1] of the left parents, [b_0j | b_1j] of
    the right ones, each for (i, j) = 00, 01, 10, 11, then [ls_left |
    ls_right].  ``slope_node[j]`` is the node of the j-th slope, -1 for
    infinity.  A malformed slope (module docstring) raises.
    """
    import numpy as np

    by_q: dict[int, set[int]] = {1: set()}
    for slope in slopes:
        # anything but a pair fails as (0, 0) does
        p, q = slope if isinstance(slope, tuple) and len(slope) == 2 else (0, 0)
        if not (isinstance(p, int) and isinstance(q, int) and q >= 0 and gcd(p, q) == 1 and (q or p == 1)):
            raise ValueError(f"slope {slope!r} is not an int pair (p, q) in lowest terms, q >= 0, infinity (1, 0)")
        if q:
            by_q.setdefault(q, set()).add(p)
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
    # the block and the parent (0 left, 1 right) of each of the 18 row groups of a gather
    block = np.array([0, 0, 2, 2, 1, 1, 3, 3, 0, 1, 0, 1, 2, 3, 2, 3, 4, 4])[:, None] * len(index)
    parent = np.array([0] * 8 + [1] * 8 + [0, 1])
    levels = tuple(
        (block + np.array([[index[parents[p, q][side]] for p in sorted(by_q[q])] for side in (0, 1)])[parent]).ravel()
        for q in dens[1:]
    )
    slope_node = np.array([index[p, q] if q else -1 for p, q in slopes], dtype=np.intp)
    return np.array(sorted(by_q[1]), dtype=float), levels, slope_node


@lru_cache(maxsize=8)
def _family(max_q: int) -> _Plan:
    """The plan of the default slope family :func:`candidate_slopes`, built on first use."""
    return _plan(candidate_slopes(max_q))


@lru_cache(maxsize=8)
def _integers(max_q: int) -> tuple[_Plan, np.ndarray]:
    """(plan, cones): the plan of the family's slope infinity and integer
    slopes -max_q .. max_q, seeds only and no Farey level, and the rows of
    n - 1, n, n + 1 and n + 2 in its lengths for each cone (n, n + 1) that
    holds a family slope, i.e. whose mediant (2n + 1)/2 is one."""
    import numpy as np

    n = np.array([n for n in range(-max_q, max_q) if max_q > 1 and abs(2 * n + 1) <= max_q], dtype=np.intp)
    return _plan([slope for slope in candidate_slopes(max_q) if slope[1] <= 1]), n + max_q + np.arange(4)[:, None]


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
    Fenchel-Nielsen point; slope infinity is log l.  Raises where a length
    overflows, or where a word's |trace|/2 rounds to within 1e-14 of 1, so
    its length is below working precision, except for integer slopes,
    whose |trace|/2 - 1 has an exact form, taken wherever |trace|/2 < 1.5.
    The first column that holds such a word names the error, so a batch
    fails as its first failing point does on its own."""
    import numpy as np

    ints, levels, slope_node = plan
    lam, tau, core = (np.array(v) for v in zip(*map(_seed, endpoints)))
    start = len(ints)
    size = start + sum(len(rows) for rows in levels) // 18
    state = np.empty((5, size, len(lam)))  # m00, m01, m10, m11 and the log scale (see _plan)
    flat, M, logscale = state.reshape(5 * size, len(lam)), state[:4].reshape(2, 2, size, len(lam)), state[4]
    # diag(e^{u/2}, e^{-u/2}) scaled by e^{-|u|/2}, so no exp overflows
    u = ints[:, None] * lam + tau
    rows = np.stack((np.exp(np.minimum(u, 0.0)), np.exp(-np.maximum(u, 0.0))))
    M[:, :, :start] = core.transpose(1, 2, 0)[:, :, None] * rows[:, None]
    logscale[:start] = np.abs(u) / 2.0
    # a log scale past the float range becomes inf, which the check below reports
    with np.errstate(over="ignore"):
        for rows in levels:
            n = len(rows) // 18
            gathered = flat.take(rows, axis=0)
            # a_i0 b_0j + a_i1 b_1j; every entry is positive, so the scale needs no abs
            prod = gathered[: 8 * n] * gathered[8 * n : 16 * n]
            prod = (prod[: 4 * n] + prod[4 * n :]).reshape(4, n, len(lam))
            scale = prod.max(axis=0)
            stop = start + n
            np.divide(prod, scale, out=state[:4, start:stop])
            np.add(gathered[16 * n : 17 * n] + gathered[17 * n :], np.log(scale), out=logscale[start:stop])
            start = stop
    node = slope_node[slope_node >= 0]
    with np.errstate(divide="ignore", over="ignore"):
        lh = logscale.take(node, axis=0) + np.log((state[0].take(node, axis=0) + state[3].take(node, axis=0)) / 2.0)
        # arccosh(y) = log(2y) - 1/(4y^2) - ...; the correction is below 1e-26
        lengths = 2.0 * (lh + math.log(2.0))
    ok = lengths < np.inf
    small = lh <= _LOG_HUGE
    lengths[small] = 2.0 * np.arccosh(np.maximum(np.exp(lh[small]), 1.0))
    # a short integer slope: |tr|/2 = coth(l/2) cosh(u/2) is near 1, where
    # arccosh keeps only about eps / (length^2 / 4) relative digits, but
    # |tr|/2 - 1 = 2 r^2 with r = hypot(sinh(u/4) / sqrt(tanh(l/2)),
    # e^{-l/2} / sqrt(1 - e^{-l})), whose second term stays normal up to
    # l = 1416 (e^{-l} does up to 708), and the length is 4 asinh(r); any
    # other word within 1e-14 of 1 fails
    rows, cols = np.nonzero(lh < _LOG_NEAR_ONE)
    if rows.size:
        exact = node[rows] < len(ints)
        ok[rows[~exact], cols[~exact]] = np.exp(lh[rows[~exact], cols[~exact]]) > 1.0 + 1e-14
        rows, cols = rows[exact], cols[exact]
        l, u = lam[cols], ints[node[rows]] * lam[cols] + tau[cols]
        r = np.hypot(np.sinh(u / 4.0) / np.sqrt(np.tanh(l / 2.0)), np.exp(-l / 2.0) / np.sqrt(-np.expm1(-l)))
        ok[rows, cols] = r > 0.0
        lengths[rows, cols] = 4.0 * np.arcsinh(r)
    if not ok.all():
        # the first column that holds a failing word names the error
        j = np.argmin(ok.all(axis=0))
        bad = ~ok[:, j]
        if not np.all(lengths[bad, j] < np.inf):
            raise ValueError("word evaluation overflowed")
        y = np.exp(lh[bad, j]).min()
        raise ValueError(f"word is elliptic or parabolic (|tr|/2 = {y}): length below working precision")
    out = np.tile(np.log(lam), (len(slope_node), 1))
    out[slope_node >= 0] = np.log(lengths)
    return out


def curve_length(x: FNPoint, slope: tuple[int, int]) -> float:
    """Length 2 arccosh(|tr W|/2) of the slope's curve word at the point x.

    The alpha-curve (slope infinity) is the coordinate l itself, exactly,
    not a trace, which would lose half the precision for very short
    curves.  Raises as :func:`_plan` and :func:`_log_lengths` do.
    """
    plan = _plan((slope,))
    if slope[1] == 0:
        return _seed(x)[0]
    return math.exp(_log_lengths((x,), plan)[0, 0])


def candidate_slopes(max_q: int) -> list[tuple[int, int]]:
    """Stern-Brocot slope family: the infinite slope (1, 0), then every
    reduced p/q with q <= max_q and |p| <= max_q, ordered by (q, p).

    Families nest as max_q grows, so estimators built on them are
    monotone in max_q.
    """
    if max_q < 1:
        raise ValueError("max_q must be at least 1")
    return [(1, 0)] + [(p, q) for q in range(1, max_q + 1) for p in range(-max_q, max_q + 1) if gcd(abs(p), q) == 1]


#: log-ratio margin below the integer maximum that every cone bound of a
#: column pair must clear before :func:`_family_max` skips the cones' slopes:
#: far above the engine's relative length error, measured at 1.8e-15 to
#: 3.5e-14 against a trace-recursion reference, so no skipped slope's float
#: ratio can reach the maximum
_SLACK = 1e-12


def _cone_bounds(ll: np.ndarray, pairs: np.ndarray, cones: np.ndarray) -> np.ndarray:
    """log of an upper bound, per column pair (i, j), on l_s(j) / l_s(i) over
    the family slopes s strictly between two integers, from the lengths ``ll``
    and the ``cones`` of :func:`_integers`.

    Simple-curve length extends to a norm N on R^2 (McShane-Rivin 1995).  At
    (n + s, 1), 0 <= s <= 1, in the cone between n/1 and (n + 1)/1:
    - N_j is at most the chord (1 - s) N_j(n) + s N_j(n + 1), by the
      triangle inequality;
    - N_i is at least each of three lines in s: the secant through n - 1 and
      n and the secant through n + 1 and n + 2, each extended into the cone
      (convexity), and the collar bound 2 asinh(1 / sinh(l_alpha / 2)) per
      crossing of alpha (Buser 1992, Thm 4.1.1).
    Where one line is the largest the ratio is monotone, so its maximum lies
    at s = 0, s = 1 or where two lines cross.  Each column is scaled by its
    longest integer slope, so nothing overflows.  The collar bound keeps the
    lower bound at or above zero; where it is zero the bound is +inf, or NaN
    where the chord is zero too, and either leaves the pair open.
    """
    import numpy as np

    lx, ly = ll[:, pairs[:, 0]], ll[:, pairs[:, 1]]
    top_x, top_y = lx[1:].max(axis=0), ly[1:].max(axis=0)
    x0, x1, x2, x3 = np.exp(lx[cones] - top_x)
    y1, y2 = np.exp(ly[cones[1:3]] - top_y)
    rise, fall = x1 - x0, x3 - x2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the lines a + b s: the two secants and the collar bound
        a, b = np.empty((2, 3) + x1.shape)
        a[0], a[1], a[2] = x1, x2 - fall, 2.0 * np.arcsinh(1.0 / np.sinh(np.exp(lx[0]) / 2.0)) * np.exp(-top_x)
        b[0], b[1], b[2] = rise, fall, 0.0
        # s at the cone's ends and where two lines cross; parallel lines (NaN) take an end
        s = np.empty((5,) + x1.shape)
        s[0], s[1] = 0.0, 1.0
        np.divide(a[1:] - a[0], b[0] - b[1:], out=s[2:4])
        np.divide(a[2] - a[1], b[1] - b[2], out=s[4])
        s = np.fmin(np.fmax(s, 0.0), 1.0)
        lower = (a[:, None] + b[:, None] * s).max(axis=0)
        ratio = (y1 + s * (y2 - y1)) / lower
        return np.log(ratio.max(axis=(0, 1), initial=0.0)) + top_y - top_x


def _family_max(points: Sequence[FNPoint], pairs: np.ndarray, max_q: int) -> np.ndarray:
    """max over ``candidate_slopes(max_q)`` of log(l_s(points[j]) / l_s(points[i]))
    for each column pair (i, j), a row of the int array ``pairs``.

    One :func:`_log_lengths` pass takes every column's lengths at infinity and
    the integer slopes.  A pair whose :func:`_cone_bounds` all fall below its
    integer maximum by ``_SLACK`` takes that maximum: no other family slope
    can reach it.  That needs the maximum at infinity or at an integer that
    ends no cone of family slopes.  The columns of the other pairs, in
    order, take one pass over the whole family.  Every slope's length has
    the same bits in either pass, so each maximum is the full family's, bit
    for bit.  An integer slope that fails raises from the first pass; a
    Farey slope fails only in the second, so only for an open pair.
    """
    import numpy as np

    plan, cones = _integers(max_q)
    ll = _log_lengths(points, plan)
    ratios = ll[:, pairs[:, 1]] - ll[:, pairs[:, 0]]
    best = ratios.max(axis=0)
    # a cone that ends at the integer argmax is bounded there by the maximum
    # itself, so it cannot close and its pair skips the bounds
    ends = np.zeros(len(ll), dtype=bool)
    ends[cones[1:3]] = True
    unsettled = ends[ratios.argmax(axis=0)]
    if not unsettled.all():
        rest = ~unsettled
        # a NaN bound leaves its pair open
        unsettled[rest] = ~(_cone_bounds(ll, pairs[rest], cones) <= best[rest] - _SLACK)
    if unsettled.any():
        columns = np.unique(pairs[unsettled])
        ll = _log_lengths([points[c] for c in columns], _family(max_q))
        i, j = np.searchsorted(columns, pairs[unsettled]).T
        best[unsettled] = np.max(ll[:, j] - ll[:, i], axis=0)
    return best


def dth_estimate(x: FNPoint, y: FNPoint, max_q: int) -> float:
    """Lower estimate of the Thurston distance: max over the slope family
    ``candidate_slopes(max_q)`` of log(l_s(y)/l_s(x)).

    Monotone non-decreasing in max_q (the families nest).  This is a raw max-ratio
    report over a finite family; no additive marking constant is claimed
    and no exactness: the estimate certifies lower bounds only.  The integer
    slopes decide it when every cone bound lies ``_SLACK`` = 1e-12 below
    their maximum in the log, a margin far above the lengths' float error
    (:func:`_family_max`).  Then no Farey word is evaluated, so one that
    fails raises only for an open pair: at x = (70, 35), where slope -1/2
    trips the elliptic guard, d(x, y) raises and d(y, x) does not.
    """
    import numpy as np

    return float(_family_max((x, y), np.array([[0, 1]]), max_q)[0])


def envelope_widths(cells: Sequence[tuple[FNPoint, float]], max_q: int) -> list[tuple[float, float]]:
    """(d(YL, YR), d(YR, YL)) estimates between the backward stretch
    endpoints of every (y, t) cell, in order.

    A cell with t = 0 on S11 is (0.0, 0.0), since d(Y, Y) = 0: it runs no
    stretch and no length pass, so it never fails.  The endpoints of the
    other cells are the columns of :func:`_family_max` over the default
    slope family of :func:`dth_estimate`, in chunks of at most
    ``_CHUNK_NODE_COLUMNS`` family nodes times columns, so the working set
    stays bounded; each endpoint's lengths serve both directions.  A chunk
    builds its endpoints in cell order, then takes the integer pass: a cell
    whose cone bounds in both directions lie ``_SLACK`` = 1e-12 below its
    integer maxima in the log, a margin far above the lengths' float error,
    takes those, and the others take one family pass (about 84% of the
    benchmark's cells need none at max_q = 30).  A stretch error of any
    cell of the chunk comes first, then an integer-slope error, then a
    Farey-slope error of an open cell; within a pass the first failing
    column names the error.  The CLI's cells are untwisted, where no
    length failure is known.
    """
    import numpy as np

    plan = _family(max_q)
    # slope_node has one entry per slope, and the family's plan one node per finite slope
    step = max(1, _CHUNK_NODE_COLUMNS // (2 * len(plan[2])))
    out = [(0.0, 0.0)] * len(cells)
    # a t = 0 cell off S11 still takes the pass, which rejects its surface
    live = [i for i, (y, t) in enumerate(cells) if t != 0.0 or y.surface != "S11"]
    for k in range(0, len(live), step):
        chunk = live[k : k + step]
        # (left, right) and (right, left) of each cell: the reverse direction is
        # not the negated forward one, which would give -0.0 where the endpoints coincide
        pairs = 2 * np.arange(len(chunk))[:, None, None] + [[0, 1], [1, 0]]
        widths = _family_max([p for i in chunk for p in _endpoints(*cells[i])], pairs.reshape(-1, 2), max_q)
        for i, d in zip(chunk, widths.reshape(-1, 2).tolist()):
            out[i] = tuple(d)
    return out


def earthquake(x: FNPoint, t: float) -> FNPoint:
    """Earthquake along alpha: shift the twist by t, lengths unchanged."""
    return FNPoint(x.surface, x.lengths, (x.twists[0] + t,) + x.twists[1:])


def _endpoints(y: FNPoint, t: float) -> tuple[FNPoint, FNPoint]:
    """Stretch endpoints (left, right completion) at time t, both of alpha-length
    l_alpha(y) e^{-t}; their twist gap is the closed-form twist width at l0 =
    l_alpha(y)/2, up to the digits the left offsets lose at long alpha."""
    return stretch_point(y, left_spec(y.surface), t), stretch_point(y, right_spec(y.surface), t)
