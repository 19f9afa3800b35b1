"""Independent recomputation of one envelope cell.

The once-punctured torus curve of slope p/q has holonomy
prod_i A^{k_i} B with A = diag(e^{l/2}, e^{-l/2}) and
B = B0 diag(e^{tau/2}, e^{-tau/2}), where B0 is the symmetric hyperbolic
with cosh(l_B/2) = coth(l/2) and k_i is the cutting sequence of p/q.
This module evaluates that word as a plain 2x2 block product with a
running log scale.  It shares no code with ``thurston_kit.torus``: only
the stretch endpoints come from the program, through ``stretch``.
"""

from __future__ import annotations

import math

from thurston_kit.stretch import FNPoint, left_spec, right_spec, stretch_point


def slope_family(max_q: int) -> list[tuple[int, int]]:
    """Every reduced p/q with 1 <= q <= max_q and |p| <= max_q, plus 1/0."""
    out = [(1, 0)]
    for q in range(1, max_q + 1):
        out.extend((p, q) for p in range(-max_q, max_q + 1) if math.gcd(p, q) == 1)
    return out


def log_length(l: float, tau: float, p: int, q: int) -> float:
    """log of the translation length of the slope p/q curve at (l, tau)."""
    if q == 0:
        return math.log(l)
    cb = math.cosh(l / 2.0) / math.sinh(l / 2.0)
    sb = 1.0 / math.sinh(l / 2.0)
    e = math.exp(tau / 2.0)
    # B = B0 diag(e, 1/e)
    b00, b01, b10, b11 = cb * e, sb / e, sb * e, cb / e
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    logscale = 0.0
    for i in range(1, q + 1):
        k = (i * p) // q - ((i - 1) * p) // q
        a = math.exp(k * l / 2.0)
        # block A^k B = diag(a, 1/a) B
        x00, x01, x10, x11 = a * b00, a * b01, b10 / a, b11 / a
        m00, m01, m10, m11 = (
            m00 * x00 + m01 * x10,
            m00 * x01 + m01 * x11,
            m10 * x00 + m11 * x10,
            m10 * x01 + m11 * x11,
        )
        s = max(abs(m00), abs(m01), abs(m10), abs(m11))
        m00, m01, m10, m11 = m00 / s, m01 / s, m10 / s, m11 / s
        logscale += math.log(s)
    log_half_trace = logscale + math.log(abs(m00 + m11) / 2.0)
    if log_half_trace > 30.0:
        return math.log(2.0 * (log_half_trace + math.log(2.0)))
    return math.log(2.0 * math.acosh(math.exp(log_half_trace)))


def envelope_cell(l0: float, t: float, max_q: int) -> tuple[float, float]:
    """(d_lr, d_rl) for the cell (l0, t): max log length ratios between the
    backward left and right stretch endpoints of (2 l0, 0)."""
    y = FNPoint("S11", (2.0 * l0,), (0.0,))
    yl = stretch_point(y, left_spec("S11"), t)
    yr = stretch_point(y, right_spec("S11"), t)
    d_lr = d_rl = -math.inf
    for p, q in slope_family(max_q):
        a = log_length(yl.lengths[0], yl.twists[0], p, q)
        b = log_length(yr.lengths[0], yr.twists[0], p, q)
        d_lr = max(d_lr, b - a)
        d_rl = max(d_rl, a - b)
    return d_lr, d_rl
