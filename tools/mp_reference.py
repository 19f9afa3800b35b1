"""The one home of 50-digit arithmetic for the tests and the tools.

    from mp_reference import SWAPPED, endpoints, log_lengths, mpf_point, scalars

with ``tools`` on ``sys.path`` and the package importable (``src`` on
``PYTHONPATH`` or installed).  ``scalars(dps)`` runs the pants, h2 and
stretch kernels at ``dps`` digits; ``mpf_point`` is the one way a float
point enters it; ``endpoints`` gives the backward stretch endpoints at
``dps`` digits; ``log_lengths`` is a length engine that shares no code
with ``thurston_kit.torus``: the Fricke trace recursion on the Markov
triples of the once-punctured torus (Bowditch, *Markoff triples and
quasifuchsian groups*, Proc. LMS 1998; Goldman, *Trace coordinates on
Fricke spaces of some simple hyperbolic surfaces*, 2009).  In float that
recursion loses its digits at large twist, so it runs only in mpmath.

Imports nothing from pytest, and mpmath only inside the functions.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable

from thurston_kit import h2, pants, stretch
from thurston_kit.stretch import FNPoint, left_spec, right_spec, stretch_point

#: the only names through which the pants, h2 and stretch kernels reach their scalar functions
SWAPPED = ((pants, "cmath"), (pants, "math"), (h2, "math"), (stretch, "math"))


@contextlib.contextmanager
def scalars(dps):
    """The pants, h2 and stretch kernels at ``dps`` significant digits; yields mpmath.

    mpmath stands in for the ``SWAPPED`` names inside ``mpmath.workdps(dps)``,
    and the names they held before come back on exit, so switches nest.  The
    kernels coerce no value to float or complex, so pass the lengths, twists
    and stretch times as ``mpmath.mpf`` and the closed forms, the complex
    step, the constructive oracle, the stretch vectors and the cube's cloud
    run unchanged at that precision.  A point given as floats loses digits
    before the first mpmath call (the shear sums add and halve its lengths
    in double), so convert it through :func:`mpf_point`: the 50-digit cloud
    at (17.81, 18.24, 19.70) from float inputs lies 5.4e-11 from the one
    built through it.  The oracle's fixed heights
    (``pants._fixed_heights``) keep the precision they were made at, so the
    cache is cleared on entry and on exit: no result depends on the
    precision of an earlier run.  Every precision change of the tests goes
    through this switch.
    """
    import mpmath

    saved = [getattr(module, name) for module, name in SWAPPED]
    pants._fixed_heights.cache_clear()
    try:
        for module, name in SWAPPED:
            setattr(module, name, mpmath)
        with mpmath.workdps(dps):
            yield mpmath
    finally:
        for (module, name), value in zip(SWAPPED, saved):
            setattr(module, name, value)
        pants._fixed_heights.cache_clear()


def mpf_point(x: FNPoint) -> FNPoint:
    """``x`` with ``mpmath.mpf`` lengths and twists, each an exact copy of its
    float (at mpmath's default 53 bits and at every higher precision)."""
    import mpmath

    return FNPoint(x.surface, tuple(map(mpmath.mpf, x.lengths)), tuple(map(mpmath.mpf, x.twists)))


def endpoints(y: FNPoint, t, dps: int) -> tuple[FNPoint, FNPoint]:
    """The endpoints of the left and the right stretch of ``y`` (S11 or S04)
    for the backward time ``t``, at ``dps`` digits: ``stretch_point`` at
    ``mpf_point(y)`` and ``mpf(t)`` under ``scalars(dps)``, which swaps
    ``stretch.math`` too."""
    with scalars(dps) as mpmath:
        x, s = mpf_point(y), mpmath.mpf(t)
        return stretch_point(x, left_spec(x.surface), s), stretch_point(x, right_spec(x.surface), s)


def _parents(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The Stern–Brocot parents a < p/q < b of p/q (q >= 2), with a ⊕ b = p/q,
    and a ⊖ b, each a reduced (p, q) with q >= 0 and infinity (1, 0)."""
    q1 = pow(p, -1, q)
    a = ((p * q1 - 1) // q, q1)
    b = (p - a[0], q - q1)
    d = (b[0] - a[0], b[1] - a[1]) if b[1] >= a[1] else (a[0] - b[0], a[1] - b[1])
    return a, b, (1, 0) if d[1] == 0 else d


def log_lengths(x: FNPoint, slopes: Iterable[tuple[int, int]], dps: int) -> list:
    """Log lengths of the reduced slopes ``(p, q)`` (q >= 0, infinity ``(1, 0)``)
    at the S11 point ``x``, as ``mpmath.mpf`` at ``dps`` digits.

    The traces x of the slopes follow the Markov relation
    x_a² + x_b² + x_{a⊕b}² = x_a x_b x_{a⊕b} of each Farey triangle: with
    l and τ taken exactly, x_∞ = 2 cosh(l/2) and x_{n/1} = 2 coth(l/2)
    cosh((n l + τ)/2), and a slope of denominator two or more has
    x_{a⊕b} = x_a x_b − x_{a⊖b} over its Stern–Brocot parents a and b.
    The slopes these reach are collected from the largest denominator down
    and evaluated from the smallest up, with no Python recursion.  The
    length is 2 arccosh(x/2), which keeps fewer digits as x/2 nears 1: a
    curve of length L needs about log10(1/L²) digits more.
    """
    import mpmath

    slopes = list(slopes)
    needed: dict[int, set[int]] = {}
    for p, q in slopes:
        needed.setdefault(q, set()).add(p)
    steps = {}
    for q in range(max(needed), 1, -1):
        for p in needed.get(q, ()):
            steps[p, q] = _parents(p, q)
            for r, s in steps[p, q]:
                needed.setdefault(s, set()).add(r)
    with mpmath.workdps(dps):
        l, tau = mpmath.mpf(x.lengths[0]), mpmath.mpf(x.twists[0])
        traces = {(1, 0): 2 * mpmath.cosh(l / 2)}
        coth = mpmath.coth(l / 2)
        for n in needed.get(1, ()):
            traces[n, 1] = 2 * coth * mpmath.cosh((n * l + tau) / 2)
        for q in range(2, max(needed) + 1):
            for p in needed.get(q, ()):
                a, b, d = steps[p, q]
                traces[p, q] = traces[a] * traces[b] - traces[d]
        return [mpmath.log(2 * mpmath.acosh(traces[slope] / 2)) for slope in slopes]
