"""Upper half-plane hyperbolic geometry kernel.

Every value is a scalar (a float, or an mpmath number) or a tuple:

* An interior point is a pair ``(x, y)`` with ``y > 0``.
* An ideal boundary point is a canonical scalar: ``math.inf`` is the
  single point at infinity (``-inf`` is the same ideal point and
  :func:`ideal` canonicalizes it to ``+inf``), and NaN is rejected.
* A geodesic is its two distinct ideal endpoints, passed as two
  arguments; their order is its orientation.  Signed distances along a
  geodesic are positive in the direction of the orientation.
* An ideal triangle is a 3-tuple of distinct canonical vertices
  ``(v1, v2, v3)``; its edges 1, 2, 3 are (v1,v2), (v2,v3), (v3,v1).
* An orientation-preserving isometry is a 4-tuple ``(a, b, c, d)``
  acting by z -> (a z + b) / (c z + d), normalized to determinant one
  by dividing every entry by ``sqrt(a d - b c)``.

The functions take validated inputs and validate everything they
construct.  There is no wrapper layer: the constructive oracle in
:mod:`pants` calls these functions.

A shear is computed in two halves, one per triangle, once both are
snapped to the geodesic's endpoints and mapped to the standard axis:
:func:`_far_height` checks that the triangle at the far end lies on the
right of the axis and returns the median height on its edge through the
nearer finite vertex, and :func:`_near_height` calls it on the other
triangle in the flipped frame z -> -1/z.  The
shear is the log ratio of the two heights, so a caller whose one triangle
stays fixed (the oracle's gap solve) computes that half once.

Every operation is a pure function on immutable values, so concurrent
use needs no synchronization.
"""

from __future__ import annotations

import math  # the only scalar namespace: no "from math import", no float()/complex() coercion, so mpmath can stand in

INF = math.inf

#: default absolute tolerance for scalar comparisons
DEFAULT_TOL = 1e-9


class GeometryError(ValueError):
    """Raised when an operation's geometric preconditions fail."""


def ideal(p: float) -> float:
    """Canonicalize an ideal point (both ends of the real axis are one point)."""
    if math.isnan(p):
        raise GeometryError("ideal point is NaN")
    return INF if math.isinf(p) else p


def _upper(x: float, y: float) -> tuple[float, float]:
    if not y > 0:
        raise GeometryError(f"point ({x}, {y}) not in the upper half-plane")
    return x, y


def _geodesic(a: float, b: float) -> tuple[float, float]:
    a, b = ideal(a), ideal(b)
    if a == b:
        raise GeometryError("geodesic endpoints coincide")
    return a, b


def _distinct(v1: float, v2: float, v3: float) -> tuple[float, float, float]:
    """Vertex tuple of canonical ideal points, which must be distinct."""
    if v1 == v2 or v2 == v3 or v1 == v3:
        raise GeometryError("ideal triangle has repeated vertices")
    return v1, v2, v3


def _triangle(v1: float, v2: float, v3: float) -> tuple[float, float, float]:
    return _distinct(ideal(v1), ideal(v2), ideal(v3))


def _edge(v: tuple, index: int) -> tuple[float, float]:
    """Edge ``index`` in 1..3 of a vertex tuple: (v1,v2), (v2,v3), (v3,v1)."""
    if index not in (1, 2, 3):
        raise GeometryError(f"edge index {index} not in 1..3")
    return v[index - 1], v[index % 3]


def _mobius(a: float, b: float, c: float, d: float) -> tuple:
    det = a * d - b * c
    if not det > 0:
        raise GeometryError(f"Mobius matrix determinant {det} is not positive")
    s = math.sqrt(det)
    return a / s, b / s, c / s, d / s


def _inverse(m: tuple) -> tuple:
    a, b, c, d = m
    return _mobius(d, -b, -c, a)


def _compose(m: tuple, n: tuple) -> tuple:
    a, b, c, d = m
    e, f, g, h = n
    return _mobius(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mobius_apply(m: tuple, t: float) -> float:
    """Apply the fractional linear action of ``m`` to the canonical ideal
    point ``t``.

    The image is an ideal point, canonicalized as by :func:`ideal` (NaN
    raises, -inf becomes inf), with the pole of the map sent to infinity.
    Interior points are moved by :func:`_apply_point`.
    """
    a, b, c, d = m
    if t == INF:
        if c == 0.0:
            return INF
        p = a / c
    else:
        den = c * t + d
        if den == 0.0:
            return INF
        p = (a * t + b) / den
    if p != p:
        raise GeometryError("ideal point is NaN")
    return INF if p == INF or p == -INF else p


def _apply_point(m: tuple, x: float, y: float) -> tuple[float, float]:
    a, b, c, d = m
    z = x + 1j * _upper(x, y)[1]
    w = (a * z + b) / (c * z + d)
    return _upper(w.real, w.imag)


def _apply_triangle(m: tuple, v: tuple) -> tuple[float, float, float]:
    return _distinct(mobius_apply(m, v[0]), mobius_apply(m, v[1]), mobius_apply(m, v[2]))


def _to_standard(a: float, b: float) -> tuple:
    """Map sending the endpoints a -> 0 and b -> infinity.

    The image of the geodesic (a, b) is the imaginary axis oriented upward.
    """
    if a == INF:
        return _mobius(0.0, -1.0, 1.0, -b)
    if b == INF:
        return _mobius(1.0, -a, 0.0, 1.0)
    s = 1.0 if a > b else -1.0
    return _mobius(s, -s * a, 1.0, -b)


#: z -> -1/z
_FLIP = _mobius(0.0, -1.0, 1.0, 0.0)


def triangle_median(v: tuple, edge: int) -> tuple[float, float]:
    """Tangency point ``(x, y)`` of the incircle of the ideal triangle ``v``
    on its edge ``edge`` in 1..3.

    The edge is normalized to the imaginary axis; in that frame the
    triangle is (0, w, inf) and the incircle touches the axis at height
    |w|, which is mapped back.  Mobius equivariance is automatic.
    """
    ga, gb = _edge(v, edge)
    # the vertex off the edge (the vertices are distinct)
    w = v[(edge + 1) % 3]
    m = _to_standard(ga, gb)
    w_std = mobius_apply(m, w)
    if w_std == INF or w_std == 0.0:
        raise GeometryError("degenerate triangle")
    return _apply_point(_inverse(m), 0.0, abs(w_std))


def _snap_vertex(v: tuple, target: float) -> tuple[float, float, float]:
    """Replace the vertex of ``v`` nearest ``target`` by ``target`` exactly.

    Incidence of constructed configurations is only float-accurate; the
    vertex is required to be within ``DEFAULT_TOL`` and then made exact so that
    downstream normalizations send it to 0 or infinity without roundoff.
    """
    if target == INF:
        if INF not in v:
            raise GeometryError("geodesic endpoint is not a vertex of the triangle")
        return v
    dists = [abs(u - target) if u != INF else INF for u in v]
    i = dists.index(min(dists))
    if not dists[i] <= DEFAULT_TOL:
        raise GeometryError("geodesic endpoint is not a vertex of the triangle")
    vs = list(v)
    vs[i] = target
    return _distinct(*vs)


def _to_axis(m: tuple, v: tuple, ga: float, gb: float) -> tuple[float, float, float]:
    """Image of the triangle ``v`` under ``m = _to_standard(ga, gb)``.

    Vertices equal to ``ga`` or ``gb`` go to 0 and infinity exactly; the
    normalized matrix alone can leave them off by a rounding error when
    both endpoints are finite.
    """
    return _distinct(*[0.0 if u == ga else INF if u == gb else mobius_apply(m, u) for u in v])


def _far_height(s: tuple) -> float:
    """Median height of the far half of a shear: the triangle ``s``, snapped
    and mapped to the axis, with its distinguished vertex at infinity.

    It must lie on the right of the upward axis (shared vertex at 0
    allowed).  The median on the vertical edge through the nearer, smaller
    finite vertex is carried to the axis by the parabolic z -> z - near
    fixing infinity, which keeps its height.
    """
    fin = [u for u in s if u != INF]
    if len(fin) != 2 or min(fin) < 0.0:
        raise GeometryError("g does not separate the triangles with t1 on the left")
    k = s.index(INF)
    # edge k + 1 runs from infinity to s[k - 2], edge (k + 2) % 3 + 1 from s[k - 1] to infinity
    return triangle_median(s, k + 1 if s[k - 2] < s[k - 1] else (k + 2) % 3 + 1)[1]


def _near_height(s: tuple) -> float:
    """Median height of the near half of a shear: the triangle ``s``, snapped
    and mapped to the axis, with its distinguished vertex at 0.

    The frame is flipped (z -> -1/z) so that vertex is at infinity; a
    left-side triangle lands on the right of the flipped axis, and its
    height h there is 1/h in the axis frame.
    """
    return 1.0 / _far_height(_apply_triangle(_FLIP, s))


def shear(v1: tuple, v2: tuple, ga: float, gb: float) -> float:
    """Signed shear between the ideal triangles ``v1`` and ``v2`` across the
    geodesic from ``ga`` to ``gb``.

    The geodesic must run from a vertex of ``v1`` to a vertex of ``v2``
    (within ``DEFAULT_TOL``) and separate the two interiors, with ``v1`` on
    its left.  For each triangle the incircle median on the edge facing
    the geodesic is moved onto it by the parabolic isometry fixing the
    shared ideal vertex, and the result is the signed distance between the
    two transported points (positive in the direction of the geodesic).
    """
    v1 = _snap_vertex(v1, ga)
    v2 = _snap_vertex(v2, gb)
    m = _to_standard(ga, gb)
    s1 = _to_axis(m, v1, ga, gb)
    s2 = _to_axis(m, v2, ga, gb)
    return math.log(_far_height(s2)) - math.log(_near_height(s1))


def orthofoot(a1: float, b1: float, a2: float, b2: float) -> tuple[float, float]:
    """Foot ``(x, y)`` on the geodesic (a1, b1) of the common perpendicular
    to the geodesic (a2, b2).

    In the frame where the first geodesic is the standard axis, the second
    spans (a, b) and the perpendicular is the circle about 0 orthogonal to
    it, of radius sqrt(a*b).  Intersecting or asymptotic inputs are
    rejected.
    """
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        raise GeometryError("geodesics share an ideal endpoint")
    m = _to_standard(a1, b1)
    a = mobius_apply(m, a2)
    b = mobius_apply(m, b2)
    if a == INF or b == INF:
        raise GeometryError("geodesics intersect (image endpoint at infinity)")
    if a * b <= 0.0:
        raise GeometryError("geodesics intersect")
    return _apply_point(_inverse(m), 0.0, math.sqrt(a * b))


def orthofoot_to_ideal(a1: float, b1: float, p: float) -> tuple[float, float]:
    """Foot ``(x, y)`` on the geodesic (a1, b1) of the perpendicular
    geodesic landing at the canonical ideal point ``p``.

    This is the degenerate (parabolic) limit of :func:`orthofoot` where the
    second geodesic collapses to a boundary point.
    """
    if p == a1 or p == b1:
        raise GeometryError("ideal point is an endpoint of the geodesic")
    m = _to_standard(a1, b1)
    a = mobius_apply(m, p)
    if a == INF:
        raise GeometryError("ideal point is an endpoint of the geodesic")
    # the perpendicular through the ideal point a is the half-circle |z| = |a|
    return _apply_point(_inverse(m), 0.0, abs(a))


def axis_translation(a: float, b: float, length: float) -> tuple:
    """Hyperbolic isometry with axis the geodesic (a, b), translating by
    ``length`` along it in the direction of its orientation."""
    if not length > 0:
        raise GeometryError("translation length must be positive")
    m = _to_standard(a, b)
    t = _mobius(math.exp(length / 2.0), 0.0, 0.0, math.exp(-length / 2.0))
    return _compose(_compose(_inverse(m), t), m)
