"""Upper half-plane hyperbolic geometry kernel.

Conventions used throughout:

* Interior points are pairs ``(x, y)`` with ``y > 0``.
* Ideal boundary points are plain floats; ``math.inf`` is the single
  point at infinity (``-inf`` is the same ideal point and is normalized
  to ``+inf`` on construction).
* A :class:`Geodesic` is an ordered pair of distinct ideal endpoints;
  the order is its orientation.  Signed distances along a geodesic are
  positive in the direction of the orientation.
* Orientation-preserving isometries are 2x2 real matrices of positive
  determinant acting by fractional linear transformations, stored
  normalized to determinant one.

Each operation is implemented once, by a private function on plain
floats and tuples: an ideal point is a canonical float, an interior
point is ``(x, y)``, a geodesic is its two endpoints passed as two
arguments, an ideal triangle is a 3-tuple of distinct canonical
vertices, and an isometry is a 4-tuple ``(a, b, c, d)`` normalized to
determinant one by dividing every entry by ``sqrt(a d - b c)``.  These
functions take validated inputs and validate everything they construct,
with the same checks and messages as the dataclasses.  The public
functions take the dataclasses (validated on construction) and call
them; hot loops such as the constructive oracle in :mod:`pants` call
them directly.

A shear is computed in two halves, one per triangle, once both are
snapped to the geodesic's endpoints and mapped to the standard axis:
:func:`_far_height` checks that the triangle at the far end lies on the
right of the axis and returns its median height, and :func:`_near_height`
does the same for the other triangle in the flipped frame z -> -1/z.  The
shear is the log ratio of the two heights, so a caller whose one triangle
stays fixed (the oracle's gap solve) computes that half once.
:func:`_apply_ideal`, the innermost call of the oracle, canonicalizes its
image inline as :func:`ideal` does: NaN raises and -inf becomes inf.

Everything here is an immutable value and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

#: default absolute tolerance for scalar comparisons
DEFAULT_TOL = 1e-9

#: determinant normalization tolerance for isometry matrices
DET_TOL = 1e-12


class GeometryError(ValueError):
    """Raised when an operation's geometric preconditions fail."""


def ideal(p: float) -> float:
    """Canonicalize an ideal point (both ends of the real axis are one point)."""
    if math.isnan(p):
        raise GeometryError("ideal point is NaN")
    return INF if math.isinf(p) else float(p)


# ---------------------------------------------------------------------------
# flat kernel
# ---------------------------------------------------------------------------


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


def _apply_ideal(m: tuple, t: float) -> float:
    """Image of the canonical ideal point ``t``, canonicalized as by :func:`ideal`;
    the pole goes to infinity."""
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
    z = complex(*_upper(x, y))
    w = (a * z + b) / (c * z + d)
    return _upper(w.real, w.imag)


def _apply_triangle(m: tuple, v: tuple) -> tuple[float, float, float]:
    return _distinct(_apply_ideal(m, v[0]), _apply_ideal(m, v[1]), _apply_ideal(m, v[2]))


def _to_standard(a: float, b: float) -> tuple:
    """Map sending the endpoints a -> 0 and b -> infinity."""
    if a == INF:
        return _mobius(0.0, -1.0, 1.0, -b)
    if b == INF:
        return _mobius(1.0, -a, 0.0, 1.0)
    s = 1.0 if a > b else -1.0
    return _mobius(s, -s * a, 1.0, -b)


#: z -> -1/z
_FLIP = _mobius(0.0, -1.0, 1.0, 0.0)


def _triangle_median(v: tuple, edge: int) -> tuple[float, float]:
    ga, gb = _edge(v, edge)
    # the vertex off the edge (the vertices are distinct)
    w = v[(edge + 1) % 3]
    m = _to_standard(ga, gb)
    w_std = _apply_ideal(m, w)
    if w_std == INF or w_std == 0.0:
        raise GeometryError("degenerate triangle")
    return _apply_point(_inverse(m), 0.0, abs(w_std))


def _median_height_toward_axis(v: tuple) -> float:
    """Height on the standard axis of the parabolic transport of the median.

    The triangle ``v`` has one vertex at infinity and two finite vertices
    on one side of 0 (0 itself allowed as a shared vertex).  The median on
    the vertical edge nearest the axis is carried to the axis by the
    parabolic z -> z - near fixing infinity, which keeps its height.
    """
    if v.count(INF) != 1:
        raise GeometryError("triangle must have exactly one vertex at infinity here")
    k = v.index(INF)
    # the finite vertices after infinity in cyclic order: edge k + 1 runs
    # from infinity to ``nxt``, edge (k + 2) % 3 + 1 from ``prv`` to infinity
    nxt, prv = v[k - 2], v[k - 1]
    lo, hi = (nxt, prv) if nxt < prv else (prv, nxt)
    if lo < 0.0 < hi:
        raise GeometryError("geodesic does not separate the triangle interiors")
    near = hi if hi <= 0.0 else lo
    return _triangle_median(v, k + 1 if near == nxt else (k + 2) % 3 + 1)[1]


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
    return _distinct(*[0.0 if u == ga else INF if u == gb else _apply_ideal(m, u) for u in v])


def _far_height(s: tuple) -> float:
    """Median height of the far half of a shear: the triangle ``s``, snapped
    and mapped to the axis, with its distinguished vertex at infinity.

    It must lie on the right of the upward axis (shared vertex at 0
    allowed).
    """
    fin = [u for u in s if u != INF]
    if len(fin) != 2 or min(fin) < 0.0:
        raise GeometryError("g does not separate the triangles with t1 on the left")
    return _median_height_toward_axis(s)


def _near_height(s: tuple) -> float:
    """Median height of the near half of a shear: the triangle ``s``, snapped
    and mapped to the axis, with its distinguished vertex at 0.

    The frame is flipped (z -> -1/z) so that vertex is at infinity; a
    left-side triangle lands on the right of the flipped axis, and its
    height h there is 1/h in the axis frame.
    """
    return 1.0 / _far_height(_apply_triangle(_FLIP, s))


def _shear(v1: tuple, v2: tuple, ga: float, gb: float) -> float:
    v1 = _snap_vertex(v1, ga)
    v2 = _snap_vertex(v2, gb)
    m = _to_standard(ga, gb)
    s1 = _to_axis(m, v1, ga, gb)
    s2 = _to_axis(m, v2, ga, gb)
    return math.log(_far_height(s2)) - math.log(_near_height(s1))


def _orthofoot(a1: float, b1: float, a2: float, b2: float) -> tuple[float, float]:
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        raise GeometryError("geodesics share an ideal endpoint")
    m = _to_standard(a1, b1)
    a = _apply_ideal(m, a2)
    b = _apply_ideal(m, b2)
    if a == INF or b == INF:
        raise GeometryError("geodesics intersect (image endpoint at infinity)")
    if a * b <= 0.0:
        raise GeometryError("geodesics intersect")
    return _apply_point(_inverse(m), 0.0, math.sqrt(a * b))


def _orthofoot_to_ideal(a1: float, b1: float, p: float) -> tuple[float, float]:
    if p == a1 or p == b1:
        raise GeometryError("ideal point is an endpoint of the geodesic")
    m = _to_standard(a1, b1)
    a = _apply_ideal(m, p)
    if a == INF:
        raise GeometryError("ideal point is an endpoint of the geodesic")
    # the perpendicular through the ideal point a is the half-circle |z| = |a|
    return _apply_point(_inverse(m), 0.0, abs(a))


def _axis_translation(a: float, b: float, length: float) -> tuple:
    if not length > 0:
        raise GeometryError("translation length must be positive")
    m = _to_standard(a, b)
    t = _mobius(math.exp(length / 2.0), 0.0, 0.0, math.exp(-length / 2.0))
    return _compose(_compose(_inverse(m), t), m)


# ---------------------------------------------------------------------------
# public values and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class H2Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        _upper(self.x, self.y)


@dataclass(frozen=True, slots=True)
class Geodesic:
    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = _geodesic(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def reversed(self) -> "Geodesic":
        return Geodesic(self.b, self.a)


@dataclass(frozen=True, slots=True)
class IdealTriangle:
    v1: float
    v2: float
    v3: float

    def __post_init__(self) -> None:
        v1, v2, v3 = _triangle(self.v1, self.v2, self.v3)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "v3", v3)

    @property
    def vertices(self) -> tuple[float, float, float]:
        return (self.v1, self.v2, self.v3)

    def edge(self, index: int) -> Geodesic:
        """Edge ``index`` in 1..3: (v1,v2), (v2,v3), (v3,v1)."""
        return Geodesic(*_edge(self.vertices, index))


@dataclass(frozen=True, slots=True)
class Circle:
    """Euclidean circle data (used for incircles and horocycles)."""

    cx: float
    cy: float
    r: float

    def __post_init__(self) -> None:
        if not self.r > 0:
            raise GeometryError("circle radius must be positive")


@dataclass(frozen=True, slots=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d) with a d - b c = 1 after normalization."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name, value in zip("abcd", _mobius(self.a, self.b, self.c, self.d)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, m: tuple) -> "MobiusMap":
        """Wrap a normalized kernel tuple as it is (no second normalization)."""
        out = object.__new__(cls)
        for name, value in zip("abcd", m):
            object.__setattr__(out, name, value)
        return out

    def _tuple(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1.0, 0.0, 0.0, 1.0)

    def inverse(self) -> "MobiusMap":
        return MobiusMap._of(_inverse(self._tuple()))

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap._of(_compose(self._tuple(), other._tuple()))

    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __call__(self, p):
        return mobius_apply(self, p)


def mobius_apply(m: MobiusMap, p):
    """Apply the fractional linear action to an interior or ideal point.

    Interior points map to interior points; ideal points map to ideal
    points, with the pole of the map sent to infinity.
    """
    if isinstance(p, H2Point):
        return H2Point(*_apply_point(m._tuple(), p.x, p.y))
    return _apply_ideal(m._tuple(), ideal(p))


def mobius_apply_geodesic(m: MobiusMap, g: Geodesic) -> Geodesic:
    return Geodesic(mobius_apply(m, g.a), mobius_apply(m, g.b))


def mobius_apply_triangle(m: MobiusMap, t: IdealTriangle) -> IdealTriangle:
    return IdealTriangle(*_apply_triangle(m._tuple(), t.vertices))


def geodesic_to_standard(g: Geodesic) -> MobiusMap:
    """Orientation-preserving map sending g.a -> 0 and g.b -> infinity.

    The image geodesic is the imaginary axis oriented upward.
    """
    return MobiusMap._of(_to_standard(g.a, g.b))


def triangle_median(t: IdealTriangle, edge: int) -> H2Point:
    """Tangency point of the incircle of ``t`` on the chosen edge.

    The edge is normalized to the imaginary axis; in that frame the
    triangle is (0, w, inf) and the incircle touches the axis at height
    |w|, which is mapped back.  Mobius equivariance is automatic.
    """
    return H2Point(*_triangle_median(t.vertices, edge))


def incircle(t: IdealTriangle) -> Circle:
    """Incircle of an ideal triangle as a Euclidean circle.

    Fitted through the three medians; a Mobius image of a circle inside
    the half-plane is again a Euclidean circle.
    """
    p1 = triangle_median(t, 1)
    p2 = triangle_median(t, 2)
    p3 = triangle_median(t, 3)
    return circle_through(p1, p2, p3)


def circle_through(p1: H2Point, p2: H2Point, p3: H2Point) -> Circle:
    ax, ay = p1.x, p1.y
    bx, by = p2.x, p2.y
    cx, cy = p3.x, p3.y
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise GeometryError("collinear points do not define a circle")
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    return Circle(ux, uy, math.hypot(ax - ux, ay - uy))


def shear(t1: IdealTriangle, t2: IdealTriangle, g: Geodesic) -> float:
    """Signed shear between two ideal triangles across an oriented geodesic.

    ``g`` must run from a vertex of ``t1`` to a vertex of ``t2`` (within
    ``DEFAULT_TOL``) and separate the two interiors, with ``t1`` on the left of
    ``g``.  For each triangle the incircle median on the edge facing ``g``
    is moved onto ``g`` by the parabolic isometry fixing the shared ideal
    vertex, and the result is the signed distance between the two
    transported points (positive in the direction of ``g``).
    """
    return _shear(t1.vertices, t2.vertices, g.a, g.b)


def orthofoot(g1: Geodesic, g2: Geodesic) -> H2Point:
    """Foot on ``g1`` of the common perpendicular between ``g1`` and ``g2``.

    In the frame where ``g1`` is the standard axis, ``g2`` spans (a, b)
    and the perpendicular is the circle about 0 orthogonal to it, of
    radius sqrt(a*b).  Intersecting or asymptotic inputs are rejected.
    """
    return H2Point(*_orthofoot(g1.a, g1.b, g2.a, g2.b))


def orthofoot_to_ideal(g1: Geodesic, p: float) -> H2Point:
    """Foot on ``g1`` of the perpendicular geodesic landing at the ideal point ``p``.

    This is the degenerate (parabolic) limit of :func:`orthofoot` where the
    second geodesic collapses to a boundary point.
    """
    return H2Point(*_orthofoot_to_ideal(g1.a, g1.b, ideal(p)))


def axis_translation(g: Geodesic, length: float) -> MobiusMap:
    """Hyperbolic isometry with axis ``g`` translating by ``length`` along it.

    Translation is in the direction of the orientation of ``g``.
    """
    return MobiusMap._of(_axis_translation(g.a, g.b, length))


def signed_distance_along(g: Geodesic, p: H2Point, q: H2Point) -> float:
    """Signed distance from ``p`` to ``q`` along ``g`` (both on ``g``),
    positive in the direction of orientation."""
    m = geodesic_to_standard(g)
    hp = mobius_apply(m, p).y
    hq = mobius_apply(m, q).y
    return math.log(hq) - math.log(hp)


def point_distance(p: H2Point, q: H2Point) -> float:
    """Hyperbolic distance between interior points."""
    dx = p.x - q.x
    num = dx * dx + (p.y - q.y) ** 2
    arg = 1.0 + num / (2.0 * p.y * q.y)
    return math.acosh(arg if arg > 1.0 else 1.0)


def maps_equal(m1: MobiusMap, m2: MobiusMap, tol: float = DEFAULT_TOL) -> bool:
    """Equality of isometries as maps (determinant-one matrices up to sign)."""
    same = all(abs(x - y) <= tol for x, y in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c), (m1.d, m2.d)))
    opp = all(abs(x + y) <= tol for x, y in ((m1.a, m2.a), (m1.b, m2.b), (m1.c, m2.c), (m1.d, m2.d)))
    return same or opp
