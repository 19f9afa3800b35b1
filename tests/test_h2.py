"""Tests for the upper half-plane kernel."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from thurston_kit import h2
from thurston_kit.h2 import (
    INF,
    GeometryError,
    axis_translation,
    ideal,
    mobius_apply,
    orthofoot,
    orthofoot_to_ideal,
    shear,
    triangle_median,
    _apply_point,
    _apply_triangle,
    _compose,
    _edge,
    _far_height,
    _geodesic,
    _inverse,
    _mobius,
    _to_standard,
    _triangle,
)

IDENTITY = _mobius(1.0, 0.0, 0.0, 1.0)


def random_mobius(rng) -> tuple:
    while True:
        a, b, c, d = rng.uniform(-2.0, 2.0, 4)
        if a * d - b * c > 0.1:
            return _mobius(a, b, c, d)


def det(m: tuple) -> float:
    a, b, c, d = m
    return a * d - b * c


def maps_equal(m1: tuple, m2: tuple, tol: float) -> bool:
    """Equality of isometries as maps (determinant-one matrices up to sign)."""
    return all(abs(x - y) <= tol for x, y in zip(m1, m2)) or all(abs(x + y) <= tol for x, y in zip(m1, m2))


def apply_geodesic(m: tuple, g: tuple) -> tuple[float, float]:
    return _geodesic(mobius_apply(m, g[0]), mobius_apply(m, g[1]))


# ---------------------------------------------------------------- mobius


def test_mobius_identity_fixes_point():
    assert _apply_point(IDENTITY, 0.0, 1.0) == (0.0, 1.0)


def test_mobius_scaling_on_ideal_point():
    m = _mobius(2.0, 0.0, 0.0, 1.0)  # z -> 2z
    assert mobius_apply(m, 3.0) == 6.0


def test_paper_normalizing_map_sends_gap_to_standard_axis():
    # z -> (x - z)/(z - (x+1)) carries x to 0 and has its pole at x + 1
    x = -4.0
    m = _mobius(-1.0, x, 1.0, -(x + 1.0))
    assert mobius_apply(m, x) == 0.0
    assert mobius_apply(m, x + 1.0) == INF
    assert mobius_apply(m, INF) == -1.0


def test_mobius_preserves_half_plane_and_ideal_boundary():
    rng = np.random.RandomState(3)
    for _ in range(50):
        m = random_mobius(rng)
        _, y = _apply_point(m, rng.uniform(-5, 5), rng.uniform(0.1, 5))
        assert y > 0
        assert isinstance(mobius_apply(m, ideal(rng.uniform(-5, 5))), float)


def test_determinant_normalized_under_composition():
    # evaluating det of a stored matrix loses ~eps * |entries|^2, so the
    # 1e-12 contract is checked on compositions of moderate-size maps
    rng = np.random.RandomState(4)
    for _ in range(200):
        m = _compose(_compose(random_mobius(rng), random_mobius(rng)), random_mobius(rng))
        assert abs(det(m) - 1.0) <= 1e-12


def test_inverse_composes_to_identity():
    m = _mobius(1.3, 0.2, -0.4, 1.1)
    assert maps_equal(_compose(m, _inverse(m)), IDENTITY, 1e-12)


def test_negative_determinant_rejected():
    with pytest.raises(GeometryError):
        _mobius(0.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- medians


def test_median_standard_triangle():
    x, y = triangle_median(_triangle(0.0, 1.0, INF), 3)  # edge (inf, 0)
    assert x == pytest.approx(0.0, abs=1e-14)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_median_symmetric_triangle():
    x, y = triangle_median(_triangle(-1.0, 1.0, INF), 1)  # edge (-1, 1)
    assert x == pytest.approx(0.0, abs=1e-14)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_median_translation_equivariance():
    t = _triangle(0.0, 1.0, INF)
    shift = _mobius(1.0, 5.0, 0.0, 1.0)
    x, y = triangle_median(_apply_triangle(shift, t), 3)
    assert x == pytest.approx(5.0, abs=1e-14)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_median_rejects_degenerate_triangle():
    with pytest.raises(GeometryError):
        _triangle(1.0, 1.0, INF)
    with pytest.raises(GeometryError, match="^edge index 4 not in 1..3$"):
        triangle_median((0.0, 1.0, INF), 4)
    # a repeated vertex: the vertex off the edge lands on an endpoint of the axis
    for v in ((0.0, 1.0, 0.0), (0.0, 1.0, 1.0)):
        with pytest.raises(GeometryError, match="^degenerate triangle$"):
            triangle_median(v, 1)


def test_points_off_the_upper_half_plane_are_rejected():
    # on the way in, and on the way out where the image height underflows
    for y in (0.0, -1.0, math.nan):
        with pytest.raises(GeometryError, match=r"^point \(0\.0, .*\) not in the upper half-plane$"):
            _apply_point(IDENTITY, 0.0, y)
    with pytest.raises(GeometryError, match=r"^point \(0\.0, 0\.0\) not in the upper half-plane$"):
        _apply_point(_mobius(1e-200, 0.0, 0.0, 1e200), 0.0, 1e-150)
    # a public caller: the ideal point's image 1e-610 underflows to the axis endpoint 0
    with pytest.raises(GeometryError, match=r"^point \(0\.0, 0\.0\) not in the upper half-plane$"):
        orthofoot_to_ideal(1e-310, 1e300, 2e-310)


def test_geodesic_endpoints_must_differ():
    # -inf and inf are one ideal point
    for a, b in ((2.0, 2.0), (INF, -INF)):
        with pytest.raises(GeometryError, match="^geodesic endpoints coincide$"):
            _geodesic(a, b)


def _set_search_edge(v):
    """Edge of ``v`` from its nearest finite vertex to infinity, found as the
    kernel found it before its index arithmetic: by comparing vertex sets."""
    fin = [u for u in v if u != INF]
    lo, hi = min(fin), max(fin)
    near = hi if hi <= 0.0 else lo
    return next(i for i in (1, 2, 3) if {v[i - 1], v[i % 3]} == {near, INF})


@pytest.mark.parametrize("a, b", [(0.5, 3.0), (0.0, 2.0), (-0.5, -3.0), (0.0, -2.0)])
def test_median_height_edge_choice_matches_set_search(monkeypatch, a, b):
    # every vertex order of (a, b, inf), on both sides of 0 and with the
    # shared vertex 0; the edge is recorded where the kernel passes it on.
    # A triangle on the left of the axis is no far half and is rejected.
    kernel = h2.triangle_median
    edges = []
    monkeypatch.setattr(h2, "triangle_median", lambda v, edge: edges.append(edge) or kernel(v, edge))
    for v in itertools.permutations((a, b, INF)):
        edges.clear()
        if min(a, b) < 0.0:
            with pytest.raises(GeometryError):
                _far_height(v)
            continue
        height = _far_height(v)
        assert edges == [_set_search_edge(v)]
        assert height == kernel(v, edges[0])[1]


def test_apply_ideal_canonicalizes_its_image():
    # -inf is the one point at infinity, from either branch
    assert math.copysign(1.0, mobius_apply(_mobius(2.0, 0.0, 0.0, 0.5), -1e308)) == 1.0
    assert mobius_apply(_mobius(2.0, 0.0, 0.0, 0.5), -1e308) == INF
    assert mobius_apply(_mobius(-1e300, 0.0, 1e-300, -1e-300), INF) == INF
    # the pole goes to infinity
    assert mobius_apply(_mobius(1.0, 0.0, 1.0, 1.0), -1.0) == INF
    assert mobius_apply(_mobius(1.0, 5.0, 0.0, 1.0), INF) == INF
    with pytest.raises(GeometryError, match="^ideal point is NaN$"):
        mobius_apply((INF, 0.0, INF, 1.0), INF)
    with pytest.raises(GeometryError, match="^ideal point is NaN$"):
        mobius_apply((INF, -INF, 0.0, 1.0), 1.0)
    with pytest.raises(GeometryError, match="^ideal point is NaN$"):
        ideal(math.nan)


def _circle_through(p1, p2, p3) -> tuple[float, float, float]:
    """Center and radius of the Euclidean circle through three points."""
    (ax, ay), (bx, by), (cx, cy) = p1, p2, p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    return ux, uy, math.hypot(ax - ux, ay - uy)


def _euclidean_distance_point_to_edge(c, edge) -> float:
    cx, cy = c
    a, b = edge
    if a == INF or b == INF:
        x0 = b if a == INF else a
        return abs(cx - x0)
    mid, r = (a + b) / 2.0, abs(b - a) / 2.0
    return abs(math.hypot(cx - mid, cy) - r)


def test_incircle_tangent_to_all_edges_brute_force():
    # the incircle is fitted through the three medians (a Mobius image of a
    # circle inside the half-plane is again a Euclidean circle); tangency is
    # solved on the Euclidean data, independent of the median path
    rng = np.random.RandomState(11)
    for _ in range(25):
        vs = sorted(rng.uniform(-4, 4, 3))
        if min(np.diff(vs)) < 0.1:
            continue
        t = _triangle(vs[0], vs[1], vs[2]) if rng.rand() < 0.5 else _triangle(vs[0], vs[1], INF)
        cx, cy, r = _circle_through(*(triangle_median(t, i) for i in (1, 2, 3)))
        for i in (1, 2, 3):
            d = _euclidean_distance_point_to_edge((cx, cy), _edge(t, i))
            assert d == pytest.approx(r, abs=1e-10)


# ---------------------------------------------------------------- shear


def test_shear_of_mirror_triangles_is_zero():
    t1 = _triangle(0.0, 1.0, INF)
    t2 = _triangle(1.0, 2.0, INF)
    assert shear(t1, t2, 1.0, INF) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("s", [-2.0, -0.5, 0.3, 1.7])
def test_shear_reads_off_horizontal_scale(s):
    t1 = _triangle(0.0, 1.0, INF)
    t2 = _triangle(1.0, 1.0 + math.exp(s), INF)
    assert shear(t1, t2, 1.0, INF) == pytest.approx(s, abs=1e-12)


@pytest.mark.parametrize("s", [-1.2, 0.8])
def test_shear_symmetric_under_swap_and_reversal(s):
    t1 = _triangle(0.0, 1.0, INF)
    t2 = _triangle(1.0, 1.0 + math.exp(s), INF)
    assert shear(t2, t1, INF, 1.0) == pytest.approx(shear(t1, t2, 1.0, INF), abs=1e-10)


def test_shear_rejects_non_separating_configuration():
    t1 = _triangle(0.0, 1.0, INF)
    t2 = _triangle(-1.0, 0.5, INF)  # interiors overlap across g
    with pytest.raises(GeometryError):
        shear(t1, t2, 1.0, INF)


def test_shear_rejects_vertex_incidence_violation():
    t1 = _triangle(0.0, 1.0, INF)
    t2 = _triangle(2.0, 3.0, INF)
    with pytest.raises(GeometryError):
        shear(t1, t2, 1.5, INF)


def test_shear_checks_the_vertex_snap_before_the_separation():
    t2 = _triangle(-1.0, 0.5, INF)  # straddles g: fails the separation check
    with pytest.raises(GeometryError, match="g does not separate the triangles"):
        shear(_triangle(0.0, -1.0, -2.0), t2, 0.0, INF)
    # no vertex at 0 either: the snap fails first
    with pytest.raises(GeometryError, match="geodesic endpoint is not a vertex of the triangle"):
        shear(_triangle(1.0, -1.0, -2.0), t2, 0.0, INF)
    # nor at the endpoint infinity
    with pytest.raises(GeometryError, match="^geodesic endpoint is not a vertex of the triangle$"):
        shear((0.0, 1.0, 2.0), (1.0, 3.0, INF), INF, 1.0)


def test_shear_on_non_adjacent_separated_triangles():
    # separated by the geodesic (1, inf); parabolic transport is nontrivial
    t1 = _triangle(-2.0, 0.0, 1.0)
    t2 = _triangle(2.0, 5.0, INF)
    val = shear(t1, t2, 1.0, INF)
    assert math.isfinite(val)
    m = _mobius(1.2, 0.7, 0.3, 1.4)
    moved = shear(_apply_triangle(m, t1), _apply_triangle(m, t2), *apply_geodesic(m, (1.0, INF)))
    assert moved == pytest.approx(val, abs=1e-9)


# ---------------------------------------------------------------- orthofoot


def test_orthofoot_root_relation():
    x, y = orthofoot(0.0, INF, 1.0, 4.0)
    assert x == pytest.approx(0.0, abs=1e-14)
    assert y == pytest.approx(2.0, abs=1e-14)


def test_orthofoot_cross_checked_by_orthogonality_solve():
    a, b = 0.7, 3.9
    _, y = orthofoot(0.0, INF, a, b)
    # a circle about 0 of radius r is orthogonal to the circle over (a, b)
    # iff d^2 = r^2 + r2^2 for the center distance d
    mid, r2 = (a + b) / 2.0, (b - a) / 2.0
    r = brentq(lambda r: mid * mid - r * r - r2 * r2, 1e-9, 100.0, xtol=1e-14)
    assert y == pytest.approx(r, abs=1e-12)


def test_orthofoot_rejects_intersecting_geodesics():
    with pytest.raises(GeometryError):
        orthofoot(0.0, INF, -2.0, 2.0)
    # a2 is the float after b1: the endpoints differ, but the normalizing map sends a2 to infinity
    with pytest.raises(GeometryError, match=r"^geodesics intersect \(image endpoint at infinity\)$"):
        orthofoot(-5.382669169180314, -5.624379253246228, -5.624379253246227, -4.624379253246227)


def test_orthofoot_rejects_asymptotic_geodesics():
    with pytest.raises(GeometryError):
        orthofoot(0.0, INF, 0.0, 3.0)


def test_orthofoot_to_ideal_point():
    _, y = orthofoot_to_ideal(0.0, INF, -2.5)
    assert y == pytest.approx(2.5, abs=1e-14)


# ---------------------------------------------------------------- translations


def test_axis_translation_standard_axis_matrix():
    m = axis_translation(0.0, INF, 2.0)
    assert maps_equal(m, _mobius(math.e, 0.0, 0.0, 1.0 / math.e), 1e-12)
    _, y = _apply_point(m, 0.0, 1.0)
    assert y == pytest.approx(math.exp(2.0), rel=1e-12)


def test_axis_translation_one_parameter_group():
    m = axis_translation(-1.0, 3.0, 0.7)
    assert maps_equal(_compose(m, m), axis_translation(-1.0, 3.0, 1.4), 1e-12)


@pytest.mark.parametrize("length", [0.4, 1.0, 3.0])
def test_axis_translation_trace_identity(length):
    # trace equals that of the exponential of the diagonal generator
    a, _, _, d = axis_translation(0.5, 4.5, length)
    gen = np.array([[length / 2.0, 0.0], [0.0, -length / 2.0]])
    assert abs(a + d) == pytest.approx(float(np.trace(expm(gen))), rel=1e-12)
    assert abs(a + d) == pytest.approx(2.0 * math.cosh(length / 2.0), rel=1e-12)


def test_axis_translation_rejects_nonpositive_length():
    with pytest.raises(GeometryError):
        axis_translation(0.0, INF, 0.0)


def test_axis_translation_moves_in_orientation_direction():
    _, y = _apply_point(axis_translation(0.0, INF, 1.0), 0.0, 1.0)
    assert y > 1.0
    _, y = _apply_point(axis_translation(INF, 0.0, 1.0), 0.0, 1.0)
    assert y < 1.0


def test_signed_distance_along_axis():
    # on an oriented geodesic, the signed distance is the log ratio of the
    # heights in the standard frame of that geodesic
    def along(a, b, p, q):
        m = _to_standard(a, b)
        return math.log(_apply_point(m, *q)[1]) - math.log(_apply_point(m, *p)[1])

    assert along(0.0, INF, (0.0, 1.0), (0.0, math.e)) == pytest.approx(1.0, abs=1e-12)
    assert along(INF, 0.0, (0.0, 1.0), (0.0, math.e)) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------- equivariance


def test_mobius_equivariance_randomized():
    rng = np.random.RandomState(42)
    for _ in range(60):
        m = random_mobius(rng)
        vs = np.sort(rng.uniform(-5.0, 5.0, 4))
        if min(np.diff(vs)) < 0.05:
            continue
        a, b, c, d = map(float, vs)
        tri = _triangle(a, b, INF)
        edge = int(rng.randint(1, 4))
        med = _apply_point(m, *triangle_median(tri, edge))
        med2 = triangle_median(_apply_triangle(m, tri), edge)
        assert math.hypot(med[0] - med2[0], med[1] - med2[1]) <= 1e-9

        g1 = _geodesic(a, b)
        g2 = _geodesic(c, d) if rng.rand() < 0.5 else _geodesic(d, c)
        foot = _apply_point(m, *orthofoot(*g1, *g2))
        foot2 = orthofoot(*apply_geodesic(m, g1), *apply_geodesic(m, g2))
        assert math.hypot(foot[0] - foot2[0], foot[1] - foot2[1]) <= 1e-9

        length = float(rng.uniform(0.2, 2.0))
        conj = _compose(_compose(m, axis_translation(*g1, length)), _inverse(m))
        assert maps_equal(conj, axis_translation(*apply_geodesic(m, g1), length), 1e-9)


def test_geodesic_to_standard_orientation():
    for a, b in ((2.0, 5.0), (5.0, 2.0), (INF, 1.0), (1.0, INF)):
        m = _to_standard(a, b)
        assert mobius_apply(m, a) == 0.0
        assert mobius_apply(m, b) == INF
        assert det(m) == pytest.approx(1.0, abs=1e-12)


def test_orthofoot_to_ideal_rejects_endpoint():
    with pytest.raises(GeometryError):
        orthofoot_to_ideal(0.0, INF, 0.0)
    with pytest.raises(GeometryError):
        orthofoot_to_ideal(0.0, INF, INF)
    # p is the float after b1: it passes the endpoint comparison, and its image is infinite
    with pytest.raises(GeometryError, match="^ideal point is an endpoint of the geodesic$"):
        orthofoot_to_ideal(-5.382669169180314, -5.624379253246228, -5.624379253246227)


def _point_distance(p, q) -> float:
    """Hyperbolic distance between interior points."""
    dx = p[0] - q[0]
    num = dx * dx + (p[1] - q[1]) ** 2
    arg = 1.0 + num / (2.0 * p[1] * q[1])
    return math.acosh(arg if arg > 1.0 else 1.0)


def test_point_distance_mobius_invariant():
    rng = np.random.RandomState(8)
    for _ in range(30):
        m = random_mobius(rng)
        p = (rng.uniform(-3, 3), rng.uniform(0.1, 4))
        q = (rng.uniform(-3, 3), rng.uniform(0.1, 4))
        d = _point_distance(p, q)
        assert _point_distance(_apply_point(m, *p), _apply_point(m, *q)) == pytest.approx(d, abs=1e-9)
    # vertical distance is the log-ratio of heights
    assert _point_distance((0, 1), (0, math.e)) == pytest.approx(1.0, abs=1e-12)


def test_shear_mobius_equivariance_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gaps = st.floats(0.05, 20.0)
    angles = st.floats(0.0, math.pi)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(a=gaps, b=gaps, r=st.floats(0.0, 20.0), s=gaps, adjacent=st.booleans(),
                      theta=angles, scale=st.floats(0.1, 10.0), shift=st.floats(-10.0, 10.0))
    def check(a, b, r, s, adjacent, theta, scale, shift):
        # standard frame: g is the upward axis, t1 on its left with a vertex
        # at 0, t2 on its right with a vertex at infinity
        g = (0.0, INF)
        t1 = _triangle(0.0, -a, INF if adjacent else -a - b)
        t2 = _triangle(INF, 0.0 if adjacent else r, r + s)
        # rotation about i, then a scaling and a translation
        c, sn = math.cos(theta), math.sin(theta)
        m = _compose(_mobius(scale, shift, 0.0, 1.0), _mobius(c, sn, -sn, c))
        images = [mobius_apply(m, v) for v in (*t1, *t2)]
        # keep the image away from the pole, where shears lose digits
        hypothesis.assume(all(v == INF or abs(v) < 1e3 for v in images))
        moved = shear(_apply_triangle(m, t1), _apply_triangle(m, t2), *apply_geodesic(m, g))
        assert moved == pytest.approx(shear(t1, t2, *g), abs=1e-9)

    check()


def test_shear_across_geodesic_with_two_finite_endpoints():
    # the snapped endpoints must land on 0 and infinity exactly; before they
    # did, this configuration failed the separation check by a rounding error
    t1 = _triangle(0.0, -1.0, -2.0)
    t2 = _triangle(INF, 0.0, 1.0)
    g = (0.0, INF)
    m = _mobius(math.cos(1.0), math.sin(1.0), -math.sin(1.0), math.cos(1.0))
    moved = shear(_apply_triangle(m, t1), _apply_triangle(m, t2), *apply_geodesic(m, g))
    assert moved == pytest.approx(shear(t1, t2, *g), abs=1e-12)
    assert shear(t1, t2, *g) == pytest.approx(-math.log(2.0), abs=1e-15)
