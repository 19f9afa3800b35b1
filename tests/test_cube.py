"""Tests for the stretch-vector cloud and hull machinery."""

import functools
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from thurston_kit import cube, pants, stretch
from thurston_kit.cli import main
from thurston_kit.cube import (
    chamfered_cube_check,
    cloud,
    dedupe_points,
    extreme_points_brute,
    hull,
    nnls,
    symmetric_base_point,
)
from thurston_kit.h2 import GeometryError
from thurston_kit.pants import (
    PantsMetric,
    PantsTriangulation,
    delta_closed,
    delta_scale_derivative,
)
from thurston_kit.stretch import FNPoint, SpecMismatchError, StretchSpec, side_plan, stretch_vectors

from mp_reference import mpf_point, scalars


def _spec(signs, ends1, ends2):
    """The genus-two completion with shared ``signs`` and the given pants types."""
    return StretchSpec("S2", (PantsTriangulation(ends1, signs), PantsTriangulation(ends2, signs)))


def _projection(x, spec):
    return tuple(stretch_vectors(x, side_plan([spec]))[0])


def test_enumeration_has_128_distinct_candidates():
    comps = cube._completions()[0]
    assert len(comps) == 128
    assert len(set(comps)) == 128


def test_projection_antipodal_under_full_sign_flip():
    x = symmetric_base_point()
    for e1, e2 in (((2, 2, 2), (2, 2, 2)), ((4, 1, 1), (1, 4, 1))):
        v = np.array(_projection(x, _spec((1, 1, 1), e1, e2)))
        w = np.array(_projection(x, _spec((-1, -1, -1), e1, e2)))
        assert np.max(np.abs(v + w)) <= 1e-9


def test_projection_equivariant_under_curve_relabeling():
    # at the symmetric base point, cyclically permuting the pants types
    # permutes the coordinates
    x = symmetric_base_point()
    v = np.array(_projection(x, _spec((1, 1, 1), (4, 1, 1), (4, 1, 1))))
    w = np.array(_projection(x, _spec((1, 1, 1), (1, 4, 1), (1, 4, 1))))
    assert np.allclose(np.roll(v, 1), w, atol=1e-9)


def test_projection_includes_initial_twist():
    x0 = symmetric_base_point()
    x1 = FNPoint("S2", (1.0, 1.0, 1.0), (0.3, -0.1, 0.2))
    comp = _spec((1, 1, 1), (2, 2, 2), (2, 2, 2))
    v0 = np.array(_projection(x0, comp))
    v1 = np.array(_projection(x1, comp))
    assert np.allclose(v1 - v0, [0.3, -0.1, 0.2], atol=1e-12)


def test_projection_derivative_cross_check_runs():
    x = FNPoint("S2", (1.0, 0.7, 1.4), (0.0, 0.0, 0.0))
    for comp in (_spec((1, -1, 1), (2, 2, 2), (1, 1, 4)),):
        v = _projection(x, comp)
        assert all(math.isfinite(c) for c in v)


def test_cloud_size_and_central_symmetry():
    x = symmetric_base_point()
    pts = cloud(x)
    assert len(pts) == 128
    centroid = pts.mean(axis=0)
    assert np.max(np.abs(centroid)) <= 1e-9
    # the sign-flip pairing mirrors the cloud through the centroid
    bag = {tuple(np.round(p, 8)) for p in pts}
    mirrored = {tuple(np.round(2.0 * centroid - p, 8)) for p in pts}
    assert bag == mirrored


def test_dedupe_groups_points():
    # only equal rows merge: 1e-12 apart is two groups, and -0.0 equals 0.0
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e-12], [1.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
    uniq, group = dedupe_points(pts)
    assert _bits(uniq.tolist()) == _bits(pts[:3].tolist())
    assert group == [0, 1, 2, 0]


def test_hull_of_unit_cube():
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    p = hull(corners)
    assert p.counts() == (8, 12, 6)
    # the vertex count is read off the vertex set, so a replaced set keeps no stale count
    assert replace(p, vertices=p.vertices[:-1]).counts() == (7, 12, 6)


UNIT_CUBE_WITH_CENTRE = np.array(list(itertools.product((0.0, 1.0), repeat=3)) + [(0.5, 0.5, 0.5)])
SQUARE_PYRAMID_WITH_BASE_MIDPOINT = np.array(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0.0], [0.5, 0.5, 1.0]], dtype=float
)


def test_hull_ignores_interior_point():
    p = hull(UNIT_CUBE_WITH_CENTRE)
    assert p.counts() == (8, 12, 6)
    assert 8 not in p.vertices


def _cap(xy, a):
    """The points of the cap z = -a (x^2 + y^2) over ``xy``, then its apex (0, 0, -1)."""
    return np.vstack([np.column_stack([xy, -a * (xy**2).sum(axis=1)]), [[0.0, 0.0, -1.0]]])


FLAT_CAP = _cap(np.array([[-0.25, 0.75], [0.25, -0.75], [0.5, 0.5], [0.75, 1.0], [1.0, 0.75]]), 5.4e-10)


def test_hull_merges_only_neighbouring_facets_of_a_flat_cap():
    # of the cap's four facets the first and last agree to HULL_TOL but meet
    # only at a point, so they are no one face: the hull is the square
    # pyramid over the cap's four outer points
    p = hull(FLAT_CAP)
    assert p.counts() == (5, 8, 5)
    assert list(p.vertices) == [0, 1, 3, 4, 5] == extreme_points_brute(FLAT_CAP)
    cube.certify(FLAT_CAP, p)


def test_hull_of_random_flat_caps_satisfies_euler():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40),
                      log_a=st.floats(math.log(1e-10), math.log(3e-8)))
    def check(seed, n, log_a):
        pts = _cap(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2)), math.exp(log_a))
        # the guard of Euler's formula raises nothing, and the apex is a vertex
        assert n in hull(pts).vertices

    check()


def test_hull_rejects_degenerate_input():
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(GeometryError):
        hull(flat)
    with pytest.raises(GeometryError):
        hull(np.zeros((3, 3)))


class _EdgePointHull:
    """A stand-in for qhull's hull of the unit cube (corner 4x + 2y + z) and
    the midpoint 8 of its edge from corner 0 to corner 4: the faces y = 0 and
    z = 0 are each triangulated through point 8, which so lies on exactly two
    faces.  One outward equation per triangle, as qhull gives."""

    FACES = {
        (0.0, -1.0, 0.0, 0.0): ((0, 8, 1), (8, 5, 1), (8, 4, 5)),
        (0.0, 0.0, -1.0, 0.0): ((0, 8, 2), (8, 6, 2), (8, 4, 6)),
        (-1.0, 0.0, 0.0, 0.0): ((0, 1, 3), (0, 3, 2)),
        (1.0, 0.0, 0.0, -1.0): ((4, 5, 7), (4, 7, 6)),
        (0.0, 1.0, 0.0, -1.0): ((2, 3, 7), (2, 7, 6)),
        (0.0, 0.0, 1.0, -1.0): ((1, 3, 7), (1, 7, 5)),
    }

    def __init__(self, points, qhull_options=None):
        self.simplices = np.array([t for triangles in self.FACES.values() for t in triangles])
        self.equations = np.array([e for e, triangles in self.FACES.items() for _ in triangles])


def test_a_point_on_two_faces_is_no_vertex(monkeypatch):
    # a vertex lies on three or more faces: the edge midpoint, on two, is
    # none, and counting it would break Euler's formula (V 9, E 11, F 6)
    import scipy.spatial

    monkeypatch.setattr(scipy.spatial, "ConvexHull", _EdgePointHull)
    points = np.vstack([UNIT_CUBE_WITH_CENTRE[:8], [(0.5, 0.0, 0.0)]])
    p = hull(points)
    assert list(p.vertices) == list(range(8))
    assert p.counts() == (8, 12, 6)
    assert sorted(len(rows) for _, rows in p.faces) == [4] * 6


def test_nnls_solves_simple_feasibility():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x, res = nnls(a, np.array([0.5, 0.5, 1.0]))
    assert res <= 1e-12
    assert np.allclose(x, [0.5, 0.5], atol=1e-10)
    # infeasible under nonnegativity
    _, res = nnls(np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]))
    assert res > 0.1


def test_brute_force_extremes_of_square_with_midpoint():
    ext = extreme_points_brute(SQUARE_PYRAMID_WITH_BASE_MIDPOINT)
    assert ext == [0, 1, 2, 3, 5]


def test_chamfered_cube_at_symmetric_base_point():
    result = chamfered_cube_check(symmetric_base_point())
    assert result["n_candidates"] == 128
    assert result["hull_counts"] == (32, 48, 18)
    assert result["agree"]
    assert len(result["extreme_completions"]) == 32


def test_extreme_completions_pair_types_across_the_curve():
    # the hull vertices are exactly the sign patterns combined with equal
    # pants types on both sides
    result = chamfered_cube_check(symmetric_base_point())
    labels = set(result["extreme_completions"])
    expected = set()
    for bits in itertools.product("LR", repeat=3):
        for ends in ("222", "411", "141", "114"):
            expected.add(f"{''.join(bits)}-{ends}-{ends}")
    assert labels == expected


def test_projection_requires_genus_two_point():
    with pytest.raises(ValueError, match="genus-two"):
        cloud(FNPoint("S11", (1.0,), (0.0,)))
    with pytest.raises(SpecMismatchError):
        stretch_vectors(FNPoint("S11", (1.0,), (0.0,)), side_plan([_spec((1, 1, 1), (2, 2, 2), (2, 2, 2))]))


def _reference_dedupe(points, tol):
    """Reference tolerance merge: one max-norm comparison per (point, representative) pair."""
    reps, group = [], []
    for p in points:
        for i, r in enumerate(reps):
            if float(np.max(np.abs(p - r))) <= tol:
                group.append(i)
                break
        else:
            group.append(len(reps))
            reps.append(p)
    return np.array(reps), group


def _reference_exact_dedupe(points):
    """Reference exact merge: each row joins the group of the first earlier row
    equal to it, compared pair by pair (0.0 equals -0.0, NaN equals nothing)."""
    reps, group = [], []
    for i, p in enumerate(points):
        j = next((j for j in range(i) if np.all(points[j] == p)), None)
        if j is None:
            group.append(len(reps))
            reps.append(p)
        else:
            group.append(group[j])
    return np.array(reps), group


def _shuffled_duplicates():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(12, 3))
    pts = np.vstack([base, base, base + rng.uniform(-0.9, 0.9, size=base.shape) * cube.HULL_TOL])
    return pts[rng.permutation(len(pts))]


def _plane_equations():
    # four columns, as qhull's facet equations: each facet of a cube split in
    # two triangles, the second with its zeros negated, then six planes 3e-10 off
    planes = np.column_stack([np.vstack([np.eye(3), -np.eye(3)]), -np.ones(6)])
    pairs = np.repeat(planes, 2, axis=0)
    pairs[1::2] = np.where(planes == 0.0, -planes, planes)
    return np.vstack([pairs, planes + 3e-10])


#: points and, where it is fixed by hand, the expected group of each point
DEDUPE_CASES = {
    # neighbours within HULL_TOL are distinct rows, so none merge
    "chain": (lambda: np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [1.2, 0.0, 0.0]]) * cube.HULL_TOL, [0, 1, 2]),
    "no point": (lambda: np.empty((0, 3)), []),
    "one point": (lambda: np.array([[0.5, -1.0, 2.0]]), [0]),
    # a row with a NaN equals no row, and -0.0 equals 0.0
    "nan rows": (lambda: np.array([[0.0, 0.0, 0.0], [math.nan, 0.0, 0.0], [math.nan, 0.0, 0.0], [0.0, 0.0, 1e-12],
                                   [-0.0, -0.0, 0.0]]), [0, 1, 2, 3, 0]),
    "shuffled exact and near duplicates": (_shuffled_duplicates, None),
    "plane equations": (_plane_equations, [i // 2 for i in range(12)] + list(range(6, 12))),
    # four columns, the first three tied: the rows differ only in the last
    "tied first column, far last": (lambda: np.array([[0.5, 1.0, -2.0, 3.0], [0.5, 1.0, -2.0, 3.0 + 2e-9],
                                                      [0.5, 1.0, -2.0, 3.0 + 5e-10], [0.5, 1.0, -2.0, 3.0 + 2e-9]]),
                                    [0, 1, 2, 1]),
}


@pytest.mark.parametrize("case", DEDUPE_CASES)
def test_dedupe_matches_the_reference(case):
    make, expected = DEDUPE_CASES[case]
    points = make()
    uniq, group = dedupe_points(points)
    ref_uniq, ref_group = _reference_exact_dedupe(points)
    assert group == ref_group
    assert expected is None or group == expected
    assert uniq.shape == (len(ref_uniq), points.shape[1])
    assert _bits(uniq.tolist()) == _bits(ref_uniq.reshape(uniq.shape).tolist())


def _near_copies(rng, n, d):
    """n rows in d columns drawn from a few base rows, shuffled: exact copies, near
    copies 1e-12 to 3e-9 away, chains of steps of 6e-10, rows with a NaN and zero
    rows of mixed signs."""
    base = rng.normal(size=(int(rng.integers(1, n + 1)), d))
    rows = []
    while len(rows) < n:
        row, kind = base[rng.integers(len(base))], rng.integers(5)
        if kind == 0:
            rows.append(row)
        elif kind == 1:
            rows.append(row + rng.uniform(-1.0, 1.0, d) * 10 ** rng.uniform(-12.0, math.log10(3e-9)))
        elif kind == 2:
            rows.extend(row + k * 6e-10 for k in range(int(rng.integers(2, 6))))
        elif kind == 3:
            rows.append(np.where(np.arange(d) == rng.integers(d), math.nan, row))
        else:
            rows.append(np.copysign(np.zeros(d), rng.choice([-1.0, 1.0], d)))
    return np.array(rows[:n])[rng.permutation(n)]


def test_dedupe_matches_the_reference_on_random_near_copies():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 4))
    def check(seed, n, d):
        points = _near_copies(np.random.default_rng(seed), n, d)
        uniq, group = dedupe_points(points)
        ref_uniq, ref_group = _reference_exact_dedupe(points)
        assert group == ref_group
        assert _bits(uniq.tolist()) == _bits(ref_uniq.tolist())

    check()


def _random_base_point(rng):
    lengths = tuple(float(v) for v in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
    twists = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
    return FNPoint("S2", lengths, twists)


def _reference_projection(x, spec):
    """The projection formula written per spec, every offset evaluated afresh."""
    metric = PantsMetric(*x.lengths)
    tris = spec.triangulations
    rates = []
    for curve in range(3):
        total0 = 0.0
        dtotal = 0.0
        for tri in tris:
            total0 += delta_closed(metric, tri, curve)
            dtotal += delta_scale_derivative(metric, tri, curve)
        rates.append(x.twists[curve] + total0 - dtotal)
    return tuple(rates)


def _bits(vectors):
    return [tuple(c.hex() for c in v) for v in vectors]


def test_cloud_matches_per_completion_projection_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lengths = st.floats(0.2, 5.0)
    twists = st.floats(-2.0, 2.0)

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    @hypothesis.given(l1=lengths, l2=lengths, l3=lengths, t1=twists, t2=twists, t3=twists)
    def check(l1, l2, l3, t1, t2, t3):
        x = FNPoint("S2", (l1, l2, l3), (t1, t2, t3))
        comps = cube._completions()[0]
        pts = cloud(x)
        assert len(pts) == len(comps)
        got = _bits(pts.tolist())
        assert got == _bits(_projection(x, c) for c in comps)
        assert got == _bits(_reference_projection(x, c) for c in comps)

    check()


def test_cloud_is_the_stretch_vector_array_and_the_entries_carry_its_rows():
    x = FNPoint("S2", (0.7, 1.9, 3.1), (0.3, -1.2, 0.5))
    pts = cloud(x)
    assert isinstance(pts, np.ndarray) and pts.dtype == np.float64 and pts.shape == (128, 3)
    rows = _bits(pts.tolist())
    assert rows == _bits(stretch_vectors(x, side_plan(cube._completions()[0])).tolist())
    result = chamfered_cube_check(x)
    assert all(type(r) is list and all(type(c) is float for c in r) for r in result["rows"])
    assert _bits(result["rows"][e["row"]] for e in result["entries"]) == rows


def test_cloud_holds_no_negative_zero_so_its_byte_groups_are_dedupes_groups():
    # a row is theta + (0.0 + D1 + D2) - rate, and under round-to-nearest a sum
    # is -0.0 only when both addends are and a - b only when a is -0.0 and b
    # is 0.0, so grouping rows by value (0.0 == -0.0) groups them by bytes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    length = st.floats(math.log(0.2), math.log(5.0)).map(math.exp)
    twist = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(lengths=st.tuples(length, length, length), twists=st.tuples(twist, twist, twist))
    def check(lengths, twists):
        pts = cloud(FNPoint("S2", lengths, twists))
        assert not (np.signbit(pts) & (pts == 0.0)).any()
        first = {}
        groups = [first.setdefault(row.tobytes(), len(first)) for row in pts]
        rows, group = dedupe_points(pts)
        assert group == groups and [row.tobytes() for row in rows] == list(first)

    check()


def test_cloud_rows_depend_only_on_the_unordered_pair_of_triangulations():
    # a row sums the two sides of each curve from 0.0, and float addition
    # commutes, so (T1, T2) and (T2, T1) give the same bits; 8 sign patterns
    # times 10 unordered pairs of leaf distributions leave 80 distinct rows
    specs = cube._completions()[0]
    position = {spec.triangulations: i for i, spec in enumerate(specs)}
    swapped = [position[spec.triangulations[::-1]] for spec in specs]
    assert sorted(swapped) == list(range(128)) and swapped != list(range(128))
    rng = np.random.default_rng(23)
    for x in [symmetric_base_point()] + [_random_base_point(rng) for _ in range(20)]:
        rows = _bits(cloud(x).tolist())
        assert [rows[i] for i in swapped] == rows
        assert len(set(rows)) == 80


def test_the_side_plan_of_the_completions_is_built_once():
    specs, labels, plan = cube._completions()
    assert cube._completions()[2] is plan
    # 32 triangulation types with 3 cuffs each; two sides per (spec, curve)
    assert plan.surface == "S2" and len(plan.sides) == 96 and plan.index.shape == (128 * 3, 2)
    assert plan.sides == stretch.side_plan(specs).sides
    assert not plan.index.flags.writeable


# sha256 of cube_points.json and cube_hull.json, recorded before the cloud
# shared its pants offsets across completions, and of cube_points.csv,
# recorded before the CSV rows came from one row format
CUBE_ARTIFACT_SHA256 = [
    (
        (0.7, 1.9, 3.1),
        (0.3, -1.2, 0.5),
        "dc46ac935efa0aba9723dc43748533b0ebc28d49f60f0b0c338acc748ba2ed3e",
        "91b3215bd7aa8e02d35eb60889b6211e74b2b6d9c92b1ed4df9396e84f649b6d",
        "a66cfb723eaa293f6d7f1c5865a3954993d2ec860a74b94d1c3c068031482082",
    ),
    (
        (0.35, 0.8, 2.2),
        (-1.5, 0.1, 1.1),
        "6c65cba9c871507866f7be59efc9abefe01ef46bdcfd406740ad187e74b83c3a",
        "91b3215bd7aa8e02d35eb60889b6211e74b2b6d9c92b1ed4df9396e84f649b6d",
        "daaad2070a1910079d85a30cc59ca62bb428a792d6f09c97106456aeb225b52e",
    ),
    (
        (4.2, 0.6, 1.3),
        (0.9, 1.7, -0.4),
        "e2ff836056a64a6fec01cef4e530a6ddc2b1e313dc66ef4f457c2018835b3961",
        "91b3215bd7aa8e02d35eb60889b6211e74b2b6d9c92b1ed4df9396e84f649b6d",
        "910c1741df7fd95e8ab1d0fd177795388473e698e412f2ea410c6deafe5e491d",
    ),
]


@pytest.mark.parametrize("lengths, twists, points_sha, hull_sha, csv_sha", CUBE_ARTIFACT_SHA256)
def test_cube_artifacts_are_pinned(tmp_path, capsys, lengths, twists, points_sha, hull_sha, csv_sha):
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        f"out_dir={tmp_path / 'out'}\n"
        f"base_lengths={','.join(map(repr, lengths))}\nbase_twists={','.join(map(repr, twists))}\n"
    )
    assert main(["--config", str(cfg), "cube"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert hashlib.sha256((out / "cube_points.json").read_bytes()).hexdigest() == points_sha
    assert hashlib.sha256((out / "cube_hull.json").read_bytes()).hexdigest() == hull_sha
    assert hashlib.sha256((out / "cube_points.csv").read_bytes()).hexdigest() == csv_sha
    assert json.loads((out / "cube_hull.json").read_text())["brute_force_agrees"] is True


def test_cube_command_counts_the_chamfered_cube_at_cuffs_of_6(tmp_path, capsys):
    # the labelled faces are planar to 6.3e-12 of the extent here, and the
    # least off-face margin is 4.1e-3
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nbase_lengths=6,6,6\nbase_twists=0.3,-0.7,1.1\n")
    assert main(["--config", str(cfg), "cube"]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "out" / "cube_hull.json").read_text())
    assert (written["n_vertices"], written["n_edges"], written["n_faces"]) == (32, 48, 18)
    assert written["brute_force_agrees"] is True


#: base lengths where qhull leaves a face of the float cloud's cube split in
#: two, counting (32, 52, 22), (32, 60, 30) and (32, 50, 20); the labelled
#: faces are planar to 1.4e-9, 2.6e-8 and 1.3e-8 of the extent there, and
#: the least off-face margins are 6.6e-6, 8.1e-5 and 4.0e-4
LONG_CUFF_LENGTHS = ["1,1,15", "10,10,10", "5,9,9"]


@pytest.mark.parametrize("lengths", LONG_CUFF_LENGTHS)
def test_cube_command_writes_the_certified_cube_at_long_cuffs(tmp_path, capsys, lengths):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nbase_lengths={lengths}\n")
    assert main(["--config", str(cfg), "cube"]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "out" / "cube_hull.json").read_text())
    assert (written["n_vertices"], written["n_edges"], written["n_faces"]) == (32, 48, 18)
    assert written["brute_force_agrees"] is True
    assert written["extreme_completions"] == sorted(cube._completions()[1][r] for r in cube.chamfered_cube().vertices)


@pytest.mark.parametrize("lengths, counts", zip(LONG_CUFF_LENGTHS, [(32, 52, 22), (32, 60, 30), (32, 50, 20)]))
def test_qhull_splits_labelled_faces_at_long_cuffs(lengths, counts):
    # qhull's hull of the distinct float points has the labelled vertices, and
    # each of its faces lies in one labelled face, while the certificate
    # accepts the labelled cube
    raw = cloud(FNPoint("S2", tuple(map(float, lengths.split(","))), (0.0, 0.0, 0.0)))
    uniq, group = dedupe_points(raw)
    p, claim = hull(uniq), cube.chamfered_cube()
    assert p.counts() == counts
    assert list(p.vertices) == sorted(group[r] for r in claim.vertices)
    labelled = [{group[r] for r in rows} for _, rows in claim.faces]
    assert all(any(set(rows) <= face for face in labelled) for _, rows in p.faces)
    cube.certify(raw, claim)


def test_labelled_faces_are_qhulls_faces_at_the_symmetric_point():
    uniq, group = dedupe_points(cloud(symmetric_base_point()))
    p = hull(uniq)
    claim = cube.chamfered_cube()
    assert p.counts() == claim.counts() == (32, 48, 18)
    # qhull's vertices and faces in the labels of the diagonal rows they are
    label = {group[r]: cube._completions()[1][r] for r in claim.vertices}
    assert sorted(label) == list(p.vertices)
    qhull_faces = {frozenset(label[g] for g in rows) for _, rows in p.faces}
    assert qhull_faces == {frozenset(label[group[r]] for r in rows) for _, rows in claim.faces}
    assert sorted((name.split()[0], len(rows)) for name, rows in claim.faces) == [("hexagon", 6)] * 12 + [("square", 4)] * 6


def test_labelled_vertices_are_the_least_squares_extremes():
    rng = np.random.default_rng(20261020)
    claim = cube.chamfered_cube()
    for _ in range(6):
        raw = cloud(_random_base_point(rng))
        uniq, group = dedupe_points(raw)
        cube.certify(raw, claim)
        assert sorted(group[r] for r in claim.vertices) == extreme_points_brute(uniq)


def test_a_point_moved_off_the_cube_names_its_face():
    # the vertex LLL-411-411 is on the square L.. and the hexagons LL. and
    # L.L; moved along the edge of the two hexagons it stays on both planes
    raw = cloud(symmetric_base_point())
    claim = cube.chamfered_cube()
    faces = dict(claim.faces)
    v = cube._completions()[1].index("LLL-411-411")
    assert [name for name, rows in claim.faces if v in rows] == ["square L..", "hexagon LL.", "hexagon L.L"]
    (w,) = set(faces["hexagon LL."]) & set(faces["hexagon L.L"]) - {v}
    moved = raw.copy()
    moved[v] += 1e-3 * (raw[v] - raw[w])
    with pytest.raises(GeometryError, match=r"^face square L\.\.: a vertex lies 7\.3e-05 off its plane, more than 1e-07 of the extent$"):
        cube.certify(moved, claim)
    # the midpoint LLL-411-222 of LLL-411-411 and LLL-222-222 lies on the
    # edge of the same two hexagons; pushed out from the centre, it leaves
    # the first of them
    q = cube._completions()[1].index("LLL-411-222")
    centre = raw[list(claim.vertices)].mean(axis=0)
    moved = raw.copy()
    moved[q] = centre + (1.0 + 1e-3) * (raw[q] - centre)
    with pytest.raises(GeometryError, match=r"^face hexagon LL\.: a point lies 0\.001 outside its plane, more than 1e-07"):
        cube.certify(moved, claim)


def test_labelled_margins_hold_at_fifty_digits():
    # at 10,10,10 the 50-digit cloud's faces are planar to the rounding of
    # its rows to float, and its off-face margin is the float cloud's
    with scalars(50):
        x = mpf_point(FNPoint("S2", (10.0,) * 3, (0.0,) * 3))
        raw = cloud(x)
        assert chamfered_cube_check(x)["hull_counts"] == (32, 48, 18)
    off_plane, outside, gap = cube.certify(raw, cube.chamfered_cube())
    assert off_plane <= 1e-13 and outside <= 1e-13
    assert gap >= cube.VERTEX_GAP
    assert gap == pytest.approx(cube.certify(cloud(FNPoint("S2", (10.0,) * 3, (0.0,) * 3)), cube.chamfered_cube())[2],
                                rel=1e-5)


def test_long_cuffs_give_a_certified_chamfered_cube():
    # from cuffs of about 8.5 the float cloud's own error (2.0e-8 at 5, 9, 9)
    # splits a face again, where the 50-digit cloud gives the cube
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lengths = st.floats(5.0, 8.0)
    twists = st.floats(-2.0, 2.0)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(l1=lengths, l2=lengths, l3=lengths, t1=twists, t2=twists, t3=twists)
    def check(l1, l2, l3, t1, t2, t3):
        raw = cloud(FNPoint("S2", (l1, l2, l3), (t1, t2, t3)))
        assert hull(dedupe_points(raw)[0]).counts() == (32, 48, 18)
        cube.certify(raw, cube.chamfered_cube())

    check()


def _exact_cloud(lengths, twists):
    """``cube.cloud`` under ``scalars(50)`` at the ``mpf_point`` of the lengths and twists: 50-digit ``mpf``."""
    with scalars(50):
        return cloud(mpf_point(FNPoint("S2", lengths, twists)))


def test_no_certified_wrong_cube_at_fifty_digits():
    # with cuffs of 16 to 20 the 50-digit cloud has distinct points within
    # HULL_TOL of each other; merging them certified (26, 42, 18) here, where
    # the distinct points give (32, 48, 18).  The labelled faces are planar to
    # the rounding of the rows, but a vertex lies 1.2e-8 of the extent inside
    # a plane not its own, within VERTEX_GAP, so the certificate refuses
    raw = np.asarray(_exact_cloud((17.809518214039276, 18.239089544321985, 19.696842336094917),
                                  (-0.1373997196009067, 0.03136509224908446, 0.3495393153995878)), dtype=float)
    assert hull(dedupe_points(raw)[0]).counts() == (32, 48, 18)
    with pytest.raises(GeometryError, match=r"^face square L\.\.: a vertex off the face lies 1\.2e-08 inside"):
        cube.certify(raw, cube.chamfered_cube())


#: errors of the float cloud against 50 digits: 9.5e-12, 6.4e-10 and 1.3e-9
@pytest.mark.parametrize("lengths, twists", [
    ((6.0, 6.0, 6.0), (0.3, -0.7, 1.1)),
    ((6.5, 7.5, 8.5), (-1.2, 0.4, 1.9)),
    ((9.0, 8.0, 7.0), (1.5, -1.8, -0.2)),
])
def test_long_cuff_cloud_matches_fifty_digits(lengths, twists):
    raw = cloud(FNPoint("S2", lengths, twists))
    counts = hull(dedupe_points(raw)[0]).counts()
    exact = np.asarray(_exact_cloud(lengths, twists), dtype=float)
    assert np.max(np.abs(raw - exact)) <= 5e-9
    assert counts == hull(dedupe_points(exact)[0]).counts() == (32, 48, 18)


# 3.4e-45 and 3.0e-37 measured; lengths held as floats, whose complex step and
# shear sums round to double, left 7.9e-14 and 1.5e-9
@pytest.mark.parametrize("lengths, twists, tol", [
    ((6.5, 7.5, 8.5), (-1.2, 0.4, 1.9), 1e-40),
    ((17.8, 18.2, 19.7), (-0.1, 0.03, 0.35), 1e-30),
])
def test_fifty_digit_cloud_matches_a_hundred_digit_reference(lengths, twists, tol):
    # the reference differentiates with no complex step: per (triangulation,
    # cuff) side, delta_closed at the metric and the central difference of
    # delta_closed at the metric scaled by e^{+-h}, h = 1e-40, summed per
    # (completion, curve) as stretch_vectors sums them
    got = _exact_cloud(lengths, twists)
    plan = cube._completions()[2]
    with scalars(100) as mp:
        metric, h = PantsMetric(*map(mp.mpf, lengths)), mp.mpf("1e-40")
        up, down = metric.scaled(mp.exp(h)), metric.scaled(mp.exp(-h))
        sides = [(delta_closed(metric, tri, cuff),
                  (delta_closed(up, tri, cuff) - delta_closed(down, tri, cuff)) / (2 * h)) for tri, cuff in plan.sides]
        reference = [mp.mpf(twists[k % 3]) + sides[i][0] + sides[j][0] - (sides[i][1] + sides[j][1])
                     for k, (i, j) in enumerate(plan.index.tolist())]
        assert max(abs(a - b) for a, b in zip(got.flat, reference)) <= tol


def _cube_points_sha(tmp_path, lengths, twists):
    """sha256 of the cube_points.json that ``cube`` writes at the base point."""
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\n"
                   f"base_lengths={','.join(map(repr, lengths))}\nbase_twists={','.join(map(repr, twists))}\n")
    assert main(["--config", str(cfg), "cube"]) == 0
    return hashlib.sha256((tmp_path / "out" / "cube_points.json").read_bytes()).hexdigest()


def test_resolved_sides_never_cross_namespaces(tmp_path):
    # float, then 50 digits, then float again in one process.  A resolved
    # side holds only ints, so the 50-digit run from the lengths and twists
    # as mpf, which makes the entries after a clear, stays within 1e-12 of
    # the float cloud (8.1e-14 measured), and the last float run, which reads
    # those entries, keeps every pinned bit
    lengths, twists, points_sha, _, _ = CUBE_ARTIFACT_SHA256[0]
    x, specs = FNPoint("S2", lengths, twists), cube._completions()[0]
    pants._side.cache_clear()
    assert _cube_points_sha(tmp_path, lengths, twists) == points_sha
    floats = stretch_vectors(x, side_plan(specs))
    pants._side.cache_clear()
    with scalars(50):
        exact = np.asarray(stretch_vectors(mpf_point(x), side_plan(specs)), dtype=float)
    assert np.max(np.abs(floats - exact)) <= 1e-12
    assert _bits(stretch_vectors(x, side_plan(specs)).tolist()) == _bits(floats.tolist())
    assert _cube_points_sha(tmp_path, lengths, twists) == points_sha


def test_the_one_pass_side_table_is_the_per_side_loop_bit_for_bit(monkeypatch):
    # stretch_vectors with its side table against the table as a loop of the
    # four evaluations of each side, one call each, over random genus-two
    # points: with cuffs where g cancels (from about 50), singular cuffs (one
    # of 0.99995e-12 passes at p e^h) and a cuff of 1.0001e-12, which passes
    # at p and fails at p e^{-h}; where one fails, both raise the same error
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lengths = st.one_of(st.floats(math.log(1e-13), math.log(80.0)).map(math.exp),
                        st.sampled_from([1.0001e-12, 0.99995e-12, 5e-13, 60.0]))
    twists = st.floats(-2.0, 2.0)
    plan = cube._completions()[2]
    table = stretch._delta_sides

    def per_side(p, up, down, sides):
        return [(delta_closed(p, tri, cuff), delta_scale_derivative(p, tri, cuff),
                 delta_closed(up, tri, cuff), delta_closed(down, tri, cuff)) for tri, cuff in sides]

    def outcome(x):
        try:
            return _bits(stretch_vectors(x, plan).tolist())
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)

    seen = set()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(l1=lengths, l2=lengths, l3=lengths, t1=twists, t2=twists, t3=twists)
    @hypothesis.example(l1=1.0001e-12, l2=1.0, l3=1.0, t1=0.0, t2=0.0, t3=0.0)
    @hypothesis.example(l1=1.0, l2=0.99995e-12, l3=1.0, t1=0.0, t2=0.0, t3=0.0)
    @hypothesis.example(l1=60.0, l2=60.0, l3=60.0, t1=0.0, t2=0.0, t3=0.0)
    def check(l1, l2, l3, t1, t2, t3):
        x = FNPoint("S2", (l1, l2, l3), (t1, t2, t3))
        monkeypatch.setattr(stretch, "_delta_sides", table)
        got = outcome(x)
        monkeypatch.setattr(stretch, "_delta_sides", per_side)
        assert outcome(x) == got
        seen.add(got[0] if isinstance(got, tuple) else list)

    check()
    assert {list, ValueError, pants.SingularCuffError} <= seen
    down = PantsMetric(1.0001e-12, 1.0, 1.0).scaled(math.exp(-stretch._CHECK_STEP)).l1
    with pytest.raises(pants.SingularCuffError, match=f"^cuff 0 has length {re.escape(repr(down))};"):
        stretch_vectors(FNPoint("S2", (1.0001e-12, 1.0, 1.0), (0.0, 0.0, 0.0)), plan)


def test_dedupe_and_certificates_match_references():
    # on reachable clouds the exact merge is the tolerance merge: 20 points of
    # the genus2 range, then 10 with cuffs on [5, 9]
    rng = np.random.default_rng(20261018)
    points = [_random_base_point(rng) for _ in range(20)]
    points += [FNPoint("S2", tuple(rng.uniform(5.0, 9.0, 3).tolist()), tuple(rng.uniform(-2.0, 2.0, 3).tolist()))
               for _ in range(10)]
    for x in points:
        raw = cloud(x)
        uniq, group = dedupe_points(raw)
        ref_uniq, ref_group = _reference_dedupe(raw, cube.HULL_TOL)
        assert group == ref_group
        assert np.array_equal(uniq, ref_uniq)
        cube.certify(raw, cube.chamfered_cube())
        assert list(hull(uniq).vertices) == extreme_points_brute(uniq)


def _rates_off_by_1e_3(table):
    """``table`` (as ``pants._delta_sides``) with every complex-step rate off by 1e-3."""

    def off(*args):
        return [(d0, rate + 1e-3, d_up, d_down) for d0, rate, d_up, d_down in table(*args)]

    return off


def test_cloud_derivative_check_catches_a_wrong_rate(monkeypatch):
    monkeypatch.setattr(stretch, "_delta_sides", _rates_off_by_1e_3(stretch._delta_sides))
    with pytest.raises(ArithmeticError, match="central difference"):
        cloud(FNPoint("S2", (1.0, 0.7, 1.4), (0.2, 0.0, -0.3)))


def test_derivative_check_names_the_first_failing_spec_and_curve(monkeypatch):
    # every rate is off, so the first spec's curve 0 fails first, with the
    # values of the per-spec sums
    monkeypatch.setattr(stretch, "_delta_sides", _rates_off_by_1e_3(stretch._delta_sides))
    x = FNPoint("S2", (1.0, 0.7, 1.4), (0.2, 0.0, -0.3))
    metric, h = PantsMetric(*x.lengths), stretch._CHECK_STEP
    up, down = metric.scaled(math.exp(h)), metric.scaled(math.exp(-h))
    dtotal = diff = 0.0
    for tri in cube._completions()[0][0].triangulations:
        dtotal += delta_scale_derivative(metric, tri, 0) + 1e-3
        diff += delta_closed(up, tri, 0) - delta_closed(down, tri, 0)
    message = f"analytic rate {dtotal} and central difference {diff / (2.0 * h)} disagree at curve 0"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        cloud(x)


def test_a_failing_side_raises_before_the_derivative_check():
    # at this long cuff the check of an early (spec, curve) fails, and a side
    # first used by a later spec cancels to g <= 0; the side table is built
    # before any check, so its first failing side raises
    x = FNPoint("S2", (0.08521070605009712, 51.031063889578974, 0.0007155106104479768), (0.0, 0.0, 0.0))
    message = (
        "twist offset at cuff 1 is out of float reach: g = 0.0 <= 0 at lengths "
        "(0.08521070605009712, 51.031063889578974, 0.0007155106104479768)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cloud(x)


def test_cloud_rejects_a_non_finite_vector(monkeypatch):
    rows = len(cube._completions()[0])
    monkeypatch.setattr(cube, "stretch_vectors", lambda x, plan: np.array([(0.0, math.nan, 0.0)] * rows))
    with pytest.raises(ValueError, match="^twist vector components must be finite$"):
        cloud(symmetric_base_point())


def test_cloud_rejects_a_non_finite_offset_without_a_warning(monkeypatch):
    # a NaN offset passes the derivative check (no comparison with NaN holds)
    # and reaches the vectors, which the cloud rejects
    table = stretch._delta_sides
    monkeypatch.setattr(stretch, "_delta_sides",
                        lambda *args: [(math.nan, rate, math.nan, math.nan) for _, rate, _, _ in table(*args)])
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^twist vector components must be finite$"):
        warnings.simplefilter("error")
        cloud(symmetric_base_point())


def test_lone_point_is_extreme():
    x, res = nnls(np.zeros((4, 0)), np.array([0.0, 0.0, 3.0, 4.0]))
    assert x.shape == (0,) and res == 5.0
    assert extreme_points_brute(np.array([[0.0, 0.0, 0.0]])) == [0]


def test_chamfered_cube_check_entries_follow_enumeration():
    result = chamfered_cube_check(symmetric_base_point())
    entries = result["entries"]
    assert [e["completion"] for e in entries] == [cube._label(c) for c in cube._completions()[0]]
    assert sorted(e["completion"] for e in entries if e["extreme"]) == result["extreme_completions"]


#: genus-two base points (lengths, twists) where qhull keeps a point on a
#: hull edge: counting qhull's vertices gave (33, 49, 18) and (34, 50, 18)
EDGE_POINT_BASES = [
    (
        (3.2668788245925136, 0.5492198629009981, 4.377018301611705),
        (1.5866385657104063, -0.4888430423512693, -0.158361468616381),
    ),
    (
        (1.6311789485048425, 1.5869270884277915, 4.131620483291535),
        (-0.43808579544430737, -0.7728628205939456, -0.6910343412514672),
    ),
]


@pytest.mark.parametrize("lengths, twists", EDGE_POINT_BASES)
def test_points_on_hull_edges_are_not_vertices(lengths, twists):
    result = chamfered_cube_check(FNPoint("S2", lengths, twists))
    assert result["hull_counts"] == (32, 48, 18)
    assert len(result["extreme_completions"]) == 32
    assert result["agree"]


def _unique_cloud(lengths, twists):
    return dedupe_points(cloud(FNPoint("S2", lengths, twists)))[0]


CERTIFICATE_CASES = {
    "unit cube": lambda: UNIT_CUBE_WITH_CENTRE[:8],
    "unit cube with centre": lambda: UNIT_CUBE_WITH_CENTRE,
    "square pyramid with base midpoint": lambda: SQUARE_PYRAMID_WITH_BASE_MIDPOINT,
    "symmetric cloud": lambda: _unique_cloud((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
    **{f"edge-point cloud {i}": functools.partial(_unique_cloud, *base) for i, base in enumerate(EDGE_POINT_BASES)},
}


def test_the_cube_command_runs_no_qhull(tmp_path):
    # a fresh process: the cube command leaves scipy.spatial unloaded, and
    # with scipy.spatial loaded it calls ConvexHull not once
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\n")
    code = (
        "import sys; from thurston_kit.cli import main; "
        f"cube = lambda: main(['--config', {str(cfg)!r}, 'cube']); "
        "code, loaded = cube(), 'scipy.spatial' in sys.modules; "
        "import scipy.spatial; calls = []; original = scipy.spatial.ConvexHull; "
        "scipy.spatial.ConvexHull = lambda *a, **k: calls.append(1) or original(*a, **k); "
        "print(code, loaded, cube(), len(calls))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "False", "0", "0"]


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_certificates_accept_the_extreme_set_and_reject_one_off_sets(case):
    pts = CERTIFICATE_CASES[case]()
    p = hull(pts)
    assert list(p.vertices) == extreme_points_brute(pts)
    _assert_certified_and_one_off_sets_refused(pts, p)


def _assert_certified_and_one_off_sets_refused(pts, p):
    """``cube.certify`` accepts qhull's polytope, and refuses its faces with
    one vertex dropped or one other point added to its vertices."""
    vertices = set(p.vertices)
    cube.certify(pts, p)
    for v in vertices:
        with pytest.raises(GeometryError):
            cube.certify(pts, cube.polytope(sorted(vertices - {v}), p.faces))
    for q in set(range(len(pts))) - vertices:
        with pytest.raises(GeometryError):
            cube.certify(pts, cube.polytope(sorted(vertices | {q}), p.faces))


def _generic_polytope(seed, n_sphere, n_inner, n_mid):
    """Points on the unit sphere (a hull of triangles), convex combinations
    of them with positive weights (inside the hull) and midpoints of the
    hull's edges, shuffled."""
    import scipy.spatial

    rng = np.random.default_rng(seed)
    sphere = rng.normal(size=(n_sphere, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    inner = rng.dirichlet(np.ones(n_sphere), size=n_inner) @ sphere
    facets = scipy.spatial.ConvexHull(sphere).simplices
    simplices = facets[rng.integers(0, len(facets), size=n_mid)]
    ends = np.column_stack([simplices[:, 0], simplices[:, 1 + rng.integers(0, 2, size=n_mid)]])
    mids = sphere[ends].mean(axis=1)
    return np.vstack([sphere, inner, mids])[rng.permutation(n_sphere + n_inner + n_mid)]


def test_certificates_and_incidence_on_generic_polytopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import scipy.spatial

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), n_sphere=st.integers(4, 24), n_inner=st.integers(0, 4),
                      n_mid=st.integers(0, 3))
    def check(seed, n_sphere, n_inner, n_mid):
        pts = _generic_polytope(seed, n_sphere, n_inner, n_mid)
        p = hull(pts)
        vertices = set(p.vertices)
        assert sorted(vertices) == extreme_points_brute(pts)
        assert len(vertices) == n_sphere
        # the points of every facet of an unmerged qhull run are vertices of one merged face
        faces = [set(rows) for _, rows in p.faces]
        assert all(any(set(t) <= face for face in faces) for t in scipy.spatial.ConvexHull(pts).simplices.tolist())
        # each vertex is on three or more faces
        assert (p.incidence.sum(axis=1) >= 3).all()
        _assert_certified_and_one_off_sets_refused(pts, p)

    check()
