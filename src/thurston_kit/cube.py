"""Stretch-vector twist projections on the genus-two surface and their hull.

For the pants decomposition of the genus-two surface into two pairs of
pants glued along three curves, a candidate completion assigns one
triangulation type to each pair of pants and a common twist sign per
curve: 8 x 4 x 4 = 128 candidates.  For each, the time derivative at 0
of the three twist coordinates along the stretch path is one point of
the cloud; the convex hull of the cloud at the symmetric base point is
combinatorially a chamfered cube whose 32 vertices are found by qhull and
certified by arithmetic on its merged faces.  The least-squares
extremality test :func:`extreme_points_brute` is the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .h2 import GeometryError
from .pants import (
    LEAF_DISTRIBUTIONS,
    PantsMetric,
    PantsTriangulation,
    TwistSigns,
    delta_closed,
    delta_scale_derivative,
)
from .stretch import FNPoint

#: coplanarity tolerance for merging hull facets
HULL_TOL = 1e-9

#: tolerance for convex representability, by certificate or least squares
EXTREME_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class Completion:
    """Candidate completion: shared twist signs and one type per pair of pants."""

    signs: TwistSigns
    ends1: tuple[int, int, int]
    ends2: tuple[int, int, int]

    def __post_init__(self) -> None:
        for ends in (self.ends1, self.ends2):
            if tuple(ends) not in LEAF_DISTRIBUTIONS:
                raise ValueError(f"leaf distribution {ends} invalid")
        object.__setattr__(self, "ends1", tuple(self.ends1))
        object.__setattr__(self, "ends2", tuple(self.ends2))

    def label(self) -> str:
        letters = "".join("L" if e == 1 else "R" for e in self.signs.signs)
        return f"{letters}-{''.join(map(str, self.ends1))}-{''.join(map(str, self.ends2))}"


@dataclass(frozen=True, slots=True)
class TwistVector:
    """Time derivatives at 0 of the three twist coordinates."""

    da: float
    db: float
    dc: float

    def __post_init__(self) -> None:
        if any(not math.isfinite(v) for v in (self.da, self.db, self.dc)):
            raise ValueError("twist vector components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.da, self.db, self.dc])


def enumerate_completions() -> list[Completion]:
    """All 128 candidates (8 sign patterns x 4 x 4 pants types)."""
    out = []
    for bits in itertools.product((1, -1), repeat=3):
        for e1 in LEAF_DISTRIBUTIONS:
            for e2 in LEAF_DISTRIBUTIONS:
                out.append(Completion(TwistSigns(*bits), e1, e2))
    return out


#: relative agreement required between analytic and central-difference rates
DERIVATIVE_CHECK_REL = 1e-6


def stretch_vector_projection(x: FNPoint, completion: Completion) -> TwistVector:
    """d/dt at 0 of the three twist coordinates along the completion's stretch.

    theta_c'(0) = theta_c(0) + D1(0) + D2(0) - d/ds [D1 + D2](0), with the
    offsets differentiated analytically (complex step); a central
    difference (h = 1e-6) must agree to 1e-6 relative.
    """
    return _projections(x, [completion])[0]


def _projections(x: FNPoint, completions: list[Completion]) -> list[TwistVector]:
    """Projections of ``completions`` at ``x``, one per completion.

    Both pairs of pants share the three curves, so an offset depends only
    on (leaf ends, signs, curve): each of those sides is evaluated at most
    once per call and its value reused by every completion containing it.
    Values are first evaluated, and the sums formed, in the order of the
    per-completion formula, so results and the first error raised are the
    same as evaluating every completion on its own.
    """
    if x.surface != "S2":
        raise ValueError("stretch-vector projections are computed on the genus-two surface")
    metric = PantsMetric(*x.lengths)
    h = 1e-6

    @functools.cache
    def tri(ends, signs) -> PantsTriangulation:
        return PantsTriangulation(ends, TwistSigns(*signs))

    @functools.cache
    def offset(ends, signs, curve: int) -> float:
        return delta_closed(metric, tri(ends, signs), curve)

    @functools.cache
    def rate(ends, signs, curve: int) -> float:
        return delta_scale_derivative(metric, tri(ends, signs), curve)

    @functools.cache
    def difference(ends, signs, curve: int) -> float:
        t = tri(ends, signs)
        return delta_closed(metric.scaled(math.exp(h)), t, curve) - delta_closed(
            metric.scaled(math.exp(-h)), t, curve
        )

    out = []
    for completion in completions:
        signs = completion.signs.signs
        sides = (completion.ends1, completion.ends2)
        rates = []
        for curve in range(3):
            total0 = 0.0
            dtotal = 0.0
            for ends in sides:
                total0 += offset(ends, signs, curve)
                dtotal += rate(ends, signs, curve)
            num = sum(difference(ends, signs, curve) for ends in sides) / (2.0 * h)
            scale = max(1.0, abs(dtotal))
            if abs(num - dtotal) > DERIVATIVE_CHECK_REL * scale:
                raise ArithmeticError(
                    f"analytic rate {dtotal} and central difference {num} disagree at curve {curve}"
                )
            rates.append(x.twists[curve] + total0 - dtotal)
        out.append(TwistVector(*rates))
    return out


def cloud(x: FNPoint) -> list[tuple[Completion, TwistVector]]:
    """All 128 labeled candidate projections, in enumeration order."""
    completions = enumerate_completions()
    return list(zip(completions, _projections(x, completions)))


def dedupe_points(points: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Representative subset with pairwise distance > HULL_TOL, plus group index per point.

    Each point joins the first representative within ``HULL_TOL`` (max norm) or
    becomes a new one.
    """
    pts = np.asarray(points, dtype=float)
    reps = np.empty_like(pts)
    n_reps = 0
    group: list[int] = []
    for p in pts:
        near = np.flatnonzero(np.max(np.abs(reps[:n_reps] - p), axis=1) <= HULL_TOL)
        if near.size:
            group.append(int(near[0]))
        else:
            reps[n_reps] = p
            group.append(n_reps)
            n_reps += 1
    return reps[:n_reps].copy(), group


@dataclass(frozen=True)
class HullSummary:
    """Merged-face combinatorics of a 3D convex hull, with the plane equation
    (unit outward normal, offset) of each face and the faces through each point."""

    n_vertices: int
    n_edges: int
    n_faces: int
    vertex_indices: tuple[int, ...]
    planes: np.ndarray = field(repr=False, compare=False)
    point_faces: tuple[tuple[int, ...], ...] = field(repr=False)

    def counts(self) -> tuple[int, int, int]:
        return (self.n_vertices, self.n_edges, self.n_faces)


def hull(points: np.ndarray) -> HullSummary:
    """Convex hull combinatorics with coplanar facets merged within ``HULL_TOL``.

    Qhull triangulates the hull and may keep points that lie on a hull edge,
    so the combinatorics are read off facet incidence: a face is a group of
    qhull facets whose plane equations agree to ``HULL_TOL`` (grouped by
    :func:`dedupe_points`), an edge is a pair of distinct faces sharing a
    ridge, and a vertex is a point on at least three merged faces.
    Degenerate input is rejected, and the counts must satisfy Euler's
    formula.
    """
    # imported here, not at module level: scipy.spatial takes about 0.45 s
    # to import and no other command needs it
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise GeometryError("need at least four 3D points")
    try:
        h = ConvexHull(pts)
    except QhullError as exc:
        raise GeometryError(f"degenerate point set: {exc}") from exc

    planes, face = dedupe_points(h.equations)
    edges = {(face[i], face[j]) for i, nbrs in enumerate(h.neighbors.tolist()) for j in nbrs if face[i] < face[j]}
    faces_at: list[set[int]] = [set() for _ in pts]
    for simplex, group in zip(h.simplices.tolist(), face):
        for p in simplex:
            faces_at[p].add(group)
    vertices = tuple(p for p, fs in enumerate(faces_at) if len(fs) >= 3)
    v, e, f = len(vertices), len(edges), len(planes)
    if v - e + f != 2:
        raise GeometryError(f"face merging produced inconsistent counts V={v} E={e} F={f}")
    return HullSummary(v, e, f, vertices, planes, tuple(tuple(sorted(fs)) for fs in faces_at))


def _certified(points: np.ndarray, summary: HullSummary) -> bool:
    """Whether the summary's vertices are exactly the extreme points of ``points``.

    Each vertex v is strictly supported: with c_v the sum of the normals
    of its faces, c_v.p_v - c_v.q > EXTREME_TOL |c_v| for every other point
    q.  Every other point is rebuilt to within EXTREME_TOL by the barycentric
    weights, clipped to >= 0 and renormalised, of the simplex that a
    Delaunay triangulation of the vertices finds for it.
    """
    from scipy.spatial import Delaunay, QhullError

    pts = np.asarray(points, dtype=float)
    verts = list(summary.vertex_indices)
    c = np.array([summary.planes[list(summary.point_faces[v]), :3].sum(axis=0) for v in verts])
    scores = c @ pts.T
    rows = np.arange(len(verts))
    own = scores[rows, verts]
    scores[rows, verts] = -np.inf
    if not np.all(own - scores.max(axis=1) > EXTREME_TOL * np.linalg.norm(c, axis=1)):
        return False
    rest = np.delete(pts, verts, axis=0)
    try:
        tri = Delaunay(pts[verts])
    except QhullError:  # vertices that span no solid
        return False
    simplex = tri.find_simplex(rest, tol=EXTREME_TOL)
    if np.any(simplex < 0):
        return False
    affine = tri.transform[simplex]
    bary = np.einsum("nij,nj->ni", affine[:, :3], rest - affine[:, 3])
    weights = np.clip(np.column_stack([bary, 1.0 - bary.sum(axis=1)]), 0.0, None)
    weights /= weights.sum(axis=1, keepdims=True)
    rebuilt = np.einsum("ni,nij->nj", weights, tri.points[tri.simplices[simplex]])
    return bool(np.all(np.linalg.norm(rebuilt - rest, axis=1) <= EXTREME_TOL))


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Non-negative least squares (Lawson-Hanson active set, numpy ``lstsq``
    subproblems), the solver of the reference :func:`extreme_points_brute`.

    With no columns the solution is empty and the residual is ``||b||``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    eps = np.finfo(float).eps
    tol = 10.0 * max(m, n) * eps * max(float(np.abs(a).max(initial=0.0)), 1.0) * max(float(np.linalg.norm(b)), 1.0)
    for _ in range(10 * n):
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(w))
        if float(w[j]) <= tol:
            break
        passive[j] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = passive & (s <= 0.0)
            if not blocking.any():
                x = s
                break
            alpha = float(np.min(x[blocking] / (x[blocking] - s[blocking])))
            x = x + alpha * (s - x)
            passive &= x > 1e-14
    return x, float(np.linalg.norm(a @ x - b))


def extreme_points_brute(points: np.ndarray) -> list[int]:
    """Indices of points not representable as convex combinations of the rest.

    A point is extreme iff the least-squares feasibility problem
    min ||sum_j w_j p_j - p_i|| with w >= 0, sum w = 1 (the constraint
    appended as an extra row) has residual above ``EXTREME_TOL``.  A lone point is
    extreme.  The reference the hull certificates are tested against.
    """
    pts = np.asarray(points, dtype=float)
    augmented = np.vstack([pts.T, np.ones(len(pts))])
    out = []
    for i in range(len(pts)):
        _, res = nnls(np.delete(augmented, i, axis=1), augmented[:, i])
        if res > EXTREME_TOL:
            out.append(i)
    return out


def symmetric_base_point() -> FNPoint:
    """Default base point: all three curve lengths one, all twists zero."""
    return FNPoint("S2", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def chamfered_cube_check(x: FNPoint | None = None) -> dict:
    """Full pipeline: cloud, dedupe, hull counts, certificates of the vertices.

    Returns the counts, the hull vertices (as indices of the unique points),
    ``agree``: whether :func:`_certified` verifies them as the extreme set
    (the CLI's ``brute_force_agrees``), and one entry per candidate in
    enumeration order: its label, its twist vector and whether its point
    is a hull vertex.
    """
    if x is None:
        x = symmetric_base_point()
    labeled = cloud(x)
    raw = np.array([tv.as_array() for _, tv in labeled])
    uniq, group = dedupe_points(raw)
    summary = hull(uniq)
    hull_set = set(summary.vertex_indices)
    entries = [
        {"completion": comp.label(), "d_twist": [tv.da, tv.db, tv.dc], "extreme": group[i] in hull_set}
        for i, (comp, tv) in enumerate(labeled)
    ]
    return {
        "n_candidates": len(labeled),
        "n_unique": len(uniq),
        "hull_counts": summary.counts(),
        "hull_vertices": summary.vertex_indices,
        "agree": _certified(uniq, summary),
        "extreme_completions": sorted(e["completion"] for e in entries if e["extreme"]),
        "entries": entries,
    }
