"""The hull of the genus-two stretch vectors: faces, vertices and their certificates.

A candidate is a :class:`~thurston_kit.stretch.StretchSpec` on the
genus-two surface: one triangulation type per pair of pants and one
twist sign per curve, 8 x 4 x 4 = 128 candidates.  Their stretch vectors
(rows of :func:`~thurston_kit.stretch.stretch_vectors`) form the cloud;
its convex hull at the symmetric base point is combinatorially a
chamfered cube whose 32 vertices are found by qhull and certified by
arithmetic on its merged faces.  The least-squares extremality test
:func:`extreme_points_brute`, over scipy's NNLS, is the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .h2 import GeometryError
from .pants import LEAF_DISTRIBUTIONS, PantsTriangulation
from .stretch import FNPoint, SidePlan, StretchSpec, side_plan, stretch_vectors

# numpy is imported where it is used, so importing this module loads none
if TYPE_CHECKING:
    import numpy as np

#: coplanarity tolerance for merging hull facets
HULL_TOL = 1e-9

#: tolerance for convex representability, by certificate or least squares
EXTREME_TOL = 1e-8


@functools.cache
def _completions() -> tuple[tuple[StretchSpec, ...], tuple[str, ...], SidePlan]:
    """The 128 candidates in enumeration order, their labels and their side
    plan, built once per process."""
    specs = []
    for bits in itertools.product((1, -1), repeat=3):
        tris = [PantsTriangulation(ends, bits) for ends in LEAF_DISTRIBUTIONS]
        specs.extend(StretchSpec("S2", pair) for pair in itertools.product(tris, repeat=2))
    return tuple(specs), tuple(map(_label, specs)), side_plan(specs)


def _label(spec: StretchSpec) -> str:
    """The twist signs, then the leaf ends of each pair of pants: ``LLR-222-411``."""
    letters = "".join("L" if e == 1 else "R" for e in spec.triangulations[0].signs)
    return "-".join([letters, *("".join(map(str, t.ends)) for t in spec.triangulations)])


def cloud(x: FNPoint) -> np.ndarray:
    """The (128, 3) array of stretch vectors (the time derivatives at 0 of
    the three twist coordinates), one row per candidate in enumeration order."""
    import numpy as np

    if x.surface != "S2":
        raise ValueError("stretch-vector projections are computed on the genus-two surface")
    vectors = stretch_vectors(x, _completions()[2])
    if not np.all(np.isfinite(vectors)):
        raise ValueError("twist vector components must be finite")
    return vectors


def dedupe_points(points: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Representative subset with pairwise distance > HULL_TOL, plus group index per point.

    Each point joins the first representative within ``HULL_TOL`` (max norm) or
    becomes a new one.  One pairwise test per column marks the close pairs;
    walking the points in order, an unclaimed point becomes a representative
    and claims every unclaimed point close to it.  A row with a NaN is close
    to nothing, itself included.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    close = np.ones((len(pts), len(pts)), dtype=bool)
    for col in pts.T:
        close &= np.abs(col[:, None] - col[None, :]) <= HULL_TOL
    group = np.full(len(pts), -1)
    reps: list[int] = []
    for i in range(len(pts)):
        if group[i] < 0:
            claimed = close[i] & (group < 0)
            claimed[i] = True
            group[claimed] = len(reps)
            reps.append(i)
    return pts[reps], group.tolist()


@dataclass(frozen=True)
class HullSummary:
    """Merged-face combinatorics of a 3D convex hull, with the plane equation
    (unit outward normal, offset) of each face and the faces through each point."""

    n_edges: int
    vertex_indices: tuple[int, ...]
    planes: np.ndarray = field(repr=False, compare=False)
    point_faces: tuple[tuple[int, ...], ...] = field(repr=False)

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertex_indices), self.n_edges, len(self.planes))


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
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise GeometryError("need at least four 3D points")
    try:
        h = ConvexHull(pts)
    except QhullError as exc:
        # qhull's option dump after the first line carries a random run id
        raise GeometryError(f"degenerate point set: {str(exc).splitlines()[0]}") from exc

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
    return HullSummary(e, vertices, planes, tuple(tuple(sorted(fs)) for fs in faces_at))


def _certified(points: np.ndarray, summary: HullSummary) -> bool:
    """Whether the summary's vertices are exactly the extreme points of ``points``.

    Each vertex v is strictly supported: with c_v the sum of the normals
    of its faces, c_v.p_v - c_v.q > EXTREME_TOL |c_v| for every other point
    q.  Every other point is rebuilt to within EXTREME_TOL by the barycentric
    weights, clipped to >= 0 and renormalised, of the simplex that a
    Delaunay triangulation of the vertices finds for it.
    """
    import numpy as np
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
    """Non-negative least squares by scipy's Lawson-Hanson solver: ``(x, ||a x - b||)``
    with x >= 0 minimising the residual, the solver of :func:`extreme_points_brute`."""
    # imported here, not at module level: scipy.optimize takes about 0.26 s
    # to import and only the reference needs it
    import numpy as np
    from scipy.optimize import nnls as solve

    a = np.asarray(a, dtype=float)
    if a.shape[1] == 0:
        # scipy 1.17.1 aborts the interpreter with "free(): double free detected"
        # on a matrix with no columns, such as the rest of a lone point
        return np.zeros(0), float(np.linalg.norm(b))
    x, residual = solve(a, np.asarray(b, dtype=float))
    return x, float(residual)


def extreme_points_brute(points: np.ndarray) -> list[int]:
    """Indices of points not representable as convex combinations of the rest.

    A point is extreme iff the least-squares feasibility problem
    min ||sum_j w_j p_j - p_i|| with w >= 0, sum w = 1 (the constraint
    appended as an extra row) has residual above ``EXTREME_TOL``.  A lone point is
    extreme.  The reference the hull certificates are tested against.
    """
    import numpy as np

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


def chamfered_cube_check(x: FNPoint) -> dict:
    """Full pipeline at ``x``: cloud, dedupe, hull counts, certificates of the vertices.

    Returns the number of candidates, the hull counts, ``agree``: whether
    :func:`_certified` verifies the hull vertices as the extreme set (the
    CLI's ``brute_force_agrees``), the sorted labels of the extreme
    candidates, and one entry per candidate in enumeration order: its
    label, its twist vector and whether its point is a hull vertex.
    """
    raw = cloud(x)
    uniq, group = dedupe_points(raw)
    summary = hull(uniq)
    hull_set = set(summary.vertex_indices)
    entries = [
        {"completion": label, "d_twist": v, "extreme": g in hull_set}
        for label, v, g in zip(_completions()[1], raw.tolist(), group)
    ]
    return {
        "n_candidates": len(raw),
        "hull_counts": summary.counts(),
        "agree": _certified(uniq, summary),
        "extreme_completions": sorted(e["completion"] for e in entries if e["extreme"]),
        "entries": entries,
    }
