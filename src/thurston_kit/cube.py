"""The hull of the genus-two stretch vectors: faces, vertices and their certificates.

A candidate is a :class:`~thurston_kit.stretch.StretchSpec` on the
genus-two surface: one triangulation type per pair of pants and one
twist sign per curve, 8 x 4 x 4 = 128 candidates.  Their stretch vectors
(rows of :func:`~thurston_kit.stretch.stretch_vectors`) form the cloud;
its convex hull at the symmetric base point is combinatorially a
chamfered cube.  One qhull run gives its points-by-merged-faces incidence
matrix; its 32 vertices, the rows on three or more faces, are certified by
arithmetic on their rows' faces, which a fan of tetrahedra from one vertex
covers.  Only equal points merge: a merge within ``HULL_TOL`` changed no
float cloud and certified wrong cubes from 50-digit clouds with cuffs of
16 to 20.  The faces are qhull's merged facets, and a hull with two
faces whose normals lie within ``FACE_SEPARATION`` is refused as a face
left split.  The least-squares extremality test
:func:`extreme_points_brute`, over scipy's NNLS, is the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .h2 import GeometryError
from .pants import LEAF_DISTRIBUTIONS, PantsTriangulation
from .stretch import FNPoint, SidePlan, StretchSpec, side_plan, stretch_vectors

# numpy is imported where it is used, so importing this module loads none
if TYPE_CHECKING:
    import numpy as np

#: qhull's centrum radius for merging facets
HULL_TOL = 1e-9

#: tolerance for convex representability, by certificate or least squares
EXTREME_TOL = 1e-8

#: least max-norm distance between the unit normals of two faces of a chamfered
#: cube: 1/sqrt(2) at the symmetric point, at 60 points of the genus2 range
#: (cuffs on [0.2, 5], twists on [-2, 2]) and to 6 digits at 502 cubes with cuffs
#: on [0.2, 12]; two halves of a face that qhull leaves split in two measured
#: 3.3e-7 at base lengths (1, 1, 15), 2.7e-6 at (10, 10, 10), 2.8e-5 at
#: (5, 9, 9), at most 4.0e-4 over 75 split hulls with cuffs on [7, 12] and at
#: most 9.6e-4 over a second sample of 76 with cuffs on [9, 12]
FACE_SEPARATION = 1e-2


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
    if not np.all(np.abs(vectors) < np.inf):  # not np.isfinite, which reads no array of mpf
        raise ValueError("twist vector components must be finite")
    return vectors


def dedupe_points(points: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The distinct rows of the cloud, in order of first appearance, and each row's group.

    Each row joins the first earlier row equal to it or becomes a new one:
    0.0 equals -0.0, and a row with a NaN equals no row.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    first: dict[tuple[float, ...], int] = {}
    twin = [first.setdefault(tuple(row), i) for i, row in enumerate(pts.tolist())]
    number = {i: n for n, i in enumerate(first.values())}
    return pts[list(number)], [number[i] for i in twin]


@dataclass(frozen=True)
class HullSummary:
    """Merged-face combinatorics of a 3D convex hull, with the plane equation (unit outward
    normal, offset) of each face and the boolean (points, faces) ``incidence`` matrix."""

    n_edges: int
    vertex_indices: tuple[int, ...]
    planes: np.ndarray = field(repr=False, compare=False)
    incidence: np.ndarray = field(repr=False, compare=False)

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertex_indices), self.n_edges, len(self.planes))


def hull(points: np.ndarray) -> HullSummary:
    """Convex hull combinatorics with coplanar facets merged by qhull within ``HULL_TOL``.

    Qhull merges neighbouring facets whose centrums lie within ``HULL_TOL``
    of each other's planes, triangulates the hull and may keep points that
    lie on a hull edge, so the combinatorics are read off facet incidence: a
    face is one merged facet (the triangles that carry its equation row), an
    edge is a pair of distinct faces sharing a ridge, and a vertex is a point
    whose incidence row holds at least three faces.  Degenerate input is
    rejected, and the counts must satisfy Euler's formula.
    """
    # imported here, not at module level: scipy.spatial takes about 0.45 s
    # to import and no other command needs it
    import numpy as np
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise GeometryError("need at least four 3D points")
    try:
        h = ConvexHull(pts, qhull_options=f"C{HULL_TOL!r}")
    except QhullError as exc:
        # qhull's option dump after the first line carries a random run id
        raise GeometryError(f"degenerate point set: {str(exc).splitlines()[0]}") from exc

    # scipy adds Qt, so every triangle of a merged facet carries its equation row bit for bit
    number: dict[tuple[float, ...], int] = {}
    face = [number.setdefault(tuple(row), len(number)) for row in h.equations.tolist()]
    edges = {(face[i], face[j]) for i, nbrs in enumerate(h.neighbors.tolist()) for j in nbrs if face[i] < face[j]}
    incidence = np.zeros((len(pts), len(number)), dtype=bool)
    incidence[h.simplices, np.array(face)[:, None]] = True
    vertices = tuple(np.flatnonzero(incidence.sum(axis=1) >= 3).tolist())
    v, e, f = len(vertices), len(edges), len(number)
    if v - e + f != 2:
        raise GeometryError(f"face merging produced inconsistent counts V={v} E={e} F={f}")
    return HullSummary(e, vertices, np.array(list(number)), incidence)


def _closest_faces(planes: np.ndarray) -> tuple[int, int, float]:
    """The two distinct faces ``i < j`` whose unit normals (the first three
    columns of ``planes``) are closest in the max norm, and that distance;
    the first such pair in row-major order."""
    import numpy as np

    normals = planes[:, :3]
    distance = np.abs(normals[:, None] - normals).max(axis=2)
    np.fill_diagonal(distance, np.inf)
    # the distances are symmetric, so the first least one in row-major order has i < j
    i, j = divmod(int(distance.argmin()), len(distance))
    return i, j, float(distance[i, j])


def _certified(points: np.ndarray, summary: HullSummary) -> bool:
    """Whether the summary's vertices are exactly the extreme points of ``points``.

    Each vertex v is strictly supported: with c_v its incidence row times
    the face normals, c_v.p_v - c_v.q > EXTREME_TOL |c_v| for every other point
    q.  Every other point is rebuilt to within EXTREME_TOL by the barycentric
    weights, clipped to >= 0 and renormalised, of a tetrahedron of vertices,
    the one whose least weight for the point is largest.  The tetrahedra are
    the fan from the first vertex over the merged faces that avoid it (the
    columns of the vertices' rows), each face covered by the triangles from
    its first vertex to every pair of its others: a face is convex, so these
    lie in it and include a triangulation of it, and the tetrahedra cover
    conv(vertices) with no angular order.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    verts = list(summary.vertex_indices)
    on = summary.incidence[verts]
    c = on @ summary.planes[:, :3]
    scores = c @ pts.T
    rows = np.arange(len(verts))
    own = scores[rows, verts]
    scores[rows, verts] = -np.inf
    if not np.all(own - scores.max(axis=1) > EXTREME_TOL * np.linalg.norm(c, axis=1)):
        return False
    rest = pts[sorted(set(range(len(pts))).difference(verts))]
    # the vertices of each face that avoids the apex verts[0], face by face in claimed order
    face, at = np.nonzero(on[:, ~on[0]].T)
    split = itertools.groupby(zip(face.tolist(), np.take(verts, at).tolist()), operator.itemgetter(0))
    rings = [[v for _, v in ring] for _, ring in split]
    # the tetrahedra (apex, first, i, j) over every pair i, j of a face's other vertices
    tets = [(verts[0], r[0], i, j) for r in rings for i, j in itertools.combinations(r[1:], 2)]
    if not tets:  # vertices that span no solid
        return False
    corners = pts[[v for tet in tets for v in tet]].reshape(-1, 4, 3)
    # rows of the inverse of the edge matrix [e1 e2 e3]: e2 x e3, e3 x e1, e1 x e2 over its determinant
    e = corners[:, 1:] - corners[:, :1]
    a, b = e[:, [1, 2, 0]], e[:, [2, 0, 1]]
    inverse = a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]
    inverse /= np.einsum("ij,ij->i", e[:, 0], inverse[:, 0])[:, None, None]
    bary = inverse @ (rest - pts[verts[0]]).T
    first = 1.0 - bary.sum(axis=1)
    best = np.minimum(first, bary.min(axis=1)).argmax(axis=0)
    n = np.arange(len(rest))
    weights = np.clip(np.column_stack([first[best, n], bary[best, :, n]]), 0.0, None)
    weights /= weights.sum(axis=1, keepdims=True)
    rebuilt = np.einsum("ni,nij->nj", weights, corners[best])
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

    Two faces whose normals lie within :data:`FACE_SEPARATION` are one face
    of the cube that qhull left split, so its counts would be wrong: that
    raises a :class:`GeometryError` naming the two faces.
    """
    raw = cloud(x)
    uniq, group = dedupe_points(raw)
    summary = hull(uniq)
    i, j, separation = _closest_faces(summary.planes)
    if separation <= FACE_SEPARATION:
        raise GeometryError(f"hull faces {i} and {j} are {separation:.2g} apart, "
                            f"within the face separation {FACE_SEPARATION}: a face is split in two")
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
