"""The hull of the genus-two stretch vectors: the labelled chamfered cube and its certificate.

A candidate is a :class:`~thurston_kit.stretch.StretchSpec` on the
genus-two surface: one triangulation type per pair of pants and one
twist sign per curve, 8 x 4 x 4 = 128 candidates, labelled ``s-X-Y`` by
the signs and the two leaf distributions.  Their stretch vectors (rows
of :func:`~thurston_kit.stretch.stretch_vectors`) form the cloud.  Both
pairs of pants see the same three lengths, so ``s-X-Y`` is ``s-Y-X`` and
the midpoint of the diagonal candidates ``s-X-X`` and ``s-Y-Y``, and the
hull is that of the 32 diagonal vectors.  It is the chamfered cube of
:func:`chamfered_cube`, whose 18 faces are named by cuffs and signs: six
squares and twelve hexagons, with 48 edges.

:func:`certify` checks that claim on the cloud with no hull search.  It
fits one least-squares plane per named face and measures every distance
in units of the cloud's extent: each face's vertices lie within
``FACE_TOL`` (epsilon) of its plane, all 128 rows lie on the inner side of
all 18 planes within ``FACE_TOL``, and each vertex lies at least
``VERTEX_GAP`` (delta) inside every plane not its own.  A failure raises
:class:`~thurston_kit.h2.GeometryError` naming the face and its margin.
Epsilon and delta sit between the faces' planarity and their least
off-face margin as measured on the benchmark's inputs and at base
lengths (1, 1, 15), (10, 10, 10) and (5, 9, 9), where qhull split a face
of the float cloud's cube; the certificate holds at all of them.  In
process, of a check at the symmetric point (about 0.8 ms on a 2-vCPU
Xeon), it takes about a sixth, :func:`dedupe_points` (the op's one dedupe:
the benchmark reads its size and the ``cube`` command formats its rows)
about a sixteenth and the cloud, its float offsets on ``math.exp``, about
two thirds.  The
qhull hull :func:`hull`, which returns the same :class:`Polytope` type that
:func:`certify` reads, and the least-squares extremality test
:func:`extreme_points_brute`, over scipy's NNLS, are the tests'
independent references; the ``cube`` command imports neither scipy
module.
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

#: qhull's centrum radius for merging facets
HULL_TOL = 1e-9

#: tolerance for convex representability by least squares
EXTREME_TOL = 1e-8

#: epsilon: the most, in units of the extent, that a face's vertex may lie
#: off the face's plane or any point outside it.  The labelled faces measured
#: planar to at most 8.1e-13 over the 1,880 genus2 cube inputs of seeds 1-10,
#: and to 1.4e-9, 2.6e-8 and 1.3e-8 at base lengths (1, 1, 15), (10, 10, 10)
#: and (5, 9, 9), where the float cloud's own error is largest
FACE_TOL = 1e-7

#: delta: the least, in units of the extent, that a vertex must lie inside
#: each face plane that is not its own.  The least such margin measured at
#: least 1.8e-2 over the 1,880 genus2 cube inputs, and 6.6e-6, 8.1e-5 and
#: 4.0e-4 at (1, 1, 15), (10, 10, 10) and (5, 9, 9); it falls as e^-L with
#: the cuff length L
VERTEX_GAP = 1e-6


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


@functools.cache
def chamfered_cube() -> Polytope:
    """The chamfered cube by the rule on the labels, as rows of the cloud.

    Its vertices are the 32 diagonal candidates ``s-X-X``.  A face is named
    by its signs at one or two cuffs, with a dot at each other cuff.  The
    square ``L..`` is (cuff 0, sign L): the diagonals whose 4-end is at cuff
    0 and whose sign there is L.  The hexagon ``LR.`` is (cuffs 0 and 1,
    signs L and R): the diagonals with those signs whose distribution is
    222 or has its 4-end at cuff 0 or 1.
    """
    diagonal = [(k, t) for k, (t, u) in enumerate(spec.triangulations for spec in _completions()[0]) if t == u]
    faces = []
    for cuffs in [*itertools.combinations(range(3), 1), *itertools.combinations(range(3), 2)]:
        for signs in itertools.product((1, -1), repeat=len(cuffs)):
            letters = dict(zip(cuffs, ["L" if e == 1 else "R" for e in signs]))
            rows = tuple(k for k, t in diagonal if all(t.signs[i] == e for i, e in zip(cuffs, signs))
                         and (t.ends.index(4) in cuffs if 4 in t.ends else len(cuffs) == 2))
            shape = "square" if len(cuffs) == 1 else "hexagon"
            faces.append((f"{shape} {''.join(letters.get(i, '.') for i in range(3))}", rows))
    return polytope([k for k, _ in diagonal], faces)


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
class Polytope:
    """A convex polytope in 3D, as the labels claim it (:func:`chamfered_cube`)
    or as qhull finds it (:func:`hull`): its vertices as rows of a point
    array, its named faces (each the tuple of its vertex rows) and its edge
    count, the pairs of faces that share two vertices.  ``incidence`` is the
    boolean (vertices, faces) matrix."""

    vertices: tuple[int, ...]
    faces: tuple[tuple[str, tuple[int, ...]], ...]
    n_edges: int
    incidence: np.ndarray = field(repr=False, compare=False)

    def counts(self) -> tuple[int, int, int]:
        return (len(self.vertices), self.n_edges, len(self.faces))


def polytope(vertices, faces) -> Polytope:
    """The polytope with ``vertices`` and the named ``faces``, each cut to those vertices.

    Raises :class:`GeometryError` unless the faces close up a surface: a
    face with fewer than three vertices and counts that break Euler's
    formula V - E + F = 2 are refused.  One vertex dropped breaks the
    formula, and so does one point added on none of the faces.
    """
    import numpy as np

    vertices = tuple(vertices)
    kept = set(vertices)
    faces = tuple((name, tuple(r for r in rows if r in kept)) for name, rows in faces)
    position = {v: i for i, v in enumerate(vertices)}
    incidence = np.zeros((len(vertices), len(faces)), dtype=bool)
    for f, (name, rows) in enumerate(faces):
        if len(rows) < 3:
            raise GeometryError(f"face {name} has {len(rows)} vertices, fewer than three")
        incidence[[position[r] for r in rows], f] = True
    shared = incidence.T.astype(int) @ incidence
    n_edges = int(np.triu(shared == 2, 1).sum())
    if len(vertices) - n_edges + len(faces) != 2:
        raise GeometryError(f"V={len(vertices)} E={n_edges} F={len(faces)} break Euler's formula")
    return Polytope(vertices, faces, n_edges, incidence)


def certify(points: np.ndarray, claim: Polytope) -> tuple[float, float, float]:
    """Check that the convex hull of ``points`` is ``claim``; its margins, in units of the extent.

    The extent is the max-norm distance of the vertices from their centroid.
    Each face gets the least-squares plane of its vertices, the one that an
    SVD of their offsets from their centroid gives, oriented away from the
    centroid of all vertices.  The claim holds when each face's vertices lie
    within ``FACE_TOL`` of its plane, every point lies on the inner side of
    every plane within ``FACE_TOL``, and every vertex lies at least
    ``VERTEX_GAP`` inside each plane that is not one of its own faces'.
    Returns the most a face's vertex lies off its plane, the most a point
    lies outside a plane, and the least a vertex lies inside a plane not its
    own.  The first face where a check fails raises :class:`GeometryError`
    with the face's name and margin, the planarity of every face checked
    first, then the points outside, then the vertices too close.
    """
    import numpy as np

    pts, rows = np.asarray(points, dtype=float), list(claim.vertices)
    centre = pts[rows].mean(axis=0)
    extent = np.abs(pts[rows] - centre).max()
    if not extent > 0.0:
        raise GeometryError(f"the vertices span an extent of {extent}")
    rel = (pts - centre) / extent
    # each face's least-squares plane passes through the centroid of its
    # vertices, normal to the least eigenvector of their scatter about it
    on, corners = claim.incidence.T, rel[rows]
    middle = on @ corners / on.sum(axis=1)[:, None]
    spread = (corners - middle[:, None]) * on[:, :, None]
    normals = np.linalg.eigh(spread.transpose(0, 2, 1) @ spread)[1][:, :, 0]
    offsets = np.einsum("ij,ij->i", normals, middle)
    normals[offsets < 0.0] *= -1.0
    offsets = np.abs(offsets)
    heights = rel @ normals.T - offsets
    own = heights[rows]
    off_plane = np.where(claim.incidence, np.abs(own), 0.0).max(axis=0)
    outside = heights.max(axis=0)
    gap = np.where(claim.incidence, np.inf, -own).min(axis=0)
    for margins, holds, what in (
        (off_plane, off_plane <= FACE_TOL, f"a vertex lies {{:.2g}} off its plane, more than {FACE_TOL}"),
        (outside, outside <= FACE_TOL, f"a point lies {{:.2g}} outside its plane, more than {FACE_TOL}"),
        (gap, gap >= VERTEX_GAP, f"a vertex off the face lies {{:.2g}} inside its plane, less than {VERTEX_GAP}"),
    ):
        if not holds.all():
            f = int(holds.argmin())
            raise GeometryError(f"face {claim.faces[f][0]}: {what.format(margins[f])} of the extent")
    return float(off_plane.max()), float(outside.max()), float(gap.min())


def hull(points: np.ndarray) -> Polytope:
    """The convex hull of ``points`` as a :class:`Polytope`, with facets merged by qhull within ``HULL_TOL``.

    Qhull merges neighbouring facets whose centrums lie within ``HULL_TOL``
    of each other's planes, triangulates the hull and may keep points that
    lie on a hull edge.  A face is one merged facet: the triangles that
    carry one distinct equation row, numbered by :func:`dedupe_points` and
    named by that number.  A vertex is a point on three or more faces.
    Degenerate input is rejected, and :func:`polytope` checks Euler's
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
        h = ConvexHull(pts, qhull_options=f"C{HULL_TOL!r}")
    except QhullError as exc:
        # qhull's option dump after the first line carries a random run id
        raise GeometryError(f"degenerate point set: {str(exc).splitlines()[0]}") from exc

    # scipy adds Qt, so every triangle of a merged facet carries its equation row bit for bit
    planes, face = dedupe_points(h.equations)
    on = np.zeros((len(pts), len(planes)), dtype=bool)
    on[h.simplices, np.array(face)[:, None]] = True
    vertices = np.flatnonzero(on.sum(axis=1) >= 3).tolist()
    return polytope(vertices, [(str(f), np.flatnonzero(column).tolist()) for f, column in enumerate(on.T)])


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
    extreme.  The reference the labelled certificate is tested against.
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
    """Full pipeline at ``x``: the cloud, its distinct rows, and the labelled cube certified on it.

    Returns the number of candidates, the counts of :func:`chamfered_cube`,
    ``agree``: the verdict of :func:`certify` (the CLI's
    ``brute_force_agrees``), which raises a :class:`GeometryError` where
    the claim fails, the sorted labels of the extreme candidates, ``rows``,
    the distinct rows of :func:`dedupe_points` as lists of floats, and one
    entry per candidate in enumeration order: its label, the index ``row``
    of its twist vector and whether its point is a vertex of the cube.  No
    cloud row holds -0.0, so each row has the bits of its cloud rows: a row
    is ``theta + (0.0 + D1 + D2) - rate``, and under round-to-nearest a sum
    is -0.0 only when both addends are, ``a - b`` only when a is -0.0, b 0.0.
    """
    raw = cloud(x)
    rows, group = dedupe_points(raw)
    claim = chamfered_cube()
    certify(raw, claim)
    vertices = {group[v] for v in claim.vertices}
    entries = [{"completion": label, "row": g, "extreme": g in vertices} for label, g in zip(_completions()[1], group)]
    return {
        "n_candidates": len(raw),
        "hull_counts": claim.counts(),
        "agree": True,
        "extreme_completions": sorted(e["completion"] for e in entries if e["extreme"]),
        "rows": rows.tolist(),
        "entries": entries,
    }
