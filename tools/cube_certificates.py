"""Check the labelled cube certificate against the qhull and least-squares references.

    PYTHONPATH=src python3 tools/cube_certificates.py

Regenerates every ``cube`` input of the ``genus2`` benchmark workload for
seeds 1-10 (the ops of one benchmark run per seed) and, at each, checks
that ``cube.certify`` certifies the labelled chamfered cube
(``cube.chamfered_cube``) on the cloud, that its vertices are
``cube.extreme_points_brute`` of the distinct points, that its vertices,
faces and counts are those of qhull's hull (``cube.hull``), and that the
certificate refuses the cube's vertex set once one vertex is dropped or
one non-vertex is added (both chosen by a seeded generator).  Prints one
line per seed and a total, each with the margins that ``cube.certify``
returns, in units of the extent: the worst planarity (the most a face's
vertex lies off its plane), the worst outside margin (the most a point lies
outside a plane) and the least vertex gap (the least a vertex lies inside a
plane not its own); exits 1 on any disagreement.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from thurston_kit import cube  # noqa: E402
from thurston_kit.h2 import GeometryError  # noqa: E402
from thurston_kit.stretch import FNPoint  # noqa: E402

SEEDS = range(1, 11)


def refused(raw: np.ndarray, vertices: set[int]) -> bool:
    """Whether the certificate refuses the labelled faces with ``vertices`` claimed."""
    try:
        cube.certify(raw, cube.polytope(sorted(vertices), cube.chamfered_cube().faces))
    except GeometryError:
        return True
    return False


def check(lengths, twists, pick: random.Random) -> tuple[list[str], tuple[float, float, float] | None]:
    """Disagreements between the labelled certificate and the references at
    one input, and the certificate's margins there (None when it refuses)."""
    raw = cube.cloud(FNPoint("S2", lengths, twists))
    uniq, group = cube.dedupe_points(raw)
    claim = cube.chamfered_cube()
    problems, margins = [], None
    try:
        margins = cube.certify(raw, claim)
    except GeometryError as exc:
        problems.append(f"labelled cube not certified: {exc}")
    # the labelled vertices and faces as rows of the distinct points
    vertices = sorted(group[r] for r in claim.vertices)
    faces = {frozenset(group[r] for r in rows) for _, rows in claim.faces}
    if vertices != cube.extreme_points_brute(uniq):
        problems.append("labelled vertices differ from the least-squares extremes")
    qhull = cube.hull(uniq)
    if (qhull.counts(), list(qhull.vertices), {frozenset(rows) for _, rows in qhull.faces}) != (
            claim.counts(), vertices, faces):
        problems.append("labelled cube differs from qhull's hull")
    if not refused(raw, set(claim.vertices) - {pick.choice(claim.vertices)}):
        problems.append("certified with a vertex dropped")
    others = sorted(set(range(len(raw))) - set(claim.vertices))
    if not refused(raw, set(claim.vertices) | {pick.choice(others)}):
        problems.append("certified with a non-vertex added")
    return problems, margins


def summary(margins: list[tuple[float, float, float]]) -> str:
    """The worst of the certificate margins ``margins`` as one clause."""
    if not margins:
        return "no input certified"
    planarity, outside, gap = zip(*margins)
    return (f"worst planarity {max(planarity):.2g}, worst outside margin {max(outside):.2g}, "
            f"least vertex gap {min(gap):.2g} of the extent")


def main() -> int:
    workload = WORKLOADS["genus2"]
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    n_ops = int(workload.rate * run_seconds)
    total = bad = 0
    every = []
    for seed in SEEDS:
        pick = random.Random(f"{seed}:certificates")
        ops = [op for op in itertools.islice(workload.ops(random.Random(seed)), n_ops) if op.kind == "cube"]
        failed, certified = 0, []
        for op in ops:
            problems, margins = check(op.inputs["base_lengths"], op.inputs["base_twists"], pick)
            if problems:
                failed += 1
                print(f"seed {seed}: {op.inputs}: {'; '.join(problems)}")
            if margins:
                certified.append(margins)
        print(f"seed {seed}: {len(ops) - failed} of {len(ops)} cube inputs agree; {summary(certified)}")
        total += len(ops)
        bad += failed
        every += certified
    print(f"total: {total - bad} of {total} cube inputs agree; {summary(every)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
