"""Check the cube hull certificates against the least-squares reference.

    PYTHONPATH=src python3 tools/cube_certificates.py

Regenerates every ``cube`` input of the ``genus2`` benchmark workload for
seeds 1-10 (the ops of one benchmark run per seed) and, at each, checks
that the hull's vertex set passes ``cube._certified``, equals
``cube.extreme_points_brute`` of the unique points, and is rejected by
the certificates once one vertex is dropped or one non-vertex is added
(both chosen by a seeded generator).  Prints one line per seed and a
total; exits 1 on any disagreement.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from thurston_kit import cube  # noqa: E402
from thurston_kit.stretch import FNPoint  # noqa: E402

SEEDS = range(1, 11)


def check(lengths, twists, pick: random.Random) -> list[str]:
    """Disagreements between the certificates and the reference at one input."""
    uniq, _ = cube.dedupe_points(cube.cloud(FNPoint("S2", lengths, twists)))
    summary = cube.hull(uniq)
    vertices = set(summary.vertex_indices)
    problems = []
    if not cube._certified(uniq, summary):
        problems.append("hull vertex set not certified")
    if sorted(vertices) != cube.extreme_points_brute(uniq):
        problems.append("hull vertex set differs from the least-squares extremes")
    dropped = vertices - {pick.choice(sorted(vertices))}
    if cube._certified(uniq, replace(summary, vertex_indices=tuple(sorted(dropped)))):
        problems.append("certified with a vertex dropped")
    others = sorted(set(range(len(uniq))) - vertices)
    if others:
        added = vertices | {pick.choice(others)}
        if cube._certified(uniq, replace(summary, vertex_indices=tuple(sorted(added)))):
            problems.append("certified with a non-vertex added")
    return problems


def main() -> int:
    workload = WORKLOADS["genus2"]
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    n_ops = int(workload.rate * run_seconds)
    total = bad = 0
    for seed in SEEDS:
        pick = random.Random(f"{seed}:certificates")
        ops = [op for op in itertools.islice(workload.ops(random.Random(seed)), n_ops) if op.kind == "cube"]
        failed = 0
        for op in ops:
            problems = check(op.inputs["base_lengths"], op.inputs["base_twists"], pick)
            if problems:
                failed += 1
                print(f"seed {seed}: {op.inputs}: {'; '.join(problems)}")
        print(f"seed {seed}: {len(ops) - failed} of {len(ops)} cube inputs agree")
        total += len(ops)
        bad += failed
    print(f"total: {total - bad} of {total} cube inputs agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
