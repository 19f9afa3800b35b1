"""Workload definitions: seeded op streams and the check of every op's output.

An op is one call to ``thurston_kit.cli.main``: an argv and, for the
subcommands that read it, the body of a key=value config file (the
worker appends ``out_dir``).  Op streams are infinite and depend only on
the seed, so a run of N ops always sees the same N inputs.

A check returns an :class:`Outcome`:

* ``ok``: the output parses and passes every check;
* ``failed``: the program reported a failure (exit 1 or an ``error:``
  line) and its output is consistent with that report, e.g. the
  closed-form and constructive twist offsets differ by more than the
  tolerance.  These are known defects of the program: they are counted
  and listed, never filtered out of the input ranges;
* ``wrong``: the output contradicts a check of the benchmark (it does
  not parse, a pinned golden moved, a reference recomputation differs,
  the exit code disagrees with the printed numbers).  Any ``wrong`` op
  makes the run incorrect.

``oracle-check`` (the reconciliation report) is left unmeasured on
purpose: it recomputes the same oracle grid that ``oracle`` samples and
would add about 8 s to every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

#: criterion-6 golden of the acceptance suite, attained at l0 = 5, t = 4
ENVELOPE_BOUND_GOLDEN = 0.8732925297876251
#: tolerance of the envelope golden and of the reference recomputation
ENVELOPE_TOL = 1e-9
#: max_q of every envelope op
ENVELOPE_MAX_Q = 30
#: every k-th envelope op is the pinned cell
ENVELOPE_PIN_EVERY = 10
#: share of envelope ops recomputed by the block-product reference
REFERENCE_SHARE = 1 / 8
#: the CLI's default tolerance between closed form and oracle
DELTA_TOL = 1e-9
#: every k-th cube op is the symmetric base point
CUBE_PIN_EVERY = 10
CUBE_GOLDEN_COUNTS = (32, 48, 18)
CUBE_GOLDEN_EXTREME = 32
CUBE_CANDIDATES = 128
SWEEP_T_MAX = 4.0
SWEEP_MAX_Q = 20
#: the CLI's default t_step, so a sweep has 17 t values per l0
SWEEP_T_COUNT = 17

#: artifacts each subcommand writes; removed before every op so that a
#: failing op cannot be checked against the previous op's files
ARTIFACTS = {
    "envelope": ("envelope.csv", "envelope_summary.json"),
    "delta": (),
    "cube": ("cube_points.json", "cube_points.csv", "cube_hull.json"),
    "sweep": ("sweep.csv", "sweep_summary.json"),
}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    config: str
    inputs: dict
    pinned: bool = False

    def key(self) -> tuple:
        """Identity of the program's inputs, for the repeat share."""
        return (self.argv, self.config)


@dataclass(frozen=True)
class Outcome:
    status: str
    reason: str = ""
    #: envelope: (l0, t, d_lr, d_rl) of the t > 0 cell
    cell: tuple | None = None
    #: cube: whether qhull and brute-force extremality agree
    agree: bool | None = None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def envelope_ops(rng: random.Random) -> Iterator[Op]:
    """One l0 log-uniform on [0.02, 10] and the two t cells {0, t}, t uniform
    on [0.25, 8]; every k-th op is the pinned cell l0 = 5, t in {0, 4}."""
    i = 0
    while True:
        pinned = i % ENVELOPE_PIN_EVERY == 0
        if pinned:
            l0, t = 5.0, 4.0
        else:
            l0, t = _log_uniform(rng, 0.02, 10.0), rng.uniform(0.25, 8.0)
        config = f"l0_values={l0!r}\nt_max={t!r}\nt_step={t!r}\nmax_q={ENVELOPE_MAX_Q}\n"
        yield Op("envelope", ("envelope",), config, {"l0": l0, "t": t}, pinned)
        i += 1


def oracle_ops(rng: random.Random) -> Iterator[Op]:
    """A type, signs and cuff, and three cuff lengths log-uniform on [0.01, 20]."""
    while True:
        kind = rng.choice(("3sym", "2sym", "asym"))
        signs = "".join(rng.choice("LR") for _ in range(3))
        cuff = rng.randint(1, 3)
        lengths = tuple(_log_uniform(rng, 0.01, 20.0) for _ in range(3))
        argv = ("delta", "--type", kind, "--l", _floats(lengths), "--signs", signs, "--cuff", str(cuff))
        yield Op("delta", argv, "", {"type": kind, "signs": signs, "cuff": cuff, "lengths": list(lengths)})


def genus2_ops(rng: random.Random) -> Iterator[Op]:
    """Three cube ops to one sweep op.

    Cube: base lengths log-uniform on [0.2, 5], twists uniform on [-2, 2];
    every k-th cube op is the symmetric base point.  Sweep: one l0 from
    each third of [0.05, 5] on a log scale (thin, middle, thick cells),
    t_max = 4, max_q = 20.
    """
    i = cubes = 0
    edges = [0.05 * 100.0 ** (j / 3) for j in range(4)]
    while True:
        if i % 4 == 3:
            l0s = tuple(_log_uniform(rng, edges[j], edges[j + 1]) for j in range(3))
            config = f"l0_values={_floats(l0s)}\nt_max={SWEEP_T_MAX!r}\nmax_q={SWEEP_MAX_Q}\n"
            yield Op("sweep", ("sweep",), config, {"l0_values": list(l0s)})
        else:
            pinned = cubes % CUBE_PIN_EVERY == 0
            if pinned:
                lengths, twists = (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
            else:
                lengths = tuple(_log_uniform(rng, 0.2, 5.0) for _ in range(3))
                twists = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            config = f"base_lengths={_floats(lengths)}\nbase_twists={_floats(twists)}\n"
            yield Op("cube", ("cube",), config, {"base_lengths": list(lengths), "base_twists": list(twists)}, pinned)
            cubes += 1
        i += 1


@dataclass(frozen=True)
class Workload:
    name: str
    #: why the workload is in the benchmark
    why: str
    #: the layer it does not reach, so a change there should not move it
    bypasses: str
    ops: Callable[[random.Random], Iterator[Op]]
    #: nominal untraced ops per second at reference speed; sizes the fixed
    #: op count of a run
    rate: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "envelope",
            "envelope-width estimator on the once-punctured torus: torus.envelope_widths takes ~92% of the time",
            "h2 (never called) and the constructive oracle",
            envelope_ops,
            rate=5.5,
        ),
        Workload(
            "oracle",
            "constructive twist-offset oracle: pants.delta_oracle over h2.shear, plus per-call CLI overhead",
            "torus (never called)",
            oracle_ops,
            rate=280.0,
        ),
        Workload(
            "genus2",
            "genus-two stretch-vector hull (cube over pants closed forms) mixed 3:1 with bound sweeps",
            "h2 and the constructive oracle; torus only through a few cached middle constants",
            genus2_ops,
            rate=10.0,
        ),
    )
}


class CheckError(Exception):
    """An artifact is missing, does not parse, or contradicts a check."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {text!r}")
    return value


def check_envelope(op: Op, rc, stdout: str, stderr: str, out: Path) -> Outcome:
    rows = (out / "envelope.csv").read_text().splitlines()
    if rows[0] != "l0,t,d_lr,d_rl" or len(rows) != 3:
        raise CheckError("envelope.csv must hold a header and two cells")
    cells = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
    l0, t = op.inputs["l0"], op.inputs["t"]
    if [c[:2] for c in cells] != [(l0, 0.0), (l0, t)]:
        raise CheckError(f"cells {[c[:2] for c in cells]} are not (l0, 0) and (l0, t)")
    if cells[0][2:] != (0.0, 0.0):
        raise CheckError("the t = 0 endpoints coincide, so both widths must be 0")
    summary = json.loads((out / "envelope_summary.json").read_text())
    bound = summary["empirical_bound"]
    if bound != max(v for c in cells for v in c[2:]):
        raise CheckError(f"empirical_bound {bound} is not the maximum of the cells")
    bounded = all(math.isfinite(v) for c in cells for v in c)
    if summary["bounded"] is not bounded or (rc == 0) != bounded:
        raise CheckError(f"exit {rc} and bounded={summary['bounded']} disagree with the cells")
    if summary["max_q"] != ENVELOPE_MAX_Q:
        raise CheckError(f"max_q {summary['max_q']} is not {ENVELOPE_MAX_Q}")
    if op.pinned and abs(bound - ENVELOPE_BOUND_GOLDEN) > ENVELOPE_TOL:
        raise CheckError(f"pinned empirical_bound {bound!r} is not the golden {ENVELOPE_BOUND_GOLDEN!r}")
    if rc == 1:
        return Outcome("failed", "envelope reports an unbounded cell")
    return Outcome("ok", cell=cells[1])


def check_delta(op: Op, rc, stdout: str, stderr: str, out: Path) -> Outcome:
    values = dict(line.split("=", 1) for line in stdout.splitlines())
    if sorted(values) != ["abs_diff", "delta_closed", "delta_oracle"]:
        raise CheckError(f"unexpected output keys {sorted(values)}")
    closed, oracle = _finite(values["delta_closed"]), _finite(values["delta_oracle"])
    diff = _finite(values["abs_diff"])
    if diff != abs(closed - oracle):
        raise CheckError(f"abs_diff {diff!r} is not |closed - oracle|")
    if (rc == 0) != (diff <= DELTA_TOL):
        raise CheckError(f"exit {rc} disagrees with abs_diff {diff!r}")
    if rc == 1:
        return Outcome("failed", f"abs_diff={diff!r} > {DELTA_TOL}")
    return Outcome("ok")


def check_cube(op: Op, rc, stdout: str, stderr: str, out: Path) -> Outcome:
    hull = json.loads((out / "cube_hull.json").read_text())
    points = json.loads((out / "cube_points.json").read_text())
    csv_rows = (out / "cube_points.csv").read_text().splitlines()
    if len(points) != CUBE_CANDIDATES or len(csv_rows) != CUBE_CANDIDATES + 1:
        raise CheckError(f"{len(points)} points and {len(csv_rows) - 1} csv rows, expected {CUBE_CANDIDATES}")
    if len({p["completion"] for p in points}) != CUBE_CANDIDATES:
        raise CheckError("completion labels repeat")
    for p in points:
        if len(p["d_twist"]) != 3 or not all(math.isfinite(v) for v in p["d_twist"]):
            raise CheckError(f"bad twist vector for {p['completion']}")
    counts = (hull["n_vertices"], hull["n_edges"], hull["n_faces"])
    if counts[0] - counts[1] + counts[2] != 2:
        raise CheckError(f"hull counts {counts} violate Euler's formula")
    extreme = sorted(p["completion"] for p in points if p["extreme"])
    if extreme != hull["extreme_completions"]:
        raise CheckError("extreme flags of cube_points.json disagree with cube_hull.json")
    agree = hull["brute_force_agrees"]
    if (rc == 0) != agree:
        raise CheckError(f"exit {rc} disagrees with brute_force_agrees={agree}")
    if op.pinned and (counts != CUBE_GOLDEN_COUNTS or len(extreme) != CUBE_GOLDEN_EXTREME or not agree):
        raise CheckError(f"symmetric base point gave hull {counts} with {len(extreme)} extreme completions")
    if not agree:
        return Outcome("failed", f"qhull reports {counts[0]} hull vertices; brute-force extremality disagrees", agree=False)
    return Outcome("ok", agree=True)


def check_sweep(op: Op, rc, stdout: str, stderr: str, out: Path) -> Outcome:
    rows = (out / "sweep.csv").read_text().splitlines()
    n_rows = SWEEP_T_COUNT * len(op.inputs["l0_values"])
    if rows[0] != "l0,t,regime,bound_value" or len(rows) != n_rows + 1:
        raise CheckError(f"sweep.csv has {len(rows) - 1} rows, expected {n_rows}")
    bounded = True
    for row in rows[1:]:
        l0, t, regime, value = row.split(",")
        if float(l0) not in op.inputs["l0_values"] or regime not in ("thin", "middle", "thick"):
            raise CheckError(f"bad sweep row {row!r}")
        bounded &= math.isfinite(float(value))
    summary = json.loads((out / "sweep_summary.json").read_text())
    if summary["n_rows"] != n_rows or summary["global_bounded"] is not bounded:
        raise CheckError("sweep_summary.json disagrees with sweep.csv")
    if (rc == 0) != bounded:
        raise CheckError(f"exit {rc} disagrees with global_bounded={bounded}")
    if rc == 1:
        return Outcome("failed", "sweep reports an unbounded cell")
    return Outcome("ok")


CHECKS = {"envelope": check_envelope, "delta": check_delta, "cube": check_cube, "sweep": check_sweep}


def check(op: Op, rc, stdout: str, stderr: str, out: Path) -> Outcome:
    """Check one op's exit code, printed output and artifacts."""
    # exit 1 with only an ``error:`` line is a failure the program reported
    if rc == 1 and not stdout and stderr.startswith("error:"):
        return Outcome("failed", stderr.strip())
    if rc not in (0, 1):
        return Outcome("wrong", f"exit {rc}: {stderr.strip()}")
    try:
        return CHECKS[op.kind](op, rc, stdout, stderr, out)
    except (CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome("wrong", f"{type(exc).__name__}: {exc}")
