"""Write a ``BENCH_<n>.json`` that compares the benchmark records of two source checkouts.

    python3 tools/write_bench.py PARENT_ROOT CHANGE_ROOT OUT

Each root is a source checkout in which ``perfbench/run.py`` ran with
``--trace 0``; its records are ``<root>/.perfbench_out/result-<workload>-
seed<n>-trace0.json``.  For each workload recorded on both sides, OUT
holds, per end-to-end metric declared in ``BENCHMARK.json`` and over the
seeds run on both sides only, each side's median, quartiles and per-seed
values and how many of those pairs the change wins, ties and loses in the
metric's ``better`` direction, and the metric's ``verdict``: ``gain``,
``worse``, ``unresolved`` or ``unchanged`` by the pair, bound and spread
rules of :func:`verdict`; a seed run on one side only is listed in
that side's ``seeds`` and counts in nothing else.  It also holds the git
sha and source digest of each side as its records give them (a checkout
without ``.git`` has no sha, and one with uncommitted changes reports
HEAD; the digest identifies the source), and the machine the records report.

Then it times the code itself, on the inputs that ``LAYER_INPUTS`` and
``END_TO_END_INPUTS`` name.  The in-process layers (``LAYER_SNIPPET`` and
``GRID_SNIPPET``, each in a fresh process) and the wall time of each
``CLI_COMMANDS`` subcommand run on three sides: the parent, the change and
``copy``, a second copy of the parent, whose time over the parent's is an
A/A reading of the host's own spread.  Each side runs from a copy of its
root's ``src`` at a path of the same length under one temporary directory
(:func:`copies`), so nothing but the code differs between the sides.  Each
side runs once per round, and the rounds cycle through every order of the
sides (:func:`run_rounds`), so over a multiple of six rounds each side runs
in each position equally often.  Each entry holds each side's median, the
median and quartiles over rounds of the change's and the copy's time over
the parent's in the same round, the rounds the change wins, ties and loses
(:func:`pair_counts`), and a ``verdict`` (:func:`band_verdict`): ``faster``
or ``slower`` only when the change's quartile band lies wholly below or
above the copy's, ``unchanged`` otherwise.  A layer that the parent or the
change lacks is reported with the medians of the sides that have it.  Last,
the wall time of the Tier-1 suite, which needs the whole checkout, in each
root, in two A/B rounds with the same ratios and pair counts.

Only reads the records; it runs nothing under ``perfbench/``.
"""

from __future__ import annotations

import compileall
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the sides of the layer and CLI timings; ``copy`` runs the parent's code again
TIMED_SIDES = ("parent", "change", "copy")
#: fresh processes per side for the layer timings, one per round: at least the
#: ten pairs of the gain rule, and a multiple of the six orders of the three
#: sides, so that each side runs in each position equally often
LAYER_ROUNDS = 12
#: the subcommands timed end to end, each run with the default config
CLI_COMMANDS = (
    ("delta", "--type", "3sym", "--l", "1,2,3", "--signs", "LRL", "--cuff", "2"),
    ("envelope",),
    ("sweep",),
    ("cube",),
    ("oracle-check",),
)
#: fresh processes per side and subcommand, one per round; as LAYER_ROUNDS
CLI_ROUNDS = 12
#: Tier-1 runs per side, one per round: each root runs first once
TIER1_ROUNDS = 2
#: max_q of the default-grid layer, the CLI's cap
GRID_MAX_Q = 400

#: times each layer on fixed inputs and prints microseconds per call as JSON
LAYER_SNIPPET = r"""
import contextlib, io, json, math, tempfile, time, timeit
from pathlib import Path
from thurston_kit import bounds, cli, cube, h2, pants, stretch, torus
metric = pants.PantsMetric(0.5, 1.0, 2.0)
cases = [(t, cuff) for t in pants.enumerate_triangulations() for cuff in range(3)]
def oracle():
    for t, cuff in cases:
        pants.delta_oracle(metric, t, cuff)
def closed():
    for t, cuff in cases:
        pants.delta_closed(metric, t, cuff)
unit = pants.PantsMetric(1.0, 1.0, 1.0)
# the derivative check's step, which the stretch vectors scale by
up, down = unit.scaled(math.exp(stretch._CHECK_STEP)), unit.scaled(math.exp(-stretch._CHECK_STEP))
# the 96 sides of the genus-two side plan, in one call as stretch_vectors makes it
plan_sides = cube._completions()[2].sides
def sides():
    pants._delta_sides(unit, up, down, plan_sides)
def gap():
    pants._next_gap(1.0, 0.7)
left, right = (0.0, 1.0, h2.INF), (1.0, 3.0, h2.INF)
def shear():
    h2.shear(left, right, 1.0, h2.INF)
# entry 11 of the max_q = 3 family is slope 3/2
point, slope = stretch.FNPoint("S11", (1.0,), (0.3,)), torus.candidate_slopes(3)[11]
def slope_length():
    torus.curve_length(point, slope)
cell = ((stretch.width_point("S11", 1.0), 4.0),)
def envelope_cell():
    torus.envelope_widths(cell, 30)
# the family maximum at (5, 1) sits at slope (1, 4), so its cone stays open
farey_cell = ((stretch.width_point("S11", 5.0), 1.0),)
def envelope_farey_cell():
    torus.envelope_widths(farey_cell, 30)
base = cube.symmetric_base_point()
raw = cube.cloud(base)
def cube_cloud():
    cube.cloud(base)
def cube_dedupe():
    cube.dedupe_points(raw)
def cube_certify():
    cube.certify(raw, cube.chamfered_cube())
check = cube.chamfered_cube_check(base)
def cube_points():
    cli._cube_points(check["rows"], check["entries"])
cfg = cli.Config()
sweep_args = (cfg.l0_values, cfg.t_values(), cfg.max_q)
def sweep():
    bounds.run_sweep(*sweep_args)
# the default config's base point is the symmetric point
tmp = tempfile.TemporaryDirectory()
out_dir = Path(tmp.name) / "out"
# the CLI layers remove the artifacts of the call before, as a benchmark op's
# worker does, so every call writes new files; the clock stops while they do
paused = [0.0]
def clock():
    return time.perf_counter() - paused[0]
def remove_artifacts():
    start = time.perf_counter()
    for path in out_dir.glob("*"):
        path.unlink()
    paused[0] += time.perf_counter() - start
cube_config = Path(tmp.name) / "config.txt"
cube_config.write_text(f"out_dir={out_dir}\n")
def cli_cube():
    remove_artifacts()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--config", str(cube_config), "cube"])
# the shape of an envelope benchmark op: one l0 and the cells t = 0 and t = t_max
envelope_config = Path(tmp.name) / "envelope.txt"
envelope_config.write_text(f"out_dir={out_dir}\nl0_values=1.0\nt_max=4.0\nt_step=4.0\nmax_q=30\n")
def cli_envelope():
    remove_artifacts()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--config", str(envelope_config), "envelope"])
# the shape of an oracle benchmark op: one delta, closed form and oracle
def cli_delta():
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["delta", "--type", "2sym", "--l", "0.5,1.3,2.2", "--signs", "LRL", "--cuff", "2"])
# calls per repeat: about 1,000 for the pants layers (10 side tables of 96 sides each),
# the shear (about 12 us each) and the slope length (about 75 us), and about 0.05 to 0.1 s
# of work for the envelope cells (about 0.2 and 0.65 ms each), the cube stages (about 0.05
# to 0.55 ms), the cube points (about 0.35 ms), the sweep (about 1.2 ms), the CLI cube
# (about 1.6 ms), the CLI envelope (about 0.5 ms) and the CLI delta (about 60 us)
out = {}
# a layer that raises still removes the directory
try:
    for name, fn, calls, number in (("pants.delta_oracle", oracle, len(cases), 1000 // len(cases)),
                                    ("pants.delta_closed", closed, len(cases), 1000 // len(cases)),
                                    ("pants._delta_sides", sides, 1, 1000 // len(plan_sides)),
                                    ("pants._next_gap", gap, 1, 1000),
                                    ("h2.shear", shear, 1, 1000),
                                    ("torus.curve_length", slope_length, 1, 1000),
                                    ("torus.envelope_widths", envelope_cell, 1, 100),
                                    ("torus.envelope_widths[5,1]", envelope_farey_cell, 1, 100),
                                    ("cube.cloud", cube_cloud, 1, 30),
                                    ("cube.dedupe_points", cube_dedupe, 1, 100),
                                    ("cube.certify", cube_certify, 1, 300),
                                    ("bounds.run_sweep", sweep, 1, 100),
                                    ("cli.cube_points", cube_points, 1, 100),
                                    ("cli.cube", cli_cube, 1, 20),
                                    ("cli.envelope", cli_envelope, 1, 50),
                                    ("cli.delta", cli_delta, 1, 500)):
        out[name] = min(timeit.repeat(fn, number=number, repeat=5, timer=clock)) / (number * calls) * 1e6
finally:
    tmp.cleanup()
print(json.dumps(out))
"""
#: times torus.envelope_widths once on the default envelope grid at max_q = argv[1],
#: first-use plan builds included, and prints microseconds as JSON
GRID_SNIPPET = r"""
import json, sys, time
from thurston_kit import cli, stretch, torus
cfg = cli.Config()
cells = [(stretch.width_point("S11", l0), t) for l0 in cfg.l0_values for t in cfg.t_values()]
start = time.perf_counter()
torus.envelope_widths(cells, int(sys.argv[1]))
print(json.dumps({"torus.envelope_widths[default grid]": (time.perf_counter() - start) * 1e6}))
"""
LAYER_INPUTS = (
    "delta_oracle and delta_closed: all 32 types x cuffs 0-2 at cuff lengths (0.5, 1, 2); "
    "_delta_sides: one call over the 96 sides of cube._completions()[2].sides at cuff lengths (1, 1, 1), "
    "with up and down scaled by e^{+-h}, h the derivative check's step stretch._CHECK_STEP (3e-4); "
    "_next_gap: prev_gap 1, sigma 0.7; shear: triangles (0, 1, inf) and (1, 3, inf) across "
    "(1, inf); curve_length: slope 3/2 at the S11 point of length 1 and twist 0.3; "
    "envelope_widths: the one cell (width_point('S11', 1.0), t = 4) at max_q 30, which the integer "
    "slopes decide; envelope_widths[5,1]: the one cell (width_point('S11', 5.0), t = 1) at max_q 30, "
    "whose maximum sits at slope (1, 4) and takes the family pass; envelope_widths[default grid]: the "
    f"165 cells of the default envelope grid (cli.Config) at max_q {GRID_MAX_Q}, timed once in a fresh "
    "process, plan builds included; "
    "cloud: the symmetric base point; dedupe_points and certify (with cube.chamfered_cube()): its raw "
    "cloud of 128 vectors; run_sweep: the default sweep grid (the defaults of cli.Config); "
    "cli.cube_points: the distinct rows and the 128 entries of chamfered_cube_check at the symmetric "
    "base point; cli.cube: "
    "cli.main(['--config', cfg, 'cube']) with cfg holding only an out_dir in a temporary directory "
    "(the symmetric base point), its stdout discarded; cli.envelope: cli.main(['--config', cfg, "
    "'envelope']) with cfg holding l0_values=1.0, t_max=t_step=4.0, max_q=30 and the same out_dir, "
    "its stdout discarded; both remove the files in out_dir before each call, untimed, so each call "
    "writes new files as a benchmark op does; cli.delta: cli.main(['delta', '--type', '2sym', '--l', "
    "'0.5,1.3,2.2', '--signs', 'LRL', '--cuff', '2']), its stdout discarded; "
    "microseconds per call, best of 5 repeats per process of about 1,000 calls (pants, shear, "
    "curve_length; 10 calls of _delta_sides, 960 sides), 500 calls (cli.delta), 300 calls (certify), "
    "100 calls (envelope cells, sweep, dedupe_points, cli.cube_points), 50 calls (cli.envelope), "
    "30 calls (cloud) or 20 calls (cli.cube); "
    f"{LAYER_ROUNDS} rounds of one process per side, the parent, the change and copy (the parent's "
    "src again), each from a copy of its src at paths of equal length, the rounds cycling through "
    "the six orders of the sides; each side's median, the median and quartiles of the per-round "
    "change/parent and copy/parent ratios, the rounds the change wins, ties and loses, and the "
    "verdict: faster or slower when the change/parent quartiles lie wholly below or above the "
    "copy/parent ones, unchanged otherwise"
)
END_TO_END_INPUTS = (
    "cli_seconds: each subcommand of CLI_COMMANDS in a fresh `python -m thurston_kit.cli` process "
    "with the default config (no --config) in a temporary directory, "
    f"in {CLI_ROUNDS} rounds on the three sides of the layers, with the same ratios, pairs and verdict; "
    f"tier1_seconds: `python -m pytest -q --continue-on-collection-errors -p no:cacheprovider` in each "
    f"root, {TIER1_ROUNDS} rounds of parent and change, each running first once, with the last line "
    "pytest printed; change_over_parent is the median over rounds of the change's time over the "
    "parent's in the same round, change_over_parent_quartiles the quartiles of those ratios, and pairs "
    "the rounds the change wins, ties and loses"
)


def load_records(root: Path) -> list[dict]:
    paths = sorted((root / ".perfbench_out").glob("result-*-trace0.json"))
    if not paths:
        raise SystemExit(f"error: no result-*-trace0.json records under {root / '.perfbench_out'}")
    return [json.loads(path.read_text()) for path in paths]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pair_counts(parent: list[float], change: list[float], lower: bool = True) -> dict:
    """How many of the pairs ``(parent[i], change[i])`` the change wins, ties
    and loses, a lower value winning when ``lower``."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {"count": len(parent), "change_wins": wins, "ties": ties, "parent_wins": len(parent) - wins - ties}


def verdict(entry: dict) -> str:
    """The reading of one metric's :func:`compare` entry.

    ``gain`` when the change wins at least nine tenths of all pairs (a tie
    counts for neither side) and its median beats the parent's by more than
    the parent's q3 - q1; ``worse`` when its median is worse than the
    parent's by more than ``bound`` times the parent's median; ``unresolved``
    when either side's q3 - q1 is wider than ``bound`` times its median,
    unless every change run beats every parent run; ``unchanged`` otherwise.
    """
    sign = -1.0 if entry["better"] == "lower" else 1.0
    parent, change, pairs = entry["parent"], entry["change"], entry["pairs"]
    better = sign * (change["median"] - parent["median"])
    if 10 * pairs["change_wins"] >= 9 * pairs["count"] and better > parent["q3"] - parent["q1"]:
        return "gain"
    if -better > entry["bound"] * abs(parent["median"]):
        return "worse"
    wide = any(s["q3"] - s["q1"] > entry["bound"] * abs(s["median"]) for s in (parent, change))
    beats_all = min(sign * v for v in change["by_seed"].values()) > max(sign * v for v in parent["by_seed"].values())
    if wide and not beats_all:
        return "unresolved"
    return "unchanged"


def compare(declared: list[dict], records: dict[str, list[dict]]) -> dict:
    """Per workload and metric: each side's spread and per-seed values over the
    seeds both sides ran, the pair counts and the :func:`verdict`; ``seeds``
    lists every seed of a side."""
    by_side = {side: {} for side in SIDES}
    for side in SIDES:
        for record in records[side]:
            info = record["info"]
            by_side[side].setdefault(info["workload"], {})[info["seed"]] = record
    out = {}
    for workload in sorted(set(by_side["parent"]) & set(by_side["change"])):
        seeds = sorted(set(by_side["parent"][workload]) & set(by_side["change"][workload]))
        runs = {side: {seed: by_side[side][workload][seed] for seed in seeds} for side in SIDES}
        entry = {
            "seeds": {side: sorted(by_side[side][workload]) for side in SIDES},
            "run_seconds": {side: sorted({r["info"]["seconds"] for r in runs[side].values()}) for side in SIDES},
        }
        for metric in declared:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: {seed: r["result"]["metrics"][name]["value"] for seed, r in runs[side].items()}
                      for side in SIDES}
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **{side: {**spread(list(values[side].values())),
                          "by_seed": {str(seed): v for seed, v in sorted(values[side].items())}}
                   for side in SIDES},
                "pairs": pair_counts([values["parent"][seed] for seed in seeds],
                                     [values["change"][seed] for seed in seeds], lower),
            }
            entry[name]["verdict"] = verdict(entry[name])
        out[workload] = entry
    return out


def wall_time(cmd: list[str], root: Path, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds one fresh process of ``cmd`` takes, with ``root``'s ``src`` on
    the path, and the finished process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=1200)
    return time.perf_counter() - start, proc


def band_verdict(change: list[float], copy: list[float]) -> str:
    """``faster`` or ``slower`` when the quartile band ``change`` of the
    change/parent ratios lies wholly below or above the band ``copy`` of the
    copy/parent ones, the host's own spread on identical code; else ``unchanged``."""
    if change[1] < copy[0]:
        return "faster"
    return "slower" if change[0] > copy[1] else "unchanged"


def paired(samples: dict[str, list[float]]) -> dict:
    """Each side's median; for each side but the parent, the median and
    quartiles over rounds of its time over the parent's (the host's speed
    drifts between rounds; the runs of one round share it); the rounds the
    change wins, ties and loses; and, with a copy, the :func:`band_verdict`."""
    out = {side: statistics.median(values) for side, values in samples.items()}
    for side in [side for side in samples if side != "parent"]:
        ratios = spread([s / p for p, s in zip(samples["parent"], samples[side])])
        out[f"{side}_over_parent"] = ratios["median"]
        out[f"{side}_over_parent_quartiles"] = [ratios["q1"], ratios["q3"]]
    out["pairs"] = pair_counts(samples["parent"], samples["change"])
    if "copy" in samples:
        out["verdict"] = band_verdict(out["change_over_parent_quartiles"], out["copy_over_parent_quartiles"])
    return out


def by_name(samples: dict[str, list[dict]]) -> dict:
    """:func:`paired` per name that the runs of ``samples`` report, over the
    sides whose first run has it; the medians of those sides alone when the
    parent or the change lacks it."""
    out = {}
    for name in dict.fromkeys(name for runs in samples.values() for name in runs[0]):
        have = {side: [run[name] for run in runs] for side, runs in samples.items() if name in runs[0]}
        out[name] = (paired(have) if {"parent", "change"} <= have.keys()
                     else {side: statistics.median(values) for side, values in have.items()})
    return out


def run_rounds(sides: tuple[str, ...], rounds: int, run) -> dict[str, list]:
    """``run(side)`` for each of ``sides`` once per round, by side in round
    order.  Round ``r`` runs the sides in the ``r``-th of their orders, cycling
    through all of them, so over a multiple of their number each side runs in
    each position equally often and a drift of the host's speed favours none."""
    orders = list(itertools.permutations(sides))
    samples = {side: [] for side in sides}
    for r in range(rounds):
        for side in orders[r % len(orders)]:
            samples[side].append(run(side))
    return samples


@contextlib.contextmanager
def copies(roots: dict[str, Path]):
    """Per side of ``TIMED_SIDES``, a root that holds a compiled copy of the
    ``src`` of that side's checkout (the parent's for ``copy``), each at
    ``<tmp>/<i>`` under one temporary directory, so their paths have one length."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for i, side in enumerate(TIMED_SIDES):
            out[side] = Path(tmp) / str(i)
            shutil.copytree(roots.get(side, roots["parent"]) / "src", out[side] / "src",
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            compileall.compile_dir(out[side] / "src", quiet=1)
        yield out


def run_snippet(root: Path, code: str, *args: str) -> dict:
    """The JSON that ``code`` prints in a fresh process with ``root``'s ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def layer_timings(roots: dict[str, Path]) -> dict:
    with copies(roots) as src:
        return by_name(run_rounds(TIMED_SIDES, LAYER_ROUNDS, lambda side: {
            **run_snippet(src[side], LAYER_SNIPPET), **run_snippet(src[side], GRID_SNIPPET, str(GRID_MAX_Q))}))


def cli_timings(roots: dict[str, Path], commands=CLI_COMMANDS, rounds: int = CLI_ROUNDS) -> dict:
    """Wall seconds of each subcommand, run with the default config; a run
    that exits non-zero stops the script."""
    with copies(roots) as src, tempfile.TemporaryDirectory() as tmp:
        def run(side: str) -> dict:
            seconds = {}
            for argv in commands:
                cmd = [sys.executable, "-m", "thurston_kit.cli", *argv]
                seconds[argv[0]], proc = wall_time(cmd, src[side], Path(tmp))
                if proc.returncode != 0:
                    raise SystemExit(f"error: {side} `{' '.join(argv)}` exited {proc.returncode}: {proc.stderr}")
            return seconds

        return by_name(run_rounds(TIMED_SIDES, rounds, run))


def tier1_timings(roots: dict[str, Path], rounds: int = TIER1_ROUNDS) -> dict:
    """Wall seconds of the Tier-1 suite in each root, with its last output line."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    summary = {}

    def run(side: str) -> float:
        seconds, proc = wall_time(cmd, roots[side], roots[side])
        summary[side] = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        return seconds

    return {**paired(run_rounds(SIDES, rounds, run)), "summary": summary}


def cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in text.splitlines() if line.startswith("model name")), None)


def main(argv: list[str]) -> None:
    if len(argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    roots = {side: Path(arg).resolve() for side, arg in zip(SIDES, argv[:2])}
    records = {side: load_records(roots[side]) for side in SIDES}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    info = records["parent"][0]["info"]
    bench = {
        "sides": {side: {key: sorted({r["info"][key] for r in records[side]}, key=str)
                         for key in ("git_sha", "src_sha256")} for side in SIDES},
        "machine": {
            "cpu": cpu_model(),
            "arch": platform.machine(),
            **{key: info[key] for key in ("nproc", "python", "numpy", "scipy")},
        },
        "end_to_end": compare(declared, records),
        "layers_us_per_call": layer_timings(roots),
        "layer_inputs": LAYER_INPUTS,
        "cli_seconds": cli_timings(roots),
        "tier1_seconds": tier1_timings(roots),
        "end_to_end_inputs": END_TO_END_INPUTS,
    }
    Path(argv[2]).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
