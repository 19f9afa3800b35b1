"""Write a ``BENCH_<n>.json`` that compares the benchmark records of two source checkouts.

    python3 tools/write_bench.py PARENT_ROOT CHANGE_ROOT OUT

Each root is a source checkout in which ``perfbench/run.py`` ran with
``--trace 0``; its records are ``<root>/.perfbench_out/result-<workload>-
seed<n>-trace0.json``.  For each workload recorded on both sides, OUT
holds, per end-to-end metric declared in ``BENCHMARK.json`` and over the
seeds run on both sides only, each side's median, quartiles and per-seed
values and how many of those pairs the change wins, ties and loses in the
metric's ``better`` direction; a seed run on one side only is listed in
that side's ``seeds`` and counts in nothing else.  It also holds the git
sha and source digest of each side as its records give them (a checkout
without ``.git`` has no sha, and one with uncommitted changes reports
HEAD; the digest identifies the source), the machine the records report, and
in-process layer timings of ``pants.delta_oracle``, ``pants.delta_closed``,
one ``pants.delta_side`` (the four offset evaluations of one side of a
stretch vector, over the 96 sides at the genus-two symmetric point, scaled
by the derivative check's step ``stretch._CHECK_STEP``), one
``pants._next_gap`` solve, one ``h2.shear`` of a fixed triangle pair,
one ``torus.curve_length`` (slope 3/2 at one S11 point), one
``torus.envelope_widths`` cell that the integer slopes decide and one
that needs the Farey pass, one ``cube.chamfered_cube_check`` and its
stages ``cube.cloud``, ``cube.dedupe_points`` (of the raw cloud) and
``cube.certify`` (the labelled certificate, on the raw cloud), one
``cube.hull`` of the deduplicated cloud (the tests' qhull reference,
which the ``cube`` command does not run), one ``stretch.stretch_vectors`` of
the 128 genus-two completions at the symmetric point, one
``bounds.run_sweep`` of the default ``sweep`` grid, one
``cli.cube_points`` (the text of ``cube_points.json`` and
``cube_points.csv`` from the cube's entries at the symmetric point), one
``cli.cube`` (``cli.main`` running ``cube`` at the symmetric point), one
``cli.envelope`` (``cli.main`` running ``envelope`` on the cells of an
``envelope`` benchmark op, l0 = 1 and t in {0, 4} at max_q 30), artifacts
written to a temporary directory whose files each call removes first,
untimed, as a benchmark op's worker does, one ``cli.delta`` (``cli.main`` running
``delta`` as an ``oracle`` benchmark op does, its stdout discarded), and
one ``control.python_kernel``, a
fixed loop that calls nothing of the package, so its ratio shows the
host's own drift between sides: the best of several
repeats per fresh process, in processes that import each root's ``src``
in turn.  A layer whose function a root lacks is not timed there, and
is reported with the other side's median alone.  The timings run in
rounds of one process per side, and the sides alternate: the parent
runs first in even rounds and the change in odd ones (``round_order``),
so with an even number of rounds a drift of the host's speed within a
round favours neither side.  In a second fresh
process per round and side, ``torus.envelope_widths`` runs once on the
default ``envelope`` grid at ``GRID_MAX_Q``, the CLI's cap, first-use
plan builds included.  Each
layer reports the median over rounds of the change's time over the
parent's in the same round, with the quartiles of those ratios: a median
of 6 does not resolve 20% on a noisy host.  Last, the wall time of each
``CLI_COMMANDS`` subcommand in a fresh process with the default config,
and of the Tier-1 suite (``python -m pytest -q`` in the root), in
the same alternating rounds, with the same ratio quartiles.

Only reads the records; it runs nothing under ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: fresh processes per side for the layer timings, one per round; even, so
#: that each side runs first in half the rounds (see ``round_order``)
LAYER_ROUNDS = 6
#: the subcommands timed end to end, each run with the default config
CLI_COMMANDS = (
    ("delta", "--type", "3sym", "--l", "1,2,3", "--signs", "LRL", "--cuff", "2"),
    ("envelope",),
    ("sweep",),
    ("cube",),
    ("oracle-check",),
)
#: fresh processes per side and subcommand, one per round; even, as LAYER_ROUNDS
CLI_ROUNDS = 6
#: Tier-1 runs per side, one per round; even, as LAYER_ROUNDS
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
def side():
    for t, cuff in cases:
        pants.delta_side(unit, t, cuff, up, down)
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
def cube_check():
    cube.chamfered_cube_check(base)
raw = cube.cloud(base)
uniq = cube.dedupe_points(raw)[0]
def cube_cloud():
    cube.cloud(base)
plan = stretch.side_plan(cube._completions()[0])
def vectors():
    stretch.stretch_vectors(base, plan)
def cube_dedupe():
    cube.dedupe_points(raw)
def cube_hull():
    cube.hull(uniq)
# the labelled certificate, on roots that have it
certify = getattr(cube, "certify", None)
def cube_certify():
    certify(raw, cube.chamfered_cube())
entries = cube.chamfered_cube_check(base)["entries"]
def cube_points():
    cli._cube_points(entries)
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
# the control: a fixed kernel of integer bytecode and 2x2 float products with
# math calls, the kind of loop perfbench's calibration runs, that calls nothing
# of the package, so its change/parent ratio is the host's own drift
def control():
    acc, m, logscale = 0, (1.0, 0.0, 0.0, 1.0), 0.0
    for i in range(30_000):
        acc += i * i % 7
    c, s = math.cosh(0.3), math.sinh(0.3)
    for _ in range(3_000):
        m = (m[0] * c + m[1] * s, m[0] * s + m[1] * c, m[2] * c + m[3] * s, m[2] * s + m[3] * c)
        scale = abs(m[0]) + abs(m[3])
        m = (m[0] / scale, m[1] / scale, m[2] / scale, m[3] / scale)
        logscale += math.log(scale)
# calls per repeat: about 1,000 for the pants layers (960 for the sides),
# the shear (about 15 us each) and the slope length (about 110 us), and about 0.1 s of
# work for the envelope cells (about 0.3 and 1 ms each), the cube (about 4.5 ms), the
# cube points (about 0.4 ms), the CLI cube (about 7 ms), the CLI envelope (about 2 ms),
# the CLI delta (about 0.2 ms), the sweep (about 1.6 ms) and the control (about 5 ms),
# the cube stages and the stretch vectors (about 0.05 to 3 ms each)
out = {}
for name, fn, calls, number in (("pants.delta_oracle", oracle, len(cases), 1000 // len(cases)),
                                ("pants.delta_closed", closed, len(cases), 1000 // len(cases)),
                                ("pants.delta_side", side, len(cases), 1000 // len(cases)),
                                ("pants._next_gap", gap, 1, 1000),
                                ("h2.shear", shear, 1, 1000),
                                ("torus.curve_length", slope_length, 1, 1000),
                                ("torus.envelope_widths", envelope_cell, 1, 100),
                                ("torus.envelope_widths[5,1]", envelope_farey_cell, 1, 100),
                                ("cube.chamfered_cube_check", cube_check, 1, 15),
                                ("cube.cloud", cube_cloud, 1, 30),
                                ("stretch.stretch_vectors", vectors, 1, 30),
                                ("cube.dedupe_points", cube_dedupe, 1, 100),
                                ("cube.hull", cube_hull, 1, 100),
                                ("cube.certify", cube_certify if certify else None, 1, 300),
                                ("bounds.run_sweep", sweep, 1, 100),
                                ("cli.cube_points", cube_points, 1, 100),
                                ("cli.cube", cli_cube, 1, 20),
                                ("cli.envelope", cli_envelope, 1, 50),
                                ("cli.delta", cli_delta, 1, 500),
                                ("control.python_kernel", control, 1, 20)):
    if fn is None:
        continue
    out[name] = min(timeit.repeat(fn, number=number, repeat=5, timer=clock)) / (number * calls) * 1e6
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
    "delta_side: the same 96 sides at cuff lengths (1, 1, 1), scaled by e^{+-h} with h the derivative "
    "check's step stretch._CHECK_STEP (3e-4); "
    "_next_gap: prev_gap 1, sigma 0.7; shear: triangles (0, 1, inf) and (1, 3, inf) across "
    "(1, inf); curve_length: slope 3/2 at the S11 point of length 1 and twist 0.3; "
    "envelope_widths: the one cell (width_point('S11', 1.0), t = 4) at max_q 30, which the integer "
    "slopes decide; envelope_widths[5,1]: the one cell (width_point('S11', 5.0), t = 1) at max_q 30, "
    "whose maximum sits at slope (1, 4) and takes the family pass; envelope_widths[default grid]: the "
    f"165 cells of the default envelope grid (cli.Config) at max_q {GRID_MAX_Q}, timed once in a fresh "
    "process, plan builds included; "
    "chamfered_cube_check, cloud and stretch_vectors (of the 128 completions): the symmetric "
    "base point; dedupe_points and certify (with cube.chamfered_cube()): its raw cloud of 128 "
    "vectors; hull: the deduplicated cloud; run_sweep: the default sweep grid (the defaults of cli.Config); "
    "cli.cube_points: the 128 entries of chamfered_cube_check at the symmetric base point; cli.cube: "
    "cli.main(['--config', cfg, 'cube']) with cfg holding only an out_dir in a temporary directory "
    "(the symmetric base point), its stdout discarded; cli.envelope: cli.main(['--config', cfg, "
    "'envelope']) with cfg holding l0_values=1.0, t_max=t_step=4.0, max_q=30 and the same out_dir, "
    "its stdout discarded; both remove the files in out_dir before each call, untimed, so each call "
    "writes new files as a benchmark op does; cli.delta: cli.main(['delta', '--type', '2sym', '--l', "
    "'0.5,1.3,2.2', '--signs', 'LRL', '--cuff', '2']), its stdout discarded; "
    "control.python_kernel: 30,000 integer steps and 3,000 "
    "rescaled 2x2 float products with a math.log each, calling nothing of the package; "
    "microseconds per call, best of 5 repeats per process of about 1,000 calls (pants, shear, "
    "curve_length), 500 calls (cli.delta), 300 calls (certify), 100 calls (envelope cells, sweep, "
    "dedupe_points, hull, cli.cube_points), 50 calls (cli.envelope), 30 calls (cloud, stretch_vectors), 20 calls "
    "(cli.cube, control.python_kernel) or 15 calls "
    "(chamfered_cube_check); "
    f"medians over {LAYER_ROUNDS} processes per side, and the median and quartiles of the "
    "per-round change/parent ratios"
)
END_TO_END_INPUTS = (
    "cli_seconds: each subcommand of CLI_COMMANDS in a fresh `python -m thurston_kit.cli` process "
    "with the default config (no --config) in a temporary directory, "
    f"median of {CLI_ROUNDS} runs per side; tier1_seconds: `python -m pytest -q "
    f"--continue-on-collection-errors -p no:cacheprovider` in the root, median of {TIER1_ROUNDS} "
    "runs per side, with the last line pytest printed; the side that runs first alternates by round "
    "(the parent in even rounds, the change in odd ones), and change_over_parent "
    "is the median over rounds of the change's time over the parent's in the same round, "
    "change_over_parent_quartiles the quartiles of those ratios"
)


def load_records(root: Path) -> list[dict]:
    paths = sorted((root / ".perfbench_out").glob("result-*-trace0.json"))
    if not paths:
        raise SystemExit(f"error: no result-*-trace0.json records under {root / '.perfbench_out'}")
    return [json.loads(path.read_text()) for path in paths]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(declared: list[dict], records: dict[str, list[dict]]) -> dict:
    """Per workload and metric: each side's spread and per-seed values over the
    seeds both sides ran, and the pair counts; ``seeds`` lists every seed of a side."""
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
            wins = ties = 0
            for seed in seeds:
                p, c = values["parent"][seed], values["change"][seed]
                ties += c == p
                wins += (c < p) if lower else (c > p)
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **{side: {**spread(list(values[side].values())),
                          "by_seed": {str(seed): v for seed, v in sorted(values[side].items())}}
                   for side in SIDES},
                "pairs": {"count": len(seeds), "change_wins": wins, "ties": ties,
                          "parent_wins": len(seeds) - wins - ties},
            }
        out[workload] = entry
    return out


def wall_time(cmd: list[str], root: Path, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds one fresh process of ``cmd`` takes, with ``root``'s ``src`` on
    the path, and the finished process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=1200)
    return time.perf_counter() - start, proc


def paired(samples: dict[str, list[float]]) -> dict:
    """Each side's median and the median and quartiles over rounds of change
    / parent (the host's speed drifts between rounds; the two runs of one
    round share it)."""
    ratios = spread([c / p for p, c in zip(samples["parent"], samples["change"])])
    return {**{side: statistics.median(samples[side]) for side in SIDES},
            "change_over_parent": ratios["median"], "change_over_parent_quartiles": [ratios["q1"], ratios["q3"]]}


def round_order(r: int) -> tuple[str, ...]:
    """The sides in the order they run in round ``r``: the parent first in even
    rounds, the change first in odd ones, so neither always runs first on a host
    whose speed drifts."""
    return SIDES if r % 2 == 0 else SIDES[::-1]


def run_snippet(root: Path, code: str, *args: str) -> dict:
    """The JSON that ``code`` prints in a fresh process with ``root``'s ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(proc.stdout)


def layer_timings(roots: dict[str, Path]) -> dict:
    samples = {side: [] for side in SIDES}
    for r in range(LAYER_ROUNDS):
        for side in round_order(r):
            samples[side].append({**run_snippet(roots[side], LAYER_SNIPPET),
                                  **run_snippet(roots[side], GRID_SNIPPET, str(GRID_MAX_Q))})
    names = dict.fromkeys(name for side in SIDES for name in samples[side][0])
    return {name: paired({side: [s[name] for s in samples[side]] for side in SIDES})
            if all(name in samples[side][0] for side in SIDES)
            else {side: statistics.median(s[name] for s in samples[side]) for side in SIDES if name in samples[side][0]}
            for name in names}


def cli_timings(roots: dict[str, Path], commands=CLI_COMMANDS, rounds: int = CLI_ROUNDS) -> dict:
    """Wall seconds of each subcommand, run with the default config; a run
    that exits non-zero stops the script."""
    samples = {argv[0]: {side: [] for side in SIDES} for argv in commands}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(rounds):
            for argv in commands:
                for side in round_order(r):
                    seconds, proc = wall_time([sys.executable, "-m", "thurston_kit.cli", *argv], roots[side], Path(tmp))
                    if proc.returncode != 0:
                        raise SystemExit(f"error: {side} `{' '.join(argv)}` exited {proc.returncode}: {proc.stderr}")
                    samples[argv[0]][side].append(seconds)
    return {name: paired(by_side) for name, by_side in samples.items()}


def tier1_timings(roots: dict[str, Path], rounds: int = TIER1_ROUNDS) -> dict:
    """Wall seconds of the Tier-1 suite in each root, with its last output line."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    samples, summary = {side: [] for side in SIDES}, {}
    for r in range(rounds):
        for side in round_order(r):
            seconds, proc = wall_time(cmd, roots[side], roots[side])
            samples[side].append(seconds)
            summary[side] = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {**paired(samples), "summary": summary}


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
