"""Tests for the scripts under ``tools/``."""

import ast
import importlib
import json
import random
import subprocess
import timeit
from pathlib import Path

import cube_certificates
import output_digest
import pytest
import source_stats
import write_bench
from mp_reference import log_lengths, mpf_point
from test_cube import EDGE_POINT_BASES
from thurston_kit.stretch import FNPoint
from thurston_kit.torus import candidate_slopes

DECLARED = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.1},
]


def _record(seed, p50, ok):
    metrics = {"op_p50_ms": {"value": p50}, "ok_frac": {"value": ok}}
    return {"info": {"workload": "oracle", "seed": seed, "seconds": 25.0}, "result": {"metrics": metrics}}


def test_write_bench_counts_pairs_by_seed_in_the_better_direction():
    records = {
        "parent": [_record(1, 0.5, 0.98), _record(2, 0.6, 0.98), _record(3, 0.4, 0.98), _record(4, 0.7, 0.9)],
        # seed 4 is on the parent side only, seed 5 on the change side only
        "change": [_record(1, 0.3, 0.98), _record(2, 0.6, 0.99), _record(3, 0.5, 0.97), _record(5, 0.1, 1.0)],
    }
    oracle = write_bench.compare(DECLARED, records)["oracle"]
    assert oracle["seeds"] == {"parent": [1, 2, 3, 4], "change": [1, 2, 3, 5]}
    assert oracle["op_p50_ms"]["pairs"] == {"count": 3, "change_wins": 1, "ties": 1, "parent_wins": 1}
    assert oracle["ok_frac"]["pairs"] == {"count": 3, "change_wins": 1, "ties": 1, "parent_wins": 1}
    # the spread covers the paired seeds only; the unpaired ones stay listed in "seeds"
    assert oracle["op_p50_ms"]["parent"]["median"] == 0.5
    assert oracle["op_p50_ms"]["change"]["by_seed"] == {"1": 0.3, "2": 0.6, "3": 0.5}
    assert (oracle["op_p50_ms"]["parent"]["q1"], oracle["op_p50_ms"]["parent"]["q3"]) == (0.45, 0.55)


def _verdicts(parent, change):
    """The verdicts of op_p50_ms and ok_frac over paired seeds 1, 2, ...: p50 from
    the lists, ok 1.0 on both sides."""
    records = {side: [_record(seed, p50, 1.0) for seed, p50 in enumerate(values, 1)]
               for side, values in (("parent", parent), ("change", change))}
    oracle = write_bench.compare(DECLARED, records)["oracle"]
    return oracle["op_p50_ms"]["verdict"], oracle["ok_frac"]["verdict"]


@pytest.mark.parametrize(
    "parent,change,want",
    [
        # 10 of 10 pairs, medians 0.2 apart, more than the parent's q3 - q1 of 0.0575
        ([1.0, 1.05, 1.1, 0.95, 1.0, 1.02, 0.98, 1.0, 1.1, 0.9], [0.8] * 10, "gain"),
        # 9 of 10 pairs is nine tenths; a tie counts for neither side
        ([1.0] * 10, [0.8] * 9 + [1.0], "gain"),
        # 8 of 10 pairs is no gain, however far the medians lie apart
        ([1.0] * 10, [0.5] * 8 + [1.5] * 2, "unchanged"),
        # 10 of 10 pairs, but the medians lie within the parent's q3 - q1
        ([1.0, 1.2] * 5, [0.99, 1.19] * 5, "unchanged"),
        # the change's median 0.3 worse than the parent's 1.0, past the bound of 0.25
        ([1.0] * 10, [1.3] * 10, "worse"),
        ([1.0] * 10, [1.2] * 10, "unchanged"),
        # the parent's q3 - q1 of 1.0 against a median of 1.5: too wide to tell
        ([1.0, 2.0] * 5, [1.1, 1.9] * 5, "unresolved"),
        ([1.0] * 10, [0.5, 1.5] * 5, "unresolved"),
        # as wide, but every change run beats every parent run
        ([1.0, 2.0] * 5, [0.9] * 10, "unchanged"),
    ],
)
def test_write_bench_reads_each_metric_by_the_pair_bound_and_spread_rules(parent, change, want):
    assert _verdicts(parent, change) == (want, "unchanged")


def test_write_bench_reads_a_higher_is_better_metric_in_its_direction():
    records = {side: [_record(seed, 1.0, ok) for seed, ok in enumerate(values, 1)]
               for side, values in (("parent", [1.0] * 10), ("change", [0.85] * 10))}
    assert write_bench.compare(DECLARED, records)["oracle"]["ok_frac"]["verdict"] == "worse"
    records["parent"], records["change"] = records["change"], records["parent"]
    assert write_bench.compare(DECLARED, records)["oracle"]["ok_frac"]["verdict"] == "gain"


def test_source_stats_counts_only_fields_and_parameters_with_defaults():
    source = """
from dataclasses import dataclass, field
import dataclasses

@dataclass(frozen=True)
class Summary:
    counts: int
    planes: list = field(repr=False, compare=False)
    names: list = dataclasses.field(default_factory=list)
    scale: float = field(default=1.0)
    tag: str = "x"

class Plain:
    size: int = 3

def f(a, b=1, *, c, d=2):
    return lambda x, y=0: x
"""
    # names, scale and tag in the dataclass; b, d and y in the functions
    assert source_stats.settable_options(ast.parse(source)) == 6


def test_source_stats_counts_public_top_level_names():
    source = """
import math
from typing import TYPE_CHECKING

SURFACES = ("S11",)
LIMIT: int = 3
_private = 1
a, (b, _c) = 1, (2, 3)
__all__ = ["f"]
Holder.attr = 1
table[key] = 2

def f(x):
    inner = x
    return inner

async def g():
    pass

def _h():
    pass

class Point:
    size = 1

class _Row:
    pass

if TYPE_CHECKING:
    hidden = 1
"""
    # SURFACES, LIMIT, a, b, f, g and Point; imports, nested names, underscored
    # names and the objects of attribute and item assignments are not counted
    assert source_stats.public_names(ast.parse(source)) == 7


def test_source_stats_counts_optional_cli_flags():
    source = """
_REQUIRED = object()
_TOP_OPTIONS = {"config": (str, None, "file")}
_COMMANDS = {
    "delta": (cmd_delta, "help", {"l": (str, _REQUIRED, ""), "cuff": (int, 1, "")}),
    "stretch": (cmd_stretch, "help", {"t": (float, _REQUIRED, ""), "completion": (("L", "R"), "L", "")}),
    "sweep": (cmd_sweep, "help", {}),
}
_OTHER = {"x": (int, 1, "")}
"""
    # --config, --cuff and --completion; the required options and another table are not counted
    assert source_stats.optional_flags(ast.parse(source)) == 3
    assert source_stats.optional_flags(ast.parse((source_stats.SRC / "cli.py").read_text())) == 4


def test_source_stats_counts_environment_reads():
    source = """
import os
from os import environ

a = os.environ.get("A")
b = os.getenv("B", "x")
c = os.environ["C"]
os.environ["D"] = "1"
d = environ.get("E")
e = cfg.get("F")
f = getenv("G")
g = os.path.join("a", "b")
"""
    # the get, the getenv and the loading subscript of os.environ; an assignment, a bare
    # environ or getenv and another object's get are not counted
    assert source_stats.environment_reads(ast.parse(source)) == 3
    # every setting of the package comes from the --config file or the defaults
    for path in source_stats.SRC.glob("*.py"):
        assert source_stats.environment_reads(ast.parse(path.read_text())) == 0, path.name


def test_source_stats_ends_with_the_line_total_of_the_tests(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert source_stats.line_total(tmp_path) == 3
    source_stats.main()
    tests, tools = (line.split() for line in capsys.readouterr().out.splitlines()[-2:])
    assert tests == ["tests", str(source_stats.line_total(source_stats.TESTS)), "lines"]
    assert tools == ["tools", str(source_stats.line_total(source_stats.TOOLS)), "lines"]


def test_write_bench_layer_snippet_runs_on_the_current_source(monkeypatch, capsys):
    # one call per layer in place of the timed repeats
    monkeypatch.setattr(timeit, "repeat", lambda fn, number, repeat, timer: [fn() or 1.0])
    namespace = {}
    exec(write_bench.LAYER_SNIPPET, namespace)
    layers = json.loads(capsys.readouterr().out)
    assert set(layers) == LAYERS
    # the control kernel reads builtins and math only, nothing of the package
    assert set(namespace["control"].__code__.co_names) <= {"range", "abs", "math", "cosh", "sinh", "log"}


LAYERS = {
    "pants.delta_oracle", "pants.delta_closed", "pants._delta_sides", "pants._next_gap", "h2.shear",
    "torus.curve_length", "torus.envelope_widths", "torus.envelope_widths[5,1]", "cube.chamfered_cube_check", "cube.cloud",
    "cube.dedupe_points", "cube.hull", "cube.certify", "bounds.run_sweep", "stretch.stretch_vectors",
    "cli.cube_points", "cli.cube", "cli.envelope", "cli.delta", "control.python_kernel",
}


def test_output_digest_is_the_same_on_two_runs_and_sees_one_more_byte(monkeypatch):
    # a few ops of seed 1 of each workload that writes artifacts
    for workload in ("envelope", "genus2"):
        first = output_digest.digest(workload, seeds=(1,), ops=3)
        assert output_digest.digest(workload, seeds=(1,), ops=3) == first
        write = output_digest.cli._write
        with monkeypatch.context() as patch:
            patch.setattr(output_digest.cli, "_write", lambda path, text: write(path, text + " "))
            assert output_digest.digest(workload, seeds=(1,), ops=3) != first


def test_write_bench_times_a_cli_command_in_fresh_processes():
    timings = write_bench.cli_timings({side: write_bench.ROOT for side in write_bench.SIDES},
                                      commands=(write_bench.CLI_COMMANDS[0],), rounds=1)
    assert list(timings) == ["delta"]
    assert set(timings["delta"]) == {"parent", "change", "change_over_parent", "change_over_parent_quartiles", "pairs"}
    assert all(timings["delta"][side] > 0 for side in write_bench.SIDES)


def test_write_bench_times_the_default_grid_once_per_process():
    # the layer runs at the CLI's cap, about 4 s; a small family keeps the check short
    timings = write_bench.run_snippet(write_bench.ROOT, write_bench.GRID_SNIPPET, "3")
    assert list(timings) == ["torus.envelope_widths[default grid]"] and timings["torus.envelope_widths[default grid]"] > 0


def test_write_bench_reports_the_quartiles_of_the_round_ratios():
    timings = write_bench.paired({"parent": [1.0, 2.0, 4.0, 1.0, 2.0], "change": [1.0, 1.0, 1.0, 2.0, 2.0]})
    assert (timings["parent"], timings["change"], timings["change_over_parent"]) == (2.0, 1.0, 1.0)
    assert timings["change_over_parent_quartiles"] == [0.5, 1.0]
    assert timings["pairs"] == {"count": 5, "change_wins": 2, "ties": 2, "parent_wins": 1}


def test_write_bench_counts_the_rounds_each_side_wins_in_the_layer_and_cli_timings(monkeypatch):
    # the ten pairs of the gain rule; the change's times by round: 7 wins, 2 ties, 1 loss
    assert write_bench.LAYER_ROUNDS == write_bench.CLI_ROUNDS == 10
    change = [0.9, 1.0, 0.8, 0.9, 1.1, 0.9, 0.7, 1.0, 0.9, 0.9]
    want = {"count": 10, "change_wins": 7, "ties": 2, "parent_wins": 1}
    runs = {}

    def seconds(root):
        runs[root.name] = runs.get(root.name, -1) + 1
        return change[runs[root.name]] if root.name == "c" else 1.0

    monkeypatch.setattr(write_bench, "run_snippet", lambda root, code, *args: (
        {"layer": seconds(root)} if code is write_bench.LAYER_SNIPPET else {"grid": 1.0}))
    roots = {"parent": Path("p"), "change": Path("c")}
    timings = write_bench.layer_timings(roots)
    assert timings["layer"]["pairs"] == want
    assert timings["grid"]["pairs"] == {"count": 10, "change_wins": 0, "ties": 10, "parent_wins": 0}
    runs.clear()
    monkeypatch.setattr(write_bench, "wall_time", lambda cmd, root, cwd: (seconds(root), subprocess.CompletedProcess(cmd, 0)))
    assert write_bench.cli_timings(roots, commands=write_bench.CLI_COMMANDS[:1])["delta"]["pairs"] == want


def test_write_bench_pairs_tier1_runs_by_round(monkeypatch):
    runs = {Path("p"): iter([2.0, 4.0, 3.0]), Path("c"): iter([1.0, 3.0, 2.7])}

    def fake(cmd, root, cwd):
        assert cmd[1:4] == ["-m", "pytest", "-q"] and cwd == root
        return next(runs[root]), subprocess.CompletedProcess(cmd, 0, stdout=f"...\n3 passed in {root.name}\n")

    monkeypatch.setattr(write_bench, "wall_time", fake)
    timings = write_bench.tier1_timings({"parent": Path("p"), "change": Path("c")}, rounds=3)
    assert (timings["parent"], timings["change"]) == (3.0, 2.7)
    assert timings["change_over_parent"] == 0.75
    assert timings["summary"] == {"parent": "3 passed in p", "change": "3 passed in c"}


def test_write_bench_alternates_which_side_runs_first(monkeypatch):
    roots = {"parent": Path("p"), "change": Path("c")}
    calls = []

    def fake_snippet(root, code, *args):
        calls.append((root.name, code is write_bench.LAYER_SNIPPET))
        return {"layer" if code is write_bench.LAYER_SNIPPET else "grid": 2.0 if root.name == "c" else 1.0}

    monkeypatch.setattr(write_bench, "run_snippet", fake_snippet)
    timings = write_bench.layer_timings(roots)
    # the parent leads the even rounds, the change the odd ones; each side runs
    # the layer snippet, then the default-grid one
    expected = []
    for r in range(write_bench.LAYER_ROUNDS):
        for side in ("p", "c") if r % 2 == 0 else ("c", "p"):
            expected += [(side, True), (side, False)]
    assert calls == expected
    assert timings["layer"]["change_over_parent"] == timings["grid"]["change_over_parent"] == 2.0

    order = []

    def fake_wall_time(cmd, root, cwd):
        order.append(root.name)
        return 1.0, subprocess.CompletedProcess(cmd, 0, stdout="")

    monkeypatch.setattr(write_bench, "wall_time", fake_wall_time)
    write_bench.cli_timings(roots, commands=write_bench.CLI_COMMANDS[:2], rounds=4)
    assert order == list("pcpc" "cpcp" "pcpc" "cpcp")
    order.clear()
    write_bench.tier1_timings(roots, rounds=2)
    assert order == list("pccp")
    # an even number of rounds, so each side runs first equally often
    assert write_bench.LAYER_ROUNDS % 2 == write_bench.CLI_ROUNDS % 2 == write_bench.TIER1_ROUNDS % 2 == 0


def test_write_bench_reports_a_layer_of_one_side_alone(monkeypatch):
    # a layer that only the change has (cube.certify) or only the parent had
    # gets that side's median and no ratio
    def fake_snippet(root, code, *args):
        return {"shared": 1.0, root.name: 3.0}

    monkeypatch.setattr(write_bench, "run_snippet", fake_snippet)
    timings = write_bench.layer_timings({"parent": Path("p"), "change": Path("c")})
    assert timings["p"] == {"parent": 3.0} and timings["c"] == {"change": 3.0}
    assert timings["shared"]["change_over_parent"] == 1.0


def test_cube_certificates_agree_at_the_symmetric_point_and_an_edge_point():
    for lengths, twists in [((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), EDGE_POINT_BASES[0]]:
        assert cube_certificates.check(lengths, twists, random.Random(0)) == []


def test_mpf_point_copies_every_float_exactly():
    mpmath = pytest.importorskip("mpmath")
    lengths, twists = (5e-324, 0.1, 17.809518214039276), (-1e300, 1 / 3, -0.0)
    for dps in (15, 50):
        with mpmath.workdps(dps):
            x = mpf_point(FNPoint("S2", lengths, twists))
        for got, value in zip(x.lengths + x.twists, lengths + twists):
            assert type(got) is mpmath.mpf and got == value and float(got) == value


def _farey_triangles(count, rng):
    """``count`` Farey triangles (a, b, a + b) as slope triples: from a seed
    (infinity, n/1) edge, a random number of steps down the Stern-Brocot tree."""
    out = []
    for _ in range(count):
        a, b = (1, 0), (rng.randrange(-30, 30), 1)
        for _ in range(rng.randrange(0, 10)):
            mid = (a[0] + b[0], a[1] + b[1])
            a, b = (a, mid) if rng.random() < 0.5 else (mid, b)
        out.append((a, b, (a[0] + b[0], a[1] + b[1])))
    return out


@pytest.mark.parametrize("l, tau", [(0.1, 0.0), (1.0, 0.3), (5.0, -1.2), (1.0, 100.0), (0.01, -300.0)])
def test_trace_recursion_keeps_the_markov_relation(l, tau):
    # x^2 + y^2 + z^2 = xyz on each triangle, with the traces x = 2 cosh(L/2)
    # taken back from the lengths at 50 digits
    mpmath = pytest.importorskip("mpmath")
    triangles = _farey_triangles(60, random.Random(0))
    slopes = [slope for triangle in triangles for slope in triangle]
    logs = dict(zip(slopes, log_lengths(FNPoint("S11", (l,), (tau,)), slopes, 50)))
    with mpmath.workdps(50):
        for triangle in triangles:
            x, y, z = (2 * mpmath.cosh(mpmath.exp(logs[slope]) / 2) for slope in triangle)
            assert abs(x * x + y * y + z * z - x * y * z) <= 1e-40 * x * y * z, triangle


def test_trace_recursion_is_the_benchmark_block_product_at_fifty_digits(monkeypatch):
    # perfbench/reference.py reads its scalars through its module's math
    # name, so mpmath there runs its block product at 50 digits; where a half
    # trace passes e^30 its far form drops a term of about e^{-2 h}, which
    # stays below 1e-45 at these points (1e-50 measured)
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    reference = importlib.import_module("reference")
    monkeypatch.setattr(reference, "math", mpmath)
    slopes = [(p, q) for p, q in candidate_slopes(6) if q >= 2]
    for l, tau in [(0.1, 0.0), (1.0, 0.3), (5.0, -1.2), (1.0, 100.0)]:
        got = log_lengths(FNPoint("S11", (l,), (tau,)), slopes, 50)
        with mpmath.workdps(50):
            want = [reference.log_length(mpmath.mpf(l), mpmath.mpf(tau), p, q) for p, q in slopes]
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-45, (l, tau)
