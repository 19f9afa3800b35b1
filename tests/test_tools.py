"""Tests for the scripts under ``tools/``."""

import ast
import json
import random
import subprocess
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cube_certificates  # noqa: E402
import source_stats  # noqa: E402
import write_bench  # noqa: E402
from test_cube import EDGE_POINT_BASES  # noqa: E402

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
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split() == ["tests", str(source_stats.line_total(source_stats.TESTS)), "lines"]


def test_write_bench_layer_snippet_runs_on_the_current_source(monkeypatch, capsys):
    # one call per layer in place of the timed repeats
    monkeypatch.setattr(timeit, "repeat", lambda fn, number, repeat: [fn() or 1.0])
    namespace = {}
    exec(write_bench.LAYER_SNIPPET, namespace)
    layers = json.loads(capsys.readouterr().out)
    assert set(layers) == LAYERS
    # the control kernel reads builtins and math only, nothing of the package
    assert set(namespace["control"].__code__.co_names) <= {"range", "abs", "math", "cosh", "sinh", "log"}


LAYERS = {
    "pants.delta_oracle", "pants.delta_closed", "pants.delta_side", "pants._next_gap", "h2.shear",
    "torus.curve_length", "torus.envelope_widths", "torus.envelope_widths[5,1]", "cube.chamfered_cube_check", "cube.cloud",
    "cube.dedupe_points", "cube.hull", "cube.certify", "bounds.run_sweep", "stretch.stretch_vectors",
    "cli.cube", "cli.envelope", "cli.delta", "control.python_kernel",
}


def test_write_bench_times_a_cli_command_in_fresh_processes():
    timings = write_bench.cli_timings({side: write_bench.ROOT for side in write_bench.SIDES},
                                      commands=(write_bench.CLI_COMMANDS[0],), rounds=1)
    assert list(timings) == ["delta"]
    assert set(timings["delta"]) == {"parent", "change", "change_over_parent", "change_over_parent_quartiles"}
    assert all(timings["delta"][side] > 0 for side in write_bench.SIDES)


def test_write_bench_times_the_default_grid_once_per_process():
    # the layer runs at the CLI's cap, about 4 s; a small family keeps the check short
    timings = write_bench.run_snippet(write_bench.ROOT, write_bench.GRID_SNIPPET, "3")
    assert list(timings) == ["torus.envelope_widths[default grid]"] and timings["torus.envelope_widths[default grid]"] > 0


def test_write_bench_reports_the_quartiles_of_the_round_ratios():
    timings = write_bench.paired({"parent": [1.0, 2.0, 4.0, 1.0, 2.0], "change": [1.0, 1.0, 1.0, 2.0, 2.0]})
    assert (timings["parent"], timings["change"], timings["change_over_parent"]) == (2.0, 1.0, 1.0)
    assert timings["change_over_parent_quartiles"] == [0.5, 1.0]


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
