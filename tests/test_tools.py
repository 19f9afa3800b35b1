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
    # the spread covers every run of a side, paired or not
    assert oracle["op_p50_ms"]["parent"]["median"] == 0.55
    assert oracle["op_p50_ms"]["change"]["by_seed"] == {"1": 0.3, "2": 0.6, "3": 0.5, "5": 0.1}
    assert (oracle["op_p50_ms"]["parent"]["q1"], oracle["op_p50_ms"]["parent"]["q3"]) == (0.475, 0.625)


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
parser.add_argument("--config", help="file")
p.add_argument("--l", required=True)
p.add_argument("--cuff", type=int, required=False)
p.add_argument("--t", type=float, required=True)
p.add_argument("command")
p.add_argument("-v", action="store_true")
p.set_defaults(func=main)
"""
    # --config and --cuff; a positional, a short flag and the required flags are not counted
    assert source_stats.optional_flags(ast.parse(source)) == 2


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
    exec(write_bench.LAYER_SNIPPET, {})
    layers = json.loads(capsys.readouterr().out)
    assert set(layers) == LAYERS


LAYERS = {
    "pants.delta_oracle", "pants.delta_closed", "pants.delta_side", "pants._next_gap", "h2.shear",
    "torus.curve_length", "torus.envelope_widths", "torus.envelope_widths[5,1]", "cube.chamfered_cube_check", "cube.cloud",
    "cube.dedupe_points", "cube.hull", "cube._certified", "bounds.run_sweep", "stretch.stretch_vectors",
    "cli.cube", "cli.envelope",
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
    runs = iter([2.0, 1.0, 4.0, 3.0, 3.0, 2.7])

    def fake(cmd, root, cwd):
        assert cmd[1:4] == ["-m", "pytest", "-q"] and cwd == root
        return next(runs), subprocess.CompletedProcess(cmd, 0, stdout=f"...\n3 passed in {root.name}\n")

    monkeypatch.setattr(write_bench, "wall_time", fake)
    timings = write_bench.tier1_timings({"parent": Path("p"), "change": Path("c")}, rounds=3)
    assert (timings["parent"], timings["change"]) == (3.0, 2.7)
    assert timings["change_over_parent"] == 0.75
    assert timings["summary"] == {"parent": "3 passed in p", "change": "3 passed in c"}


def test_cube_certificates_agree_at_the_symmetric_point_and_an_edge_point():
    for lengths, twists in [((1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), EDGE_POINT_BASES[0]]:
        assert cube_certificates.check(lengths, twists, random.Random(0)) == []
