"""Tests for the command-line front end."""

import argparse
import dataclasses
import functools
import hashlib
import importlib
import itertools
import json
import math
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thurston_kit import cli, cube, reconcile, stretch, torus
from thurston_kit.cli import (
    MAX_Q,
    Config,
    ConfigError,
    _cube_points,
    _parse,
    _write_csv,
    format_float,
    load_config,
    main,
    t_grid,
)
from thurston_kit.pants import PantsMetric, PantsTriangulation, delta_closed


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_config(tmp_path: Path, **overrides) -> Path:
    lines = {
        "out_dir": str(tmp_path / "out"),
        "l0_values": "0.5,1",
        "t_max": "1.0",
        "t_step": "0.5",
        "max_q": "6",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return path


def test_delta_command_agrees_with_oracle(capsys):
    code, out = run_cli(capsys, "delta", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1")
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["abs_diff"]) <= 1e-9
    assert float(values["delta_closed"]) == pytest.approx(float(values["delta_oracle"]), abs=1e-9)


def test_delta_command_singular_cuff_exit_code(capsys):
    code = main(["delta", "--type", "3sym", "--l", "0,1,1", "--signs", "LLL", "--cuff", "1"])
    capsys.readouterr()
    assert code == 1


def test_delta_command_states_an_oracle_gap_outside_the_float_range(capsys):
    # the closed form has a value here; a spiral gap of the oracle has
    # log-width -750, below the float range
    tri = PantsTriangulation((2, 2, 2), (1, 1, 1))
    assert repr(delta_closed(PantsMetric(0.01, 1500.0, 0.01), tri, 0)) == "4.605166019324902"
    code = main(["delta", "--type", "3sym", "--l", "0.01,1500,0.01", "--signs", "LLL", "--cuff", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: gap log-width -750.0 leaves the float range\n"


def test_delta_command_states_a_degenerate_fan_closure(capsys):
    # the closed form has a value here; the fan's second gap (about 1.9e21
    # wide, shear 49) absorbs x in the closure condition x + width, so the
    # condition takes one value at x = 0 and x = 1
    tri = PantsTriangulation((2, 2, 2), (1, 1, 1))
    assert repr(delta_closed(PantsMetric(100.0, 1.0, 1.0), tri, 1)) == "49.45867514538708"
    code = main(["delta", "--type", "3sym", "--l", "100,1,1", "--signs", "LLL", "--cuff", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: fan closure condition is degenerate\n"


def test_delta_command_rejects_a_non_finite_cuff_length(capsys):
    assert main(["delta", "--type", "3sym", "--l", "nan,1,1", "--signs", "LLL", "--cuff", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cuff length nan must be finite and non-negative\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--type", "nope", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1"])
    assert exc.value.code == 2


def test_bad_signs_is_usage_error(capsys):
    code = main(["delta", "--type", "3sym", "--l", "1,1,1", "--signs", "XYZ", "--cuff", "1"])
    capsys.readouterr()
    assert code == 2


def test_bad_length_list_is_usage_error(capsys):
    code = main(["delta", "--type", "3sym", "--l", "1,x,1", "--signs", "LLL", "--cuff", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: bad length list '1,x,1': could not convert string to float: 'x'\n"


@pytest.mark.parametrize("command", ["delta", "shear"])
@pytest.mark.parametrize("cuff", ["0", "5"])
def test_cuff_out_of_range_is_usage_error(capsys, command, cuff):
    code = main([command, "--type", "2sym", "--l", "1,2,3", "--signs", "LLL", "--cuff", cuff])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cuff must be 1, 2 or 3")


def test_cached_triangulations_keep_the_order_of_the_usage_errors(capsys):
    # the signs are read before the cuff, and the lengths last
    for lengths, signs, cuff, message in (
        ("1,1,1", "LLX", "4", "signs must be three letters from {L, R}, e.g. LLR"),
        ("1,1", "LLX", "4", "signs must be three letters from {L, R}, e.g. LLR"),
        ("1,1", "LLR", "4", "cuff must be 1, 2 or 3"),
        ("1,1", "LLR", "1", "expected 3 comma-separated values, got 2"),
    ):
        for _ in range(2):  # the second run meets the cached triangulation, if any
            assert main(["delta", "--type", "3sym", "--l", lengths, "--signs", signs, "--cuff", cuff]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_pants_args_build_each_triangulation_once():
    args = _parse(["delta", "--type", "asym", "--l", "1,2,3", "--signs", "LRL", "--cuff", "3"])
    pm, tri, cuff = cli._pants_args(args)
    assert (pm, tri, cuff) == (PantsMetric(1.0, 2.0, 3.0), PantsTriangulation((4, 1, 1), (1, -1, 1)), 2)
    assert cli._pants_args(args)[1] is tri


def test_the_default_config_is_one_frozen_validated_value():
    cfg = load_config(None)
    assert cfg == Config()
    assert load_config(None) is cfg
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_q = 2
    assert load_config(None).max_q == 30


def test_cli_import_leaves_scipy_spatial_unloaded(tmp_path):
    # scipy.spatial (cube.hull) and scipy.optimize (cube.nnls), the tests'
    # references, stay unloaded even after a cube run
    cfg = write_config(tmp_path)
    code = (
        "import sys, thurston_kit.cli, thurston_kit; "
        "loaded = lambda: ['scipy.spatial' in sys.modules, 'scipy.optimize' in sys.modules]; "
        "before = loaded(); "
        f"code = thurston_kit.cli.main(['--config', {str(cfg)!r}, 'cube']); "
        "print(*before, callable(thurston_kit.cube.hull), code, *loaded())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["False", "False", "True", "0", "False", "False"]


@pytest.mark.parametrize("module", ["thurston_kit.pants", "thurston_kit.stretch"])
def test_pure_python_modules_import_without_numpy(module):
    # the package namespace re-exports nothing, so importing one module
    # loads only it and what it imports
    code = f"import sys, {module}; print([m for m in ('numpy', 'thurston_kit.torus') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_benchmark_tracer_binds_every_layer(monkeypatch):
    # the benchmark's tracer wraps LAYERS by name in the modules that
    # importing the CLI (done above) loads; a renamed or deleted function
    # there would break every traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    for module, funcs in tracer.LAYERS.items():
        home = sys.modules[f"thurston_kit.{module}"]
        for fn in funcs:
            assert callable(getattr(home, fn, None)), f"{module}.{fn}"
    tracer.Tracer().install()


def test_benchmark_tracer_sees_the_oracle_in_h2(monkeypatch, capsys):
    # one traced delta op: the h2 functions the tracer wraps are the ones
    # the constructive oracle calls
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    tracer.set_active(True)
    try:
        code = main(["delta", "--type", "3sym", "--l", "1,2,3", "--signs", "LRL", "--cuff", "2"])
    finally:
        tracer.set_active(False)
    capsys.readouterr()
    assert code == 0
    metrics = tracer.layer_metrics()
    for fn in ("triangle_median", "mobius_apply", "axis_translation", "orthofoot"):
        assert metrics[f"h2.{fn}.calls"] > 0, fn


@pytest.mark.parametrize("command", ["envelope", "sweep"])
def test_benchmark_tracer_sees_the_envelope_passes(tmp_path, monkeypatch, capsys, command):
    # one traced op each: the envelope grid and the sweep's middle
    # constants (l0 = 0.5 at t = 0.5 is a middle cell) pass through the
    # one entry point the tracer wraps, in torus and in bounds
    cfg = write_config(tmp_path)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    tracer.set_active(True)
    try:
        code = main(["--config", str(cfg), command])
    finally:
        tracer.set_active(False)
    capsys.readouterr()
    assert code == 0
    assert tracer.layer_metrics()["torus.envelope_widths.calls"] >= 1


def test_delta_command_loads_no_numpy():
    # the CLI imports torus and cube at module level; both import numpy
    # only inside the functions that use arrays
    code = (
        "import sys, thurston_kit.cli; "
        "code = thurston_kit.cli.main(['delta', '--type', '3sym', '--l', '1,2,3', '--signs', 'LRL', '--cuff', '2']); "
        "print(code, 'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_benchmark_argv_shapes_load_no_argparse(tmp_path):
    # a delta argv and --config <file> <command>, the benchmark's shapes, are
    # canonical: the exact reader answers them and argparse is never imported,
    # so its parse (about 60 us) stays out of an oracle op (about 150 us)
    cfg = write_config(tmp_path)
    code = (
        "import sys, thurston_kit.cli; "
        "imported = 'argparse' in sys.modules; "
        "delta = thurston_kit.cli.main(['delta', '--type', '3sym', '--l', '1,2,3', '--signs', 'LRL', '--cuff', '2']); "
        f"envelope = thurston_kit.cli.main(['--config', {str(cfg)!r}, 'envelope']); "
        "print(imported, delta, envelope, 'argparse' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0 0 False"


def test_help_exits_zero(capsys):
    listings = {
        ("--help",): ["delta", "shear", "stretch", "twist-width", "sweep", "envelope", "cube", "oracle-check", "--config"],
        ("delta", "--help"): ["--type", "--l", "--signs", "--cuff"],
        ("stretch", "-h"): ["--surface", "--l", "--tau", "--t", "--completion"],
    }
    for argv, names in listings.items():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # each name starts an indented line of its own, its help line after it
        listed = {line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")}
        assert listed >= set(names), argv


def test_shear_command_output(capsys):
    code, out = run_cli(capsys, "shear", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL")
    assert code == 0
    assert out.splitlines() == ["s12=-0.5", "s13=-0.5", "s23=-0.5"]


def test_shear_command_states_an_overflowing_half_sum(capsys):
    # 0.5 (l3 - l1 - l2) overflows in its sum though the shear, about -1e308,
    # is finite; it used to print s12=-inf and exit 0
    assert main(["shear", "--type", "3sym", "--l", "1e308,1e308,1", "--signs", "LLR", "--cuff", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: shear s12 is out of float reach: its half-sum overflows at lengths (1e+308, 1e+308, 1.0)\n"
    )


def test_twist_width_command(capsys):
    # the printed convention at l0 = 1 is the reconciled form at l0 / 2, bit for bit
    code, out = run_cli(capsys, "twist-width", "--l0", "0.5", "--t", "1")
    assert code == 0
    assert out == "twist_width=-5.6814289362872596\n"


@pytest.mark.parametrize(
    "l0,t,message",
    [
        ("inf", "1", "l0 must be finite"),
        ("nan", "1", "l0 must be positive"),
        ("1", "inf", "t must be finite"),
        ("1", "nan", "t must be finite"),
        ("1", "-inf", "t must be finite"),
    ],
)
def test_twist_width_command_rejects_non_finite_input(capsys, l0, t, message):
    assert main(["twist-width", "--l0", l0, "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_twist_width_command_runs_forward_for_negative_t(capsys):
    # 4 e log coth(1) - 4 log coth(e) at 50 digits
    code, out = run_cli(capsys, "twist-width", "--l0", "1", "--t", "-1")
    assert code == 0 and out.startswith("twist_width=")
    value, reference = float(out.split("=")[1]), 2.9263678771443076
    assert abs(value - reference) <= 2 * math.ulp(reference)
    # the stretch's one time check states a forward time whose e^s overflows
    assert main(["twist-width", "--l0", "1", "--t", "-800"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: stretch time is out of float reach: lengths scale by e^800.0, which overflows"
    assert captured.err.splitlines() == [message]


def test_stretch_command(capsys):
    code, out = run_cli(capsys, "stretch", "--surface", "S11", "--l", "2", "--tau", "0", "--t", "1.5")
    assert code == 0
    assert out.startswith("curve1: length=")


def test_stretch_command_at_time_zero_is_the_identity(capsys):
    # the left completion's closed-form offsets fail at length 40
    code, out = run_cli(capsys, "stretch", "--l", "40", "--tau", "0", "--t", "0")
    assert (code, out) == (0, "curve1: length=40 twist=0\n")


@pytest.mark.parametrize("surface,values", [("S04", "2"), ("S2", "1,1,1")])
def test_stretch_command_reads_one_value_per_curve(capsys, surface, values):
    code, out = run_cli(capsys, "stretch", "--surface", surface, "--l", values, "--tau", values, "--t", "0.5")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [f"curve{i + 1}" for i in range(values.count(",") + 1)]
    assert main(["stretch", "--surface", surface, "--l", "1,1", "--tau", "1,1", "--t", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: expected ")


#: sha256 of the `stretch` stdout at one point per surface, both
#: completions, both directions and --t in (0, 0.7, -0.4), each run headed
#: by "<completion> <direction> <t>"; recorded with a --direction flag, before
#: the direction became the sign of the time
STRETCH_CLI_SHA256 = {
    ("S11", "0.8", "0.3"): "34c29b01ef4aa63253dd67506a85fa25f1fc89a1e7fae39d584168447f431375",
    ("S04", "1.7", "-0.6"): "0f8782748d26d8a6b64f55000e5785752b2ad83fd49cf8545dacda76a7b56a3c",
    ("S2", "0.5,1.2,2.5", "0.4,-1.1,2"): "7d539d2e335d066621564cdb8f41a30d6370e41df8d745eac3ecc8c9f8be4ee3",
}


@pytest.mark.parametrize("point,sha256", STRETCH_CLI_SHA256.items())
def test_stretch_command_matches_pinned_bytes(capsys, point, sha256):
    surface, lengths, twists = point
    runs = []
    for completion, direction, t in itertools.product("LR", ("forward", "backward"), ("0", "0.7", "-0.4")):
        # a forward stretch for time t is the stretch for time -t
        time = (t[1:] if t.startswith("-") else f"-{t}") if direction == "forward" else t
        argv = ("--surface", surface, "--l", lengths, "--tau", twists, f"--t={time}")
        code, out = run_cli(capsys, "stretch", *argv, "--completion", completion)
        assert code == 0
        runs.append(f"{completion} {direction} {t}\n{out}")
    assert hashlib.sha256("".join(runs).encode()).hexdigest() == sha256


def _run_to_exit(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["stretch", "--l", "1", "--tau", "0", "--t", "-1e-05"],
        ["stretch", "--surface", "S2", "--l", "1,1,1", "--tau", "-1,0,0", "--t", "1"],
        ["twist-width", "--l0", "1", "--t", "-1e-3"],
        ["delta", "--type", "3sym", "--l", "-1,1,1", "--signs", "LLL", "--cuff", "1"],
    ],
)
def test_negative_values_parse_with_or_without_equals(capsys, argv):
    # argparse read -1e-05 and -1,0,0 after an option as options and exited 2
    negative = next(i for i, arg in enumerate(argv) if arg.startswith("-") and not arg.startswith("--"))
    joined = [*argv[: negative - 1], f"{argv[negative - 1]}={argv[negative]}", *argv[negative + 1 :]]
    spaced = _run_to_exit(capsys, argv)
    assert spaced == _run_to_exit(capsys, joined)
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize(
    "argv,message",
    [
        # the sign of --t is the direction
        (["--t", "1", "--direction", "forward"], "unrecognized arguments: --direction forward"),
        (["--t", "-x"], "argument --t: invalid float value: '-x'"),
    ],
)
def test_stretch_usage_errors_after_dash_values(capsys, argv, message):
    code, out, err = _run_to_exit(capsys, ["stretch", "--l", "1", "--tau", "0", *argv])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_stretch_command_rejects_non_finite_twists(capsys, tau):
    assert main(["stretch", "--l", "1", "--tau", tau, "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: twists must be finite"]


def test_stretch_command_states_a_twist_past_float_reach(capsys):
    # the finite input twist was blamed for the overflowing result
    assert main(["stretch", "--l", "1", "--tau", "1e308", "--t", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: twist of curve 0 is out of float reach after the stretch (lengths scale by e^1.0)"
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv,s",
    [
        # a negative time stretches forward
        (("--l", "1", "--tau", "0", "--t", "-710"), "710.0"),
        (("--surface", "S2", "--l", "1,1,1", "--tau", "0,0,0", "--t", "-800"), "800.0"),
    ],
)
def test_stretch_command_states_a_time_past_float_reach(capsys, argv, s):
    # e^s overflowed with a bare "math range error" here
    assert main(["stretch", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"error: stretch time is out of float reach: lengths scale by e^{s}, which overflows"
    assert captured.err.splitlines() == [message]


def test_delta_command_states_a_cancelled_closed_form(capsys):
    # g rounds below zero here; the closed form used to print -33.022336972275966
    # where 60 digits give -44.99999999999986
    assert main(["delta", "--type", "3sym", "--l", "60,60,60", "--signs", "LRR", "--cuff", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: twist offset at cuff 0 is out of float reach: g = -")


def test_delta_command_states_an_overflowing_closed_form(capsys):
    # an exponential of the long cuff used to raise a bare "math range error"
    assert main(["delta", "--type", "3sym", "--l", "1000000,1,1", "--signs", "LLL", "--cuff", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: twist offset at cuff 0 is out of float reach: g overflows at lengths (1000000.0, 1.0, 1.0)\n"
    )


def test_cube_command_states_an_overflowing_closed_form(tmp_path, capsys):
    # at 1,1,38 the offset of a side cancels to g <= 0 and raises before the
    # derivative check, which would fail there too
    for lengths, message in (
        ("1e6,1,1", "twist offset at cuff 0 is out of float reach: g overflows at lengths (1000000.0, 1.0, 1.0)"),
        ("1,1,38", "twist offset at cuff 2 is out of float reach: g = -0.0 <= 0 at lengths (1.0, 1.0, 38.0)"),
    ):
        cfg = write_config(tmp_path, base_lengths=lengths)
        assert main(["--config", str(cfg), "cube"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


def test_cube_command_states_a_degenerate_hull_in_one_line(tmp_path, capsys):
    # a twist of 1e16 rounds the first coordinate of every row to a step of
    # 2, the float spacing there, so the labelled faces are far from planar
    cfg = write_config(tmp_path, base_twists="1e16,0,0")
    assert main(["--config", str(cfg), "cube"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == "error: face hexagon LL.: a vertex lies 0.11 off its plane, more than 1e-07 of the extent"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config,message",
    [
        # e^u at u = 1000 e^-0.25 used to raise a bare "math range error"
        pytest.param(
            {"l0_values": "1000", "t_max": "0.25", "t_step": "0.25"},
            "thick bound is out of float reach: 4 e^u overflows at u = 778.8007830714049 (l0 = 1000.0, t = 0.25)",
            id="thick-bound",
        ),
        # the middle constant of l0 = 800 fails in the closed forms, on the default t grid
        pytest.param(
            {"l0_values": "800", "t_max": "8", "t_step": "0.25"},
            "twist offset at cuff 0 is out of float reach: g = -0.0 <= 0 at lengths (1600.0, 1600.0, 0.0)",
            id="middle-constant",
        ),
    ],
)
def test_sweep_command_states_a_failing_computation(tmp_path, capsys, config, message):
    # a failure inside the sweep is exit 1, not a usage error
    cfg = write_config(tmp_path, **config)
    assert main(["--config", str(cfg), "sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("l0_values", "0.5,nan"),
        ("l0_values", "0.5,inf"),
        ("base_lengths", "1,inf,1"),
        ("base_lengths", "nan,1,1"),
        ("base_twists", "0,nan,0"),
        ("base_twists", "0,0,-inf"),
    ],
)
def test_non_finite_config_values_are_usage_errors(tmp_path, capsys, key, value):
    # before, the non-finite lists failed as computations (exit 1) or were
    # never read
    cfg = write_config(tmp_path, **{key: value})
    for argv in (["delta", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1"], ["sweep"], ["cube"]):
        assert main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be finite\n"
    with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
        load_config(str(cfg))
    assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # the thin-part threshold is bounds.DEFAULT_EPSILON and the agreement
    # threshold reconcile.TOLERANCE; no workload set either key
    path = tmp_path / "bad.txt"
    for key, value in (("no_such_key", "1"), ("epsilon", "0.2"), ("tolerance", "1e-7")):
        path.write_text(f"out_dir={tmp_path / 'out'}\n{key}={value}\n")
        message = f"{path}:2: unknown key {key!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))
        assert main(["--config", str(path), "delta", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(f"out_dir={tmp_path / 'out'}\nmax_q=400\n# a comment\nmax_q=3\n")
    message = f"{path}:4: key 'max_q' repeats line 2"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(str(path))
    assert main(["--config", str(path), "envelope"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_config_rejects_invalid_values(tmp_path, monkeypatch, capsys):
    # an empty out_dir wrote every artifact into the working directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.txt"
    cases = [
        ("l0_values=1,0", "l0_values must be positive"),
        ("base_lengths=1,1", "base point needs three lengths and three twists"),
        ("base_lengths=1,-1,1", "base lengths must be positive"),
        ("t_max 3", f"{path}:2: expected key=value, got 't_max 3'"),
        ("out_dir=", "out_dir must not be empty"),
        ("out_dir=  # note", "out_dir must not be empty"),
    ]
    for line, message in cases:
        head = "" if line.startswith("out_dir=") else f"out_dir={tmp_path / 'out'}\n"
        path.write_text(f"{head}{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))
        for command in ("sweep", "envelope"):
            assert main(["--config", str(path), command]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.txt"]


def test_config_parses_every_field_by_its_default_type(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "out_dir=o\nmax_q=7\nl0_values=1, 2\nt_max=3\nt_step=0.5\n"
        "base_lengths=1,2,3\nbase_twists=0,0,1\n"
    )
    expected = Config("o", 7, (1.0, 2.0), 3.0, 0.5, (1.0, 2.0, 3.0), (0.0, 0.0, 1.0))
    assert load_config(str(path)) == expected
    path.write_text("max_q=3.5\n")
    with pytest.raises(ConfigError, match="bad value for max_q"):
        load_config(str(path))
    path.write_text("validate=1\n")
    with pytest.raises(ConfigError, match="unknown key 'validate'"):
        load_config(str(path))


def test_an_exported_config_variable_is_ignored(tmp_path, monkeypatch, capsys):
    # settings come from --config or the defaults; the variable used to name a config file
    argv = ("delta", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1")
    before = run_cli(capsys, *argv)
    monkeypatch.setenv("THURSTON_KIT_CONFIG", str(write_config(tmp_path, tolerance=1e-300, max_q=2)))
    assert run_cli(capsys, *argv) == before
    assert before[0] == 0
    assert not (tmp_path / "out").exists()


def test_config_comments_and_validation(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# comment\nmax_q=12\n\nout_dir=somewhere\n")
    cfg = load_config(str(path))
    assert cfg.max_q == 12 and cfg.out_dir == "somewhere"
    assert Config().t_values()[-1] == 8.0


def test_sweep_and_envelope_and_cube_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for cmd in (["sweep"], ["envelope"], ["cube"], ["oracle-check"]):
        code, _ = run_cli(capsys, "--config", str(cfg), *cmd)
        assert code == 0, cmd
    out = tmp_path / "out"
    sweep_lines = (out / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "l0,t,regime,bound_value"
    assert len(sweep_lines) == 1 + 2 * 3
    env = json.loads((out / "envelope_summary.json").read_text())
    assert env["bounded"] is True
    hull_info = json.loads((out / "cube_hull.json").read_text())
    assert hull_info["n_vertices"] == 32
    assert hull_info["brute_force_agrees"] is True
    points = json.loads((out / "cube_points.json").read_text())
    assert len(points) == 128
    rec = json.loads((out / "reconciliation.json").read_text())
    assert rec["ok"] is True
    assert rec["twist_width"]["chosen_convention"] == "reconciled"


def test_one_tolerance_governs_oracle_check_and_delta(tmp_path, monkeypatch, capsys):
    # the residual of 2sym 4,4,1 LRL at cuff 1 is 4.5e-14: both commands fail at 1e-15
    monkeypatch.setattr(reconcile, "TOLERANCE", 1e-15)
    cfg = write_config(tmp_path)
    code, out = run_cli(capsys, "--config", str(cfg), "oracle-check")
    assert code == 1
    assert "(FAIL at 1e-15)" in out
    assert (tmp_path / "out" / "reconciliation.txt").read_text() == out
    assert json.loads((tmp_path / "out" / "reconciliation.json").read_text())["offset_formulas"]["tolerance"] == 1e-15
    # the kit's width convention is checked, not chosen: a failing check keeps it
    assert "chosen twist-width convention: reconciled" in out
    code, out = run_cli(capsys, "delta", "--type", "2sym", "--l", "4,4,1", "--signs", "LRL", "--cuff", "1")
    assert code == 1
    assert 1e-15 < float(out.splitlines()[-1].split("=")[1]) <= 1e-9


def test_oracle_check_fails_when_the_closed_form_width_misses_the_offsets(tmp_path, monkeypatch, capsys):
    # the report keeps the kit's width convention and fails its check; it picks no other
    closed = reconcile.twist_width_closed
    monkeypatch.setattr(reconcile, "twist_width_closed", lambda l0, t: closed(l0, t) + 1e-3)
    cfg = write_config(tmp_path)
    code, out = run_cli(capsys, "--config", str(cfg), "oracle-check")
    assert code == 1
    text = (tmp_path / "out" / "reconciliation.txt").read_text()
    raw = (tmp_path / "out" / "reconciliation.json").read_text()
    assert text == out
    rec = json.loads(raw)
    assert rec["ok"] is False
    assert rec["offset_formulas"]["all_within_tolerance"] is True
    assert rec["twist_width"]["chosen_convention"] == "reconciled"
    assert all(v["reconciled"] > 1e-4 for v in rec["twist_width"]["surfaces"].values())
    assert "chosen twist-width convention: reconciled" in text
    for artifact in (text, raw):
        assert "convention: printed" not in artifact
        assert "'printed' is the default" not in artifact


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_kit.cli", "twist-width", "--l0", "1", "--t", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "twist_width=0"


def test_envelope_with_a_long_alpha_starts_at_zero_widths(tmp_path, capsys):
    # l_alpha = 34: slope 0/1 at t = 0 has |tr|/2 = 1 + 2 e^{-34}
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nl0_values=17\n")
    code, _ = run_cli(capsys, "--config", str(cfg), "envelope")
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "envelope.csv").read_text().splitlines()[1:]]
    assert [row for row in rows if row[1] == "0"] == [["17", "0", "0", "0"]]


def test_envelope_cells_at_time_zero_run_no_stretch(tmp_path, capsys):
    # at l_alpha = 70 the left completion's closed-form offsets fail
    cfg = write_config(tmp_path, l0_values=35, t_max=0)
    code, _ = run_cli(capsys, "--config", str(cfg), "envelope")
    assert code == 0
    assert (tmp_path / "out" / "envelope.csv").read_text().splitlines()[1:] == ["35,0,0,0"]


def test_envelope_config_and_csv_header(tmp_path, capsys):
    cfg = write_config(tmp_path, t_max=0.5, max_q=4)
    code, _ = run_cli(capsys, "--config", str(cfg), "envelope")
    assert code == 0
    lines = (tmp_path / "out" / "envelope.csv").read_text().splitlines()
    assert lines[0] == "l0,t,d_lr,d_rl"
    assert len(lines) == 1 + 2 * 2


# sha256 of the artifacts at the default configuration and at a thin,
# dense envelope grid, recorded before the envelope cells and the sweep's
# middle constants were batched into shared length passes
ARTIFACT_SHA256 = [
    (
        "envelope",
        "",
        {
            "envelope.csv": "9442f24482d85177e295d4f89050ef7448151b5dede7190a14fb7ead20cfce79",
            "envelope_summary.json": "a71d47e8a2677ae4db6e70cc3cb72fcd365f94765097f4623d92c27de67e304d",
        },
    ),
    (
        "envelope",
        "l0_values=0.02,0.3,7.5,10\nt_step=0.5\nmax_q=45\n",
        {
            "envelope.csv": "f6b1ad36222a74d715283ef4444e6ad528389d755bd4e5478d2381472a0fbd3d",
            "envelope_summary.json": "bbf118355f6d7241a1fdff3b79b73df722faab1f2745c97f6ec637d4e8f12be5",
        },
    ),
    (
        "sweep",
        "",
        {
            "sweep.csv": "e917b48564c517be4b55d2e099f7090650270219ca9d4a581f8287250116a3d0",
            "sweep_summary.json": "5d9753e08a315a393bc3e517b73c3d08e529c80ed8f8b52e61cb00cb3cb0c79d",
        },
    ),
]


@pytest.mark.parametrize("command,config,sha256", ARTIFACT_SHA256)
def test_artifacts_match_pinned_bytes(tmp_path, capsys, command, config, sha256):
    path = tmp_path / "config.txt"
    path.write_text(config + f"out_dir={tmp_path / 'out'}\n")
    assert main(["--config", str(path), command]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in sha256} == sha256


def _per_value_csv(header, rows):
    """The CSV text of the writer that formatted each value on its own, kept
    as the reference for the row formats: a string as is, a number by format_float."""
    lines = [header]
    lines.extend(",".join(v if isinstance(v, str) else format_float(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


#: twist vectors that differ only in the sign of a zero: equal as floats, and
#: the writer formats the rows it is given, so each row keeps its own zeros
SIGNED_ZERO_TWISTS = [(0.0, 1.5, -0.0), (-0.0, 1.5, 0.0), (0.0, 1.5, 0.0), (-0.0, 1.5, -0.0)]


def _cube_entries(rows, picks, flags):
    """The cube's rows as lists and its 128 entries, entry k naming row picks[k] mod len(rows)."""
    entries = [{"completion": label, "row": k % len(rows), "extreme": x}
               for label, k, x in zip(cube._completions()[1], picks, flags)]
    return [list(v) for v in rows], entries


def test_cube_points_template_is_json_dumps_on_finite_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)
    edges = [(-0.0, 5e-324, 1e308), (-1e308, 3.0, 2.2250738585072014e-308), (0.0, -7.0, 1e16)]
    every = list(range(128))

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(twists=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=128),
                      picks=st.lists(st.integers(0, 127), min_size=128, max_size=128),
                      flags=st.lists(st.booleans(), min_size=128, max_size=128))
    @hypothesis.example(twists=(edges * 43)[:128], picks=every, flags=[True, False] * 64)
    @hypothesis.example(twists=SIGNED_ZERO_TWISTS, picks=every, flags=[True, False, False] * 42 + [True, True])
    def check(twists, picks, flags):
        rows, entries = _cube_entries(twists, picks, flags)
        points = [{"completion": e["completion"], "d_twist": rows[e["row"]], "extreme": e["extreme"]} for e in entries]
        assert _cube_points(rows, entries)[0] == json.dumps(points, indent=2, sort_keys=True) + "\n"

    check()


def test_csv_row_formats_match_the_per_value_writer(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # per column kind: its row format and its values; %d matches format_float
    # on the ints a float holds exactly (format_float rounds the others)
    kinds = {
        "float": ("%.17g", st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324])
                  | st.floats().map(np.float64)),
        "int": ("%d", st.integers(-2**53, 2**53) | st.booleans()),
        "str": ("%s", st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))),
    }
    columns = st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), names=columns)
    def check(data, names):
        row = st.tuples(*(kinds[name][1] for name in names))
        rows = data.draw(st.lists(row, max_size=20))
        row_format = ",".join(kinds[name][0] for name in names) + "\n"
        header = ",".join(names)
        _write_csv(tmp_path / "rows.csv", header, row_format, rows)
        assert (tmp_path / "rows.csv").read_bytes() == _per_value_csv(header, rows).encode()

    check()
    # the cube's writer, on rows that differ only in the sign of a zero
    twists, entries = _cube_entries(SIGNED_ZERO_TWISTS, range(128), [i % 3 == 0 for i in range(128)])
    rows = [(e["completion"], *twists[e["row"]], e["extreme"]) for e in entries]
    assert _cube_points(twists, entries)[1] == _per_value_csv("completion,d_twist_1,d_twist_2,d_twist_3,extreme", rows)


@pytest.mark.parametrize(
    "config",
    [
        {"t_max": "-1"},
        {"max_q": "0"},
        {"t_max": "nan"},
        {"t_max": "inf"},
        {"t_step": "nan"},
        {"t_step": "inf"},
        # the step count t_max / t_step overflows to infinity
        {"t_max": "1e300", "t_step": "1e-300"},
        # a finite but huge step count
        {"t_max": "1e300"},
    ],
    # each id names the case as it read when flags could also set t_max and max_q
    ids=[f"flags{i}-config{i}" for i in (0, 4, 5, 6, 7, 8, 9, 10)],
)
def test_bad_envelope_flags_and_t_grid_are_usage_errors(tmp_path, capsys, config):
    cfg = write_config(tmp_path, **config)
    assert main(["--config", str(cfg), "envelope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("envelope", "--t-max", "0.5"),
        ("envelope", "--max-q", "4"),
        ("sweep", "--grid", "default"),
        ("twist-width", "--l0", "1.3", "--t", "2", "--convention", "printed"),
    ],
)
def test_flags_that_duplicated_config_keys_are_unrecognized(tmp_path, capsys, argv):
    # the config file, or the defaults, is the only source of settings
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in captured.err
    assert not (tmp_path / "out").exists()


def test_sweep_takes_l0_values_in_any_order(tmp_path, capsys):
    # rows follow the config; the summary is keyed by l0 and sorted
    runs = {}
    for order in ("1,2", "2,1"):
        (tmp_path / order).mkdir()
        cfg = write_config(tmp_path / order, l0_values=order)
        assert run_cli(capsys, "--config", str(cfg), "sweep")[0] == 0
        out = tmp_path / order / "out"
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        by_l0 = {l0: [row for row in rows if row.split(",")[0] == l0] for l0 in ("1", "2")}
        runs[order] = by_l0, json.loads((out / "sweep_summary.json").read_text())
    (sorted_rows, sorted_summary), (rows, summary) = runs["1,2"], runs["2,1"]
    assert rows == sorted_rows and all(len(r) == 3 for r in rows.values())
    assert list(summary["middle_constants"]) == ["1.0", "2.0"]
    for key in ("middle_constants", "regime_sup"):
        assert summary[key] == sorted_summary[key]


def test_t_grid_stops_at_t_max(tmp_path, capsys):
    # 1.0 / 0.6 rounds to 2, which used to write rows at t = 1.2 > t_max
    cfg = write_config(tmp_path, t_step="0.6")
    for cmd in ("sweep", "envelope"):
        code, _ = run_cli(capsys, "--config", str(cfg), cmd)
        assert code == 0, cmd
    out = tmp_path / "out"
    for name in ("sweep.csv", "envelope.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert sorted({float(row.split(",")[1]) for row in rows}) == [0.0, 0.6], name
    env = json.loads((out / "envelope_summary.json").read_text())
    assert env["t_max"] == 1.0
    rows = [row.split(",") for row in (out / "envelope.csv").read_text().splitlines()[1:]]
    assert env["empirical_bound"] == max(float(v) for row in rows for v in row[2:])


def test_config_caps_the_number_of_t_values():
    # validate counts the t values without building the grid
    Config(t_max=999_999.0, t_step=1.0).validate()
    Config(t_max=249_999.75).validate()
    # one step over the cap, at two steps, and the grid that used to exhaust memory
    for t_max, t_step in ((1_000_000.0, 1.0), (250_000.0, 0.25), (1e300, 0.25)):
        with pytest.raises(ConfigError) as info:
            Config(t_max=t_max, t_step=t_step).validate()
        assert str(info.value) == f"t grid exceeds 1000000 values: t_max = {t_max!r}, t_step = {t_step!r}"


def test_config_caps_max_q_without_building_a_family(tmp_path, capsys):
    # the family has about 1.2 max_q^2 slopes; 10**9 would exhaust memory
    before = torus._family.cache_info()
    Config(max_q=MAX_Q).validate()
    for max_q in (MAX_Q + 1, 10**9):
        with pytest.raises(ConfigError) as info:
            Config(max_q=max_q).validate()
        assert str(info.value) == f"max_q exceeds {MAX_Q}: max_q = {max_q}"
    assert main(["--config", str(write_config(tmp_path, max_q=10**9)), "envelope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: max_q exceeds {MAX_Q}: max_q = 1000000000"]
    assert torus._family.cache_info() == before


def test_t_grid_keeps_exact_multiples():
    assert len(t_grid(4.0, 0.25)) == 17
    assert len(t_grid(8.0, 0.25)) == 33
    assert t_grid(2.7, 2.7) == (0.0, 2.7)
    assert t_grid(0.0, 0.5) == (0.0,)
    assert len(t_grid(0.3, 0.1)) == 4
    assert t_grid(1.0, 0.6) == (0.0, 0.6)
    assert Config(t_max=1.0, t_step=0.6).t_values() == (0.0, 0.6)


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        ("max_q=3  # caf\xe9\n".encode("latin-1"), "can't decode byte 0xe9"),
        (b"max_q=3\r\nt_max=1.0  # caf\xe9\r\n", "can't decode byte 0xe9 in position 25: invalid continuation byte"),
    ],
    ids=["missing-flag", "not-utf-8-flag", "not-utf-8-crlf-flag"],
)
def test_a_config_that_cannot_be_read_is_a_configuration_error(tmp_path, monkeypatch, capsys, content, reason):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "thurston.cfg"
    if content is not None:
        path.write_bytes(content)
    assert main(["--config", str(path), "sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cannot read the configuration: ")
    assert reason in captured.err
    assert not (tmp_path / "out").exists()


def test_the_writer_makes_a_missing_nested_directory_and_writes_the_text_bytes(tmp_path, capsys):
    # the first write of a command makes the nested out_dir
    out = tmp_path / "a" / "b" / "c"
    assert main(["--config", str(write_config(tmp_path, out_dir=out)), "sweep"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep_summary.json"]
    # the bytes are the text's UTF-8, its LF and CRLF line ends as given, and a
    # rewrite truncates the file
    path = out / "text.txt"
    text = "x,y\n1,2\r\n\ncaf\xe9\n"
    cli._write(path, text)
    assert path.read_bytes() == text.encode() == b"x,y\n1,2\r\n\ncaf\xc3\xa9\n"
    cli._write(path, "z\n")
    assert path.read_bytes() == b"z\n"


CONFIG_LINES = ["# a comment", "out_dir = out", "", "max_q=7  # trailing", "l0_values=0.5,1", "t_max=2.0"]


def test_a_crlf_config_reads_as_its_lf_twin(tmp_path):
    lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
    lf.write_bytes("\n".join(CONFIG_LINES).encode() + b"\n")
    crlf.write_bytes("\r\n".join(CONFIG_LINES).encode() + b"\r\n")
    assert cli._read_config(str(crlf)) == cli._read_config(str(lf)) == {
        "out_dir": "out", "max_q": 7, "l0_values": (0.5, 1.0), "t_max": 2.0}
    # an error names the same line, with no carriage return in the line it quotes
    errors = []
    for path, end in ((lf, b"\n"), (crlf, b"\r\n")):
        path.write_bytes(end.join(line.encode() for line in [*CONFIG_LINES, "bogus"]) + end)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        errors.append(str(exc.value).removeprefix(str(path)))
    assert errors == [":7: expected key=value, got 'bogus'"] * 2


def test_a_failed_artifact_write_is_a_computational_failure(tmp_path, capsys):
    # out_dir lies under a regular file, so creating it fails
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, out_dir=tmp_path / "file" / "out")
    assert main(["--config", str(cfg), "sweep"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``thurston-kit`` line in the sh block under
    ``## Command line`` in README.md."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("thurston-kit ")]


def test_readme_command_lines_parse_and_the_quick_ones_run(capsys):
    # a README example that names a removed flag fails here
    quick = ("delta", "shear", "stretch", "twist-width")
    commands = _readme_commands()
    assert {argv[0] for argv in commands} >= set(quick)
    for argv in commands:
        try:
            _parse(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: thurston-kit {shlex.join(argv)}")
        if argv[0] in quick:
            assert main(argv) == 0, argv
    capsys.readouterr()


@functools.cache
def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI read its arguments with before the command
    table: the reference of :func:`test_parse_matches_argparse`."""
    parser = argparse.ArgumentParser(
        prog="thurston-kit",
        description="Shear and twist computations on hyperbolic pairs of pants, "
        "stretch-path twist evolution, envelope bound sweeps, and the "
        "stretch-vector hull.",
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="closed-form vs constructive twist offset")
    p.add_argument("--type", required=True, choices=("3sym", "2sym", "asym"))
    p.add_argument("--l", required=True, help="three cuff lengths, e.g. 1,1,1")
    p.add_argument("--signs", required=True, help="twist directions, e.g. LLL")
    p.add_argument("--cuff", required=True, type=int, help="distinguished cuff (1-3)")
    p.set_defaults(func=cli.cmd_delta)

    p = sub.add_parser("shear", help="shear coordinates of a triangulation")
    p.add_argument("--type", required=True, choices=("3sym", "2sym", "asym"))
    p.add_argument("--l", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--cuff", type=int, default=1)
    p.set_defaults(func=cli.cmd_shear)

    p = sub.add_parser("stretch", help="stretch a Fenchel-Nielsen point")
    p.add_argument("--surface", choices=stretch.SURFACES, default="S11")
    p.add_argument("--l", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--completion", choices=("L", "R"), default="L")
    p.set_defaults(func=cli.cmd_stretch)

    p = sub.add_parser("twist-width", help="closed-form twist width")
    p.add_argument("--l0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cli.cmd_twist_width)

    p = sub.add_parser("sweep", help="bound-expression sweep over the (l0, t) grid")
    p.set_defaults(func=cli.cmd_sweep)

    p = sub.add_parser("envelope", help="distance estimates between stretch endpoints")
    p.set_defaults(func=cli.cmd_envelope)

    p = sub.add_parser("cube", help="stretch-vector cloud and hull on the genus-two surface")
    p.set_defaults(func=cli.cmd_cube)

    p = sub.add_parser("oracle-check", help="write the convention reconciliation report")
    p.set_defaults(func=cli.cmd_oracle_check)
    return parser


#: the values drawn for each kind of option: valid ones, negative ones and bad ones
_DRAWS = {
    "type": ("3sym", "2sym", "asym", "4sym", "-x", ""),
    "surface": ("S11", "S2", "S04", "s2", "-1"),
    "completion": ("L", "R", "l", "-R"),
    "str": ("1,1,1", "2", "-1,0,0", "LRL", "-0.5", "", "a b", "-", "-h"),
    "int": ("1", "3", "-1", "x", "1.5", " 2", "-x", "-1e-05"),
    "float": ("1.5", "-1e-05", "-0.5", "-.5", "x", "-x", "inf", "1e999", "1_0"),
    "config": ("cfg.txt", "-x", "", "delta", "a b"),
}
#: the options of each command and the kind of value each takes
_OPTION_KINDS = {
    "delta": {"type": "type", "l": "str", "signs": "str", "cuff": "int"},
    "shear": {"type": "type", "l": "str", "signs": "str", "cuff": "int"},
    "stretch": {"surface": "surface", "l": "str", "tau": "str", "t": "float", "completion": "completion"},
    "twist-width": {"l0": "float", "t": "float"},
    **{name: {} for name in ("sweep", "envelope", "cube", "oracle-check")},
}
#: tokens that stand on their own: unknown options, positionals, help forms, -- and an ambiguous prefix
_STRAYS = ("forward", "3", "-1", "-1e-05", "-x", "-", "--direction", "--t-max", "--config", "-v", "a b", "-x y", "--x y",
           "--", "--=x", "-h", "--help", "--he", "-hh", "-hx", "-h=", "--help=x")


def _takes_a_value(token: str, names: tuple[str, ...]) -> bool:
    """Whether ``token`` names a value option of ``names``, exactly or by a
    prefix that matches no other option and not --help, with no ``=value``."""
    matches = [name for name in ("help", *names) if name.startswith(token[2:])]
    unique = len(matches) == 1 and matches[0] != "help"
    return token[:2] == "--" and "=" not in token and (token[2:] in names or unique)


def _draw_argv(rng: random.Random) -> tuple[list[str], list[str]]:
    """A random argv, and the same argv as argparse needs it to read what the
    CLI reads: argparse takes a value that starts with one '-' (-x, -1e-05,
    -1,0,0) for an option, so there such a value joins its option with '='."""

    def option(name: str, kind: str) -> list[str]:
        # the name or a prefix of it, then its value after a space or '=', or no value
        flag = "--" + (name[: rng.randint(1, len(name))] if rng.random() < 0.3 else name)
        value = rng.choice(_DRAWS[kind])
        return rng.choices(([flag, value], [f"{flag}={value}"], [flag]), (9, 9, 2))[0]

    top = [option("config", "config") for _ in range(rng.choice((0, 0, 1, 2)))]
    top += [[rng.choice(("-h", "--help", "--foo", "-x", "-1", "-x y"))] for _ in range(rng.random() < 0.1)]
    rng.shuffle(top)
    command = rng.choice([*_OPTION_KINDS] * 6 + ["foo", "del", None])
    options = _OPTION_KINDS.get(command, {})
    rest = [option(name, kind) for name, kind in options.items() if rng.random() < 0.9]
    if options and rng.random() < 0.3:
        rest.append(option(*rng.choice(list(options.items()))))
    rest += [[rng.choice(_STRAYS)] for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    rng.shuffle(rest)
    top_tokens = [token for part in top for token in part]
    rest_tokens = [token for part in rest for token in part]
    # the options each token is read against: a --config with no value takes
    # the command for its value, and then the command's tokens are read at the top
    if command in _OPTION_KINDS and not (top_tokens and _takes_a_value(top_tokens[-1], ("config",))):
        names = [("config",)] * len(top_tokens) + [()] + [tuple(options)] * len(rest_tokens)
    else:
        names = [("config",)] * (len(top_tokens) + len(rest_tokens) + (command is not None))
    argv = top_tokens + [command] * (command is not None) + rest_tokens
    reference: list[str] = []
    for token, read_as in zip(argv, names):
        joins = reference and "--" not in reference and token[:1] == "-" != token[1:2]
        if joins and _takes_a_value(reference[-1], read_as):
            reference[-1] += "=" + token
        else:
            reference.append(token)
    return argv, reference


def _parse_outcome(parse, argv: list[str], capsys) -> tuple:
    """(exit code, parsed values, last stderr line) of ``parse(argv)``; an
    invalid choice keeps only its prefix, whose text changed across Python versions."""
    try:
        values = vars(parse(argv))
        code = 0
    except SystemExit as exc:
        values, code = None, exc.code
    lines = capsys.readouterr().err.splitlines()
    return code, values, re.sub("(invalid choice:).*", r"\1", lines[-1] if lines else "")


def test_parse_matches_argparse(capsys):
    # derandomized: a fixed seed draws every command and option, both value
    # forms, negative and bad values, prefixes, repeats, unknown options,
    # stray positionals, missing values, commands and required options, help and --.
    # No draw differs under Pythons 3.10.13, 3.11.7, 3.12.1 and 3.13.0, whose
    # argparse versions read -hx apart: 3.13 prints help where the older
    # ones report "ignored explicit argument 'x'"
    rng = random.Random(20240)
    mismatches = []
    exact = 0
    for _ in range(4000):
        argv, reference = _draw_argv(rng)
        exact += cli._exact(argv) is not None
        got = _parse_outcome(_parse, argv, capsys)
        want = _parse_outcome(_reference_parser().parse_args, reference, capsys)
        if got != want:
            mismatches.append((argv, got, want))
    assert not mismatches, mismatches[:5]
    # the exact reader answers 873 draws; with none it would check argparse against argparse
    assert exact >= 850


def test_nothing_joins_after_a_double_dash(capsys):
    # after --, -x is no value of --t, and argparse names every token from -- on
    code, out, err = _run_to_exit(capsys, ["twist-width", "--l0", "1", "--t", "2", "--", "--t", "-x"])
    assert (code, out) == (2, "")
    assert err.endswith("thurston-kit: error: unrecognized arguments: -- --t -x\n")
