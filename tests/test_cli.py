"""Tests for the command-line front end."""

import hashlib
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thurston_kit import cube, torus
from thurston_kit.cli import (
    CONFIG_ENV,
    MAX_Q,
    Config,
    ConfigError,
    _cube_points_json,
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


def test_cli_import_leaves_scipy_spatial_unloaded(tmp_path):
    # scipy.optimize (cube.nnls, the tests' reference) stays unloaded even
    # after a cube run, which needs scipy.spatial only
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
    assert proc.stdout.splitlines()[-1].split() == ["False", "False", "True", "0", "True", "False"]


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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--help"])
    assert exc.value.code == 0


def test_shear_command_output(capsys):
    code, out = run_cli(capsys, "shear", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL")
    assert code == 0
    assert out.splitlines() == ["s12=-0.5", "s13=-0.5", "s23=-0.5"]


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
        ("1", "nan", "t must be non-negative"),
    ],
)
def test_twist_width_command_rejects_non_finite_input(capsys, l0, t, message):
    assert main(["twist-width", "--l0", l0, "--t", t]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_stretch_command(capsys):
    code, out = run_cli(capsys, "stretch", "--surface", "S11", "--l", "2", "--tau", "0", "--t", "1.5")
    assert code == 0
    assert out.startswith("curve1: length=")


@pytest.mark.parametrize("surface,values", [("S04", "2"), ("S2", "1,1,1")])
def test_stretch_command_reads_one_value_per_curve(capsys, surface, values):
    code, out = run_cli(capsys, "stretch", "--surface", surface, "--l", values, "--tau", values, "--t", "0.5")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [f"curve{i + 1}" for i in range(values.count(",") + 1)]
    assert main(["stretch", "--surface", surface, "--l", "1,1", "--tau", "1,1", "--t", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: expected ")


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_stretch_command_rejects_non_finite_twists(capsys, tau):
    assert main(["stretch", "--l", "1", "--tau", tau, "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: twists must be finite"]


def test_stretch_command_states_a_twist_past_float_reach(capsys):
    # the finite input twist was blamed for the overflowing result
    assert main(["stretch", "--l", "1", "--tau", "1e308", "--t", "1", "--direction", "forward"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: twist of curve 0 is out of float reach after the stretch (t = 1.0)"]


@pytest.mark.parametrize(
    "argv,s,t",
    [
        (("--l", "1", "--tau", "0", "--t", "710", "--direction", "forward"), "710.0", "710.0"),
        # the backward direction at a negative time stretches forward
        (("--surface", "S2", "--l", "1,1,1", "--tau", "0,0,0", "--t", "-800"), "800.0", "-800.0"),
    ],
)
def test_stretch_command_states_a_time_past_float_reach(capsys, argv, s, t):
    # e^s overflowed with a bare "math range error" here
    assert main(["stretch", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"error: stretch time is out of float reach: lengths scale by e^{s}, which overflows (t = {t})"
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
    cfg = write_config(tmp_path, base_lengths="1e6,1,1")
    assert main(["--config", str(cfg), "cube"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: twist offset at cuff 0 is out of float reach: g overflows at lengths (1000000.0, 1.0, 1.0)\n"
    )
    assert not (tmp_path / "out").exists()


def test_cube_command_states_a_degenerate_hull_in_one_line(tmp_path, capsys):
    # qhull's option dump after the first line of its message, with a
    # random run id, used to follow on stderr
    cfg = write_config(tmp_path, base_twists="1e16,0,0")
    assert main(["--config", str(cfg), "cube"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: degenerate point set: QH6154")
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
        ("tolerance", "nan"),
        ("tolerance", "inf"),
        ("l0_values", "0.5,nan"),
        ("l0_values", "0.5,inf"),
        ("base_lengths", "1,inf,1"),
        ("base_lengths", "nan,1,1"),
        ("base_twists", "0,nan,0"),
        ("base_twists", "0,0,-inf"),
    ],
)
def test_non_finite_config_values_are_usage_errors(tmp_path, capsys, key, value):
    # before, tolerance=nan failed every delta, tolerance=inf passed every
    # delta, and the non-finite lists failed as computations (exit 1) or
    # were never read
    cfg = write_config(tmp_path, **{key: value})
    for argv in (["delta", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1"], ["sweep"], ["cube"]):
        assert main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be finite\n"
    with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
        load_config(str(cfg))
    assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no_such_key=1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


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


def test_config_rejects_invalid_values(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    cases = [
        ("epsilon=0.9", "epsilon must lie in (0, log 2]"),  # above log 2
        ("l0_values=1,0", "l0_values must be positive"),
        ("base_lengths=1,1", "base point needs three lengths and three twists"),
        ("base_lengths=1,-1,1", "base lengths must be positive"),
        ("tolerance=0", "tolerance must be positive"),
        ("t_max 3", f"{path}:2: expected key=value, got 't_max 3'"),
    ]
    for line, message in cases:
        path.write_text(f"out_dir={tmp_path / 'out'}\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(str(path))
        assert main(["--config", str(path), "sweep"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


def test_config_parses_every_field_by_its_default_type(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "out_dir=o\nmax_q=7\nepsilon=0.2\nl0_values=1, 2\nt_max=3\nt_step=0.5\n"
        "base_lengths=1,2,3\nbase_twists=0,0,1\ntolerance=1e-7\n"
    )
    expected = Config("o", 7, 0.2, (1.0, 2.0), 3.0, 0.5, (1.0, 2.0, 3.0), (0.0, 0.0, 1.0), 1e-7)
    assert load_config(str(path)) == expected
    path.write_text("max_q=3.5\n")
    with pytest.raises(ConfigError, match="bad value for max_q"):
        load_config(str(path))
    path.write_text("validate=1\n")
    with pytest.raises(ConfigError, match="unknown key 'validate'"):
        load_config(str(path))


def test_config_env_variable(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, _ = run_cli(capsys, "sweep")
    assert code == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


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


def test_oracle_check_reads_the_configured_tolerance(tmp_path, capsys):
    # the check held its own tolerance of 1e-9 and passed here, where
    # delta --type 2sym --l 4,4,1 --signs LRL --cuff 1 fails
    cfg = write_config(tmp_path, tolerance=1e-15)
    code, out = run_cli(capsys, "--config", str(cfg), "oracle-check")
    assert code == 1
    assert "(FAIL at 1e-15)" in out
    assert (tmp_path / "out" / "reconciliation.txt").read_text() == out
    assert json.loads((tmp_path / "out" / "reconciliation.json").read_text())["offset_formulas"]["tolerance"] == 1e-15


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


def test_cube_points_template_is_json_dumps_on_finite_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = cube._completions()[1]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    edges = [(-0.0, 5e-324, 1e308), (-1e308, 3.0, 2.2250738585072014e-308), (0.0, -7.0, 1e16)]

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(twists=st.lists(st.tuples(finite, finite, finite), min_size=128, max_size=128),
                      flags=st.lists(st.booleans(), min_size=128, max_size=128))
    @hypothesis.example(twists=(edges * 43)[:128], flags=[True, False] * 64)
    def check(twists, flags):
        entries = [{"completion": label, "d_twist": list(v), "extreme": x}
                   for label, v, x in zip(labels, twists, flags)]
        assert _cube_points_json(entries) == json.dumps(entries, indent=2, sort_keys=True) + "\n"

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


def test_unsorted_sweep_grid_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, l0_values="2,1")
    assert main(["--config", str(cfg), "sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: grid axes must be sorted ascending"]
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file or directory"), ("max_q=3  # caf\xe9\n".encode("latin-1"), "can't decode byte 0xe9")],
    ids=["missing", "not-utf-8"],
)
def test_a_config_that_cannot_be_read_is_a_configuration_error(tmp_path, monkeypatch, capsys, via_env, content, reason):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "thurston.cfg"
    if content is not None:
        path.write_bytes(content)
    if via_env:
        monkeypatch.setenv(CONFIG_ENV, str(path))
    assert main(["sweep"] if via_env else ["--config", str(path), "sweep"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: cannot read the configuration: ")
    assert reason in captured.err
    assert not (tmp_path / "out").exists()


def test_a_failed_artifact_write_is_a_computational_failure(tmp_path, capsys):
    # out_dir lies under a regular file, so creating it fails
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, out_dir=tmp_path / "file" / "out")
    assert main(["--config", str(cfg), "sweep"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")
