"""Tests for the command-line front end."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from thurston_kit.cli import CONFIG_ENV, Config, ConfigError, load_config, main, t_grid


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--type", "nope", "--l", "1,1,1", "--signs", "LLL", "--cuff", "1"])
    assert exc.value.code == 2


def test_bad_signs_is_usage_error(capsys):
    code = main(["delta", "--type", "3sym", "--l", "1,1,1", "--signs", "XYZ", "--cuff", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command", ["delta", "shear"])
@pytest.mark.parametrize("cuff", ["0", "5"])
def test_cuff_out_of_range_is_usage_error(capsys, command, cuff):
    code = main([command, "--type", "2sym", "--l", "1,2,3", "--signs", "LLL", "--cuff", cuff])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cuff must be 1, 2 or 3")


def test_cli_import_leaves_scipy_spatial_unloaded():
    code = (
        "import sys, thurston_kit.cli, thurston_kit; "
        "print('scipy.spatial' in sys.modules, callable(thurston_kit.hull))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--help"])
    assert exc.value.code == 0


def test_shear_command_output(capsys):
    code, out = run_cli(capsys, "shear", "--type", "3sym", "--l", "1,1,1", "--signs", "LLL")
    assert code == 0
    assert out.splitlines() == ["s12=-0.5", "s13=-0.5", "s23=-0.5"]


def test_twist_width_command(capsys):
    code, out = run_cli(capsys, "twist-width", "--l0", "1", "--t", "1", "--convention", "printed")
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(-5.68142893628726, abs=1e-10)


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


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no_such_key=1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_rejects_invalid_values(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("epsilon=0.9\n")  # above log 2
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["--config", str(path), "twist-width", "--l0", "1", "--t", "1"]) == 2


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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thurston_kit.cli", "twist-width", "--l0", "1", "--t", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "twist_width=0"


def test_sweep_default_grid_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, max_q=10)
    code, _ = run_cli(capsys, "--config", str(cfg), "sweep", "--grid", "default")
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 33


def test_envelope_with_a_long_alpha_starts_at_zero_widths(tmp_path, capsys):
    # l_alpha = 34: slope 0/1 at t = 0 has |tr|/2 = 1 + 2 e^{-34}
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nl0_values=17\n")
    code, _ = run_cli(capsys, "--config", str(cfg), "envelope")
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "envelope.csv").read_text().splitlines()[1:]]
    assert [row for row in rows if row[1] == "0"] == [["17", "0", "0", "0"]]


def test_envelope_flags_and_csv_header(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, _ = run_cli(capsys, "--config", str(cfg), "envelope", "--t-max", "0.5", "--max-q", "4")
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


@pytest.mark.parametrize(
    "flags,config",
    [
        (("--t-max", "-1"), {}),
        (("--t-max", "nan"), {}),
        (("--t-max", "inf"), {}),
        (("--max-q", "0"), {}),
        ((), {"max_q": "0"}),
        ((), {"t_max": "nan"}),
        ((), {"t_max": "inf"}),
        ((), {"t_step": "nan"}),
        ((), {"t_step": "inf"}),
    ],
)
def test_bad_envelope_flags_and_t_grid_are_usage_errors(tmp_path, capsys, flags, config):
    cfg = write_config(tmp_path, **config)
    assert main(["--config", str(cfg), "envelope", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
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


def test_t_grid_keeps_exact_multiples():
    assert len(t_grid(4.0, 0.25)) == 17
    assert len(t_grid(8.0, 0.25)) == 33
    assert t_grid(2.7, 2.7) == (0.0, 2.7)
    assert t_grid(0.0, 0.5) == (0.0,)
    assert len(t_grid(0.3, 0.1)) == 4
    assert t_grid(1.0, 0.6) == (0.0, 0.6)
    assert Config(t_max=1.0, t_step=0.6).t_values() == (0.0, 0.6)
