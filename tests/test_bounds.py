"""Tests for the envelope bound evaluators and the grid sweep."""

import json
import math
import sys

import pytest

from thurston_kit.bounds import (
    DEFAULT_EPSILON,
    RegimeError,
    classify,
    decay_factor,
    decay_factor_unbounded,
    ratio_bound_thin,
    run_sweep,
    thick_bound,
)
from thurston_kit.cli import Config, main
from thurston_kit.stretch import log_coth


def test_thin_ratio_bound_small_length_limit():
    # as l0 -> 0 at t = 0 the bound tends to 1, staying below 1 + 2/log(1/eps)
    eps = 0.1
    cap = 1.0 + 2.0 / math.log(1.0 / eps)
    prev = None
    for l0 in (0.05, 0.02, 0.01, 0.001):
        val = ratio_bound_thin(l0, 0.0, eps)
        assert val < cap
        if prev is not None:
            assert val < prev
        prev = val


def test_thin_ratio_bound_spec_point():
    eps = 0.1
    val = ratio_bound_thin(eps / 2.0, 0.0, eps)
    assert val < 1.0 + (1.0 / math.log(10.0)) * 2.0 * 1.5


def test_thin_ratio_bound_final_display_inequality():
    # the proof's display with its factor of four restored:
    # bound <= 1 + 4 (e^{-2t} + 1) / log(1/eps) on the whole regime
    for eps in (0.1, 0.3, DEFAULT_EPSILON, math.log(2.0) * 0.999):
        for t in (0.0, 0.5, 2.0, 8.0):
            for u in (eps * 0.1, eps * 0.5, eps * 0.9999):
                l0 = u * math.exp(t)
                lhs = ratio_bound_thin(l0, t, eps)
                rhs = 1.0 + 4.0 * (math.exp(-2.0 * t) + 1.0) / math.log(1.0 / eps)
                assert lhs <= rhs + 1e-9


def test_scalar_inequality_inverse_dominates_log_coth():
    for u in (0.01, 0.1, 0.5, math.log(2.0), 1.0, 3.0):
        assert 1.0 / u >= log_coth(u)


def test_thin_bound_regime_guard():
    with pytest.raises(RegimeError):
        ratio_bound_thin(1.0, 0.0, 0.3)
    with pytest.raises(RegimeError, match=r"^eps must lie in \(0, 1\)$"):
        ratio_bound_thin(0.1, 8.0, 1.0)


def test_decay_factor_limit_and_boundedness():
    assert decay_factor(20.0) == pytest.approx(2.0, abs=1e-8)
    vals = [decay_factor(1.0 + 0.01 * i) for i in range(4901)]
    assert max(vals) == vals[0]
    assert decay_factor(1.0) == pytest.approx(2.012346391854701, abs=1e-12)


def test_decay_factor_unbounded_variant():
    assert decay_factor_unbounded(40.0) > 10.0
    assert decay_factor_unbounded(65.0) > 1e3
    assert decay_factor_unbounded(400.0) > 1e17
    with pytest.raises(RegimeError):
        decay_factor(0.0)


def test_thick_bound_regime():
    assert math.isfinite(thick_bound(3.0, 0.5))
    with pytest.raises(RegimeError):
        thick_bound(0.5, 0.0)


@pytest.mark.parametrize("l0", [708.4, 709.0, 800.0, 1e6])
def test_thick_bound_states_where_4_e_u_overflows(l0):
    # math.exp raised a bare "math range error" past u = 709.78; below
    # that, from u = 708.4, 4 e^u was inf and the bound inf * 0 = nan
    assert 0.0 < thick_bound(708.3, 0.0) < math.inf
    with pytest.raises(RegimeError, match=rf"^thick bound is out of float reach: 4 e\^u overflows at u = {l0!r} "):
        thick_bound(l0, 0.0)


@pytest.mark.parametrize("u", [350.0, 372.0, 400.0, 500.0, 708.0])
def test_thick_bound_past_u_300_matches_mpmath_reference(u):
    # log coth u is subnormal from about u = 354 and zero from u = 373,
    # where the bound lost its digits and then read 0
    mpmath = pytest.importorskip("mpmath")

    def log_coth_ref(v):
        # log1p keeps coth v - 1, which lies past the 50th digit of coth v here
        return mpmath.log1p(2 / mpmath.expm1(2 * v))

    l0, t = u * math.exp(0.25), 0.25
    with mpmath.workdps(50):
        l0_ref, t_ref = mpmath.mpf(l0), mpmath.mpf(t)
        u_ref = l0_ref * mpmath.exp(-t_ref)
        ref = 4 * mpmath.exp(u_ref) * (mpmath.exp(-t_ref) * log_coth_ref(l0_ref) + log_coth_ref(u_ref))
        err = abs(thick_bound(l0, t) - ref) / ref
    # e^-u carries the relative rounding error of u, about u eps
    assert err <= 8 * (1 + u) * sys.float_info.epsilon


def test_sweep_writes_the_thick_bound_past_u_300(tmp_path):
    # u = 500 e^-0.25 = 389.4 at t = 0.25, where the bound was written as 0
    config = tmp_path / "config.txt"
    config.write_text(f"out_dir={tmp_path / 'out'}\nl0_values=500\nt_max=0.5\n")
    assert main(["--config", str(config), "sweep"]) == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]]
    assert [(l0, t, regime) for l0, t, regime, _ in rows] == [("500", t, "thick") for t in ("0", "0.25", "0.5")]
    assert float(rows[1][3]) == pytest.approx(6.1468e-169, rel=1e-4, abs=0.0)


def test_classification_is_a_partition():
    for l0 in (0.1, 0.5, 1.0, 2.0, 5.0):
        for t in (0.5 * i for i in range(13)):
            assert classify(l0, t) in ("thin", "middle", "thick")


def test_sweep_single_cell_width_contribution_zero():
    rows, _ = run_sweep((1.0,), (0.0,), 5)
    assert len(rows) == 1
    assert rows[0][3] == 0.0


def test_sweep_thick_cells_finite():
    rows, summary = run_sweep((5.0,), (0.0, 0.25, 0.5), 5)
    regimes = {row[2] for row in rows}
    assert regimes == {"thick"}
    assert summary["global_bounded"]
    assert all(math.isfinite(row[3]) for row in rows)


def test_sweep_default_grid_bounded_and_partitioned():
    _, summary = run_sweep((0.1, 1.0, 5.0), tuple(0.5 * i for i in range(9)), 8)
    assert summary["global_bounded"]
    assert set(summary["regime_sup"]) <= {"thin", "middle", "thick"}
    for regime, (l0, t) in summary["regime_argmax"].items():
        assert classify(l0, t) == regime


def test_sweep_outputs_are_deterministic_and_well_formed(tmp_path):
    # the sweep command writes the files, over the grid of the config below
    files = []
    for run in ("a", "b"):
        config = tmp_path / f"{run}.txt"
        config.write_text(f"out_dir={tmp_path / run}\nl0_values=0.5,1\nt_max=2\nt_step=1\nmax_q=6\n")
        assert main(["--config", str(config), "sweep"]) == 0
        files.append([(tmp_path / run / name).read_text() for name in ("sweep.csv", "sweep_summary.json")])
    (csv1, json1), (csv2, json2) = files
    assert csv1 == csv2
    assert json1 == json2
    lines = csv1.splitlines()
    assert lines[0] == "l0,t,regime,bound_value"
    rows, _ = run_sweep((0.5, 1.0), (0.0, 1.0, 2.0), 6)
    assert len(lines) == 1 + len(rows)
    summary = json.loads(json1)
    assert summary["global_bounded"] is True
    assert "regime_sup" in summary


def test_default_grid_sweep_globally_bounded():
    cfg = Config()
    rows, summary = run_sweep(cfg.l0_values, cfg.t_values(), cfg.max_q)
    assert summary["global_bounded"]
    assert set(row[2] for row in rows) == {"thin", "middle", "thick"}
    assert all(math.isfinite(row[3]) for row in rows)


@pytest.mark.parametrize("t", [740.0, 745.0, 750.0, 1000.0])
def test_thin_ratio_bound_in_the_thin_limit_matches_mpmath_reference(t):
    # u = e^-t is subnormal or zero here; log coth(0) raised at t = 1000
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        u = mpmath.exp(-mpmath.mpf(t))
        logs = u * mpmath.log(mpmath.coth(1)) + mpmath.log(mpmath.coth(u))
        ref = 1 + u / mpmath.log(1 / mpmath.mpf(DEFAULT_EPSILON)) * 4 * logs
    assert ratio_bound_thin(1.0, t, DEFAULT_EPSILON) == float(ref) == 1.0


def test_sweep_reaches_the_thin_limit(tmp_path, capsys):
    # u = e^-800 is zero in floats, where the thin bound raised
    config = tmp_path / "config.txt"
    config.write_text(f"out_dir={tmp_path / 'out'}\nl0_values=1\nt_max=800\nt_step=100\n")
    assert main(["--config", str(config), "sweep"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[2:] == [f"1,{t},thin,1" for t in range(100, 900, 100)]


def test_thin_ratio_bound_decreasing_in_t():
    # numerical observation on the grid, not claimed by the theory
    eps = DEFAULT_EPSILON
    for l0 in (0.05, 0.1, 0.25):
        prev = None
        for t in (0.0, 0.5, 1.0, 2.0, 4.0):
            val = ratio_bound_thin(l0, t, eps)
            if prev is not None:
                assert val < prev
            prev = val
