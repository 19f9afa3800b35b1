"""Tests for the envelope bound evaluators and the grid sweep."""

import json
import math

import pytest

from thurston_kit.bounds import (
    DEFAULT_EPSILON,
    RegimeError,
    SweepGrid,
    classify,
    collar_width,
    decay_factor,
    decay_factor_unbounded,
    earthquake_bound,
    intersection_bound,
    ratio_bound_thin,
    run_sweep,
    sweep_csv,
    sweep_json,
    thick_bound,
)
from thurston_kit.cli import Config
from thurston_kit.stretch import FNPoint, log_coth


def test_earthquake_bound_values():
    assert earthquake_bound(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert earthquake_bound(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert earthquake_bound(1.0, math.e) == pytest.approx(1.5, abs=1e-14)
    with pytest.raises(RegimeError):
        earthquake_bound(1.0, 0.0)


def test_intersection_bound_values():
    assert intersection_bound(1.0, 1.0, 2.0) == pytest.approx(1.0)
    assert intersection_bound(0.0, 5.0, 1.0) == 0.0
    with pytest.raises(RegimeError):
        intersection_bound(1.0, 1.0, 0.0)


def test_intersection_bound_dominates_actual_intersection_on_torus():
    # slopes 0 and infinity intersect once; both lengths exceed the chosen
    # thickness at this point
    from thurston_kit.torus import Slope, curve_length

    x = FNPoint("S11", (1.0,), (0.0,))
    eps = 0.5
    la = curve_length(x, Slope(1, 0))
    lb = curve_length(x, Slope(0, 1))
    assert min(la, lb) >= eps
    assert Slope(1, 0).intersection(Slope(0, 1)) <= intersection_bound(la, lb, eps)


def test_collar_width_values_and_regime():
    assert collar_width(1.0 / math.e) == pytest.approx(2.0, abs=1e-14)
    assert collar_width(math.exp(-2.0)) == pytest.approx(4.0, abs=1e-13)
    with pytest.raises(RegimeError):
        collar_width(0.5)
    with pytest.raises(RegimeError):
        collar_width(0.0)


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


def test_classification_is_a_partition():
    grid = SweepGrid((0.1, 0.5, 1.0, 2.0, 5.0), tuple(0.5 * i for i in range(13)))
    for l0 in grid.l0_values:
        for t in grid.t_values:
            assert classify(l0, t, grid.epsilon) in ("thin", "middle", "thick")


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (0.0,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.0,), epsilon=1.0)
    with pytest.raises(ValueError):
        SweepGrid((2.0, 1.0), (0.0,))


def test_sweep_single_cell_width_contribution_zero():
    report = run_sweep(SweepGrid((1.0,), (0.0,), max_q=5))
    assert len(report.rows) == 1
    assert report.rows[0][3] == 0.0


def test_sweep_thick_cells_finite():
    report = run_sweep(SweepGrid((5.0,), (0.0, 0.25, 0.5), max_q=5))
    regimes = {row[2] for row in report.rows}
    assert regimes == {"thick"}
    assert report.global_bounded
    assert all(math.isfinite(row[3]) for row in report.rows)


def test_sweep_default_grid_bounded_and_partitioned():
    grid = SweepGrid((0.1, 1.0, 5.0), tuple(0.5 * i for i in range(9)), max_q=8)
    report = run_sweep(grid)
    assert report.global_bounded
    assert set(report.regime_sup) <= {"thin", "middle", "thick"}
    for regime, (l0, t) in report.regime_argmax.items():
        assert classify(l0, t, grid.epsilon) == regime


def test_sweep_outputs_are_deterministic_and_well_formed():
    grid = SweepGrid((0.5, 1.0), (0.0, 1.0, 2.0), max_q=6)
    r1, r2 = run_sweep(grid), run_sweep(grid)
    assert sweep_csv(r1) == sweep_csv(r2)
    assert sweep_json(r1) == sweep_json(r2)
    lines = sweep_csv(r1).splitlines()
    assert lines[0] == "l0,t,regime,bound_value"
    assert len(lines) == 1 + len(r1.rows)
    summary = json.loads(sweep_json(r1))
    assert summary["global_bounded"] is True
    assert "regime_sup" in summary


def test_default_grid_sweep_globally_bounded():
    cfg = Config()
    report = run_sweep(SweepGrid(cfg.l0_values, cfg.t_values(), cfg.epsilon, cfg.max_q))
    assert report.global_bounded
    assert set(row[2] for row in report.rows) == {"thin", "middle", "thick"}
    assert all(math.isfinite(row[3]) for row in report.rows)


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
