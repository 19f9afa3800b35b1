"""Tests for twist evolution along stretch paths and twist widths."""

import math
import sys

import pytest

from thurston_kit.pants import PantsTriangulation, TwistSigns
from thurston_kit.stretch import (
    FNPoint,
    SpecMismatchError,
    StretchSpec,
    left_spec,
    log_coth,
    right_spec,
    stretch_lengths,
    stretch_point,
    twist_along_stretch,
    twist_width,
    twist_width_closed,
)

#: printed-convention value at (l0, t) = (1, 1), recomputed then frozen
PRINTED_GOLDEN = -5.68142893628726


def test_stretch_lengths_identity_at_zero():
    x = FNPoint("S2", (1.0, 2.0, 0.5), (0.1, -0.2, 0.3))
    assert stretch_lengths(x, 0.0) == x


def test_stretch_lengths_scaling():
    x = FNPoint("S11", (1.0,), (0.0,))
    assert stretch_lengths(x, math.log(2.0)).lengths[0] == pytest.approx(2.0, rel=1e-15)


def test_stretch_lengths_compose():
    x = FNPoint("S11", (1.3,), (0.4,))
    y = stretch_lengths(stretch_lengths(x, 0.7), 0.5)
    assert y.lengths[0] == pytest.approx(stretch_lengths(x, 1.2).lengths[0], rel=1e-14)


def test_twist_at_time_zero_is_initial_twist():
    x = FNPoint("S11", (2.0,), (0.37,))
    for spec in (left_spec("S11", direction="forward"), left_spec("S11", direction="backward")):
        assert twist_along_stretch(x, spec, 0, 0.0) == pytest.approx(0.37, abs=1e-12)


def test_twist_linear_in_initial_twist():
    l, t = 1.7, 0.9
    spec = left_spec("S11", direction="forward")
    th1 = twist_along_stretch(FNPoint("S11", (l,), (0.25,)), spec, 0, t)
    th2 = twist_along_stretch(FNPoint("S11", (l,), (-1.10,)), spec, 0, t)
    assert th1 - th2 == pytest.approx((0.25 - (-1.10)) * math.exp(t), abs=1e-12)


def test_backward_twist_s04_closed_form():
    # both pants contribute log coth(l0 e^s) with l0 = l_alpha / 4
    l0, t = 0.6, 1.0
    x = FNPoint("S04", (4.0 * l0,), (0.0,))
    theta = twist_along_stretch(x, left_spec("S04"), 0, t)
    expected = 2.0 * (math.exp(-t) * log_coth(l0) - log_coth(l0 * math.exp(-t)))
    assert theta == pytest.approx(expected, abs=1e-10)


def test_forward_at_minus_t_equals_backward_at_t():
    x = FNPoint("S11", (2.0,), (0.3,))
    fwd = twist_along_stretch(x, left_spec("S11", direction="forward"), 0, -1.7)
    bwd = twist_along_stretch(x, left_spec("S11", direction="backward"), 0, 1.7)
    assert fwd == pytest.approx(bwd, abs=1e-12)


def test_spec_validation():
    with pytest.raises(SpecMismatchError):
        # S11 glues the first two cuffs of one pair of pants; their twist
        # signs must agree
        StretchSpec("S11", (PantsTriangulation((2, 2, 2), TwistSigns(1, -1, 1)),))
    with pytest.raises(ValueError):
        StretchSpec("S04", (PantsTriangulation((4, 1, 1), TwistSigns(1, 1, 1)),))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_rejected(t):
    x = FNPoint("S11", (1.0,), (0.0,))
    lam, nu = left_spec("S11"), right_spec("S11")
    for call in (
        lambda: stretch_point(x, lam, t),
        lambda: twist_along_stretch(x, lam, 0, t),
        lambda: twist_width(x, lam, nu, 0, t),
    ):
        with pytest.raises(ValueError, match="^t must be finite$"):
            call()


def test_twist_width_same_spec_is_zero():
    x = FNPoint("S11", (2.0,), (0.1,))
    lam = left_spec("S11")
    for t in (0.0, 0.5, 2.0):
        assert twist_width(x, lam, lam, 0, t) == 0.0


def test_twist_width_zero_at_time_zero():
    x = FNPoint("S11", (2.0,), (0.1,))
    assert twist_width(x, left_spec("S11"), right_spec("S11"), 0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_twist_width_antisymmetric_and_twist_independent():
    lam, nu = left_spec("S11"), right_spec("S11")
    x1 = FNPoint("S11", (2.0,), (0.0,))
    x2 = FNPoint("S11", (2.0,), (57.0,))
    for t in (0.3, 1.0, 4.0):
        w = twist_width(x1, lam, nu, 0, t)
        assert twist_width(x1, nu, lam, 0, t) == pytest.approx(-w, abs=1e-12)
        assert twist_width(x2, lam, nu, 0, t) == pytest.approx(w, abs=1e-12)


def test_twist_width_rejects_mismatched_specs():
    x = FNPoint("S11", (2.0,), (0.0,))
    with pytest.raises(SpecMismatchError):
        twist_width(x, left_spec("S11", direction="forward"), right_spec("S11", direction="backward"), 0, 1.0)
    with pytest.raises(SpecMismatchError):
        twist_width(x, left_spec("S11", 1.0), right_spec("S11", 2.0), 0, 1.0)


def test_closed_width_vanishes_at_zero():
    assert twist_width_closed(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert twist_width_closed(1.0, 0.0, "printed") == pytest.approx(0.0, abs=1e-12)


def test_closed_width_printed_golden_value():
    assert twist_width_closed(1.0, 1.0, "printed") == pytest.approx(PRINTED_GOLDEN, abs=1e-11)


def test_closed_width_rejects_bad_arguments():
    with pytest.raises(ValueError):
        twist_width_closed(0.0, 1.0)
    with pytest.raises(ValueError):
        twist_width_closed(1.0, -0.5)
    with pytest.raises(ValueError):
        twist_width_closed(1.0, 1.0, "other")


@pytest.mark.parametrize("surface,ratio", [("S11", 2.0), ("S04", 4.0)])
def test_closed_width_agrees_with_offset_built_width(surface, ratio):
    lam, nu = left_spec(surface), right_spec(surface)
    for l0 in (0.25, 1.0, 2.0):
        x = FNPoint(surface, (ratio * l0,), (0.123,))
        for t in (0.25, 1.0, 3.0):
            built = twist_width(x, lam, nu, 0, t)
            assert built == pytest.approx(twist_width_closed(l0, t), abs=1e-9)


def test_stretch_point_scales_lengths_and_evolves_twists():
    x = FNPoint("S2", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    spec = left_spec("S2", direction="forward")
    y = stretch_point(x, spec, 0.5)
    assert all(l == pytest.approx(math.exp(0.5), rel=1e-14) for l in y.lengths)
    assert all(th == pytest.approx(y.twists[0], abs=1e-12) for th in y.twists)


def test_width_agreement_for_random_partial_sign_patterns():
    # widths between two arbitrary completions reduce to differences of
    # offset combinations; cross-check against a direct recomputation
    import numpy as np

    from thurston_kit.pants import PantsMetric, delta_closed

    rng = np.random.RandomState(9)
    for _ in range(20):
        l_alpha = float(rng.uniform(0.3, 4.0))
        t = float(rng.uniform(0.1, 3.0))
        x = FNPoint("S11", (l_alpha,), (float(rng.uniform(-2, 2)),))
        lam, nu = left_spec("S11"), right_spec("S11")
        w = twist_width(x, lam, nu, 0, t)

        def combo(spec):
            pm = PantsMetric(l_alpha, l_alpha, 0.0)
            tri = spec.triangulations[0]
            d0 = delta_closed(pm, tri, 0) + delta_closed(pm, tri, 1)
            pm_t = pm.scaled(math.exp(-t))
            dt = delta_closed(pm_t, tri, 0) + delta_closed(pm_t, tri, 1)
            return d0 * math.exp(-t) - dt

        assert w == pytest.approx(combo(lam) - combo(nu), abs=1e-10)


@pytest.mark.parametrize("u", [1e-14, 1e-11, 1e-8, 1e-4, 0.05, 1.0, 5.0, 20.0, 300.0])
def test_log_coth_matches_mpmath_reference(u):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        # log coth u = log1p(2 / (e^{2u} - 1)), exact to 50 digits at every u here
        ref = mpmath.log1p(2 / mpmath.expm1(2 * mpmath.mpf(u)))
        rel = abs((mpmath.mpf(log_coth(u)) - ref) / ref)
    assert rel <= 4 * sys.float_info.epsilon
