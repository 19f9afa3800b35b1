"""Tests for shear coordinates and the twist-offset functions."""

import ast
import cmath
import functools
import itertools
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from thurston_kit import h2, pants
from thurston_kit.h2 import INF, GeometryError, _triangle, shear
from thurston_kit.pants import (
    PantsMetric,
    PantsTriangulation,
    SingularCuffError,
    delta_closed,
    delta_oracle,
    delta_scale_derivative,
    delta_side,
    enumerate_triangulations,
    oracle_details,
    shear_coords,
    _delta_core,
    _next_gap,
    _roles,
    _signed,
    _solve_monotone,
)

from mp_reference import SWAPPED, scalars

LLL = (1, 1, 1)
RRR = (-1, -1, -1)

GRID = (0.5, 1.0, 2.0, 4.0)


def all_sign_patterns():
    return list(itertools.product((1, -1), repeat=3))


# ------------------------------------------------------------- shear coords


def test_three_symmetric_unit_lengths_all_left():
    s = shear_coords(PantsMetric(1, 1, 1), PantsTriangulation((2, 2, 2), LLL))
    assert s == {"s12": -0.5, "s13": -0.5, "s23": -0.5}


def test_shear_sum_identity_all_left():
    for l in itertools.product(GRID, repeat=3):
        s = shear_coords(PantsMetric(*l), PantsTriangulation((2, 2, 2), LLL))
        assert s["s12"] + s["s13"] == pytest.approx(-l[0], abs=1e-12)
        assert abs(s["s12"] + s["s23"]) == pytest.approx(l[1], abs=1e-12)
        assert abs(s["s13"] + s["s23"]) == pytest.approx(l[2], abs=1e-12)


def test_two_symmetric_with_punctures():
    s = shear_coords(PantsMetric(1.0, 0.0, 0.0), PantsTriangulation((4, 1, 1), LLL))
    assert s == {"s11": -0.5, "s12": 0.0, "s13": 0.0}


def test_per_cuff_end_sum_rule_all_types():
    # the shears of the leaf ends spiraling into a cuff add up to minus the
    # signed cuff length, one term per end
    for tri in enumerate_triangulations():
        for l in ((1.0, 2.0, 0.5), (4.0, 0.5, 2.0)):
            s = shear_coords(PantsMetric(*l), tri)
            for cuff in range(3):
                total = 0.0
                for key, val in s.items():
                    i, j = int(key[1]) - 1, int(key[2]) - 1
                    total += val * ((i == cuff) + (j == cuff))
                expected = -tri.signs[cuff] * l[cuff]
                assert total == pytest.approx(expected, abs=1e-12)


def test_labels_match_symmetry_class():
    assert set(shear_coords(PantsMetric(1, 1, 1), PantsTriangulation((1, 4, 1), LLL))) == {"s22", "s12", "s23"}
    assert set(shear_coords(PantsMetric(1, 1, 1), PantsTriangulation((1, 1, 4), LLL))) == {"s33", "s13", "s23"}


# ------------------------------------------------------------- enumeration


def test_enumeration_count_and_distinctness():
    tris = enumerate_triangulations()
    assert len(tris) == 32
    assert len(set(tris)) == 32
    assert sum(1 for t in tris if t.ends == (2, 2, 2)) == 8


def test_invalid_distribution_rejected():
    with pytest.raises(ValueError):
        PantsTriangulation((3, 2, 1), LLL)


@pytest.mark.parametrize("signs", [(1, 0, 1), (1, -1)])
def test_invalid_signs_rejected(signs):
    with pytest.raises(ValueError, match=r"^twist signs must be \+1 or -1$"):
        PantsTriangulation((2, 2, 2), signs)


# ------------------------------------------------------------- closed forms


def test_delta_3sym_matches_oracle_at_unit_lengths():
    pm = PantsMetric(1, 1, 1)
    tri = PantsTriangulation((2, 2, 2), LLL)
    assert delta_closed(pm, tri, 0) == pytest.approx(delta_oracle(pm, tri, 0), abs=1e-9)


def test_delta_3sym_flipping_first_sign_uses_opposite_translate():
    # with the first sign flipped the closure uses e^{+l1} and the leading
    # factor negates; rebuild the printed expression by hand and compare
    pm = PantsMetric(1.3, 0.8, 2.1)
    signs = (-1, 1, 1)
    s = shear_coords(pm, PantsTriangulation((2, 2, 2), signs))
    x = (1 + math.exp(s["s12"])) / (math.exp(+pm.l1) - 1)
    frac = (math.exp(s["s23"]) + math.exp(-pm.l2)) / (math.exp(s["s23"]) + 1)
    by_hand = -0.5 * math.log((x + 1) * (x + frac))
    assert delta_closed(pm, PantsTriangulation((2, 2, 2), signs), 0) == pytest.approx(by_hand, abs=1e-12)


def test_delta_2sym_puncture_case_is_log_coth_quarter_length():
    for l1 in GRID:
        pm = PantsMetric(l1, 0.0, 0.0)
        expected = math.log(1.0 / math.tanh(l1 / 4.0))
        assert delta_closed(pm, PantsTriangulation((4, 1, 1), LLL), 0) == pytest.approx(expected, abs=1e-12)
        # sign flip negates exactly in this case
        assert delta_closed(pm, PantsTriangulation((4, 1, 1), RRR), 0) == pytest.approx(-expected, abs=1e-12)


def test_delta_2sym_matches_oracle_on_grid():
    tri = PantsTriangulation((4, 1, 1), LLL)
    for l in itertools.product(GRID, repeat=3):
        pm = PantsMetric(*l)
        assert delta_closed(pm, tri, 0) == pytest.approx(delta_oracle(pm, tri, 0), abs=1e-9)


def test_delta_asym_matches_oracle_at_unit_lengths():
    pm = PantsMetric(1, 1, 1)
    tri = PantsTriangulation((1, 4, 1), LLL)
    assert delta_closed(pm, tri, 0) == pytest.approx(delta_oracle(pm, tri, 0), abs=1e-9)


def test_delta_asym_leading_sign_flip():
    pm = PantsMetric(1.2, 0.9, 1.7)
    signs = (-1, 1, 1)
    s = shear_coords(pm, PantsTriangulation((1, 4, 1), signs))
    x = 1.0 / (math.exp(+pm.l1) - 1)
    num = math.exp(s["s22"]) + math.exp(s["s22"] + s["s23"]) + math.exp(2 * s["s22"] + s["s23"]) + math.exp(-pm.l2)
    den = math.exp(s["s22"]) + math.exp(s["s22"] + s["s23"]) + math.exp(2 * s["s22"] + s["s23"]) + 1
    by_hand = -0.5 * math.log((x + 1) * (x + num / den))
    assert delta_closed(pm, PantsTriangulation((1, 4, 1), signs), 0) == pytest.approx(by_hand, abs=1e-12)


def test_sign_flip_offsets_are_length_linear():
    # flipping all three signs negates the offset up to a half-integer
    # combination of cuff lengths (the normalization freedom); the
    # combination's coefficients must not depend on the lengths
    for ends in ((2, 2, 2), (4, 1, 1), (1, 4, 1)):
        for signs in all_sign_patterns():
            tri = PantsTriangulation(ends, signs)
            tri_f = PantsTriangulation(ends, tuple(-e for e in signs))

            def offset(l):
                pm = PantsMetric(*l)
                return delta_closed(pm, tri, 0) + delta_closed(pm, tri_f, 0)

            basis = np.array([(1.0, 0.7, 0.9), (1.6, 0.7, 0.9), (1.0, 1.4, 0.9), (1.0, 0.7, 2.1)])
            coeff, *_ = np.linalg.lstsq(basis, np.array([offset(tuple(r)) for r in basis]), rcond=None)
            # coefficients are half-integers
            assert np.allclose(2.0 * coeff, np.round(2.0 * coeff), atol=1e-9)
            rng = np.random.RandomState(7)
            for l in rng.uniform(0.4, 4.0, (8, 3)):
                assert offset(tuple(l)) == pytest.approx(float(coeff @ l), abs=1e-12)


def test_normalization_freedom_shifts_delta_but_not_width_combination():
    # multiplying the inner expression by e^{k l1} shifts the offset by
    # k l1 / 2 and cancels in e^t D(0) - D(t)
    pm = PantsMetric(1.5, 0.7, 1.1)
    tri = PantsTriangulation((2, 2, 2), LLL)
    k = -1.3
    for t in (0.0, 0.4, 1.7):
        d0 = delta_closed(pm.scaled(math.exp(0.0)), tri, 0)
        dt = delta_closed(pm.scaled(math.exp(t)), tri, 0)
        d0_norm = d0 + 0.5 * k * pm.l1
        dt_norm = dt + 0.5 * k * pm.l1 * math.exp(t)
        assert math.exp(t) * d0 - dt == pytest.approx(math.exp(t) * d0_norm - dt_norm, abs=1e-10)


def test_singular_cuff_rejected():
    pm = PantsMetric(0.0, 1.0, 1.0)
    with pytest.raises(SingularCuffError):
        delta_closed(pm, PantsTriangulation((2, 2, 2), LLL), 0)
    with pytest.raises(SingularCuffError):
        delta_oracle(PantsMetric(1e-14, 1.0, 1.0), PantsTriangulation((2, 2, 2), LLL), 0)


# ------------------------------------------------------------- oracle internals


def test_oracle_x_solves_incircle_relation():
    pm = PantsMetric(1.0, 2.0, 0.5)
    tri = PantsTriangulation((2, 2, 2), LLL)
    det = oracle_details(pm, tri, 0)
    s = shear_coords(pm, tri)
    printed_x = (1 + math.exp(s["s12"])) / (math.exp(-pm.l1) - 1)
    assert det["x"] == pytest.approx(printed_x, abs=1e-12)
    assert math.exp(-pm.l1) * det["x"] - (det["x"] + 1) == pytest.approx(math.exp(s["s12"]), abs=1e-12)


def test_oracle_right_twist_uses_expanding_translate():
    pm = PantsMetric(1.0, 2.0, 0.5)
    tri = PantsTriangulation((2, 2, 2), (-1, 1, 1))
    det = oracle_details(pm, tri, 0)
    # closure under the deck map with e^{+l1}
    assert math.exp(+pm.l1) * det["x"] == pytest.approx(det["x"] + det["fan_width"], abs=1e-10)


def test_oracle_reference_point_transports_to_unit_height():
    det = oracle_details(PantsMetric(1.0, 1.0, 1.0), PantsTriangulation((2, 2, 2), LLL), 0)
    assert det["q"][1] == pytest.approx(1.0, abs=1e-12)


def test_oracle_handles_puncture_on_perpendicular_cuff():
    # the S04 pants has punctures at both non-distinguished cuffs
    pm = PantsMetric(2.0, 0.0, 0.0)
    val = delta_oracle(pm, PantsTriangulation((4, 1, 1), LLL), 0)
    assert val == pytest.approx(math.log(1.0 / math.tanh(0.5)), abs=1e-10)


@pytest.mark.parametrize(
    "lengths, message",
    [
        # thin cuffs: the perpendicular from the deck endpoint's image lands at
        # the fan leaf's own endpoint x + 1
        ((1e-10, 1e-6, 1.0), "geodesic endpoints coincide"),
        # the fan root x = 0x1.ffffffdffffffp+26 sits just below 2^27, so x + 1
        # rounds, phi's determinant fl(x + 1) - x is not 1 and its normalised
        # entries carry x to -1.5e-8, not to 0
        ((1.5199184361103233e-08, 0.9215585622424687, 1.0), "fan frame normalization failed"),
    ],
)
def test_oracle_rejects_a_degenerate_construction(lengths, message):
    tri = PantsTriangulation((2, 2, 2), (-1, 1, 1))
    with pytest.raises(GeometryError, match=f"^{message}$"):
        delta_oracle(PantsMetric(*lengths), tri, 0)


def test_oracle_matches_closed_form_every_type_spot_grid():
    for tri in enumerate_triangulations():
        for l in ((1.0, 1.0, 1.0), (2.0, 0.5, 4.0)):
            pm = PantsMetric(*l)
            for cuff in range(3):
                assert delta_closed(pm, tri, cuff) == pytest.approx(delta_oracle(pm, tri, cuff), abs=1e-9)


# ------------------------------------------------------------- derivatives


def test_scale_derivative_matches_central_difference():
    pm = PantsMetric(1.0, 2.0, 0.7)
    for tri in (PantsTriangulation((2, 2, 2), LLL), PantsTriangulation((1, 1, 4), (1, -1, 1))):
        for cuff in range(3):
            analytic = delta_scale_derivative(pm, tri, cuff)
            h = 1e-6
            up, down = pm.scaled(math.exp(h)), pm.scaled(math.exp(-h))
            numeric = (delta_closed(up, tri, cuff) - delta_closed(down, tri, cuff)) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_scaled_delta_scales_lengths():
    pm = PantsMetric(1.0, 2.0, 0.7)
    tri = PantsTriangulation((2, 2, 2), LLL)
    assert delta_closed(pm.scaled(math.exp(0.3)), tri, 0) == pytest.approx(
        delta_closed(PantsMetric(*(v * math.exp(0.3) for v in pm.lengths)), tri, 0), abs=1e-12
    )


def test_role_resolution_rejects_bad_cuffs():
    tri_2sym = PantsTriangulation((4, 1, 1), LLL)
    for cuff in (-1, 3):
        with pytest.raises(ValueError, match="^cuff index must be 0, 1 or 2$"):
            delta_closed(PantsMetric(1, 1, 1), tri_2sym, cuff)


@pytest.mark.parametrize("signs, cuff", [("LRR", 0), ("RLR", 1), ("RRL", 2)])
def test_offset_whose_log_argument_cancels_is_rejected(signs, cuff):
    # at these long cuffs g rounds below zero, and cmath.log would return
    # log|g| + i pi, whose real part is -33.02 where 60 digits give -44.99999999999986
    tri = PantsTriangulation((2, 2, 2), tuple(1 if ch == "L" else -1 for ch in signs))
    message = rf"^twist offset at cuff {cuff} is out of float reach: g = -\S+ <= 0 at lengths \(60.0, 60.0, 60.0\)$"
    with pytest.raises(ValueError, match=message):
        delta_closed(PantsMetric(60.0, 60.0, 60.0), tri, cuff)


@pytest.mark.parametrize("lengths", [(1e6, 1.0, 1.0), (1.0, 1.0, 800.0)])
def test_offset_whose_log_argument_overflows_is_rejected(lengths):
    # an exponential overflowed at the first lengths (a bare "math range
    # error"); at the second g overflowed to inf, and the offset was inf
    # and its scale derivative nan
    message = rf"^twist offset at cuff 0 is out of float reach: g overflows at lengths {re.escape(str(lengths))}$"
    for offset in (delta_closed, delta_scale_derivative):
        with pytest.raises(ValueError, match=message):
            offset(PantsMetric(*lengths), PantsTriangulation((2, 2, 2), LLL), 0)


def test_oracle_matches_closed_form_random_lengths_and_signs():
    rng = np.random.RandomState(2024)
    tris = enumerate_triangulations()
    worst = 0.0
    for _ in range(60):
        tri = tris[rng.randint(len(tris))]
        pm = PantsMetric(*rng.uniform(0.05, 6.0, 3))
        cuff = int(rng.randint(3))
        worst = max(worst, abs(delta_closed(pm, tri, cuff) - delta_oracle(pm, tri, cuff)))
    assert worst <= 1e-9


#: delta_oracle pinned to the last bit: (ends, signs, cuff, lengths, value).
#: The oracle is the independent check on the closed forms, so a change to
#: the float operations of the half-plane kernel must show here, not only
#: as a residual within 1e-9.  The comments give |delta_closed -
#: delta_oracle|; on long cuffs it exceeds 1e-9.
ORACLE_PINNED = [
    ((2, 2, 2), "LLL", 0, (1.0, 1.0, 1.0), 0.5464202764685121),  # |closed - oracle| = 5.6e-16
    ((2, 2, 2), "RLR", 1, (0.5, 2.0, 4.0), 0.2267766102567034),  # |closed - oracle| = 1.9e-16
    ((2, 2, 2), "LRR", 2, (4.0, 0.5, 1.0), -0.1456322763220376),  # |closed - oracle| = 8.3e-17
    ((2, 2, 2), "RRR", 0, (0.01, 0.02, 0.03), -5.298350698166218),  # |closed - oracle| = 0.0e+00
    ((4, 1, 1), "LLL", 0, (1.0, 1.0, 1.0), 1.0204972606486182),  # |closed - oracle| = 2.2e-16
    ((4, 1, 1), "RLL", 0, (2.0, 0.5, 0.0), -0.534213545329132),  # |closed - oracle| = 1.1e-16
    ((1, 4, 1), "LRR", 1, (0.03664950884040524, 0.030424676661811877, 18.829871949884183), -22.322498127643144),  # |closed - oracle| = 4.4e-07
    ((1, 1, 4), "RRL", 2, (15.709873283902974, 6.6061431682451115, 18.49053731629074), 8.884869604929506),  # |closed - oracle| = 1.4e-04
    ((1, 4, 1), "LLR", 1, (8.71147208828151, 0.9168441811917454, 17.87384501455205), 17.937144235385887),  # |closed - oracle| = 1.2e-08
    ((4, 1, 1), "LRR", 0, (0.021136484744808358, 12.986166445413696, 0.43698126134277715), 16.846000396132087),  # |closed - oracle| = 1.2e-09
    ((1, 4, 1), "LLL", 0, (1.0, 1.0, 1.0), -0.4276567077115953),  # |closed - oracle| = 1.7e-16
    ((1, 1, 4), "RLR", 1, (0.7, 3.0, 0.2), -3.0112645822385566),  # |closed - oracle| = 4.4e-15
    ((4, 1, 1), "RRL", 2, (13.361745422683716, 0.05165839606850002, 18.94300354570567), -25.561941482068864),  # |closed - oracle| = 4.2e-03
    ((4, 1, 1), "RLL", 2, (15.214151584141655, 0.45631340655083835, 17.186771448868296), -24.4718478663994),  # |closed - oracle| = 1.9e-03
    ((4, 1, 1), "RRL", 2, (6.660273258884103, 0.08406651621143178, 15.097503764794336), -18.413034674163058),  # |closed - oracle| = 1.2e-08
    ((4, 1, 1), "RLL", 2, (0.25892591892755656, 0.24173402716398046, 16.549575305956942), -16.678971557401436),  # |closed - oracle| = 1.0e-09
    ((2, 2, 2), "LLL", 0, (1.0, 0.0, 1.0), 0.7719368329053048),  # |closed - oracle| = 0.0e+00
    ((1, 4, 1), "RLR", 0, (0.3, 0.0, 2.5), -1.3502256128148469),  # |closed - oracle| = 4.4e-16
    ((2, 2, 2), "LRL", 1, (19.5, 0.011, 7.25), -10.637040108051771),  # |closed - oracle| = 7.8e-13
    ((1, 1, 4), "LLR", 0, (1e-06, 2.0, 3.0), 13.815509784568496),  # |closed - oracle| = 1.1e-10
]


@pytest.mark.parametrize("ends, signs, cuff, lengths, expected", ORACLE_PINNED)
def test_oracle_values_are_pinned_bit_for_bit(ends, signs, cuff, lengths, expected):
    assert repr(delta_oracle(PantsMetric(*lengths), _pinned_tri(ends, signs), cuff)) == repr(expected)


def _pinned_tri(ends, signs):
    return PantsTriangulation(ends, tuple(1 if ch == "L" else -1 for ch in signs))


def test_gap_solve_raises_when_the_secant_stalls():
    assert _solve_monotone(lambda u: 2.0 * u - 1.0, -1.0, 1.0) == 0.5
    with pytest.raises(GeometryError, match="gap equation did not converge"):
        _solve_monotone(lambda u: 1.0, 1.0, 1.0)


@pytest.mark.parametrize("sigma", [800.0, -800.0])
def test_gap_solve_names_a_log_width_outside_the_float_range(sigma):
    # e^800 overflows and e^-800 underflows to 0
    with pytest.raises(GeometryError, match=rf"^gap log-width {sigma} leaves the float range$"):
        _next_gap(1.0, sigma)


def test_gap_solve_matches_the_full_shear_bit_for_bit():
    # _next_gap computes t_prev's half of the shear once per solve, or reads
    # it and the secant's start values from the fixed heights; the reference
    # re-evaluates the whole shear at every secant step
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def outcome(f):
        try:
            return f().hex()
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(log_gap=st.floats(math.log(1e-6), math.log(1e6)), sigma=st.floats(-40.0, 40.0))
    def check(log_gap, sigma):
        prev_gap = math.exp(log_gap)
        t_prev = _triangle(-prev_gap, 0.0, INF)

        def reference():
            def cond(u):
                return shear(t_prev, _triangle(0.0, math.exp(u), INF), 0.0, INF) - sigma

            return math.exp(_solve_monotone(cond, cond(0.0), cond(1.0)))

        assert outcome(lambda: _next_gap(prev_gap, sigma)) == outcome(reference)

    check()


@pytest.mark.parametrize("ends, calls", [((2, 2, 2), 4), ((4, 1, 1), 6), ((1, 4, 1), 6)])
def test_gap_solve_evaluates_only_the_heights_that_change(ends, calls, monkeypatch):
    # a warm oracle call evaluates one far height per secant step (one per
    # gap, the linear equation's first step is exact) and one near height per
    # gap that follows a gap of width other than one: 2g - p for g gaps in p
    # non-empty periods, and one less for 141 at (1, 1, 1), whose third
    # spiral gap is exactly one.  Recomputing the three fixed heights at
    # every gap made 12, 16 and 16 calls.
    far_height, count = h2._far_height, 0

    def counted(s):
        nonlocal count
        count += 1
        return far_height(s)

    monkeypatch.setattr(h2, "_far_height", counted)
    monkeypatch.setattr(pants, "_far_height", counted)
    pm, tri = PantsMetric(1.0, 1.0, 1.0), PantsTriangulation(ends, LLL)
    delta_oracle(pm, tri, 0)
    count = 0
    delta_oracle(pm, tri, 0)
    assert count == calls


def test_fixed_heights_never_cross_namespaces():
    # float, then 50 digits, then float again in one process: each namespace
    # reads its own fixed heights.  The heights are 0, 0 and 1 (exactly so in
    # float), so a float height in the 50-digit solve cannot show.  The switch
    # clears the cache on entry and on exit, so only inside it can a cache not
    # keyed by the namespace show: there the float namespace still gets floats
    def oracle_values(num):
        return [delta_oracle(PantsMetric(*map(num, lengths)), _pinned_tri(ends, signs), cuff)
                for ends, signs, cuff, lengths, _ in ORACLE_PINNED]

    pins = [repr(expected) for *_, expected in ORACLE_PINNED]
    assert list(map(repr, oracle_values(float))) == pins
    with scalars(50) as mp:
        for (ends, signs, cuff, lengths, _), oracle in zip(ORACLE_PINNED, oracle_values(mp.mpf)):
            closed = delta_closed(PantsMetric(*map(mp.mpf, lengths)), _pinned_tri(ends, signs), cuff)
            assert abs(closed - oracle) <= 1e-30
        assert all(type(height) is float for height in pants._fixed_heights(math))
    again = oracle_values(float)
    assert all(type(value) is float for value in again)
    assert list(map(repr, again)) == pins


def test_oracle_results_never_depend_on_an_earlier_precision():
    # at 50 digits the last fixed height is one ulp below 1; a 100-digit run
    # that read the 50-digit heights was 1.8e-51 off here
    tri, lengths = PantsTriangulation((2, 2, 2), (1, -1, 1)), (1.0, 1.5, 0.7)

    def oracle(mp):
        return delta_oracle(PantsMetric(*map(mp.mpf, lengths)), tri, 0)

    with scalars(100) as mp:
        fresh = oracle(mp)
        with scalars(50) as inner:
            fifty = oracle(inner)
        assert oracle(mp) == fresh
    with scalars(50) as mp:
        assert oracle(mp) == fifty
        with scalars(100) as inner:
            assert oracle(inner) == fresh


def _details_outcomes(cases):
    """repr of each case's ``oracle_details``, or its error's type and message."""
    outcomes = []
    for lengths, tri, cuff in cases:
        try:
            outcomes.append(repr(sorted(oracle_details(PantsMetric(*lengths), tri, cuff).items())))
        except (ArithmeticError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _with_reference_mobius(cases):
    """The outcomes of ``cases`` with every Mobius matrix divided by the
    square root of its determinant, determinant one included (``pants``
    imports the name, so it is patched there too)."""
    from test_h2 import reference_mobius

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(h2, "_mobius", reference_mobius)
        patch.setattr(pants, "_mobius", reference_mobius)
        pants._fixed_heights.cache_clear()
        try:
            return _details_outcomes(cases)
        finally:
            pants._fixed_heights.cache_clear()


def test_oracle_details_are_the_reference_normalization_bit_for_bit():
    # every type and cuff, cuffs log-uniform on [1e-12, 80] and 5% punctures,
    # so that the singular cuffs, the degenerate constructions and the gaps
    # out of float range raise
    rng = np.random.RandomState(48)
    tris = enumerate_triangulations()
    cases = []
    for i in range(2016):
        lengths = [0.0 if rng.rand() < 0.05 else math.exp(rng.uniform(math.log(1e-12), math.log(80.0)))
                   for _ in range(3)]
        cases.append((lengths, tris[i % 32], i // 32 % 3))
    outcomes = _details_outcomes(cases)
    assert outcomes == _with_reference_mobius(cases)
    raised = sum(isinstance(outcome, tuple) for outcome in outcomes)
    assert 200 <= raised <= 800


def test_fifty_digit_oracle_details_are_the_reference_normalization(request):
    mp = request.getfixturevalue("fifty_digits")
    cases = [(tuple(map(mp.mpf, lengths)), tri, cuff)
             for lengths in ((1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (4.0, 0.3, 7.0))
             for tri in enumerate_triangulations()[::5] for cuff in range(3)]
    outcomes = _details_outcomes(cases)
    assert all(isinstance(outcome, str) and "mpf(" in outcome for outcome in outcomes)
    assert outcomes == _with_reference_mobius(cases)


# ------------------------------------------------- one side of a stretch vector


def _outcome(f):
    """f(), or its error's type and message."""
    try:
        return f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _hex(value):
    return (value.real.hex(), value.imag.hex()) if isinstance(value, complex) else value.hex()


def _side_outcomes(pm, tri, cuff, h=1e-6):
    """The outcomes of ``delta_side`` and of the four separate evaluations it
    replaces, each as hex with the central difference appended."""
    up, down = pm.scaled(math.exp(h)), pm.scaled(math.exp(-h))

    def with_difference(values):
        return tuple(map(_hex, (*values, values[2] - values[3])))

    def separate():
        return (delta_closed(pm, tri, cuff), delta_scale_derivative(pm, tri, cuff),
                delta_closed(up, tri, cuff), delta_closed(down, tri, cuff))

    return (_outcome(lambda: with_difference(delta_side(pm, tri, cuff, up, down))),
            _outcome(lambda: with_difference(separate())))


@pytest.mark.parametrize("lengths", [(0.7, 1.9, 3.1), (0.35, 0.8, 2.2), (4.2, 0.6, 1.3), (1.0, 1.0, 1.0)])
def test_delta_side_is_the_four_separate_evaluations_bit_for_bit(lengths):
    # the base lengths of the pinned cube artifacts and the symmetric point:
    # all 96 (triangulation, cuff) sides
    pm = PantsMetric(*lengths)
    for tri in enumerate_triangulations():
        for cuff in range(3):
            side, separate = _side_outcomes(pm, tri, cuff)
            assert side == separate
            assert isinstance(side[0], str)


@pytest.mark.parametrize(
    "lengths, cuff",
    [
        # the first evaluation fails: a bad cuff index, a cancelled g
        ((1.0, 1.0, 1.0), 3),
        ((60.0, 60.0, 60.0), 0),
        # the cuff passes at p and falls below MIN_CUFF_LENGTH at p e^{-h}
        ((1e-12, 1.0, 1.0), 0),
        # g overflows only at p e^{h} for some types
        ((1.0, 1.0, 709.7827128933), 2),
    ],
)
def test_delta_side_raises_what_the_first_failing_evaluation_raises(lengths, cuff):
    pm = PantsMetric(*lengths)
    failures = 0
    for tri in enumerate_triangulations():
        side, separate = _side_outcomes(pm, tri, cuff)
        assert side == separate
        failures += isinstance(side[0], type)
    assert failures > 0


def _reference_shear(l, e, ends, i, j):
    """The shear coordinate of the leaf between cuffs ``i`` and ``j``, as
    written before its terms were resolved once per side."""
    if ends == (2, 2, 2):
        k = 3 - i - j
        return 0.5 * (e[k] * l[k] - e[i] * l[i] - e[j] * l[j])
    m = ends.index(4)
    if i == j == m:
        a, b = ((1, 2), (0, 2), (0, 1))[m]
        return 0.5 * (-e[m] * l[m] + e[a] * l[a] + e[b] * l[b])
    other = j if i == m else i
    return -e[other] * l[other]


def _reference_delta_core(l, e, ends, cuff):
    """The offset kernel as written before each exponential was shared and
    each side resolved once: the roles and a ``functools.partial`` per call,
    and every repeated exponential evaluated anew."""
    exp, log = cmath.exp, cmath.log
    n = ends[cuff]
    j = ends.index(4) if n == 1 else (cuff + 1) % 3
    k = 3 - cuff - j
    sc = functools.partial(_reference_shear, l, e, ends)
    ec, lc = e[cuff], l[cuff]
    try:
        if n == 2:
            x = (1 + exp(sc(cuff, j))) / (exp(-ec * lc) - 1)
            frac = (exp(sc(j, k)) + exp(-e[j] * l[j])) / (exp(sc(j, k)) + 1)
            g = (x + 1) * (x + frac)
        elif n == 4:
            s_cj, s_cc, s_ck = sc(cuff, j), sc(cuff, cuff), sc(cuff, k)
            num = 1 + exp(s_cj) + exp(s_cj + s_cc) + exp(s_cj + s_cc + s_ck)
            x = num / (exp(-ec * lc) - 1)
            g = (x + 1) * (x + exp(-e[j] * l[j]))
        else:
            s_jj, s_jk = sc(j, j), sc(j, k)
            x = 1 / (exp(-ec * lc) - 1)
            num = exp(s_jj) + exp(s_jj + s_jk) + exp(2 * s_jj + s_jk) + exp(-e[j] * l[j])
            den = exp(s_jj) + exp(s_jj + s_jk) + exp(2 * s_jj + s_jk) + 1
            g = (x + 1) * (x + num / den)
    except OverflowError:
        g = complex(math.inf)
    if not 0 < g.real < math.inf:
        what = "g overflows" if g.real == math.inf else f"g = {g.real!r} <= 0"
        raise ValueError(f"twist offset at cuff {cuff} is out of float reach: "
                         f"{what} at lengths {tuple(v.real for v in l)}")
    return ec * 0.5 * log(g)


def _real_hex(value):
    """The real part's hex of a zero-imaginary offset: its imaginary part's sign no caller reads."""
    assert value.imag == 0.0
    return value.real.hex()


def test_offset_kernel_matches_the_unshared_exponentials_bit_for_bit():
    # the resolved kernel against the kernel as first written: real lengths
    # (the offset, its real part; the float path leaves a zero imaginary part
    # of either sign) and complex-step lengths (the rate, both parts), all 32
    # types and 3 cuffs, cuffs log-uniform from 1e-3 to 30 (long cuffs fail)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    log_length = st.floats(math.log(1e-3), math.log(30.0))
    step = cmath.exp(complex(0.0, 1e-100))
    tris = enumerate_triangulations()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(a=log_length, b=log_length, c=log_length)
    def check(a, b, c):
        pm = PantsMetric(math.exp(a), math.exp(b), math.exp(c))
        for lengths, form in ((pm.lengths, _real_hex), (tuple(v * step for v in pm.lengths), _hex)):
            for tri in tris:
                for cuff in range(3):
                    side = _roles(pm.lengths, tri, cuff)
                    signed = _signed(lengths)
                    assert (_outcome(lambda: form(_delta_core(signed, side, pants._exp(signed))))
                            == _outcome(lambda: form(_reference_delta_core(lengths, tri.signs, tri.ends, cuff))))

    check()


def test_float_path_is_the_complex_evaluation_bit_for_bit(monkeypatch):
    # the kernel at float lengths against the same lengths as Python complex
    # numbers, which take cmath.exp and complex arithmetic: the real part bit
    # for bit, or the same error type and message.  All 32 types and
    # 3 cuffs, cuffs log-uniform on [1e-12, 40], on [45, 55], where the sum
    # crosses _FLOAT_REACH, and on [700, 720], where cmath.exp scales by e and
    # the exponentials overflow.  The float path (math.exp) runs exactly when
    # the lengths sum below the reach
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    length = (st.floats(math.log(1e-12), math.log(40.0)).map(math.exp)
              | st.floats(45.0, 55.0) | st.floats(700.0, 720.0))
    float_exps = []
    monkeypatch.setattr(pants, "math", SimpleNamespace(**{**vars(math), "exp": lambda x: float_exps.append(x) or math.exp(x)}))
    tris = enumerate_triangulations()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(lengths=st.tuples(length, length, length))
    def check(lengths):
        real, as_complex = _signed(lengths), _signed(tuple(complex(v) for v in lengths))
        for tri in tris:
            for cuff in range(3):
                side = _roles(lengths, tri, cuff)
                before = len(float_exps)
                got = _outcome(lambda: _delta_core(real, side, pants._exp(real)).real.hex())
                assert (len(float_exps) > before) == (sum(lengths) < pants._FLOAT_REACH)
                assert got == _outcome(lambda: _delta_core(as_complex, side, pants._exp(as_complex)).real.hex())

    check()


def test_shear_coords_match_the_unresolved_formula_bit_for_bit():
    # every leaf of every type, at lengths with punctures and at distinct lengths
    for lengths in ((0.7, 1.9, 3.1), (1.0, 0.0, 0.0), (2.5, 2.5, 0.0), (1e-13, 800.0, 3.0)):
        for tri in enumerate_triangulations():
            for label, value in shear_coords(PantsMetric(*lengths), tri).items():
                i, j = int(label[1]) - 1, int(label[2]) - 1
                assert value.hex() == _reference_shear(lengths, tri.signs, tri.ends, i, j).hex()


# ------------------------------------------------------- 50-digit references


def _offsets(lengths):
    """``(delta_closed, delta_oracle)`` at every (type, cuff) pair."""
    pm = PantsMetric(*lengths)
    return [(delta_closed(pm, tri, cuff), delta_oracle(pm, tri, cuff))
            for tri in enumerate_triangulations() for cuff in range(3)]


# criterion 1's triple with the largest float residual, and one of three distinct lengths
@pytest.mark.parametrize("lengths", [(4.0, 1.0, 4.0), (0.5, 2.0, 1.0)])
def test_closed_form_and_oracle_at_fifty_digits(lengths, request):
    floats = _offsets(lengths)
    mp = request.getfixturevalue("fifty_digits")
    exact = _offsets(tuple(map(mp.mpf, lengths)))
    # the two kernels agree at 50 digits (5.1e-49 over criterion 1's grid);
    # a step left in float anywhere would leave about 1e-14
    assert max(abs(closed - oracle) for closed, oracle in exact) <= 1e-30
    # the float kernels are within 1e-13 of them (4.5e-14 and 4.6e-14 over the grid)
    assert max(abs(f - closed) for (f, _), (closed, _) in zip(floats, exact)) <= 1e-13
    assert max(abs(f - closed) for (_, f), (closed, _) in zip(floats, exact)) <= 1e-13


def test_complex_step_rate_matches_a_fifty_digit_central_difference(request):
    # the 96 sides of the genus-two surface at its symmetric point, lengths (1, 1, 1)
    sides = [(tri, cuff) for tri in enumerate_triangulations() for cuff in range(3)]
    rates = [delta_scale_derivative(PantsMetric(1.0, 1.0, 1.0), tri, cuff) for tri, cuff in sides]
    mp = request.getfixturevalue("fifty_digits")
    h = mp.mpf("1e-20")
    pm = PantsMetric(mp.mpf(1), mp.mpf(1), mp.mpf(1))
    up, down = pm.scaled(mp.exp(h)), pm.scaled(mp.exp(-h))
    for (tri, cuff), rate in zip(sides, rates):
        reference = (delta_closed(up, tri, cuff) - delta_closed(down, tri, cuff)) / (2 * h)
        # 1.8e-15 measured
        assert abs(rate - reference) <= 1e-14 * abs(reference), (tri.label(), cuff)


def _import_time(node):
    """``node`` and the nodes under it that run when its module is imported:
    of a function, only its decorators and defaults (annotations are strings)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        for part in (*getattr(node, "decorator_list", ()), *node.args.defaults, *node.args.kw_defaults):
            if part is not None:
                yield from _import_time(part)
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _import_time(child)


@pytest.mark.parametrize("module", dict.fromkeys(module for module, _ in SWAPPED), ids=lambda m: m.__name__)
def test_kernels_reach_scalars_only_through_the_swapped_names(module):
    # the README's precision rule, which scalars() relies on: no value coerced
    # with float() or complex() (an f-string may format one), no math or cmath
    # function bound under another name, and no module-level call into math
    # or cmath, whose value the switch could not reach
    tree = ast.parse(Path(module.__file__).read_text())
    formatted = {id(node) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for node in ast.walk(f)}
    coerced = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in formatted
               and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")]
    renamed = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath")
               or isinstance(node, ast.Import) and any(a.name in ("math", "cmath") and a.asname for a in node.names)]
    at_import = [node.lineno for statement in tree.body for node in _import_time(statement)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id in ("math", "cmath")]
    assert (coerced, renamed, at_import) == ([], [], [])
