"""Tests for the once-punctured torus holonomy model and distance estimator."""

import importlib
import math
import re
import sys
import warnings
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from thurston_kit import torus
from thurston_kit.stretch import FNPoint, twist_width_closed, width_point
from thurston_kit.torus import (
    candidate_slopes,
    curve_length,
    dth_estimate,
    earthquake,
    envelope_widths,
    _endpoints,
    _family,
    _family_max,
    _integers,
    _log_lengths,
    _plan,
)

from mp_reference import log_lengths

#: length of the dual curve at (l, tau) = (1, 0): 2 arccosh(coth(1/2)),
#: evaluated once and frozen
DUAL_LENGTH_GOLDEN = 2.8136582274945905

#: stabilized estimate of d(X, full twist of X) at l = 1, frozen after
#: computing with max_q up to 30
FULL_TWIST_GOLDEN = 0.20861035263064975


def _point(l, tau):
    return FNPoint("S11", (l,), (tau,))


def _engine_lengths(l, tau, slopes):
    return np.exp(_log_lengths((_point(l, tau),), _plan(slopes))[:, 0])


def _reference_log_lengths(l, tau, slopes):
    """Log lengths of ``slopes`` at (l, tau) by the 50-digit trace recursion, rounded to float."""
    return [float(v) for v in log_lengths(_point(l, tau), slopes, 50)]


# ------------------------------------------------------------- slopes


def test_candidate_families_nest():
    small = set(candidate_slopes(5))
    large = set(candidate_slopes(30))
    assert small <= large
    with pytest.raises(ValueError, match="^max_q must be at least 1$"):
        candidate_slopes(0)
    # the integer pass, which builds its slopes without the family, rejects it too
    with pytest.raises(ValueError, match="^max_q must be at least 1$"):
        dth_estimate(_point(1.0, 0.0), _point(2.0, 0.0), 0)


def test_candidate_slopes_are_the_benchmark_reference_family(monkeypatch):
    # the benchmark's independent recomputation of an envelope cell walks
    # its own family; the two must hold the same pairs in the same order
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    reference = importlib.import_module("reference")
    for max_q in range(1, 46):
        assert candidate_slopes(max_q) == reference.slope_family(max_q)


@pytest.mark.parametrize("l0, t", [(5.0, 4.0), (0.05, 3.0), (1.3, 0.7)])
def test_envelope_widths_are_the_benchmark_reference_cell(monkeypatch, l0, t):
    # the benchmark's recomputation stretches with the default time sense
    # (positive t runs backward); the two agreed to 4.4e-16 when recorded
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    reference = importlib.import_module("reference")
    got = envelope_widths([(width_point("S11", l0), t)], 30)[0]
    assert np.max(np.abs(np.subtract(got, reference.envelope_cell(l0, t, 30)))) <= 1e-9


@pytest.mark.parametrize("slope", [(0, 0), (2, 0), (-1, 0), (1, -2), (2, 4), (0, 2), (1.0, 2), (1, 2, 3), [1, 2]])
def test_malformed_slopes_are_rejected(slope):
    # (0, 0), (2, 0) and (-1, 0) read as infinity, (1, -2) raised a numpy
    # cast error, and (2, 4) and (0, 2) a modular-inverse error
    with pytest.raises(ValueError, match=rf"^slope {re.escape(repr(slope))} is not an int pair \(p, q\) in lowest"):
        curve_length(_point(1.0, 0.3), slope)


# ------------------------------------------------------------- inputs


def test_point_rejects_non_positive_length():
    # every input of the engine is a Fenchel-Nielsen point, which validates itself
    for l in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            _point(l, 1.0)
    # a finite point whose word entries leave the float range: one error, no warning
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^word evaluation overflowed$"):
        warnings.simplefilter("error")
        curve_length(_point(1.0, 1e308), (1, 4))


def test_a_length_past_the_float_range_raises_without_a_warning():
    # the log half-trace of slope 5/2 is finite here, but the length, twice it, is not
    with warnings.catch_warnings(), pytest.raises(ValueError, match="^word evaluation overflowed$"):
        warnings.simplefilter("error")
        curve_length(_point(1.0, 1e308), (5, 2))


# ------------------------------------------------------------- properties

EPS = sys.float_info.epsilon

_MARKOV_PLAN = _plan([(1, 0), (0, 1), (1, 1)])


def _markov_residual(x):
    """(|x^2 + y^2 + z^2 - xyz| / xyz, longest length) for the traces
    2 cosh(l/2) of slopes 1/0, 0/1 and 1/1, all through the engine."""
    lengths = np.exp(_log_lengths((x,), _MARKOV_PLAN)[:, 0])
    a, b, c = (2.0 * math.cosh(v / 2.0) for v in lengths)
    return abs(a * a + b * b + c * c - a * b * c) / (a * b * c), float(lengths.max())


def _traces(x):
    """Traces 2 cosh(l/2) of slopes 1/0, 0/1 and 1/1 at x, through the engine."""
    lengths = np.exp(_log_lengths((x,), _MARKOV_PLAN)[:, 0])
    return tuple(2.0 * math.cosh(v / 2.0) for v in lengths)


def _commutator_trace(x):
    # Fricke: tr[A, B] = tr^2 A + tr^2 B + tr^2 AB - tr A tr B tr AB - 2
    a, b, c = _traces(x)
    return a * a + b * b + c * c - a * b * c - 2.0


def test_commutator_trace_is_minus_two():
    for l, tau in ((0.5, 0.0), (1.3, 0.7), (3.0, -2.4)):
        assert _commutator_trace(_point(l, tau)) == pytest.approx(-2.0, abs=1e-9)


def test_markov_identity():
    for l, tau in ((1.2, 0.5), (0.7, -1.0), (2.5, 3.3)):
        x, y, z = _traces(_point(l, tau))
        assert x * x + y * y + z * z == pytest.approx(x * y * z, rel=1e-6)


def test_puncture_conservation_under_earthquake():
    x = _point(1.1, 0.3)
    for t in (0.0, 0.6, 5.0):
        assert _commutator_trace(earthquake(x, t)) == pytest.approx(-2.0, abs=1e-9)


def test_markov_identity_through_the_engine():
    # the cusp relation of the holonomy behind the seeds; the traces carry
    # the relative error of a length times l/2, so the residual grows
    # with the longest length: about 2e-16 at (1.2, 0.5), (20, -7) and
    # (1e-3, 0.2), 1.7e-14 at (1, 100); at most 2.1 eps (1 + longest)
    # over 20,000 random points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(log_l=st.floats(math.log(1e-3), math.log(20.0)), tau=st.floats(-100.0, 100.0),
                      t=st.floats(-50.0, 50.0))
    @hypothesis.example(log_l=math.log(1.2), tau=0.5, t=0.0)
    @hypothesis.example(log_l=math.log(20.0), tau=-7.0, t=0.0)
    @hypothesis.example(log_l=math.log(1e-3), tau=0.2, t=0.0)
    @hypothesis.example(log_l=0.0, tau=100.0, t=0.0)
    def check(log_l, tau, t):
        x = _point(math.exp(log_l), tau)
        for p in (x, earthquake(x, t)):
            residual, longest = _markov_residual(p)
            assert residual <= 8.0 * EPS * (1.0 + longest)

    check()


#: (l, tau) points of the McShane check, from short to long alpha and with a large twist;
#: thin points need slopes near -tau/l that the plain family lacks
MCSHANE_POINTS = [(1.0, 0.0), (2.0, 0.5), (0.5, 0.3), (1.5, -2.0), (4.0, 1.0), (8.0, 3.0)]


def _mcshane_deficit(x, max_q):
    """1/2 minus the sum over ``candidate_slopes(max_q)`` of 1/(1 + e^L), each
    term taken as e^{-L} / (1 + e^{-L}) so that no exponential overflows."""
    lengths = np.exp(_log_lengths((x,), _family(max_q))[:, 0]).tolist()
    return 0.5 - math.fsum(math.exp(-v) / (1.0 + math.exp(-v)) for v in lengths)


@pytest.mark.parametrize("l, tau", MCSHANE_POINTS)
def test_mcshane_identity_over_the_slope_family(l, tau):
    # McShane (1998): on a once-punctured torus the sum over all simple closed
    # geodesics of 1/(1 + e^L) is 1/2, so it checks the cusp normalisation of
    # the seeds and every length at once, independently of the engine.  The
    # family size is part of the check: the deficits at max_q = 100 were at
    # most 1.7e-16, while at max_q = 30 the point (0.5, 0.3) misses 6.2e-8
    assert abs(_mcshane_deficit(_point(l, tau), 100)) <= 1e-12


def test_mcshane_deficit_exposes_a_family_that_is_too_small():
    assert _mcshane_deficit(_point(0.5, 0.3), 30) > 1e-12


def test_full_twist_relabelling_through_the_engine():
    # l_{p/q}(l, tau + l) = l_{(p+q)/q}(l, tau): the two sides add l and tau
    # in a different order, so they differ by rounding in u = k l + tau
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    slopes = [(p, q) for q in range(1, 6) for p in range(-8, 9) if gcd(abs(p), q) == 1]
    twisted, relabelled = _plan(slopes), _plan([(p + q, q) for p, q in slopes])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(log_l=st.floats(math.log(1e-3), math.log(20.0)), tau=st.floats(-50.0, 50.0))
    def check(log_l, tau):
        l = math.exp(log_l)
        a = np.exp(_log_lengths((_point(l, tau + l),), twisted)[:, 0])
        b = np.exp(_log_lengths((_point(l, tau),), relabelled)[:, 0])
        assert np.all(np.abs(a - b) <= 8.0 * EPS * (abs(tau) + l + a))

    check()


def test_a_plan_evaluates_each_slope_as_the_family_does():
    # a shuffled subset puts the plan's nodes out of slope order, and a
    # subset without the parents of its slopes gives levels of parents only
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    family = candidate_slopes(12)
    points = st.tuples(st.floats(math.log(1e-3), math.log(20.0)), st.floats(-50.0, 50.0))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(points=st.lists(points.map(lambda v: _point(math.exp(v[0]), v[1])), min_size=1, max_size=3),
                      subset=st.lists(st.sampled_from(family), min_size=1, unique=True))
    def check(points, subset):
        want = _log_lengths(points, _family(12))[[family.index(slope) for slope in subset]]
        assert _log_lengths(points, _plan(subset)).tobytes() == want.tobytes()

    check()


def test_estimate_monotone_in_max_q_property():
    # the families nest and each slope's length does not depend on the
    # family, so the estimate never decreases, not even by rounding
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    points = st.tuples(st.floats(-5.0, 3.0), st.floats(-20.0, 20.0)).map(lambda v: _point(math.exp(v[0]), v[1]))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(x=points, y=points, small=st.integers(1, 30), extra=st.integers(0, 29))
    def check(x, y, small, extra):
        assert dth_estimate(x, y, small) <= dth_estimate(x, y, min(30, small + extra))

    check()


# ------------------------------------------------------------- lengths


def test_alpha_length_is_l_for_all_twists():
    for tau in (-3.0, 0.0, 5.0):
        assert curve_length(_point(1.37, tau), (1, 0)) == pytest.approx(1.37, rel=1e-12)


@pytest.mark.parametrize("l, tau", [(20.0, -7.0), (1e-3, 0.2)])
def test_alpha_length_is_the_coordinate_exactly(l, tau):
    # not exp(log l), which is 19.999999999999996 at (20, -7)
    assert curve_length(_point(l, tau), (1, 0)) == l


def test_dual_length_golden_value():
    assert curve_length(_point(1.0, 0.0), (0, 1)) == pytest.approx(DUAL_LENGTH_GOLDEN, rel=1e-12)


def test_word_block_count_matches_slope():
    # the cutting sequence of p/q has q blocks whose exponents sum to p
    for p, q in ((3, 2), (-5, 3), (7, 5)):
        ks = [(i * p) // q - ((i - 1) * p) // q for i in range(1, q + 1)]
        assert len(ks) == q and sum(ks) == p


def test_full_twist_relabels_slopes():
    l, tau = 0.9, 0.37
    for q in range(1, 11):
        for p in range(-12, 13):
            if gcd(abs(p), q) != 1:
                continue
            a = curve_length(_point(l, tau + l), (p, q))
            b = curve_length(_point(l, tau), (p + q, q))
            assert a == pytest.approx(b, abs=1e-8)


def test_engine_lengths_match_trace_recursion():
    # the Farey engine against the 50-digit trace recursion, from thin to
    # thick and heavily twisted
    small = [(1, 0)] + [(p, q) for q in range(1, 7) for p in range(-8, 9) if gcd(abs(p), q) == 1]
    # a window of p around -100 q, where the words are heavily twisted
    windows = [(p, q) for q in range(1, 7) for p in range(-100 * q - 8, -100 * q + 9) if gcd(abs(p), q) == 1]
    points = [(1.0, 0.3), (2.5, -1.2), (0.2, 4.0), (1.3e-5, 23.8), (1.3e-5, -23.8), (20.0, -7.0)]
    points += [(l, 100.0) for l in (1.0, 2.0, 5.0)]
    for i, (l, tau) in enumerate(points):
        ref = np.exp(_reference_log_lengths(l, tau, small))
        assert _engine_lengths(l, tau, small) == pytest.approx(ref, abs=1e-10)
        if i < 5:
            ref = np.exp(_reference_log_lengths(l, tau, windows))
            assert _engine_lengths(l, tau, windows) == pytest.approx(ref, abs=1e-10)


def test_heavy_twist_lengths_match_trace_recursion():
    # in float the trace recursion tr W(n-1) = tr A tr W(n) - tr W(n+1), run
    # from slope 0 down to -30/1, misses that log length by 6e-5 at (1, 100)
    # and returns NaN at (2, 100); the reference runs it at 50 digits
    slopes = [(p, q) for q in (1, 2, 3) for p in range(-30 * q, 30 * q + 1) if gcd(p, q) == 1]
    for l in (1.0, 2.0):
        ref = _reference_log_lengths(l, 100.0, slopes)
        assert np.log(_engine_lengths(l, 100.0, slopes)) == pytest.approx(ref, rel=0, abs=1e-12)


def test_huge_twist_stays_finite_and_relabels():
    # exp(u/2) overflowed a float here before the seeds were scaled
    x = FNPoint("S11", (1.0,), (0.0,))
    y = earthquake(x, 1500.0)
    assert math.isfinite(dth_estimate(x, y, 5))
    slopes = [(0, 1), (1, 2), (-3, 5), (7, 4), (-11, 3)]
    a = _engine_lengths(1.0, 1500.0, slopes)
    b = _engine_lengths(1.0, 0.0, [(p + 1500 * q, q) for p, q in slopes])
    assert np.all(np.isfinite(a))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("l, tau", [(70.0, 35.0), (72.0, 36.0)])
def test_flat_non_integer_slope_trips_the_guard(l, tau):
    # slope -1/2 has the blocks u = -l/2 and u = l/2; its |tr|/2 rounds to
    # within 1e-14 of 1, and unlike an integer slope it has no exact form
    with pytest.raises(ValueError, match=r"elliptic or parabolic \(\|tr\|/2 = 1\.00000000000000[0-9]+\): length below"):
        curve_length(_point(l, tau), (-1, 2))


@pytest.mark.parametrize(
    "x", [FNPoint("S04", (1.0,), (0.3,)), FNPoint("S2", (1.0, 1.2, 0.8), (0.1, 0.0, -0.2))], ids=("S04", "S2")
)
def test_every_entry_point_rejects_other_surfaces(x):
    # the holonomy model reads curve 0 as alpha, which is right on S11 only
    s11 = _point(1.0, 0.0)
    calls = (
        lambda: curve_length(x, (0, 1)),
        lambda: curve_length(x, (1, 0)),
        lambda: dth_estimate(s11, x, 5),
        lambda: dth_estimate(x, s11, 5),
        lambda: envelope_widths([(x, 0.5)], 5),
        lambda: envelope_widths([(x, 0.5)], 5)[0],
        lambda: envelope_widths([(s11, 0.0), (x, 0.0)], 5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="covers the once-punctured torus only"):
            call()


# ------------------------------------------------------------- estimator


def test_estimate_vanishes_on_equal_points():
    x = FNPoint("S11", (1.0,), (0.2,))
    assert dth_estimate(x, x, 10) == 0.0


def test_estimate_monotone_in_family_size():
    x = FNPoint("S11", (1.0,), (0.0,))
    y = FNPoint("S11", (1.5,), (0.9,))
    assert dth_estimate(x, y, 5) <= dth_estimate(x, y, 30) + 1e-15


def test_estimate_asymmetric_sum_nonnegative():
    pts = [FNPoint("S11", (l,), (tau,)) for l, tau in ((1.0, 0.0), (1.5, 0.3), (0.7, -0.6))]
    for x in pts:
        for y in pts:
            total = dth_estimate(x, y, 12) + dth_estimate(y, x, 12)
            if x == y:
                assert total == 0.0
            else:
                assert total > 0.0


def test_estimate_subadditive_on_fixed_slope_family():
    x = FNPoint("S11", (1.0,), (0.0,))
    y = FNPoint("S11", (1.3,), (0.5,))
    z = FNPoint("S11", (0.8,), (-0.4,))
    dxz = dth_estimate(x, z, 8)
    dxy = dth_estimate(x, y, 8)
    dyz = dth_estimate(y, z, 8)
    assert dxz <= dxy + dyz + 1e-12


def test_full_twist_estimate_stabilizes():
    x = FNPoint("S11", (1.0,), (0.0,))
    y = FNPoint("S11", (1.0,), (1.0,))
    vals = [dth_estimate(x, y, mq) for mq in (5, 10, 20, 30)]
    assert vals[-1] > 0
    assert vals[-1] == pytest.approx(FULL_TWIST_GOLDEN, abs=1e-12)
    assert max(vals) - min(vals) <= 1e-12


# ------------------------------------------------------------- earthquakes


def test_earthquake_shifts_twist_only():
    x = FNPoint("S11", (1.0,), (0.2,))
    assert earthquake(x, 0.0) == x
    y = earthquake(earthquake(x, 0.3), 0.4)
    assert y.twists[0] == pytest.approx(earthquake(x, 0.7).twists[0], abs=1e-15)
    assert y.lengths == x.lengths


def test_earthquake_distance_bounded_by_collar_estimate():
    # d(X, Eq_t X) <= log(e^{l/2} t) + C for one finite C across the grid
    worst = -math.inf
    for la in (0.5, 1.0, 2.0):
        x = FNPoint("S11", (la,), (0.0,))
        for t in (0.5, 2.0, 20.0):
            d = dth_estimate(x, earthquake(x, t), 20)
            worst = max(worst, d - (0.5 * la + math.log(t)))
    assert worst < 3.0


# ------------------------------------------------------------- stretch endpoints


def test_stretch_endpoints_at_zero_coincide():
    y = FNPoint("S11", (2.0,), (0.45,))
    yl, yr = _endpoints(y, 0.0)
    assert yl == y and yr == y


def test_stretch_endpoints_lengths_scale():
    # negative time stretches forward, as _middle_constants does for
    # every l0 below 1/2
    y = FNPoint("S11", (2.0,), (0.0,))
    for t in (1.5, -1.5):
        yl, yr = _endpoints(y, t)
        assert yl.lengths[0] == pytest.approx(2.0 * math.exp(-t), rel=1e-14)
        assert yr.lengths[0] == yl.lengths[0]


def test_stretch_endpoints_twist_gap_matches_closed_width():
    for l0 in (0.3, 1.0, 2.5):
        y = FNPoint("S11", (2.0 * l0,), (0.7,))
        for t in (0.5, 1.0, 3.0):
            yl, yr = _endpoints(y, t)
            assert yl.twists[0] - yr.twists[0] == pytest.approx(twist_width_closed(l0, t), abs=1e-9)


def test_envelope_widths_nonnegative_and_zero_at_origin():
    y = FNPoint("S11", (2.0,), (0.0,))
    d1, d2 = envelope_widths([(y, 0.0)], 10)[0]
    assert d1 == 0.0 and d2 == 0.0
    for l0 in (0.02, 1.0, 10.0):
        # exactly +0.0: the envelope artifacts print the t = 0 cells
        d = envelope_widths([(FNPoint("S11", (2.0 * l0,), (0.0,)), 0.0)], 30)[0]
        assert [repr(v) for v in d] == ["0.0", "0.0"]
    d1, d2 = envelope_widths([(y, 2.0)], 10)[0]
    assert d1 > 0.0 and d2 > 0.0


def test_envelope_widths_are_mirror_symmetric_on_untwisted_cells():
    # at tau = 0 the reflection swaps the two endpoints and maps the slope
    # family to itself, so d_lr = d_rl; measured at most 5.5e-13, at
    # (0.02, 8).  l0 = 10 is left out: there the left completion's offsets
    # lose digits and the two read 2.4e-10 apart
    t_values = [0.25 * i for i in range(33)]
    for l0 in (0.02, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0):
        for d_lr, d_rl in envelope_widths([(width_point("S11", l0), t) for t in t_values], 30):
            assert abs(d_lr - d_rl) <= 1e-12


def _per_cell_widths(y, t, max_q):
    """One length pass over the two endpoints of one cell, the loop that
    :func:`envelope_widths` batches."""
    ll = _log_lengths(_endpoints(y, t), _family(max_q))
    return float(np.max(ll[:, 1] - ll[:, 0])), float(np.max(ll[:, 0] - ll[:, 1]))


def _passes(monkeypatch):
    """The (plan slopes, columns) of every length pass from here on."""
    passes = []

    def counted(ends, plan):
        passes.append((len(plan[2]), len(ends)))
        return _log_lengths(ends, plan)

    monkeypatch.setattr(torus, "_log_lengths", counted)
    return passes


def test_envelope_cells_match_per_cell_widths_bit_for_bit(monkeypatch):
    # t = 0 (both widths +0.0), thin l0, the negative signed times of the
    # sweep's middle constants, and more cells than one chunk
    l0s = (0.02, 0.1, 1.0, 5.0, 10.0)
    cells = [(FNPoint("S11", (2.0 * l0,), (0.0,)), t) for l0 in l0s for t in (0.0, 0.5, 3.0, 8.0, math.log(2.0 * l0))]
    passes = _passes(monkeypatch)
    got = envelope_widths(cells, 30)
    monkeypatch.undo()
    # each chunk takes one integer pass over all its columns, then at most one
    # family pass over the columns of its open cells, within the chunk budget
    integers, family = len(_integers(30)[0][2]), len(_family(30)[2])
    chunks = [k for k, (size, _) in enumerate(passes) if size == integers]
    assert chunks[0] == 0 and len(chunks) > 1 and {size for size, _ in passes} == {integers, family}
    assert sum(passes[k][1] for k in chunks) == 2 * sum(t != 0.0 for _, t in cells)
    for k, end in zip(chunks, chunks[1:] + [len(passes)]):
        assert end - k <= 2 and all(columns <= passes[k][1] for _, columns in passes[k + 1 : end])
    assert max(columns for size, columns in passes if size == family) * family <= torus._CHUNK_NODE_COLUMNS
    want = [_per_cell_widths(y, t, 30) for y, t in cells]
    assert [tuple(map(float.hex, w)) for w in got] == [tuple(map(float.hex, w)) for w in want]
    assert float.hex(got[0][1]) == "0x0.0p+0"
    assert [envelope_widths([(y, t)], 30)[0] for y, t in cells] == got
    assert envelope_widths([], 30) == []


def test_a_cell_settled_at_the_integers_runs_no_family_pass(monkeypatch):
    # (1, 4): both maxima at the family's edge slope (30, 1), every cone bound
    # below; (5, 1): the maximum sits at (1, 4), so its cone stays open
    passes = _passes(monkeypatch)
    integers, family = len(_integers(30)[0][2]), len(_family(30)[2])
    envelope_widths([(width_point("S11", 1.0), 4.0)], 30)
    assert passes == [(integers, 2)]
    passes.clear()
    envelope_widths([(width_point("S11", 5.0), 1.0)], 30)
    assert passes == [(integers, 2), (family, 2)]
    passes.clear()
    dth_estimate(*_endpoints(width_point("S11", 1.0), 4.0), 30)
    assert passes == [(integers, 2)]



def test_a_settled_cell_builds_no_family_plan_at_the_cap():
    # the chunk size comes from the slope count, so a cell that the integers
    # settle builds no plan of the 194,712 slopes at max_q = 400
    y, t = width_point("S11", 1.0), 4.0
    before = _family.cache_info()
    got = envelope_widths([(y, t)], 400)
    assert _family.cache_info() == before
    assert got == [tuple(_family_max(_endpoints(y, t), np.array([[0, 1], [1, 0]]), 400).tolist())]
    assert _family.cache_info() == before

def _mismatches(y, t, p, max_q):
    """The estimates that differ in any bit from one pass over the whole
    family: both widths of the cell (y, t), and dth_estimate between its
    left endpoint and the point p, both ways."""
    left, right = _endpoints(y, t)
    ll = _log_lengths((left, right, p), _family(max_q))
    want = {
        "cell": tuple(map(float.hex, _per_cell_widths(y, t, max_q))),
        "to p": float.hex(float(np.max(ll[:, 2] - ll[:, 0]))),
        "from p": float.hex(float(np.max(ll[:, 0] - ll[:, 2]))),
    }
    got = {
        "cell": tuple(map(float.hex, envelope_widths([(y, t)], max_q)[0])),
        "to p": float.hex(dth_estimate(left, p, max_q)),
        "from p": float.hex(dth_estimate(p, left, max_q)),
    }
    return {key: (got[key], want[key]) for key in want if got[key] != want[key]}


def test_family_maximum_is_the_full_family_pass_bit_for_bit():
    # the cone bound only skips slopes that cannot reach the integer maximum,
    # so every estimate keeps its bits, for every family size
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(log_l0=st.floats(math.log(0.01), math.log(10.0)), log_t=st.floats(math.log(0.01), math.log(10.0)),
                      tau=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)), log_l=st.floats(math.log(1e-3), math.log(40.0)),
                      tau_p=st.floats(-50.0, 50.0), max_q=st.integers(1, 60))
    @hypothesis.example(log_l0=math.log(5.0), log_t=math.log(4.0), tau=0.0, log_l=0.0, tau_p=0.0, max_q=30)
    @hypothesis.example(log_l0=math.log(5.0), log_t=0.0, tau=0.0, log_l=0.0, tau_p=0.0, max_q=30)
    def check(log_l0, log_t, tau, log_l, tau_p, max_q):
        y = FNPoint("S11", (2.0 * math.exp(log_l0),), (tau,))
        assert not _mismatches(y, math.exp(log_t), _point(math.exp(log_l), tau_p), max_q)

    check()


def test_cone_bounds_hold_every_farey_slope():
    # the bound is the length norm's, so it must hold every slope strictly
    # between two integers, also where it decides nothing; it sat at least
    # 8.9e-16 above the largest such log ratio over 16,000 random pairs
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    points = st.tuples(st.floats(math.log(1e-6), math.log(200.0)), st.floats(-1e4, 1e4))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(x=points, y=points, near=st.booleans(), max_q=st.integers(2, 40))
    def check(x, y, near, max_q):
        x = _point(math.exp(x[0]), x[1])
        # a nearby point, where the ratio is close to 1 on every slope
        y = _point(x.lengths[0] * math.exp(y[0] * 1e-4), x.twists[0] + y[1] * 1e-6) if near else _point(math.exp(y[0]), y[1])
        pairs = np.array([[0, 1], [1, 0]])
        farey = np.array([q >= 2 for _, q in candidate_slopes(max_q)])
        ll = _log_lengths((x, y), _family(max_q))[farey]
        plan, cones = _integers(max_q)
        bounds = torus._cone_bounds(_log_lengths((x, y), plan), pairs, cones)
        assert np.all(np.max(ll[:, pairs[:, 1]] - ll[:, pairs[:, 0]], axis=0) <= bounds + 1e-13)

    check()


def _grid_bound(ll, i, j, max_q):
    """log of the largest ratio of column j's chord to column i's lower bound
    (the two extended secants and the collar bound) on 2,001 points of each
    cone (n, n + 1) with |2n + 1| <= max_q: the cone bound by its definition."""
    s = np.linspace(0.0, 1.0, 2001)
    lengths, l = np.exp(ll[1:]), math.exp(ll[0, i])
    collar = 2.0 * math.asinh(1.0 / math.sinh(l / 2.0)) if l < 1400.0 else 0.0
    best = 0.0
    for n in range(-max_q, max_q):
        if abs(2 * n + 1) <= max_q:
            x0, x1, x2, x3 = lengths[n + max_q - 1 : n + max_q + 3, i]
            y1, y2 = lengths[n + max_q : n + max_q + 2, j]
            lower = np.maximum(np.maximum(x1 + s * (x1 - x0), x2 - (1.0 - s) * (x3 - x2)), collar)
            chord = y1 + s * (y2 - y1)
            best = max(best, float(np.max(chord / lower)))
    return math.log(best)


def test_cone_bounds_are_the_largest_ratio_on_each_cone():
    # the ratio's maximum lies at an end of its cone or where two lower
    # bounds cross, so the bound is never below its value on a grid (it can
    # be far above, where the lower bound has a sharp kink between two grid
    # points); at thin points the collar bound is the largest
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    points = st.tuples(st.floats(math.log(1e-6), math.log(200.0)), st.floats(-1e3, 1e3))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(x=points, y=points, max_q=st.integers(2, 12))
    def check(x, y, max_q):
        ends = (_point(math.exp(x[0]), x[1]), _point(math.exp(y[0]), y[1]))
        plan, cones = _integers(max_q)
        ll = _log_lengths(ends, plan)
        bounds = torus._cone_bounds(ll, np.array([[0, 1], [1, 0]]), cones)
        for bound, (i, j) in zip(bounds, ((0, 1), (1, 0))):
            grid = _grid_bound(ll, i, j, max_q)
            assert grid <= bound + 1e-12

    check()


def test_the_comparison_catches_a_prune_of_every_cone(monkeypatch):
    # at (5, 1) the maximum sits at the Farey slope (1, 4): with no cone to
    # bound, every cone is pruned and the integer maximum returned, which
    # the comparison sees
    y, p = width_point("S11", 5.0), _point(1.0, 0.0)
    assert not _mismatches(y, 1.0, p, 30)
    monkeypatch.setattr(torus, "_integers", lambda max_q: (_integers(max_q)[0], _integers(max_q)[1][:, :0]))
    assert "cell" in _mismatches(y, 1.0, p, 30)


def test_estimate_at_the_long_alpha_point_70_35():
    # slope -1/2 of x = (70, 35) is about 1e-7 long and trips the elliptic
    # guard, which the whole family pass raised in both directions
    x, y = _point(70.0, 35.0), _point(1.0, 0.0)
    for pair in ((x, y), (y, x)):
        with pytest.raises(ValueError, match=r"\(\|tr\|/2 = 1\.0000000000000022\)"):
            _log_lengths(pair, _family(30))
    # as the denominator the short word keeps its cone open: the family pass still raises
    with pytest.raises(ValueError, match=r"\(\|tr\|/2 = 1\.0000000000000022\)"):
        dth_estimate(x, y, 30)
    # as the numerator it cannot win: every cone falls below the integer maximum,
    # so no Farey word is evaluated and the estimate is that maximum
    ll = _log_lengths((y, x), _integers(30)[0])
    assert dth_estimate(y, x, 30) == float(np.max(ll[:, 1] - ll[:, 0])) == 4.248495242049359


def test_envelope_cells_at_time_zero_run_no_stretch_and_no_pass(monkeypatch):
    # d(Y, Y) = 0, also at (70, 35), whose lengths and left stretch fail
    def fail(*args):
        raise AssertionError("a t = 0 cell was evaluated")

    monkeypatch.setattr(torus, "_endpoints", fail)
    monkeypatch.setattr(torus, "_log_lengths", fail)
    cells = [(_point(l, tau), t) for l, tau in ((2.0, 0.0), (0.04, 1.5), (70.0, 35.0)) for t in (0.0, -0.0)]
    assert [[repr(v) for v in d] for d in envelope_widths(cells, 30)] == [["0.0", "0.0"]] * len(cells)


def test_envelope_cells_raise_the_first_failing_cells_error(monkeypatch):
    # the points (70, 35) and (72, 36) trip the engine's elliptic guard on
    # slope -1/2 with a message that depends on the point; their endpoints
    # are set here to the points themselves, because the closed-form
    # offsets fail at cuff length 70
    def endpoints(y, t):
        if y.lengths[0] < 60.0:
            return _endpoints(y, t)
        return y, y

    monkeypatch.setattr(torus, "_endpoints", endpoints)
    ok = [(FNPoint("S11", (2.0,), (0.0,)), t) for t in (0.0, 1.0)]
    bad = [(_point(l, tau), 1.0) for l, tau in ((70.0, 35.0), (72.0, 36.0))]
    messages = []
    for y, t in bad:
        with pytest.raises(ValueError) as exc:
            _log_lengths(endpoints(y, t), _family(30))
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    for cells, first in ((ok * 5 + bad + ok, 0), (bad[::-1], 1)):
        with pytest.raises(ValueError) as exc:
            envelope_widths(cells, 30)
        assert str(exc.value) == messages[first]


def test_a_batch_fails_on_its_first_failing_column():
    # (70, 0) holds a valid integer word with |tr|/2 = 1.0, which the
    # message of a batch with (70, 35) must not name, in either order
    good, bad = _point(70.0, 0.0), _point(70.0, 35.0)
    with pytest.raises(ValueError) as alone:
        _log_lengths([bad], _family(30))
    assert "1.0000000000000022" in str(alone.value)
    for batch in ([good, bad], [bad, good]):
        with pytest.raises(ValueError) as exc:
            _log_lengths(batch, _family(30))
        assert str(exc.value) == str(alone.value)


@pytest.mark.parametrize("l", [700.0, 730.0, 745.0, 750.0, 1000.0])
@pytest.mark.parametrize("u", [0.0, 1e-3])
def test_integer_slopes_at_very_long_alpha_match_mpmath_reference(l, u):
    # slope 1/1 at tau = u - l is about 4 e^{-l/2} + u long; the term
    # e^{-l} of |tr|/2 - 1 left the normal range from l = 708, and from
    # l = 750 it rounded to zero; the reference seeds from the exact sum l + tau
    # of the engine's rounded tau
    mpmath = pytest.importorskip("mpmath")
    tau = u - l
    got = _log_lengths([FNPoint("S11", (l,), (tau,))], _plan([(1, 1)]))[0, 0]
    # |tr|/2 - 1 is about e^{-l}, so the reference keeps 60 digits past it
    dps = 60 + int(l / 2.3)
    ref = log_lengths(FNPoint("S11", (l,), (tau,)), [(1, 1)], dps)[0]
    with mpmath.workdps(dps):
        rel = abs((mpmath.mpf(got) - ref) / ref)
    assert rel <= sys.float_info.epsilon


@pytest.mark.parametrize("l, tau, n", [(34.0, 0.0, 0), (36.0, -36.0, 1), (40.0, 3e-8, 0), (50.0, 100.0, -2)])
def test_long_alpha_integer_slopes_match_mpmath_reference(l, tau, n):
    # |tr|/2 = coth(l/2) cosh(u/2) rounds to within 1e-14 of 1 here, where
    # the elliptic guard fired before integer slopes had an exact form
    mpmath = pytest.importorskip("mpmath")
    got = math.exp(_log_lengths([FNPoint("S11", (l,), (tau,))], _plan([(n, 1)]))[0, 0])
    # the reference seeds from the exact sum n l + tau
    ref_log = log_lengths(FNPoint("S11", (l,), (tau,)), [(n, 1)], 60)[0]
    with mpmath.workdps(60):
        ref = mpmath.exp(ref_log)
        rel = abs((mpmath.mpf(got) - ref) / ref)
    assert rel <= 4 * sys.float_info.epsilon


@pytest.mark.parametrize(
    "l, tau, n",
    [
        # where the full-twist relabelling test drew its failing example:
        # slope -1/1 at (e^2.1875, 1e-9 + e^2.1875) is 0.0464 long
        (math.exp(2.1875), 1e-9 + math.exp(2.1875), -1),
        (20.0, -20.0 + 1e-6, 1),
        (12.0, 24.0 + 1e-4, -2),
        (5.0, 0.3, 0),
        (3.0, 2.5, -1),
        (2.0, 0.0, 0),
    ],
)
def test_short_integer_slopes_match_mpmath_reference(l, tau, n):
    # |tr|/2 = coth(l/2) cosh(u/2) lies between 1 + 1e-14 and 1.5 here, where
    # arccosh kept only about eps / (length^2 / 4) relative digits (6.1e-13
    # relative at the first point); the reference takes u = n l + tau as the
    # engine rounds it, so only the length formula is measured.  That is why
    # it keeps its own formula: mp_reference.log_lengths seeds from the exact
    # sum, which would measure the rounding of u too
    mpmath = pytest.importorskip("mpmath")
    got = math.exp(_log_lengths([FNPoint("S11", (l,), (tau,))], _plan([(n, 1)]))[0, 0])
    with mpmath.workdps(60):
        u = mpmath.mpf(n * l + tau)
        half_trace = mpmath.coth(mpmath.mpf(l) / 2) * mpmath.cosh(u / 2)
        assert 1 + 1e-14 < half_trace < 1.5
        rel = abs((mpmath.mpf(got) - 2 * mpmath.acosh(half_trace)) / (2 * mpmath.acosh(half_trace)))
    assert rel <= 4 * sys.float_info.epsilon
