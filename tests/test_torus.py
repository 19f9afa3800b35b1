"""Tests for the once-punctured torus holonomy model and distance estimator."""

import math
import sys
from math import gcd

import numpy as np
import pytest

from thurston_kit import torus
from thurston_kit.stretch import FNPoint, twist_width_closed
from thurston_kit.torus import (
    Slope,
    candidate_slopes,
    curve_length,
    dth_estimate,
    earthquake,
    envelope_cells,
    envelope_widths,
    short_marking,
    stretch_endpoints,
    _endpoints_signed,
    _family,
    _log_lengths,
    _plan,
)

#: length of the dual curve at (l, tau) = (1, 0): 2 arccosh(coth(1/2)),
#: evaluated once and frozen
DUAL_LENGTH_GOLDEN = 2.8136582274945905

#: stabilized estimate of d(X, full twist of X) at l = 1, frozen after
#: computing with max_q up to 30
FULL_TWIST_GOLDEN = 0.20861035263064975

SQUARE_LENGTH = 2.0 * math.log(1.0 + math.sqrt(2.0))


def _block_product_length(l, tau, p, q):
    """Reference curve length of slope p/q at (l, tau): the plain
    Christoffel block product prod_i diag(e^{u_i/2}, e^{-u_i/2}) B0 with
    u_i = k_i l + tau, one block at a time with a running log scale.
    Valid while every block stays below e^709."""
    if q == 0:
        return l
    cb, sb = 1.0 / math.tanh(l / 2.0), 1.0 / math.sinh(l / 2.0)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    logscale = 0.0
    for i in range(1, q + 1):
        e = math.exp((((i * p) // q - ((i - 1) * p) // q) * l + tau) / 2.0)
        x00, x01, x10, x11 = cb * e, sb * e, sb / e, cb / e
        m00, m01, m10, m11 = (
            m00 * x00 + m01 * x10,
            m00 * x01 + m01 * x11,
            m10 * x00 + m11 * x10,
            m10 * x01 + m11 * x11,
        )
        s = max(m00, m01, m10, m11)
        m00, m01, m10, m11 = m00 / s, m01 / s, m10 / s, m11 / s
        logscale += math.log(s)
    lh = logscale + math.log((m00 + m11) / 2.0)
    # arccosh(e^lh) without forming e^lh
    return 2.0 * (lh + math.log1p(math.sqrt(-math.expm1(-2.0 * lh))))


def _point(l, tau):
    return FNPoint("S11", (l,), (tau,))


def _engine_lengths(l, tau, slopes):
    return np.exp(_log_lengths((_point(l, tau),), _plan(slopes))[:, 0])


# ------------------------------------------------------------- slopes


def test_slope_canonicalization():
    assert Slope(-1, 0) == Slope(1, 0)
    assert Slope(2, -3) == Slope(-2, 3)
    assert Slope.of(4, 6) == Slope(2, 3)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_intersection_number():
    assert Slope(0, 1).intersection(Slope(1, 0)) == 1
    assert Slope(1, 2).intersection(Slope(1, 2)) == 0
    assert Slope(3, 5).intersection(Slope(1, 2)) == 1


def test_candidate_families_nest():
    small = set(candidate_slopes(5))
    large = set(candidate_slopes(30))
    assert small <= large


# ------------------------------------------------------------- inputs


def test_point_rejects_non_positive_length():
    # every input of the engine is a Fenchel-Nielsen point, which validates itself
    for l in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            _point(l, 1.0)


# ------------------------------------------------------------- properties

EPS = sys.float_info.epsilon

_MARKOV_PLAN = _plan([Slope(1, 0), Slope(0, 1), Slope(1, 1)])


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


def test_full_twist_relabelling_through_the_engine():
    # l_{p/q}(l, tau + l) = l_{(p+q)/q}(l, tau): the two sides add l and tau
    # in a different order, so they differ by rounding in u = k l + tau
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    slopes = [Slope(p, q) for q in range(1, 6) for p in range(-8, 9) if gcd(abs(p), q) == 1]
    twisted, relabelled = _plan(slopes), _plan([Slope.of(s.p + s.q, s.q) for s in slopes])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(log_l=st.floats(math.log(1e-3), math.log(20.0)), tau=st.floats(-50.0, 50.0))
    def check(log_l, tau):
        l = math.exp(log_l)
        a = np.exp(_log_lengths((_point(l, tau + l),), twisted)[:, 0])
        b = np.exp(_log_lengths((_point(l, tau),), relabelled)[:, 0])
        assert np.all(np.abs(a - b) <= 8.0 * EPS * (abs(tau) + l + a))

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
        assert curve_length(_point(1.37, tau), Slope(1, 0)) == pytest.approx(1.37, rel=1e-12)


def test_dual_length_golden_value():
    assert curve_length(_point(1.0, 0.0), Slope(0, 1)) == pytest.approx(DUAL_LENGTH_GOLDEN, rel=1e-12)


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
            a = curve_length(_point(l, tau + l), Slope(p, q))
            b = curve_length(_point(l, tau), Slope.of(p + q, q))
            assert a == pytest.approx(b, abs=1e-8)


def test_engine_lengths_match_block_product():
    # the Farey engine against the block-product reference, from thin to
    # thick and heavily twisted
    small = [Slope(1, 0)] + [Slope(p, q) for q in range(1, 7) for p in range(-8, 9) if gcd(abs(p), q) == 1]
    # a window of p around -100 q, where the words are heavily twisted
    windows = [Slope(p, q) for q in range(1, 7) for p in range(-100 * q - 8, -100 * q + 9) if gcd(abs(p), q) == 1]
    points = [(1.0, 0.3), (2.5, -1.2), (0.2, 4.0), (1.3e-5, 23.8), (1.3e-5, -23.8), (20.0, -7.0)]
    points += [(l, 100.0) for l in (1.0, 2.0, 5.0)]
    for i, (l, tau) in enumerate(points):
        ref = [_block_product_length(l, tau, s.p, s.q) for s in small]
        assert _engine_lengths(l, tau, small) == pytest.approx(ref, abs=1e-10)
        if i < 5:
            ref = [_block_product_length(l, tau, s.p, s.q) for s in windows]
            assert _engine_lengths(l, tau, windows) == pytest.approx(ref, abs=1e-10)


def test_heavy_twist_lengths_match_block_product():
    # the trace recursion tr W(n-1) = tr A tr W(n) - tr W(n+1), run from
    # slope 0 down to -30/1, misses that log length by 6e-5 at (1, 100)
    # and returns NaN at (2, 100)
    slopes = [Slope(p, q) for q in (1, 2, 3) for p in range(-30 * q, 30 * q + 1) if gcd(p, q) == 1]
    for l in (1.0, 2.0):
        ref = [math.log(_block_product_length(l, 100.0, s.p, s.q)) for s in slopes]
        assert np.log(_engine_lengths(l, 100.0, slopes)) == pytest.approx(ref, rel=0, abs=1e-12)


def test_huge_twist_stays_finite_and_relabels():
    # exp(u/2) overflowed a float here before the seeds were scaled
    x = FNPoint("S11", (1.0,), (0.0,))
    y = earthquake(x, 1500.0)
    assert math.isfinite(dth_estimate(x, y, 5))
    beta, dual = short_marking(y, 5)
    assert beta.intersection(dual) >= 1
    slopes = [Slope(0, 1), Slope(1, 2), Slope(-3, 5), Slope(7, 4), Slope(-11, 3)]
    a = _engine_lengths(1.0, 1500.0, slopes)
    b = _engine_lengths(1.0, 0.0, [Slope.of(s.p + 1500 * s.q, s.q) for s in slopes])
    assert np.all(np.isfinite(a))
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("l, tau", [(70.0, 35.0), (72.0, 36.0)])
def test_flat_non_integer_slope_trips_the_guard(l, tau):
    # slope -1/2 has the blocks u = -l/2 and u = l/2; its |tr|/2 rounds to
    # within 1e-14 of 1, and unlike an integer slope it has no exact form
    with pytest.raises(ValueError, match=r"elliptic or parabolic \(\|tr\|/2 = 1\.00000000000000[0-9]+\): length below"):
        curve_length(_point(l, tau), Slope(-1, 2))


@pytest.mark.parametrize(
    "x", [FNPoint("S04", (1.0,), (0.3,)), FNPoint("S2", (1.0, 1.2, 0.8), (0.1, 0.0, -0.2))], ids=("S04", "S2")
)
def test_every_entry_point_rejects_other_surfaces(x):
    # the holonomy model reads curve 0 as alpha, which is right on S11 only
    s11 = _point(1.0, 0.0)
    calls = (
        lambda: curve_length(x, Slope(0, 1)),
        lambda: dth_estimate(s11, x, 5),
        lambda: dth_estimate(x, s11, 5),
        lambda: short_marking(x, 5),
        lambda: envelope_cells([(x, 0.5)], 5),
        lambda: envelope_widths(x, 0.5, 5),
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
    slopes = candidate_slopes(8)
    x = FNPoint("S11", (1.0,), (0.0,))
    y = FNPoint("S11", (1.3,), (0.5,))
    z = FNPoint("S11", (0.8,), (-0.4,))
    dxz = dth_estimate(x, z, slopes=slopes)
    dxy = dth_estimate(x, y, slopes=slopes)
    dyz = dth_estimate(y, z, slopes=slopes)
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


# ------------------------------------------------------------- markings


def test_short_marking_small_length_picks_alpha():
    beta, dual = short_marking(FNPoint("S11", (0.05,), (0.0,)), 12)
    assert beta == Slope(1, 0)
    assert beta.intersection(dual) >= 1


def test_short_marking_square_torus_tie_break():
    # slopes 0 and infinity tie; the smaller-q rule picks infinity
    beta, dual = short_marking(FNPoint("S11", (SQUARE_LENGTH,), (0.0,)), 12)
    assert beta == Slope(1, 0)
    assert dual == Slope(0, 1)


def test_short_marking_duality_properties():
    beta, dual = short_marking(FNPoint("S11", (1.7,), (0.8,)), 12)
    assert beta != dual
    assert beta.intersection(dual) >= 1


# ------------------------------------------------------------- stretch endpoints


def test_stretch_endpoints_at_zero_coincide():
    y = FNPoint("S11", (2.0,), (0.45,))
    yl, yr = stretch_endpoints(y, 0.0)
    assert yl == y and yr == y


def test_stretch_endpoints_lengths_scale():
    y = FNPoint("S11", (2.0,), (0.0,))
    yl, yr = stretch_endpoints(y, 1.5)
    assert yl.lengths[0] == pytest.approx(2.0 * math.exp(-1.5), rel=1e-14)
    assert yr.lengths[0] == yl.lengths[0]


def test_stretch_endpoints_twist_gap_matches_closed_width():
    for l0 in (0.3, 1.0, 2.5):
        y = FNPoint("S11", (2.0 * l0,), (0.7,))
        for t in (0.5, 1.0, 3.0):
            yl, yr = stretch_endpoints(y, t)
            assert yl.twists[0] - yr.twists[0] == pytest.approx(twist_width_closed(l0, t), abs=1e-9)


def test_stretch_endpoints_reject_negative_time():
    with pytest.raises(ValueError):
        stretch_endpoints(FNPoint("S11", (2.0,), (0.0,)), -1.0)


def test_envelope_widths_nonnegative_and_zero_at_origin():
    y = FNPoint("S11", (2.0,), (0.0,))
    d1, d2 = envelope_widths(y, 0.0, 10)
    assert d1 == 0.0 and d2 == 0.0
    for l0 in (0.02, 1.0, 10.0):
        # exactly +0.0: the envelope artifacts print the t = 0 cells
        d = envelope_widths(FNPoint("S11", (2.0 * l0,), (0.0,)), 0.0, 30)
        assert [repr(v) for v in d] == ["0.0", "0.0"]
    d1, d2 = envelope_widths(y, 2.0, 10)
    assert d1 > 0.0 and d2 > 0.0


def _per_cell_widths(y, t, max_q):
    """One length pass over the two endpoints of one cell, the loop that
    :func:`envelope_cells` batches."""
    ll = _log_lengths(_endpoints_signed(y, t), _family(max_q)[1])
    return float(np.max(ll[:, 1] - ll[:, 0])), float(np.max(ll[:, 0] - ll[:, 1]))


def test_envelope_cells_match_per_cell_widths_bit_for_bit(monkeypatch):
    # t = 0 (both widths +0.0), thin l0, the negative signed times of the
    # sweep's middle constants, and more cells than one chunk
    l0s = (0.02, 0.1, 1.0, 5.0, 10.0)
    cells = [(FNPoint("S11", (2.0 * l0,), (0.0,)), t) for l0 in l0s for t in (0.0, 0.5, 3.0, 8.0, math.log(2.0 * l0))]
    columns = []
    monkeypatch.setattr(torus, "_log_lengths", lambda ends, plan: columns.append(len(ends)) or _log_lengths(ends, plan))
    got = envelope_cells(cells, 30)
    monkeypatch.undo()
    assert sum(columns) == 2 * len(cells) and len(columns) > 1
    assert max(columns) * len(_family(30)[0]) <= torus._CHUNK_NODE_COLUMNS
    want = [_per_cell_widths(y, t, 30) for y, t in cells]
    assert [tuple(map(float.hex, w)) for w in got] == [tuple(map(float.hex, w)) for w in want]
    assert float.hex(got[0][1]) == "0x0.0p+0"
    assert [envelope_widths(y, t, 30) for y, t in cells] == got
    assert envelope_cells([], 30) == []


def test_envelope_cells_raise_the_first_failing_cells_error(monkeypatch):
    # the points (70, 35) and (72, 36) trip the engine's elliptic guard on
    # slope -1/2 with a message that depends on the point; as t = 0 cells
    # their endpoints are the points themselves, set here directly because
    # the closed-form offsets fail at cuff length 70
    def endpoints(y, t):
        if y.lengths[0] < 60.0:
            return _endpoints_signed(y, t)
        return y, y

    monkeypatch.setattr(torus, "_endpoints_signed", endpoints)
    ok = [(FNPoint("S11", (2.0,), (0.0,)), t) for t in (0.0, 1.0)]
    bad = [(_point(l, tau), 0.0) for l, tau in ((70.0, 35.0), (72.0, 36.0))]
    messages = []
    for y, t in bad:
        with pytest.raises(ValueError) as exc:
            _log_lengths(endpoints(y, t), _family(30)[1])
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    for cells, first in ((ok * 5 + bad + ok, 0), (bad[::-1], 1)):
        with pytest.raises(ValueError) as exc:
            envelope_cells(cells, 30)
        assert str(exc.value) == messages[first]


@pytest.mark.parametrize("l, tau, n", [(34.0, 0.0, 0), (36.0, -36.0, 1), (40.0, 3e-8, 0), (50.0, 100.0, -2)])
def test_long_alpha_integer_slopes_match_mpmath_reference(l, tau, n):
    # |tr|/2 = coth(l/2) cosh(u/2) rounds to within 1e-14 of 1 here, where
    # the elliptic guard fired before integer slopes had an exact form
    mpmath = pytest.importorskip("mpmath")
    got = math.exp(_log_lengths([FNPoint("S11", (l,), (tau,))], _plan([Slope(n, 1)]))[0, 0])
    with mpmath.workdps(60):
        u = n * mpmath.mpf(l) + mpmath.mpf(tau)
        ref = 2 * mpmath.acosh(mpmath.coth(mpmath.mpf(l) / 2) * mpmath.cosh(u / 2))
        rel = abs((mpmath.mpf(got) - ref) / ref)
    assert rel <= 4 * sys.float_info.epsilon
