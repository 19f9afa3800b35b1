"""Tests for twist evolution along stretch paths and twist widths."""

import itertools
import math
import sys

import pytest

from thurston_kit.pants import PantsTriangulation
from thurston_kit.reconcile import twist_width_conventions
from thurston_kit.stretch import (
    FNPoint,
    SpecMismatchError,
    StretchSpec,
    curve_count,
    left_spec,
    log_coth,
    right_spec,
    side_plan,
    stretch_point,
    stretch_vectors,
    twist_along_stretch,
    twist_width,
    twist_width_closed,
    width_point,
)

from mp_reference import endpoints

#: printed-convention value at (l0, t) = (1, 1), recomputed then frozen
PRINTED_GOLDEN = -5.68142893628726


def test_stretch_point_is_the_identity_at_time_zero():
    x = FNPoint("S2", (1.0, 2.0, 0.5), (0.1, -0.2, 0.3))
    for spec in (left_spec("S2"), right_spec("S2")):
        assert stretch_point(x, spec, 0.0) == x
    # at l = 70 the left completion's closed-form offsets fail; the twist -0.0 becomes +0.0
    y = FNPoint("S11", (70.0,), (-0.0,))
    for spec in (left_spec("S11"), right_spec("S11")):
        z = stretch_point(y, spec, 0.0)
        assert z == y and repr(z.twists[0]) == "0.0"


def test_stretch_point_scales_lengths_by_e_to_minus_t():
    x = FNPoint("S2", (1.3, 0.2, 4.0), (0.4, -1.0, 2.5))
    for t in (-math.log(2.0), -0.7, 0.5, 1.2, 3.0):
        y = stretch_point(x, left_spec("S2"), t)
        assert y.lengths == tuple(v * math.exp(-t) for v in x.lengths), t


def test_twist_at_time_zero_is_initial_twist():
    x = FNPoint("S11", (2.0,), (0.37,))
    # at l = 70 the left completion's closed-form offsets fail; time 0 evaluates none
    y = FNPoint("S11", (70.0,), (-0.0,))
    for t in (0.0, -0.0):
        assert twist_along_stretch(x, left_spec("S11"), 0, t) == pytest.approx(0.37, abs=1e-12)
        assert repr(twist_along_stretch(y, left_spec("S11"), 0, t)) == "0.0"


def test_twist_linear_in_initial_twist():
    l, t = 1.7, 0.9
    spec = left_spec("S11")
    th1 = twist_along_stretch(FNPoint("S11", (l,), (0.25,)), spec, 0, -t)
    th2 = twist_along_stretch(FNPoint("S11", (l,), (-1.10,)), spec, 0, -t)
    assert th1 - th2 == pytest.approx((0.25 - (-1.10)) * math.exp(t), abs=1e-12)


def test_backward_twist_s04_closed_form():
    # both pants contribute log coth(l0 e^s) with l0 = l_alpha / 4
    l0, t = 0.6, 1.0
    x = FNPoint("S04", (4.0 * l0,), (0.0,))
    theta = twist_along_stretch(x, left_spec("S04"), 0, t)
    expected = 2.0 * (math.exp(-t) * log_coth(l0) - log_coth(l0 * math.exp(-t)))
    assert theta == pytest.approx(expected, abs=1e-10)


def test_spec_validation():
    with pytest.raises(SpecMismatchError):
        # S11 glues the first two cuffs of one pair of pants; their twist
        # signs must agree
        StretchSpec("S11", (PantsTriangulation((2, 2, 2), (1, -1, 1)),))
    with pytest.raises(ValueError):
        StretchSpec("S04", (PantsTriangulation((4, 1, 1), (1, 1, 1)),))
    with pytest.raises(ValueError, match="^S2 needs 3 length/twist pairs$"):
        FNPoint("S2", (1.0, 1.0), (0.0, 0.0))


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


@pytest.mark.parametrize("twist", [math.nan, math.inf, -math.inf])
def test_point_rejects_non_finite_twists(twist):
    for surface, twists in (("S11", (twist,)), ("S2", (0.0, twist, 0.0))):
        with pytest.raises(ValueError, match="^twists must be finite$"):
            FNPoint(surface, (1.0,) * len(twists), twists)


def test_twist_width_same_spec_is_zero():
    x = FNPoint("S11", (2.0,), (0.1,))
    lam = left_spec("S11")
    for t in (0.0, 0.5, 2.0):
        assert twist_width(x, lam, lam, 0, t) == 0.0


def test_twist_width_zero_at_time_zero():
    x = FNPoint("S11", (2.0,), (0.1,))
    assert twist_width(x, left_spec("S11"), right_spec("S11"), 0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the left completion's offsets fail at l = 70, and time 0 evaluates none
    y = FNPoint("S11", (70.0,), (-0.0,))
    assert repr(twist_width(y, left_spec("S11"), right_spec("S11"), 0, 0.0)) == "0.0"


def test_twist_width_antisymmetric_and_twist_independent():
    lam, nu = left_spec("S11"), right_spec("S11")
    x1 = FNPoint("S11", (2.0,), (0.0,))
    x2 = FNPoint("S11", (2.0,), (57.0,))
    for t in (0.3, 1.0, 4.0):
        w = twist_width(x1, lam, nu, 0, t)
        assert twist_width(x1, nu, lam, 0, t) == pytest.approx(-w, abs=1e-12)
        assert twist_width(x2, lam, nu, 0, t) == pytest.approx(w, abs=1e-12)


def test_twist_width_is_exactly_antisymmetric_and_twist_independent():
    # below length 20 and t = 3 the only failure is the stated one of an
    # offset whose log argument cancels (about 4% of inputs); past it
    # right-twist offsets also overflow exp
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triple = lambda values: st.lists(values, min_size=3, max_size=3)  # noqa: E731
    finite = st.floats(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(surface=st.sampled_from(("S11", "S04", "S2")), sign=st.sampled_from((-1.0, 1.0)),
                      log_lengths=triple(st.floats(math.log(1e-3), math.log(20.0))), t=st.floats(0.0, 3.0),
                      twists=triple(finite), shifted=triple(finite))
    def check(surface, sign, log_lengths, t, twists, shifted):
        n = curve_count(surface)
        x = FNPoint(surface, tuple(math.exp(v) for v in log_lengths[:n]), twists[:n])
        y = FNPoint(surface, x.lengths, shifted[:n])
        lam, nu = left_spec(surface), right_spec(surface)
        t *= sign
        for curve in range(n):
            try:
                w = twist_width(x, lam, nu, curve, t)
            except ValueError as exc:
                if "is out of float reach" not in str(exc):
                    raise
                hypothesis.reject()
            assert w == -twist_width(x, nu, lam, curve, t)
            assert twist_width(y, lam, nu, curve, t).hex() == w.hex()

    check()


def test_twist_width_rejects_mismatched_specs():
    x = FNPoint("S11", (2.0,), (0.0,))
    with pytest.raises(SpecMismatchError, match="^specs must live on the surface of the point$"):
        twist_width(x, left_spec("S04"), right_spec("S04"), 0, 1.0)
    with pytest.raises(SpecMismatchError, match="^spec surface does not match the point$"):
        twist_along_stretch(x, left_spec("S04"), 0, 1.0)


def test_twist_along_stretch_states_a_twist_past_float_reach():
    # 1e308 e^1 overflows; the result was inf, and stretch_point blamed the input twist
    x = FNPoint("S11", (1.0,), (1e308,))
    message = r"^twist of curve 0 is out of float reach after the stretch \(lengths scale by e\^1\.0\)$"
    with pytest.raises(ValueError, match=message):
        twist_along_stretch(x, left_spec("S11"), 0, -1.0)
    with pytest.raises(ValueError, match=message):
        stretch_point(x, left_spec("S11"), -1.0)


def test_closed_width_vanishes_at_zero():
    assert twist_width_closed(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert twist_width_closed(1.0 / 2, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_closed_width_printed_golden_value():
    assert twist_width_closed(1.0 / 2, 1.0) == pytest.approx(PRINTED_GOLDEN, abs=1e-11)


def test_closed_width_rejects_bad_arguments():
    with pytest.raises(ValueError):
        twist_width_closed(0.0, 1.0)
    with pytest.raises(ValueError, match="^log coth needs a positive argument$"):
        log_coth(0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["l0", "t"])
def test_closed_width_rejects_non_finite_arguments(name, value):
    args = {"l0": 1.0, "t": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        twist_width_closed(**args)


def test_width_point_maps_l0_to_the_untwisted_curve_length():
    assert width_point("S11", 0.3) == FNPoint("S11", (0.6,), (0.0,))
    assert width_point("S04", 0.3) == FNPoint("S04", (1.2,), (0.0,))
    with pytest.raises(ValueError, match="^S2 has no closed-form twist width$"):
        width_point("S2", 0.3)
    with pytest.raises(ValueError, match=r"^surface must be one of \('S11', 'S04', 'S2'\)$"):
        width_point("S3", 0.3)


@pytest.mark.parametrize("surface,ratio", [("S11", 2.0), ("S04", 4.0)])
def test_closed_width_agrees_with_offset_built_width(surface, ratio):
    # a negative t runs forward; S11 agreed to 1.1e-12 relative to max(1, |w|)
    # here and S04 to 2.7e-15; at (2, -2) S11's left offsets lose digits
    # (alpha-length 29.6) and the two differ by 1.2e-4
    lam, nu = left_spec(surface), right_spec(surface)
    for l0 in (0.25, 1.0, 2.0):
        x = FNPoint(surface, (ratio * l0,), (0.123,))
        for t in (-1.0, -0.25, 0.25, 1.0, 3.0):
            built = twist_width(x, lam, nu, 0, t)
            assert built == pytest.approx(twist_width_closed(l0, t), abs=1e-9)


def test_stretch_point_scales_lengths_and_evolves_twists():
    x = FNPoint("S2", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    spec = left_spec("S2")
    y = stretch_point(x, spec, -0.5)
    assert all(l == pytest.approx(math.exp(0.5), rel=1e-14) for l in y.lengths)
    assert all(th == pytest.approx(y.twists[0], abs=1e-12) for th in y.twists)


def test_stretches_compose_as_a_flow():
    # stretching for a, then b, is stretching for a + b, in either
    # direction; over 15,000 random cases of the left and right
    # completions (lengths in [0.05, 5], twists in [-3, 3], |a|, |b| <= 1.5)
    # the worst departure was 8.9e-15 relative to max(1, |value|)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    triple = lambda values: st.lists(values, min_size=3, max_size=3)  # noqa: E731
    time = st.floats(-1.5, 1.5)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(surface=st.sampled_from(("S11", "S04", "S2")), completion=st.sampled_from((left_spec, right_spec)),
                      log_lengths=triple(st.floats(math.log(0.05), math.log(5.0))),
                      twists=triple(st.floats(-3.0, 3.0)), a=time, b=time)
    def check(surface, completion, log_lengths, twists, a, b):
        n = curve_count(surface)
        x, spec = FNPoint(surface, tuple(math.exp(v) for v in log_lengths[:n]), twists[:n]), completion(surface)
        try:
            composed, direct = stretch_point(stretch_point(x, spec, a), spec, b), stretch_point(x, spec, a + b)
        except ValueError as exc:
            # a forward stretch past a cuff length of about 37 cancels an offset
            if "is out of float reach" not in str(exc):
                raise
            hypothesis.reject()
        for u, v in zip(composed.lengths + composed.twists, direct.lengths + direct.twists):
            assert abs(u - v) <= 1e-13 * max(1.0, abs(v))

    check()


@pytest.mark.parametrize(
    "surface, lengths, twists",
    [("S11", (1.3,), (0.4,)), ("S04", (0.8,), (-0.2,)), ("S2", (0.7, 1.9, 3.1), (0.3, -1.2, 0.5))],
)
def test_stretch_vectors_are_the_time_derivative_of_the_twists(surface, lengths, twists):
    x = FNPoint(surface, lengths, twists)
    specs = [left_spec(surface), right_spec(surface)]
    h = 1e-5
    for spec, vector in zip(specs, stretch_vectors(x, side_plan(specs)).tolist()):
        assert len(vector) == curve_count(surface)
        for curve, rate in enumerate(vector):
            num = (twist_along_stretch(x, spec, curve, -h) - twist_along_stretch(x, spec, curve, h)) / (2 * h)
            assert rate == pytest.approx(num, rel=1e-8, abs=1e-8)


def test_stretch_vectors_reject_foreign_specs():
    x = FNPoint("S11", (1.0,), (0.0,))
    with pytest.raises(SpecMismatchError, match="^stretch vectors need specs on the surface of the point$"):
        stretch_vectors(x, side_plan([right_spec("S04")]))


def test_side_plan_lists_sides_in_order_of_first_use():
    left, right = left_spec("S2"), right_spec("S2")
    plan = side_plan([left, right, left])
    l_tri, r_tri = left.triangulations[0], right.triangulations[0]
    # both pants of a uniform completion share one triangulation type
    assert plan.sides == ((l_tri, 0), (l_tri, 1), (l_tri, 2), (r_tri, 0), (r_tri, 1), (r_tri, 2))
    assert plan.index.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [0, 0], [1, 1], [2, 2]]
    x = FNPoint("S2", (0.7, 1.9, 3.1), (0.3, -1.2, 0.5))
    vectors = stretch_vectors(x, plan).tolist()
    assert vectors[0] == vectors[2] == stretch_vectors(x, side_plan([left])).tolist()[0]
    # mixed surfaces fail when the plan is built
    with pytest.raises(SpecMismatchError, match="^stretch vectors need specs on one surface$"):
        side_plan([left, left_spec("S11")])


@pytest.mark.parametrize("surface", ["S11", "S04", "S2"])
def test_stretch_vectors_of_no_specs(surface):
    # a plan needs specs on exactly one surface: an empty list has none
    with pytest.raises(SpecMismatchError, match="^stretch vectors need specs on one surface$"):
        side_plan([])
    plan = side_plan([left_spec(surface)])
    assert plan.surface == surface
    x = FNPoint(surface, (1.0,) * curve_count(surface), (0.0,) * curve_count(surface))
    assert stretch_vectors(x, plan).shape == (1, curve_count(surface))


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


@pytest.mark.parametrize("t", [740.0, 745.0, 750.0, 1000.0])
def test_twist_width_closed_in_the_thin_limit_matches_mpmath_reference(t):
    # u = e^-t is subnormal or zero here, where log coth(u) gave
    # -2959.98968 at t = 740 and raised at t = 1000
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        u = mpmath.exp(-mpmath.mpf(t))
        ref = 4 * u * mpmath.log(mpmath.coth(1)) - 4 * mpmath.log(mpmath.coth(u))
        rel = abs((mpmath.mpf(twist_width_closed(1.0, t)) - ref) / ref)
    assert rel <= 4 * sys.float_info.epsilon


@pytest.mark.parametrize("l0", [10, 18])
def test_fifty_digit_stretch_twists_are_half_the_closed_width(l0, request):
    # at the untwisted S11 point the two completions' twists split the width
    # w = theta(left) - theta(right) evenly: +w/2 and -w/2.  The float left
    # twist is -2.155296e-5 at l0 = 10 and -1.323863e-2 at l0 = 18
    mp = request.getfixturevalue("fifty_digits")
    t = mp.mpf("0.5")
    w = twist_width_closed(mp.mpf(l0), t)
    left, right = (y.twists[0] for y in endpoints(width_point("S11", l0), t, 50))
    # 6.2e-28 and 3.3e-42 relative at l0 = 18: the left offsets cancel about e^{-2 l0}
    assert abs(left - w / 2) <= 1e-20 * abs(w) and abs(right + w / 2) <= 1e-20 * abs(w)
    if l0 == 18:
        assert abs(left - mp.mpf("-1.31581470423e-9")) <= 1e-20


def test_twist_width_closed_states_a_width_past_float_reach():
    # 4 (t - log l0) overflows, where the thin-limit form would return -inf
    with pytest.raises(ValueError, match=r"^twist width is out of float reach at t = 1e\+308$"):
        twist_width_closed(1.0, 1e308)
    assert twist_width_closed(1.0, 4e307) == -1.6e308


#: twists of the pinned points, one per curve
PIN_TWISTS = {"S11": (0.37,), "S04": (0.37,), "S2": (0.37, -1.25, 2.0)}


def _pin(call) -> tuple[str, ...]:
    """float.hex of the float or point ``call`` returns (lengths, then
    twists), or the type and message of the error it raises."""
    try:
        value = call()
    except Exception as exc:
        return (f"{type(exc).__name__}: {exc}",)
    if isinstance(value, FNPoint):
        return tuple(v.hex() for v in value.lengths + value.twists)
    return (value.hex(),)


def _pin_cases(surface):
    """(case key, point, left spec, right spec, t) over every pinned case on ``surface``."""
    n = len(PIN_TWISTS[surface])
    for length, direction, t in itertools.product((1e-3, 1.0, 8.0), ("forward", "backward"), (0.0, 0.3, 2.5)):
        x = FNPoint(surface, (length,) * n, PIN_TWISTS[surface])
        # the key names the direction of the case; the sign of the time carries it
        time = -t if direction == "forward" else t
        yield f"{surface} {length!r} {direction} {t!r}", x, left_spec(surface), right_spec(surface), time


def _stretch_pins(surface):
    """{key: pin} of stretch_point for both completions and of twist_width
    for every curve, over the cases of :func:`_pin_cases`."""
    pins = {}
    for key, x, lam, nu, t in _pin_cases(surface):
        pins[f"{key} L"] = _pin(lambda: stretch_point(x, lam, t))
        pins[f"{key} R"] = _pin(lambda: stretch_point(x, nu, t))
        pins[f"{key} width"] = sum((_pin(lambda: twist_width(x, lam, nu, c, t)) for c in range(len(x.twists))), ())
    return pins


#: _stretch_pins of every surface, recorded then frozen
STRETCH_PINS = {
    "S11 0.001 forward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S11 0.001 forward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S11 0.001 forward 0.0 width": ("0x0.0p+0",),
    "S11 0.001 forward 0.3 L": ("0x1.61db7dbb24848p-10", "0x1.9abf6a2572119p+2"),
    "S11 0.001 forward 0.3 R": ("0x1.61db7dbb24848p-10", "-0x1.5ad182ae629f9p+2"),
    "S11 0.001 forward 0.3 width": ("0x1.7ac87669ea589p+3",),
    "S11 0.001 forward 2.5 L": ("0x1.8f322a928d5bep-7", "0x1.6700d0a29a6abp+7"),
    "S11 0.001 forward 2.5 R": ("0x1.8f322a928d5bep-7", "-0x1.54f91c965be45p+7"),
    "S11 0.001 forward 2.5 width": ("0x1.5dfcf69c7b278p+8",),
    "S11 0.001 backward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S11 0.001 backward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S11 0.001 backward 0.0 width": ("0x0.0p+0",),
    "S11 0.001 backward 0.3 L": ("0x1.8466f03da9babp-11", "-0x1.1104f72f5cf68p+2"),
    "S11 0.001 backward 0.3 R": ("0x1.8466f03da9babp-11", "0x1.341ac3a2eeecap+2"),
    "S11 0.001 backward 0.3 width": ("-0x1.228fdd6925f19p+3",),
    "S11 0.001 backward 2.5 L": ("0x1.584a189cfd318p-14", "-0x1.2ec709ca53d54p+4"),
    "S11 0.001 backward 2.5 R": ("0x1.584a189cfd318p-14", "0x1.2fbfd7561d531p+4"),
    "S11 0.001 backward 2.5 width": ("-0x1.2f43709038942p+5",),
    "S11 1.0 forward 0.0 L": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S11 1.0 forward 0.0 R": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S11 1.0 forward 0.0 width": ("0x0.0p+0",),
    "S11 1.0 forward 0.3 L": ("0x1.599058c8c1a96p+0", "0x1.85aa2126990dap+0"),
    "S11 1.0 forward 0.3 R": ("0x1.599058c8c1a96p+0", "-0x1.0be50694b753cp-1"),
    "S11 1.0 forward 0.3 width": ("0x1.05ce52387a5bcp+1",),
    "S11 1.0 forward 2.5 L": ("0x1.85d6fd931e0bbp+3", "0x1.750d3efcea1c2p+4"),
    "S11 1.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+3", "-0x1.c99f3d35ebb73p+3"),
    "S11 1.0 forward 2.5 width": ("0x1.2cee6ecbeffbep+5",),
    "S11 1.0 backward 0.0 L": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S11 1.0 backward 0.0 R": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S11 1.0 backward 0.0 width": ("0x0.0p+0",),
    "S11 1.0 backward 0.3 L": ("0x1.7b4c869c37c05p-1", "-0x1.5070cd79b5050p-1"),
    "S11 1.0 backward 0.3 R": ("0x1.7b4c869c37c05p-1", "0x1.348f988b2256ap+0"),
    "S11 1.0 backward 0.3 width": ("-0x1.dcc7ff47fcd92p+0",),
    "S11 1.0 backward 2.5 L": ("0x1.50385c094f425p-4", "-0x1.8ebd81cf9cf78p+2"),
    "S11 1.0 backward 2.5 R": ("0x1.50385c094f425p-4", "0x1.92a0b7fec2c36p+2"),
    "S11 1.0 backward 2.5 width": ("-0x1.90af1ce72fdd7p+3",),
    "S11 8.0 forward 0.0 L": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S11 8.0 forward 0.0 R": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S11 8.0 forward 0.0 width": ("0x0.0p+0",),
    "S11 8.0 forward 0.3 L": ("0x1.599058c8c1a96p+3", "0x1.009a523a96dd4p-1"),
    "S11 8.0 forward 0.3 R": ("0x1.599058c8c1a96p+3", "0x1.fda9d2fbc8d57p-2"),
    "S11 8.0 forward 0.3 width": ("0x1.c568bcb272800p-9",),
    "S11 8.0 forward 2.5 L": ("ValueError: twist offset at cuff 0 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 0.0)",),
    "S11 8.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+6", "0x1.1f6f6c1d92f16p+2"),
    "S11 8.0 forward 2.5 width": ("ValueError: twist offset at cuff 0 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 0.0)",),
    "S11 8.0 backward 0.0 L": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S11 8.0 backward 0.0 R": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S11 8.0 backward 0.0 width": ("0x0.0p+0",),
    "S11 8.0 backward 0.3 L": ("0x1.7b4c869c37c05p+2", "0x1.0ec5b481f4d5fp-2"),
    "S11 8.0 backward 0.3 R": ("0x1.7b4c869c37c05p+2", "0x1.229712b72a037p-2"),
    "S11 8.0 backward 0.3 width": ("-0x1.3d15e35352d80p-6",),
    "S11 8.0 backward 2.5 L": ("0x1.50385c094f425p-1", "-0x1.222e923bb75d4p+1"),
    "S11 8.0 backward 2.5 R": ("0x1.50385c094f425p-1", "0x1.29f4fe9a02f36p+1"),
    "S11 8.0 backward 2.5 width": ("-0x1.2611c86add285p+2",),
    "S04 0.001 forward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S04 0.001 forward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S04 0.001 forward 0.0 width": ("0x0.0p+0",),
    "S04 0.001 forward 0.3 L": ("0x1.61db7dbb24848p-10", "0x1.b9c9c66b56451p+2"),
    "S04 0.001 forward 0.3 R": ("0x1.61db7dbb24848p-10", "-0x1.79dbdef446d2dp+2"),
    "S04 0.001 forward 0.3 width": ("0x1.99d2d2afce8bfp+3",),
    "S04 0.001 forward 2.5 L": ("0x1.8f322a928d5bep-7", "0x1.8601f6f008ba7p+7"),
    "S04 0.001 forward 2.5 R": ("0x1.8f322a928d5bep-7", "-0x1.73fa42e3ca341p+7"),
    "S04 0.001 forward 2.5 width": ("0x1.7cfe1ce9e9774p+8",),
    "S04 0.001 backward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S04 0.001 backward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2"),
    "S04 0.001 backward 0.0 width": ("0x0.0p+0",),
    "S04 0.001 backward 0.3 L": ("0x1.8466f03da9babp-11", "-0x1.2803c61acaafep+2"),
    "S04 0.001 backward 0.3 R": ("0x1.8466f03da9babp-11", "0x1.4b19928e5ca60p+2"),
    "S04 0.001 backward 0.3 width": ("-0x1.398eac5493aafp+3",),
    "S04 0.001 backward 2.5 L": ("0x1.584a189cfd318p-14", "-0x1.4323332b695ccp+4"),
    "S04 0.001 backward 2.5 R": ("0x1.584a189cfd318p-14", "0x1.441c00b732daap+4"),
    "S04 0.001 backward 2.5 width": ("-0x1.439f99f14e1bbp+5",),
    "S04 1.0 forward 0.0 L": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S04 1.0 forward 0.0 R": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S04 1.0 forward 0.0 width": ("0x0.0p+0",),
    "S04 1.0 forward 0.3 L": ("0x1.599058c8c1a96p+0", "0x1.0684ff7014f5fp+1"),
    "S04 1.0 forward 0.3 R": ("0x1.599058c8c1a96p+0", "-0x1.0d526103ec886p+0"),
    "S04 1.0 forward 0.3 width": ("0x1.8d2e2ff20b3a2p+1",),
    "S04 1.0 forward 2.5 L": ("0x1.85d6fd931e0bbp+3", "0x1.3634ef26deea3p+5"),
    "S04 1.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+3", "-0x1.dc2c3debc9c0cp+4"),
    "S04 1.0 forward 2.5 width": ("0x1.1225870e61e54p+6",),
    "S04 1.0 backward 0.0 L": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S04 1.0 backward 0.0 R": ("0x1.0000000000000p+0", "0x1.7ae147ae147aep-2"),
    "S04 1.0 backward 0.0 width": ("0x0.0p+0",),
    "S04 1.0 backward 0.3 L": ("0x1.7b4c869c37c05p-1", "-0x1.096945be06ac4p+0"),
    "S04 1.0 backward 0.3 R": ("0x1.7b4c869c37c05p-1", "0x1.95c0778c4e802p+0"),
    "S04 1.0 backward 0.3 width": ("-0x1.4f94dea52a963p+1",),
    "S04 1.0 backward 2.5 L": ("0x1.50385c094f425p-4", "-0x1.e0bd0d7de60f6p+2"),
    "S04 1.0 backward 2.5 R": ("0x1.50385c094f425p-4", "0x1.e4a043ad0bdb3p+2"),
    "S04 1.0 backward 2.5 width": ("-0x1.e2aea89578f54p+3",),
    "S04 8.0 forward 0.0 L": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S04 8.0 forward 0.0 R": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S04 8.0 forward 0.0 width": ("0x0.0p+0",),
    "S04 8.0 forward 0.3 L": ("0x1.599058c8c1a96p+3", "0x1.2919f8b877b9ap-1"),
    "S04 8.0 forward 0.3 R": ("0x1.599058c8c1a96p+3", "0x1.acaa8600061b3p-2"),
    "S04 8.0 forward 0.3 width": ("0x1.4b12d6e1d2b00p-3",),
    "S04 8.0 forward 2.5 L": ("0x1.85d6fd931e0bbp+6", "0x1.599bf2581fb78p+2"),
    "S04 8.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+6", "0x1.ceb51e5f612e8p+1"),
    "S04 8.0 forward 2.5 width": ("0x1.c9058ca1bc812p+0",),
    "S04 8.0 backward 0.0 L": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S04 8.0 backward 0.0 R": ("0x1.0000000000000p+3", "0x1.7ae147ae147aep-2"),
    "S04 8.0 backward 0.0 width": ("0x0.0p+0",),
    "S04 8.0 backward 0.3 L": ("0x1.7b4c869c37c05p+2", "0x1.f2138668c0ffcp-4"),
    "S04 8.0 backward 0.3 R": ("0x1.7b4c869c37c05p+2", "0x1.b4d7e59eef0f2p-2"),
    "S04 8.0 backward 0.3 width": ("-0x1.38530404becf3p-2",),
    "S04 8.0 backward 2.5 L": ("0x1.50385c094f425p-1", "-0x1.cc2eb5bb10028p+1"),
    "S04 8.0 backward 2.5 R": ("0x1.50385c094f425p-1", "0x1.d3f522195b9a4p+1"),
    "S04 8.0 backward 2.5 width": ("-0x1.d011ebea35ce6p+2",),
    "S2 0.001 forward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 0.001 forward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 0.001 forward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 0.001 forward 0.3 L": ("0x1.61db7dbb24848p-10", "0x1.61db7dbb24848p-10", "0x1.61db7dbb24848p-10", "0x1.9abf6a05c0b67p+2", "0x1.0ecb5a8b7c851p+2", "0x1.13c851574cef6p+3"),
    "S2 0.001 forward 0.3 R": ("0x1.61db7dbb24848p-10", "0x1.61db7dbb24848p-10", "0x1.61db7dbb24848p-10", "-0x1.5ad1828eb1443p+2", "-0x1.e6c59208f5759p+2", "-0x1.9c0093cbb037ep+1"),
    "S2 0.001 forward 0.3 width": ("0x1.7ac8764a38fd5p+3", "0x1.7ac8764a38fd5p+3", "0x1.7ac8764a38fd5p+3"),
    "S2 0.001 forward 2.5 L": ("0x1.8f322a928d5bep-7", "0x1.8f322a928d5bep-7", "0x1.8f322a928d5bep-7", "0x1.6700cf84eb369p+7", "0x1.3f8829af4d9c6p+7", "0x1.8eb7d5312fb6cp+7"),
    "S2 0.001 forward 2.5 R": ("0x1.8f322a928d5bep-7", "0x1.8f322a928d5bep-7", "0x1.8f322a928d5bep-7", "-0x1.54f91b78acb02p+7", "-0x1.7c71c14e4a4a5p+7", "-0x1.2d4215cc682ffp+7"),
    "S2 0.001 forward 2.5 width": ("0x1.5dfcf57ecbf36p+8", "0x1.5dfcf57ecbf36p+8", "0x1.5dfcf57ecbf36p+8"),
    "S2 0.001 backward 0.0 L": ("0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 0.001 backward 0.0 R": ("0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 0.001 backward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 0.001 backward 0.3 L": ("0x1.8466f03da9babp-11", "0x1.8466f03da9babp-11", "0x1.8466f03da9babp-11", "-0x1.1104f7227a512p+2", "-0x1.5dd3d264ac01bp+2", "-0x1.8779776a6ab72p+1"),
    "S2 0.001 backward 0.3 R": ("0x1.8466f03da9babp-11", "0x1.8466f03da9babp-11", "0x1.8466f03da9babp-11", "0x1.341ac3960c476p+2", "0x1.ce97d0a7b52dap+1", "0x1.8162ff03513cfp+2"),
    "S2 0.001 backward 0.3 width": ("-0x1.228fdd5c434c4p+3", "-0x1.228fdd5c434c4p+3", "-0x1.228fdd5c434c4p+3"),
    "S2 0.001 backward 2.5 L": ("0x1.584a189cfd318p-14", "0x1.584a189cfd318p-14", "0x1.584a189cfd318p-14", "-0x1.2ec709c910385p+4", "-0x1.30e7b7020094ep+4", "-0x1.2ca2ffd6e2535p+4"),
    "S2 0.001 backward 2.5 R": ("0x1.584a189cfd318p-14", "0x1.584a189cfd318p-14", "0x1.584a189cfd318p-14", "0x1.2fbfd754d9b62p+4", "0x1.2d9f2a1be9599p+4", "0x1.31e3e147079b2p+4"),
    "S2 0.001 backward 2.5 width": ("-0x1.2f43708ef4f74p+5", "-0x1.2f43708ef4f74p+5", "-0x1.2f43708ef4f74p+5"),
    "S2 1.0 forward 0.0 L": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 1.0 forward 0.0 R": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 1.0 forward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 1.0 forward 0.3 L": ("0x1.599058c8c1a96p+0", "0x1.599058c8c1a96p+0", "0x1.599058c8c1a96p+0", "0x1.83833819945e4p+0", "-0x1.589a0b9ef8cecp-1", "0x1.db640d5e7c7f9p+1"),
    "S2 1.0 forward 0.3 R": ("0x1.599058c8c1a96p+0", "0x1.599058c8c1a96p+0", "0x1.599058c8c1a96p+0", "-0x1.0797347aadf4cp-1", "-0x1.59cdec1333e00p+1", "0x1.af7948660da68p+0"),
    "S2 1.0 forward 0.3 width": ("0x1.03a7692b75ac5p+1", "0x1.03a7692b75ac5p+1", "0x1.03a7692b75ac5p+1"),
    "S2 1.0 forward 2.5 L": ("0x1.85d6fd931e0bbp+3", "0x1.85d6fd931e0bbp+3", "0x1.85d6fd931e0bbp+3", "0x1.7e8f742c9ecb0p+4", "0x1.0b2915fec7e74p+2", "0x1.5e23d0c761666p+5"),
    "S2 1.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+3", "0x1.85d6fd931e0bbp+3", "0x1.85d6fd931e0bbp+3", "-0x1.dca3a79555701p+3", "-0x1.150b813bcbc4ap+5", "0x1.3d99665de5274p+2"),
    "S2 1.0 forward 2.5 width": ("0x1.3670a3fba4c18p+5", "0x1.3670a3fba4c18p+5", "0x1.3670a3fba4c18p+5"),
    "S2 1.0 backward 0.0 L": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 1.0 backward 0.0 R": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 1.0 backward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 1.0 backward 0.3 L": ("0x1.7b4c869c37c05p-1", "0x1.7b4c869c37c05p-1", "0x1.7b4c869c37c05p-1", "-0x1.4d2b77e650392p-1", "-0x1.d9d128fbeedecp+0", "0x1.1d166383d7738p-1"),
    "S2 1.0 backward 0.3 R": ("0x1.7b4c869c37c05p-1", "0x1.7b4c869c37c05p-1", "0x1.7b4c869c37c05p-1", "0x1.32ecedc16ff0ap+0", "-0x1.39fd1d5b46400p-10", "0x1.3406edbb41e38p+1"),
    "S2 1.0 backward 0.3 width": ("-0x1.d982a9b4980d3p+0", "-0x1.d982a9b4980d3p+0", "-0x1.d982a9b4980d3p+0"),
    "S2 1.0 backward 2.5 L": ("0x1.50385c094f425p-4", "0x1.50385c094f425p-4", "0x1.50385c094f425p-4", "-0x1.8e828a3f06cdap+2", "-0x1.97053f22c83fep+2", "-0x1.85f262764f398p+2"),
    "S2 1.0 backward 2.5 R": ("0x1.50385c094f425p-4", "0x1.50385c094f425p-4", "0x1.50385c094f425p-4", "0x1.9265c06e2c997p+2", "0x1.89e30b8a6b273p+2", "0x1.9af5e836e42d9p+2"),
    "S2 1.0 backward 2.5 width": ("-0x1.9074255699b38p+3", "-0x1.9074255699b38p+3", "-0x1.9074255699b38p+3"),
    "S2 8.0 forward 0.0 L": ("0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 8.0 forward 0.0 R": ("0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 8.0 forward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 8.0 forward 0.3 L": ("0x1.599058c8c1a96p+3", "0x1.599058c8c1a96p+3", "0x1.599058c8c1a96p+3", "0x1.0a664f390069cp-1", "-0x1.aa9d164c9090cp+0", "0x1.5c3c051ff26aep+1"),
    "S2 8.0 forward 0.3 R": ("0x1.599058c8c1a96p+3", "0x1.599058c8c1a96p+3", "0x1.599058c8c1a96p+3", "0x1.ea11d8fef49d7p-2", "-0x1.b54bc7a9539e4p+0", "0x1.56e4ac7190e42p+1"),
    "S2 8.0 forward 0.3 width": ("0x1.55d62b9861b00p-5", "0x1.55d62b9861b00p-5", "0x1.55d62b9861b00p-5"),
    "S2 8.0 forward 2.5 L": ("ValueError: twist offset at cuff 0 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 97.45995168562779)",),
    "S2 8.0 forward 2.5 R": ("0x1.85d6fd931e0bbp+6", "0x1.85d6fd931e0bbp+6", "0x1.85d6fd931e0bbp+6", "0x1.11cd665d2465ep+2", "-0x1.eea3aa2b476f6p+3", "0x1.822b86f96d1b5p+4"),
    "S2 8.0 forward 2.5 width": ("ValueError: twist offset at cuff 0 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 97.45995168562779)", "ValueError: twist offset at cuff 1 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 97.45995168562779)", "ValueError: twist offset at cuff 2 is out of float reach: g = -0.0 <= 0 at lengths (97.45995168562779, 97.45995168562779, 97.45995168562779)"),
    "S2 8.0 backward 0.0 L": ("0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 8.0 backward 0.0 R": ("0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.0000000000000p+3", "0x1.7ae147ae147aep-2", "-0x1.4000000000000p+0", "0x1.0000000000000p+1"),
    "S2 8.0 backward 0.0 width": ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    "S2 8.0 backward 0.3 L": ("0x1.7b4c869c37c05p+2", "0x1.7b4c869c37c05p+2", "0x1.7b4c869c37c05p+2", "0x1.db90e5f673e7ep-3", "-0x1.ef92a093f08a6p-1", "0x1.70930a73e2535p+0"),
    "S2 8.0 backward 0.3 R": ("0x1.7b4c869c37c05p+2", "0x1.7b4c869c37c05p+2", "0x1.7b4c869c37c05p+2", "0x1.4394543de5597p-2", "-0x1.c4acaff29ad7ap-1", "0x1.860602c48d2cbp+0"),
    "S2 8.0 backward 0.3 width": ("-0x1.572f850aad960p-4", "-0x1.572f850aad960p-4", "-0x1.572f850aad960p-4"),
    "S2 8.0 backward 2.5 L": ("0x1.50385c094f425p-1", "0x1.50385c094f425p-1", "0x1.50385c094f425p-1", "-0x1.251772dd06c3fp+1", "-0x1.361cdca489a86p+1", "-0x1.13f7234b979bbp+1"),
    "S2 8.0 backward 2.5 R": ("0x1.50385c094f425p-1", "0x1.50385c094f425p-1", "0x1.50385c094f425p-1", "0x1.2cdddf3b525bcp+1", "0x1.1bd87573cf775p+1", "0x1.3dfe2eccc1840p+1"),
    "S2 8.0 backward 2.5 width": ("-0x1.28faa90c2c8fep+2", "-0x1.28faa90c2c8fep+2", "-0x1.28faa90c2c8fep+2"),
}


@pytest.mark.parametrize("surface", list(PIN_TWISTS))
def test_stretch_point_and_twist_width_bits_are_pinned(surface):
    pinned = {key: pin for key, pin in STRETCH_PINS.items() if key.split()[0] == surface}
    assert _stretch_pins(surface) == pinned


@pytest.mark.parametrize("surface", list(PIN_TWISTS))
def test_twist_along_stretch_bits_are_pinned(surface):
    # each twist is the pinned twist of the stretched point; where the
    # point fails, every twist fails, and the first with the point's error
    # (the others name the cuff of their own curve)
    n = len(PIN_TWISTS[surface])
    for key, x, lam, nu, t in _pin_cases(surface):
        for name, spec in (("L", lam), ("R", nu)):
            pin = STRETCH_PINS[f"{key} {name}"]
            twists = [_pin(lambda: twist_along_stretch(x, spec, c, t)) for c in range(n)]
            if len(pin) == 2 * n:
                assert twists == [(v,) for v in pin[n:]], (key, name)
            else:
                assert twists[0] == pin, (key, name)
                assert all(p[0].split(":")[0] == pin[0].split(":")[0] for p in twists), (key, name)


def test_twist_width_conventions_bits_are_pinned():
    surfaces = twist_width_conventions()["surfaces"]
    assert {s: {conv: w.hex() for conv, w in worst.items()} for s, worst in surfaces.items()} == {
        "S11": {"reconciled": "0x1.3800000000000p-49", "printed": "0x1.49609f0abfdb6p+1"},
        "S04": {"reconciled": "0x1.0000000000000p-50", "printed": "0x1.49609f0abfdb4p+1"},
    }
