"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured numbers (run with -rA or -s to see them
for passing tests)."""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from thurston_kit import bounds, cube, reconcile, torus
from thurston_kit.cli import main as cli_main
from thurston_kit.h2 import INF, orthofoot
from thurston_kit.pants import (
    PantsMetric,
    PantsTriangulation,
    delta_closed,
    delta_oracle,
    enumerate_triangulations,
    shear_coords,
)
from thurston_kit.stretch import FNPoint, left_spec, right_spec, twist_width

GRID = (0.5, 1.0, 2.0, 4.0)

#: golden values, each recomputed from this code base before pinning
DECAY_SUP_GOLDEN = 2.012346391854701
EARTHQUAKE_C_GOLDEN = 2.0682422295641905
ENVELOPE_B_GOLDEN = 0.8732925297876251


def _report(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for tri in enumerate_triangulations():
        for lengths in itertools.product(GRID, repeat=3):
            pm = PantsMetric(*lengths)
            for cuff in range(3):
                worst = max(worst, abs(delta_closed(pm, tri, cuff) - delta_oracle(pm, tri, cuff)))
    elapsed = time.perf_counter() - start
    width = reconcile.twist_width_conventions()
    corrected = width["chosen_convention"] == "reconciled" and all(
        v["printed"] > 1e-3 and v["reconciled"] <= 1e-9 for v in width["surfaces"].values()
    )
    ok = worst <= 1e-9 and elapsed < 10.0 and corrected
    _report(
        1,
        "oracle equivalence",
        ok,
        f"max |closed - construction| = {worst:.3e} over 32 types x {len(GRID)}^3 lengths x 3 cuffs "
        f"in {elapsed:.1f} s; corrected conventions: closed-form twist width (printed coth(l0/2) "
        f"arguments replaced by coth(l0))",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0
    assert corrected


def test_criterion_2_shear_identities():
    worst_sum = 0.0
    worst_pair = 0.0
    for signs in itertools.product((1, -1), repeat=3):
        tri = PantsTriangulation((2, 2, 2), signs)
        for lengths in itertools.product(GRID, repeat=3):
            s = shear_coords(PantsMetric(*lengths), tri)
            if signs[0] == 1:
                worst_sum = max(worst_sum, abs(s["s12"] + s["s13"] + lengths[0]))
            worst_pair = max(
                worst_pair,
                abs(abs(s["s12"] + s["s13"]) - lengths[0]),
                abs(abs(s["s12"] + s["s23"]) - lengths[1]),
                abs(abs(s["s13"] + s["s23"]) - lengths[2]),
            )
    # per-cuff end-sum rule across all 32 types
    worst_rule = 0.0
    for tri in enumerate_triangulations():
        for lengths in itertools.product((0.5, 2.0), repeat=3):
            s = shear_coords(PantsMetric(*lengths), tri)
            for cuff in range(3):
                total = sum(
                    v * ((int(k[1]) - 1 == cuff) + (int(k[2]) - 1 == cuff)) for k, v in s.items()
                )
                worst_rule = max(worst_rule, abs(total + tri.signs[cuff] * lengths[cuff]))
    ok = worst_sum <= 1e-12 and worst_pair <= 1e-12 and worst_rule <= 1e-12
    _report(
        2,
        "shear identities",
        ok,
        f"|s12+s13+l1| <= {worst_sum:.1e}, pair-sum defect <= {worst_pair:.1e}, "
        f"end-sum rule defect <= {worst_rule:.1e}",
    )
    assert ok


def test_criterion_3_orthogonal_circle_claim():
    rng = np.random.RandomState(123)
    worst = 0.0
    for _ in range(10_000):
        a = float(rng.uniform(0.01, 10.0))
        b = a + float(rng.uniform(0.01, 10.0))
        if rng.rand() < 0.5:
            a, b = -b, -a
        x, y = orthofoot(0.0, INF, a, b)
        worst = max(worst, abs(y - math.sqrt(a * b)), abs(x))
    _report(3, "orthogonal-circle foot", worst <= 1e-12, f"max |height - sqrt(ab)| = {worst:.3e} over 10^4 samples")
    assert worst <= 1e-12


def test_criterion_4_twist_width_basics():
    lam, nu = left_spec("S11"), right_spec("S11")
    worst = 0.0
    for l0 in (0.3, 1.0, 2.0):
        x = FNPoint("S11", (2.0 * l0,), (0.0,))
        x_shift = FNPoint("S11", (2.0 * l0,), (17.25,))
        worst = max(worst, abs(twist_width(x, lam, nu, 0, 0.0)))
        for t in (0.4, 1.0, 3.0):
            w = twist_width(x, lam, nu, 0, t)
            worst = max(worst, abs(w + twist_width(x, nu, lam, 0, t)))
            worst = max(worst, abs(w - twist_width(x_shift, lam, nu, 0, t)))
    # normalization invariance: e^t D(0) - D(t) unchanged by e^{k l} factors
    pm = PantsMetric(1.5, 0.7, 1.1)
    tri = PantsTriangulation((2, 2, 2), (1, 1, 1))
    for k in (-2.0, 0.5):
        for t in (0.6, 2.0):
            d0, dt = delta_closed(pm.scaled(math.exp(0.0)), tri, 0), delta_closed(pm.scaled(math.exp(t)), tri, 0)
            base = math.exp(t) * d0 - dt
            shifted = math.exp(t) * (d0 + 0.5 * k * pm.l1) - (dt + 0.5 * k * pm.l1 * math.exp(t))
            worst = max(worst, abs(base - shifted))
    _report(4, "twist-width basics", worst <= 1e-10, f"max defect = {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_5_decay_boundedness():
    start = time.perf_counter()
    grid = [1.0 + 0.005 * i for i in range(9801)]
    sup = max(bounds.decay_factor(u) for u in grid)
    at20 = bounds.decay_factor(20.0)
    witness10 = bounds.decay_factor_unbounded(40.0)
    witness1000 = bounds.decay_factor_unbounded(65.0)
    literal_u5 = bounds.decay_factor_unbounded(5.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(sup - DECAY_SUP_GOLDEN) <= 1e-9
        and abs(at20 - 2.0) <= 1e-8
        and witness10 > 10.0
        and witness1000 > 1e3
        and elapsed < 1.0
    )
    _report(
        5,
        "decay boundedness",
        ok,
        f"sup e^(2u) log coth u on [1,50] = {sup:.12f} (pinned {DECAY_SUP_GOLDEN}); value at 20 - 2 = "
        f"{at20 - 2.0:.1e}; unbounded variant = {witness10:.1f} at u=40 (>10) and {witness1000:.0f} at "
        f"u=65 (>1e3); note: at u=5 the variant is only {literal_u5:.3f}, so the 10^3 threshold is "
        f"reached near u = 62.1, not u = 5 (see decisions ledger); {elapsed:.2f} s",
    )
    assert abs(sup - DECAY_SUP_GOLDEN) <= 1e-9
    assert abs(at20 - 2.0) <= 1e-8
    assert witness10 > 10.0
    assert witness1000 > 1e3
    assert elapsed < 1.0


def _envelope_grid_rows():
    rows = []
    ts = [0.25 * i for i in range(49)]
    for l0 in (0.1, 0.5, 1.0, 2.0, 5.0):
        y = FNPoint("S11", (2.0 * l0,), (0.0,))
        for t in ts:
            d_lr, d_rl = torus.envelope_widths([(y, t)], 30)[0]
            rows.append((l0, t, d_lr, d_rl))
    return rows


@pytest.fixture(scope="module")
def envelope_rows():
    start = time.perf_counter()
    rows = _envelope_grid_rows()
    return rows, time.perf_counter() - start


def test_criterion_6_envelope_bounded(envelope_rows):
    rows, elapsed = envelope_rows
    values = [max(d1, d2) for _, _, d1, d2 in rows]
    b = max(values)
    ok = all(math.isfinite(v) for v in values) and abs(b - ENVELOPE_B_GOLDEN) <= 1e-9 and elapsed < 60.0
    _report(
        6,
        "envelope width bounded",
        ok,
        f"empirical B = {b:.12f} (pinned {ENVELOPE_B_GOLDEN}) over 5 x 49 grid, both directions, "
        f"in {elapsed:.1f} s",
    )
    assert all(math.isfinite(v) for v in values)
    assert abs(b - ENVELOPE_B_GOLDEN) <= 1e-9
    assert elapsed < 60.0


def test_criterion_6_envelope_no_growth_trend(envelope_rows):
    # the value at t = 12 must not exceed the grid maximum attained at
    # t <= 6 by more than 1e-6; the estimator's finite slope family peaks
    # in the middle range and certifies no late growth
    rows, _ = envelope_rows
    max_upto_6 = max(max(d1, d2) for _, t, d1, d2 in rows if t <= 6.0)
    max_at_12 = max(max(d1, d2) for _, t, d1, d2 in rows if t == 12.0)
    ok = max_at_12 <= max_upto_6 + 1e-6
    _report(
        6,
        "envelope no-growth trend (as stated)",
        ok,
        f"max at t=12 is {max_at_12:.9f} vs max at t<=6 {max_upto_6:.9f} "
        f"(excess {max_at_12 - max_upto_6:.3e} vs allowed 1e-06)",
    )
    assert max_at_12 <= max_upto_6 + 1e-6


def test_criterion_7_earthquake_bound():
    worst = -math.inf
    cells = []
    for la in GRID:
        x = FNPoint("S11", (la,), (0.0,))
        for t in (0.1, 1.0, 10.0, 100.0):
            d = torus.dth_estimate(x, torus.earthquake(x, t), 30)
            slack = d - (0.5 * la + math.log(t))
            cells.append((la, t, d, slack))
            worst = max(worst, slack)
    ok = abs(worst - EARTHQUAKE_C_GOLDEN) <= 1e-9
    _report(
        7,
        "earthquake bound",
        ok,
        f"empirical C = {worst:.12f} (pinned {EARTHQUAKE_C_GOLDEN}); every cell satisfies "
        f"d <= log(e^(l/2) t) + C",
    )
    assert worst <= EARTHQUAKE_C_GOLDEN + 1e-9
    assert abs(worst - EARTHQUAKE_C_GOLDEN) <= 1e-9
    for la, t, d, _ in cells:
        assert d <= 0.5 * la + math.log(t) + EARTHQUAKE_C_GOLDEN + 1e-9


def test_criterion_8_chamfered_cube():
    start = time.perf_counter()
    result = cube.chamfered_cube_check(cube.symmetric_base_point())
    elapsed = time.perf_counter() - start
    ok = (
        result["n_candidates"] == 128
        and result["hull_counts"] == (32, 48, 18)
        and result["agree"]
        and len(result["extreme_completions"]) == 32
        and elapsed < 10.0
    )
    _report(
        8,
        "chamfered cube",
        ok,
        f"128 candidates -> hull (V, E, F) = {result['hull_counts']}, vertices certified extreme, "
        f"32 extreme completions, in {elapsed:.1f} s",
    )
    assert result["n_candidates"] == 128
    assert result["hull_counts"] == (32, 48, 18)
    assert result["agree"]
    assert len(result["extreme_completions"]) == 32
    assert elapsed < 10.0


def _run_all_commands(cfg_path: Path, out_dir: Path, capsys) -> dict[str, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = cfg_path.read_text() + f"out_dir={out_dir}\n"
    local_cfg = out_dir.parent / f"{out_dir.name}_config.txt"
    local_cfg.write_text(cfg)
    outputs: dict[str, str] = {}
    commands = [
        ["delta", "--type", "2sym", "--l", "2,1,0.5", "--signs", "LRL", "--cuff", "1"],
        ["shear", "--type", "asym", "--l", "1,2,3", "--signs", "RLL"],
        ["stretch", "--surface", "S04", "--l", "2", "--tau", "0.25", "--t", "1.0", "--completion", "R"],
        ["twist-width", "--l0", "0.7", "--t", "1.3"],
        ["sweep"],
        ["envelope"],
        ["cube"],
        ["oracle-check"],
    ]
    for cmd in commands:
        code = cli_main(["--config", str(local_cfg)] + cmd)
        # progress lines echo the output directory; drop that before comparing
        outputs["stdout:" + cmd[0]] = capsys.readouterr().out.replace(str(out_dir), "OUT")
        assert code == 0, cmd
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            outputs[path.name] = path.read_text()
    return outputs


def test_criterion_9_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "base_config.txt"
    cfg.write_text("l0_values=0.5,1\nt_max=1.0\nt_step=0.5\nmax_q=6\n")
    first = _run_all_commands(cfg, tmp_path / "run1", capsys)
    second = _run_all_commands(cfg, tmp_path / "run2", capsys)
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    _report(
        9,
        "CLI determinism",
        same,
        f"{len(first)} outputs (stdout of 8 commands + written files) byte-identical across two runs",
    )
    assert set(first) == set(second)
    for key in first:
        assert first[key] == second[key], key
