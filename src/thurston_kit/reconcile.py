"""Convention reconciliation: closed forms vs the constructive oracle.

Two printed-formula issues are checked and recorded:

* the twist-offset closed forms for the three symmetry classes, compared
  against the half-plane construction over a length grid for all 32
  triangulation types (no correction expected, residuals reported);
* the closed-form twist width, whose displayed version halves the
  coth arguments while direct algebra on the offsets (confirmed by the
  construction) does not; the reconciled variant is the kit's convention
  (:func:`~thurston_kit.stretch.twist_width_closed`), checked against the
  offsets, and the printed one is kept for comparison.
"""

from __future__ import annotations

import itertools

from .pants import PantsMetric, delta_closed, delta_oracle, enumerate_triangulations
from .stretch import left_spec, right_spec, twist_width, twist_width_closed, width_point

DEFAULT_GRID = (0.5, 1.0, 2.0, 4.0)
#: l0 values and times of the twist-width check
WIDTH_GRID = (0.25, 0.5, 1.0, 2.0)
#: largest residual that counts as agreement: in `delta`, the offset report and the width check
TOLERANCE = 1e-9


def oracle_residuals() -> list[dict]:
    """Max |closed - oracle| per triangulation type and cuff over
    ``DEFAULT_GRID``, each marked within ``TOLERANCE`` or not."""
    rows = []
    for tri in enumerate_triangulations():
        for cuff in range(3):
            worst = -1.0
            arg = None
            for lengths in itertools.product(DEFAULT_GRID, repeat=3):
                pm = PantsMetric(*lengths)
                resid = abs(delta_closed(pm, tri, cuff) - delta_oracle(pm, tri, cuff))
                if resid > worst:
                    worst, arg = resid, lengths
            rows.append(
                {
                    "type": tri.label(),
                    "cuff": cuff + 1,
                    "max_residual": worst,
                    "argmax_lengths": list(arg),
                    "within_tolerance": worst <= TOLERANCE,
                }
            )
    return rows


def twist_width_conventions() -> dict:
    """Residuals of both closed-form width conventions against the offset-built width.

    The width is rebuilt from the twist offsets of the left and right
    completions on both supported surfaces, at every l0 and t of
    ``WIDTH_GRID``.  The kit's convention is ``"reconciled"``, the form
    :func:`~thurston_kit.stretch.twist_width_closed` computes at l0;
    ``"printed"`` halves the argument and is kept for comparison.
    """
    out = {}
    for surface in ("S11", "S04"):
        worst = {"reconciled": 0.0, "printed": 0.0}
        for l0 in WIDTH_GRID:
            x = width_point(surface, l0)
            lam, nu = left_spec(surface), right_spec(surface)
            for t in WIDTH_GRID:
                built = twist_width(x, lam, nu, 0, t)
                for conv, a in (("reconciled", l0), ("printed", l0 / 2.0)):
                    worst[conv] = max(worst[conv], abs(built - twist_width_closed(a, t)))
        out[surface] = worst
    return {
        "surfaces": out,
        "chosen_convention": "reconciled",
        "note": (
            "the displayed closed form halves the coth arguments; direct algebra "
            "on the twist offsets (validated by the half-plane construction) does not"
        ),
    }


def build_report() -> dict:
    """The offset and width checks; ``ok`` when every offset residual and
    the worst reconciled width residual are within ``TOLERANCE``."""
    rows = oracle_residuals()
    width = twist_width_conventions()
    max_resid = max(r["max_residual"] for r in rows)
    width_ok = max(v["reconciled"] for v in width["surfaces"].values()) <= TOLERANCE
    corrections = [
        {"formula": "closed-form twist width", "status": "argument convention corrected; 'reconciled' is the default"}
    ]
    return {
        "offset_formulas": {
            "grid": list(DEFAULT_GRID),
            "max_residual": max_resid,
            "all_within_tolerance": all(r["within_tolerance"] for r in rows),
            "tolerance": TOLERANCE,
            "per_type": rows,
            "corrections": [],
        },
        "twist_width": width,
        "corrections": corrections,
        "ok": all(r["within_tolerance"] for r in rows) and width_ok,
    }


def report_text(report: dict) -> str:
    """Short human-readable summary of the reconciliation results."""
    lines = []
    off = report["offset_formulas"]
    lines.append(
        "twist offsets: max |closed - construction| = "
        f"{off['max_residual']:.3e} over grid {off['grid']} "
        f"({'OK' if off['all_within_tolerance'] else 'FAIL'} at {off['tolerance']:.0e}); "
        "no argument correction needed"
    )
    tw = report["twist_width"]
    for surface, worst in sorted(tw["surfaces"].items()):
        lines.append(
            f"twist width on {surface}: residual vs offsets "
            f"reconciled = {worst['reconciled']:.3e}, printed = {worst['printed']:.3e}"
        )
    lines.append(f"chosen twist-width convention: {tw['chosen_convention']} ({tw['note']})")
    return "\n".join(lines) + "\n"
