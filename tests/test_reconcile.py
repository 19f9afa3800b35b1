"""Tests for the convention reconciliation report."""

from thurston_kit import reconcile
from thurston_kit.reconcile import (
    build_report,
    oracle_residuals,
    report_text,
    twist_width_conventions,
)


def test_oracle_residuals_small_grid(monkeypatch):
    monkeypatch.setattr(reconcile, "DEFAULT_GRID", (1.0,))
    rows = oracle_residuals()
    assert len(rows) == 32 * 3
    assert all(r["within_tolerance"] for r in rows)
    assert max(r["max_residual"] for r in rows) <= 1e-9


def test_twist_width_convention_choice(monkeypatch):
    monkeypatch.setattr(reconcile, "WIDTH_GRID", (0.5, 1.0))
    out = twist_width_conventions()
    assert out["chosen_convention"] == "reconciled"
    for surface in ("S11", "S04"):
        assert out["surfaces"][surface]["reconciled"] <= 1e-9
        assert out["surfaces"][surface]["printed"] > 1e-2


def test_report_structure_and_text(monkeypatch):
    monkeypatch.setattr(reconcile, "DEFAULT_GRID", (1.0,))
    report = build_report()
    assert report["ok"]
    assert report["offset_formulas"]["grid"] == [1.0]
    assert report["offset_formulas"]["corrections"] == []
    assert any("twist width" in c["formula"] for c in report["corrections"])
    text = report_text(report)
    assert "chosen twist-width convention: reconciled" in text
