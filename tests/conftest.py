"""Fixtures shared by the test modules."""

import pytest

from thurston_kit import h2, pants, stretch


@pytest.fixture
def fifty_digits(monkeypatch):
    """The pants, h2 and stretch kernels at 50 significant digits; yields mpmath.

    mpmath stands in for ``pants.cmath``, ``pants.math``, ``h2.math`` and
    ``stretch.math``, the only names through which the kernels reach their
    scalar functions; pass the lengths (and stretch times) as
    ``mpmath.mpf``.  The kernels coerce no value to float or complex, so
    the closed forms, the complex step, the constructive oracle, the
    stretch's e^s and the closed-form twist width run unchanged.
    """
    mpmath = pytest.importorskip("mpmath")
    for module, name in ((pants, "cmath"), (pants, "math"), (h2, "math"), (stretch, "math")):
        monkeypatch.setattr(module, name, mpmath)
    with mpmath.workdps(50):
        yield mpmath
