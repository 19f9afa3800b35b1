"""Fixtures shared by the test modules."""

import pytest

from thurston_kit import h2, pants


@pytest.fixture
def fifty_digits(monkeypatch):
    """The pants and h2 kernels at 50 significant digits; yields mpmath.

    mpmath stands in for ``pants.cmath``, ``pants.math`` and ``h2.math``,
    the only names through which the kernels reach their scalar functions;
    pass the lengths as ``mpmath.mpf``.  The kernels coerce no value to
    float or complex, so the closed forms, the complex step and the
    constructive oracle run unchanged.
    """
    mpmath = pytest.importorskip("mpmath")
    for module, name in ((pants, "cmath"), (pants, "math"), (h2, "math")):
        monkeypatch.setattr(module, name, mpmath)
    with mpmath.workdps(50):
        yield mpmath
