"""Fixtures shared by the test modules, and the precision switch ``scalars``."""

import contextlib

import pytest

from thurston_kit import h2, pants, stretch

#: the only names through which the pants, h2 and stretch kernels reach their scalar functions
SWAPPED = ((pants, "cmath"), (pants, "math"), (h2, "math"), (stretch, "math"))


@contextlib.contextmanager
def scalars(dps):
    """The pants, h2 and stretch kernels at ``dps`` significant digits; yields mpmath.

    mpmath stands in for the ``SWAPPED`` names inside ``mpmath.workdps(dps)``,
    and the names they held before come back on exit, so switches nest.  The
    kernels coerce no value to float or complex, so pass the lengths, twists
    and stretch times as ``mpmath.mpf`` and the closed forms, the complex
    step, the constructive oracle, the stretch vectors and the cube's cloud
    run unchanged at that precision.  The oracle's fixed heights
    (``pants._fixed_heights``) keep the precision they were made at, so the
    cache is cleared on entry and on exit: no result depends on the
    precision of an earlier run.  Every precision change of the tests goes
    through this switch.
    """
    mpmath = pytest.importorskip("mpmath")
    saved = [getattr(module, name) for module, name in SWAPPED]
    pants._fixed_heights.cache_clear()
    try:
        for module, name in SWAPPED:
            setattr(module, name, mpmath)
        with mpmath.workdps(dps):
            yield mpmath
    finally:
        for (module, name), value in zip(SWAPPED, saved):
            setattr(module, name, value)
        pants._fixed_heights.cache_clear()


@pytest.fixture
def fifty_digits():
    """The kernels at 50 significant digits for the whole test (``scalars(50)``); yields mpmath."""
    with scalars(50) as mpmath:
        yield mpmath
