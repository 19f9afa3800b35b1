"""Fixtures shared by the test modules; puts ``tools`` on ``sys.path`` for the
precision switch ``scalars`` of ``tools/mp_reference.py`` and the tools' tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from mp_reference import scalars  # noqa: E402


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Skip, not fail, a test whose 50-digit reference finds no mpmath."""
    try:
        return (yield)
    except ModuleNotFoundError as exc:
        if exc.name != "mpmath":
            raise
        pytest.skip("mpmath is not installed")


@pytest.fixture
def fifty_digits():
    """The kernels at 50 significant digits for the whole test (``scalars(50)``); yields mpmath."""
    pytest.importorskip("mpmath")
    with scalars(50) as mpmath:
        yield mpmath
