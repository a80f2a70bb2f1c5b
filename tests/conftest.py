"""Shared fixtures."""

import numpy as np
import pytest

from sinailab.systems import DynamicalSystem


@pytest.fixture(autouse=True)
def _raise_on_float_errors():
    """Every test runs with numpy raising FloatingPointError on a division
    by zero, an invalid operation or an overflow, so no silent inf or NaN
    gets through; a test or the package opts out in an explicit
    np.errstate block. numpy's error state is a context variable: forked
    sweep workers inherit it, and the LS table runs each pool thread's
    block in a copy of the caller's context, so in the same state."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        yield


@pytest.fixture
def orbit_calls(monkeypatch):
    """List that records the length n of every DynamicalSystem.orbit call."""
    calls = []
    orbit = DynamicalSystem.orbit

    def counted(self, x0, n, *args, **kwargs):
        calls.append(n)
        return orbit(self, x0, n, *args, **kwargs)

    monkeypatch.setattr(DynamicalSystem, "orbit", counted)
    return calls
