"""Shared fixtures."""

import numpy as np
import pytest

from sinailab.systems import DynamicalSystem


def point_eval(system: DynamicalSystem, x) -> np.ndarray:
    """f(x) at one point, through the batch map."""
    return system.eval_batch(np.atleast_1d(np.asarray(x, float))[None, :])[0]


def point_differential(system: DynamicalSystem, x) -> np.ndarray:
    """Df(x) at one point, (d, d), through the batch differential."""
    return system.differential_batch(np.atleast_1d(np.asarray(x, float))[None, :])[..., 0]


def displacement(space, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest vector from a to b in the phase space, wrapping periodic
    coordinates."""
    d = np.atleast_2d(b) - np.atleast_2d(a)
    w = space.widths()
    for i, per in enumerate(space.periodic):
        if per:
            d[:, i] = (d[:, i] + 0.5 * w[i]) % w[i] - 0.5 * w[i]
    return d


@pytest.fixture(autouse=True)
def _raise_on_float_errors():
    """Every test runs with numpy raising FloatingPointError on a division
    by zero, an invalid operation or an overflow, so no silent inf or NaN
    gets through; a test or the package opts out in an explicit
    np.errstate block. numpy's error state is a context variable, which a
    forked process inherits: sweep workers and the LS table's helper
    processes run in the same state."""
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
