"""Shared fixtures."""

import pytest

from sinailab.systems import DynamicalSystem


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
