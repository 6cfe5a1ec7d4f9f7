"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from torsionforge import polyring


@pytest.fixture
def gcd_calls(monkeypatch):
    """Count the calls that reach the exact Euclidean ``polyring.gcd``."""
    calls = []
    exact = polyring.gcd

    def counted(f, g):
        calls.append(f)
        return exact(f, g)

    monkeypatch.setattr(polyring, "gcd", counted)
    return calls
