"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from torsionforge import polyring


@pytest.fixture
def euclid_primes(monkeypatch):
    """The prime of each modular Euclid that ``polyring.is_squarefree`` runs."""
    primes = []
    euclid = polyring._coprime_mod_p

    def counted(a, b, p):
        primes.append(p)
        return euclid(a, b, p)

    monkeypatch.setattr(polyring, "_coprime_mod_p", counted)
    return primes
