"""Dense exact-coefficient polynomials: ring laws, division, gcd, squarefree."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsionforge.polyring import (
    DivisibilityError,
    NEG_INFINITY,
    Poly,
    exact_div,
    gcd,
    is_squarefree,
    poly_from_json,
    poly_to_json,
    xgcd,
)
from torsionforge.scalars import GaussianRational

coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=0, max_size=6
)
polys = coeffs.map(lambda cs: Poly(cs))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


# ---------------------------------------------------------------------------
# construction and degree bookkeeping
# ---------------------------------------------------------------------------

def test_trailing_zeros_are_stripped():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)).is_zero
    assert Poly(()).degree == NEG_INFINITY


def test_basic_constructors():
    x = Poly.x()
    assert x.degree == 1 and x(Fraction(7)) == 7
    assert Poly.x_power(4)(Fraction(2)) == 16
    assert Poly.x_minus(Fraction(3))(Fraction(3)) == 0
    assert Poly.monomial(Fraction(5), 2) == Poly((0, 0, 5))
    assert Poly.constant(Fraction(0)).is_zero


def test_leading_coefficient_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.zero().leading_coefficient


def test_out_of_range_coefficient_reads_zero():
    p = Poly((1, 2))
    assert p[5] == 0
    assert p[0] == 1


# ---------------------------------------------------------------------------
# ring laws
# ---------------------------------------------------------------------------

@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Poly.zero()


@given(polys, polys)
def test_degree_of_product(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, st.fractions(min_value=-9, max_value=9, max_denominator=4))
def test_evaluation_is_a_ring_map(p, t):
    q = Poly((1, 2, 1))
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)


@given(polys, st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_product(p, k):
    expected = Poly.one()
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

@given(polys, nonzero_polys)
def test_divmod_invariant(a, b):
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.is_zero or r.degree < b.degree


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1, 1)), Poly.zero())


@given(polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_rejects_remainders():
    with pytest.raises(DivisibilityError):
        exact_div(Poly((1, 0, 1)), Poly((1, 1)))


# ---------------------------------------------------------------------------
# gcd and xgcd
# ---------------------------------------------------------------------------

@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_contains_common_factor(p, q, r):
    g = gcd(p * r, q * r)
    # r divides both inputs, so it divides the gcd
    assert (g % r.monic()).is_zero


@given(nonzero_polys, nonzero_polys)
def test_gcd_is_monic_and_divides_both(p, q):
    g = gcd(p, q)
    assert g.is_monic
    assert (p % g).is_zero and (q % g).is_zero


@given(nonzero_polys, nonzero_polys)
def test_xgcd_bezout_identity(p, q):
    h, s, t = xgcd(p, q)
    assert s * p + t * q == h
    assert h.is_monic
    assert h == gcd(p, q)


def test_xgcd_with_zero():
    h, s, t = xgcd(Poly((2, 4)), Poly.zero())
    assert h == Poly((Fraction(1, 2), 1))
    assert s * Poly((2, 4)) == h


def test_gcd_of_two_zeros_raises():
    with pytest.raises(ValueError):
        gcd(Poly.zero(), Poly.zero())


def test_gcd_of_coprime_cyclotomics_is_one():
    p = Poly((1, 1, 1))       # x^2 + x + 1
    q = Poly((1, 1))          # x + 1
    assert gcd(p, q) == Poly.one()


# ---------------------------------------------------------------------------
# squarefree detection
# ---------------------------------------------------------------------------

def test_is_squarefree_known_cases():
    assert is_squarefree(Poly((-1, 0, 0, 0, 0, 1)))          # x^5 - 1
    assert not is_squarefree(Poly((1, 2, 1)))                # (x+1)^2
    assert not is_squarefree(Poly((0, 0, 1)))                # x^2
    assert is_squarefree(Poly((0, 1)) * Poly((1, 1)) * Poly((-1, 1)))


@given(nonzero_polys.filter(lambda p: p.degree >= 1))
def test_squared_factors_are_detected(p):
    assert not is_squarefree(p * p)


def test_is_squarefree_rejects_constants():
    with pytest.raises(ValueError):
        is_squarefree(Poly.one())


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_derivative_product_rule():
    p = Poly((1, 2, 3))
    q = Poly((-1, 0, 1, 1))
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_valuation_at_zero():
    assert Poly((0, 0, 0, 5, 1)).valuation_at_zero() == 3
    assert Poly((7,)).valuation_at_zero() == 0


# ---------------------------------------------------------------------------
# Gaussian coefficients and serialization
# ---------------------------------------------------------------------------

def test_gaussian_coefficient_arithmetic():
    i = GaussianRational(0, 1)
    p = Poly((i, Fraction(1)))           # x + i
    q = Poly((-i, Fraction(1)))          # x - i
    assert p * q == Poly((1, 0, 1))      # x^2 + 1
    assert p(i) == 2 * i


@given(polys)
def test_poly_json_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_json_is_ascending_strings():
    p = Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    assert poly_to_json(p) == ["35/4", "35", "35", "21", "7", "1"]
