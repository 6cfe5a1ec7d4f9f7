"""Truncated binomial series: valuation, recurrence, derivative identity."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from torsionforge.curves import PreconditionError
from torsionforge.polyring import Poly, is_squarefree
from torsionforge.scalars import gen_binom
from torsionforge.series import (
    check_truncation_valuation,
    truncated_binomial,
    truncation_quotient,
)


def grid(max_m: int = 40):
    """All (d, E, m) with d in {2,3,5}, E in 2..8, gcd(m,d)=1, d(E-1) < m <= max_m."""
    for d in (2, 3, 5):
        for E in range(2, 9):
            for m in range(d * (E - 1) + 1, max_m + 1):
                if gcd(m, d) == 1:
                    yield d, E, m


def test_grid_is_large_enough_to_mean_something():
    assert sum(1 for _ in grid()) > 200


def test_truncated_binomial_is_a_series_prefix():
    # coefficients are exactly the generalized binomials C(m/d, k)
    V = truncated_binomial(7, 2, 2)
    assert V == Poly((1, Fraction(7, 2)))
    V = truncated_binomial(9, 2, 4)
    assert [V[k] for k in range(4)] == [gen_binom(Fraction(9, 2), k) for k in range(4)]


def test_valuation_hypothesis_is_enforced():
    # m must exceed d*(E-1) for the cancellation to reach x^E
    with pytest.raises(PreconditionError, match=r"need m > d\*\(E-1\): m=9, d\*\(E-1\)=12"):
        check_truncation_valuation(9, 4, 4)
    assert check_truncation_valuation(13, 4, 4) is None


def test_valuation_is_exactly_E_on_the_grid():
    for d, E, m in grid():
        check_truncation_valuation(m, d, E)
        diff = Poly((1, 1)) ** m - truncated_binomial(m, d, E) ** d
        assert next(k for k, c in enumerate(diff.coeffs) if c) == E, (d, E, m)


def test_quotient_degree_and_exactness():
    V = truncated_binomial(7, 2, 2)
    q = truncation_quotient(7, 2, 2, V)
    assert q.degree == 5
    assert Poly.x_power(2) * q == Poly((1, 1)) ** 7 - V ** 2
    # the worked constant: x^5 + 7x^4 + 21x^3 + 35x^2 + 35x + 35/4
    assert q == Poly((Fraction(35, 4), 35, 35, 21, 7, 1))


def test_quotient_refuses_a_short_valuation():
    # a wrong top coefficient leaves (1+x)^7 - V^2 divisible by x only
    with pytest.raises(ValueError, match="does not divide"):
        truncation_quotient(7, 2, 2, Poly((1, 3)))


def test_quotients_squarefree_on_the_grid():
    for d, E, m in grid(30):
        assert is_squarefree(truncation_quotient(m, d, E, truncated_binomial(m, d, E))), (d, E, m)


def test_recurrence_with_corrected_tail_term():
    """V_{r,E} = (1+x) V_{r-1,E-1} + C(r-1, E-1) x^(E-1).

    The tail term carries the lower index E-1; writing C(r-1, E) there is
    a classic slip that the (r, E) = (7/2, 2) case already exposes.
    """
    one_plus_x = Poly((1, 1))
    checked = 0
    for d, E, m in grid():
        if E < 2 or m - d <= d * (E - 2):
            continue
        r = Fraction(m, d)
        V = truncated_binomial(m, d, E)
        V_prev = truncated_binomial(m - d, d, E - 1)
        tail = Poly.monomial(gen_binom(r - 1, E - 1), E - 1)
        assert V == one_plus_x * V_prev + tail, (d, E, m)
        wrong_tail = Poly.monomial(gen_binom(r - 1, E), E - 1)
        assert V != one_plus_x * V_prev + wrong_tail or gen_binom(r - 1, E) == gen_binom(r - 1, E - 1)
        checked += 1
    assert checked > 100


def derivative(f):
    """f', coefficient by coefficient."""
    return Poly([k * c for k, c in enumerate(f.coeffs) if k])


def test_derivative_identity_on_the_grid():
    # V_{r,E}' = r * V_{r-1,E-1}
    for d, E, m in grid():
        if m - d <= d * (E - 2):
            continue
        r = Fraction(m, d)
        V = truncated_binomial(m, d, E)
        V_prev = truncated_binomial(m - d, d, E - 1)
        assert derivative(V) == V_prev * r, (d, E, m)


def test_value_at_minus_one_is_never_a_p_integer():
    # for p | d the last term binom(r, E-1) has the highest power of p in
    # its denominator, so nothing in the alternating sum cancels it:
    # p | denominator of V(-1) says v_p(V(-1)) < 0, hence V(-1) != 0
    for d, E, m in grid(30):
        value = truncated_binomial(m, d, E)(Fraction(-1))
        for p in (2, 3, 5):
            if d % p != 0:
                continue
            assert value != 0, (d, E, m, p)
            assert value.denominator % p == 0, (d, E, m, p)
