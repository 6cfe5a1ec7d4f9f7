"""Truncated binomial series: valuation, recurrence, derivative identity."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

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
    # coefficients are exactly the generalized binomials C(m/d, k), against the Fraction reference
    V = truncated_binomial(7, 2, 2)
    assert V == Poly((1, Fraction(7, 2)))
    # the grid, and rows where the step m - d*(k-1) changes sign (m < d*(E-1), outside the gate)
    for d, E, m in [*grid(), (2, 12, 1), (3, 12, 7), (7, 9, 44)]:
        r = Fraction(m, d)
        assert truncated_binomial(m, d, E) == Poly([gen_binom(r, k) for k in range(E)]), (d, E, m)


@pytest.mark.parametrize("E", [66, 200, 514])
def test_long_truncated_binomial_rows_match_the_fraction_recurrence(E):
    # gen_binom stepped from the coefficient below, so a row of E costs E Fraction steps
    for d, m in [(2, 2 * E - 1), (3, 3 * E - 2), (7, 7 * E + 3)]:
        r, row = Fraction(m, d), [Fraction(1)]
        for k in range(1, E):
            row.append(gen_binom(r, k, row[-1]))
        V = truncated_binomial(m, d, E)
        assert V == Poly(row) and V.degree == E - 1, (d, E, m)


def _count_fractions_built(monkeypatch) -> list:
    """Count every Fraction built from here on: by ``Fraction(...)``, and on
    Python 3.12+ also by the arithmetic's ``_from_coprime_ints``."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):
        from_coprime = Fraction._from_coprime_ints.__func__

        def counting_from_coprime(cls, n, d):
            built.append((n, d))
            return from_coprime(cls, n, d)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_coprime))
    return built


def test_the_binomial_row_and_the_shaped_polynomials_build_no_fraction(monkeypatch):
    """A counter, not a timer: the row steps on integer pairs, and x^k and
    x - a go straight to their stored integers."""
    a = Fraction(-7, 3)
    built = _count_fractions_built(monkeypatch)
    V, X, L = truncated_binomial(37, 3, 12), Poly.x_power(75), Poly.x_minus(a)
    assert built == []
    assert gen_binom(Fraction(37, 3), 2) and built  # the counter sees the Fraction reference
    monkeypatch.undo()
    assert V == Poly([gen_binom(Fraction(37, 3), k) for k in range(12)])
    assert X == Poly((0,) * 75 + (1,)) and L == Poly((Fraction(7, 3), 1))


def test_valuation_hypothesis_is_enforced():
    # m must exceed d*(E-1) for the cancellation to reach x^E
    assert check_truncation_valuation(9, 4, 4) is False
    assert check_truncation_valuation(13, 4, 4) is True


def test_valuation_is_exactly_E_on_the_grid():
    for d, E, m in grid():
        assert check_truncation_valuation(m, d, E)
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
        tail = Poly.x_power(E - 1) * gen_binom(r - 1, E - 1)
        assert V == one_plus_x * V_prev + tail, (d, E, m)
        wrong_tail = Poly.x_power(E - 1) * gen_binom(r - 1, E)
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
