"""Truncated binomial series (1+x)**r cut to a fixed length.

For a noninteger rational exponent r = m/d and a truncation length E,
the series V(x) = sum_{k<E} binom(r, k) x**k is the unique polynomial of
degree < E with (1+x)**m - V**d vanishing to order exactly E at x = 0,
provided m > d*(E-1).  That exact vanishing order is what lets a curve
of degree n = m - d*E carry a point whose pole divisor reaches order m,
so this module is the engine room of the n+e*d constructions.  The
gate :func:`check_truncation_valuation` states the m > d*(E-1)
hypothesis, and its docstring proves the exact order; the congruent-step
row of ``constructors.reachability_verdict`` decides with it.  A build
then makes two calls, once each: :func:`truncated_binomial` for V, and
:func:`truncation_quotient`, one exact division of (1+x)**m - V**d by
x**E.  Each takes (m, d, E) as given: callers guarantee d >= 2, m >= 1,
E >= 1 and gcd(m, d) = 1 (the verdict's shape check n > d >= 2,
gcd(n, d) = 1 and its row's E = m - n > 0 with d | E prove all four).

Two classical identities hold; acceptance criterion 7 checks them:

* recurrence: V_{r,E}(x) = (1+x) * V_{r-1,E-1}(x) + binom(r-1, E-1) * x**(E-1)
* derivative: V_{r,E}'(x) = r * V_{r-1,E-1}(x)

(The correction term of the recurrence carries binom(r-1, E-1); writing
binom(r-1, E) there is a classic slip, which the test suite pins down.)
"""

from __future__ import annotations

from .polyring import Poly, power_series
# gen_binom is not called here, but bench/tracer.py hooks series.gen_binom by name
from .scalars import gen_binom


def truncated_binomial(m: int, d: int, E: int) -> Poly:
    """The polynomial sum_{k<E} binom(m/d, k) x**k, of degree exactly E-1: the power series
    (1+x)**(m/d) cut at x**E, by ``polyring.power_series`` at T = 1 + x and r = m/d."""
    return power_series(Poly((1, 1)), (m, d), (1, 1), E)


def check_truncation_valuation(m: int, d: int, E: int) -> bool:
    """Whether m > d*(E-1).

    Under that hypothesis (1+x)**m - V**d, V the truncated series,
    vanishes to order exactly E at x = 0: with V(0) = 1 and T =
    (1+x)**(m/d) - V = binom(m/d, E)*x**E + O(x**(E+1)), (1+x)**m - V**d
    = d*V**(d-1)*T + O(T**2) = d*binom(m/d, E)*x**E + O(x**(E+1)), and
    binom(m/d, E) != 0 because m/d is not an integer.  The difference is
    never zero: deg V**d = d*(E-1) < m.
    """
    return m > d * (E - 1)


def truncation_quotient(m: int, d: int, E: int, v: Poly) -> Poly:
    """((1+x)**m - v**d) / x**E, exact, for v = ``truncated_binomial(m, d, E)``.

    Under the hypothesis of :func:`check_truncation_valuation` this is a
    degree m - E polynomial; the division is exact rather than trusting
    that, so a short vanishing order raises ValueError.
    """
    diff = Poly((1, 1)) ** m - v ** d
    return diff >> E
