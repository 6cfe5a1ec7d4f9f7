"""Dense polynomials over Q: ring laws, division, gcd, squarefree."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd as gcd_int, lcm

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from torsionforge.polyring import (
    NEG_INFINITY,
    Poly,
    exact_div,
    gcd,
    is_squarefree,
    poly_from_json,
    poly_to_json,
    xgcd,
)
from torsionforge.scalars import GaussianRational, is_prime, repeated_squaring

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
    x = Poly.x_power(1)
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


@given(polys, st.integers(min_value=0, max_value=9))
def test_power_matches_repeated_product(p, k):
    expected = Poly.one()
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


@pytest.mark.parametrize("p", [Poly.zero(), Poly.one(), Poly((Fraction(-2, 3),)), Poly((1, -1)),
                               Poly((0, Fraction(-2, 3))), Poly.x_minus(Fraction(3, 10**20 + 39))],
                         ids=["zero", "one", "constant", "linear", "linear-c0-zero", "linear-wide"])
def test_power_of_edge_operands(p):
    expected = Poly.one()
    for k in range(10):
        assert p ** k == expected
        expected = expected * p
    assert p ** 0 == Poly.one()


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
    with pytest.raises(ValueError, match="does not divide"):
        exact_div(Poly((1, 0, 1)), Poly((1, 1)))


# ---------------------------------------------------------------------------
# gcd and xgcd
# ---------------------------------------------------------------------------

@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_contains_common_factor(p, q, r):
    g = gcd(p * r, q * r)
    # r divides both inputs, so it divides the gcd
    assert divmod(g, r.monic())[1].is_zero


@given(nonzero_polys, nonzero_polys)
def test_gcd_is_monic_and_divides_both(p, q):
    g = gcd(p, q)
    assert g.is_monic
    assert divmod(p, g)[1].is_zero and divmod(q, g)[1].is_zero


@given(nonzero_polys, nonzero_polys)
def test_xgcd_bezout_identity(p, q):
    h, s, t = xgcd(p, q)
    assert s * p + t * q == h
    assert h.is_monic
    assert divmod(p, h)[1].is_zero and divmod(q, h)[1].is_zero


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


P30 = 2**30 - 35           # the largest prime below 2**30, the first prime of the walk
P30_NEXT = 2**30 - 41      # the largest prime below P30


def derivative(f):
    """f', for the cross-checks of is_squarefree against gcd(f, f')."""
    return Poly([k * c for k, c in enumerate(f.coeffs) if k])


@given(nonzero_polys.filter(lambda p: p.degree >= 1), nonzero_polys, st.booleans())
def test_is_squarefree_agrees_with_the_euclidean_gcd(p, q, square):
    f = p * q * q if square else p * q
    assert is_squarefree(f) == (gcd(f, derivative(f)).degree == 0)


@pytest.mark.parametrize(
    "coeffs, expected, tried",
    [
        ((Fraction(1, P30), 3, 1), True, [P30_NEXT]),                # F = (1, 3p, p)
        ((Fraction(1, P30), 0, Fraction(1, P30)), True, [P30]),      # (x^2 + 1)/p
        ((-1, 0, 0, P30), True, [P30_NEXT]),                         # p | lc(f)
        ((Fraction(4, 3), 0, P30 * 5), True, [P30_NEXT]),            # p | numerator of lc(f)
        ((-P30, 0, 1), True, [P30, P30_NEXT]),                       # x^2 - p is x^2 mod p
        ((1, 2, 1), False, [P30]),                                   # (x + 1)^2
    ],
    ids=["p-in-denominator", "p-in-every-denominator", "p-divides-lc", "p-divides-lc-numerator",
         "square-mod-p-only", "repeated-root"],
)
def test_former_fallbacks_are_decided_modulo_primes(euclid_primes, coeffs, expected, tried):
    # each case once fell back to a Euclid over Q; (x + 1)^2 has |Res(f, f')| = 4, so one prime
    # dividing it proves False
    assert is_squarefree(Poly(coeffs)) is expected
    assert euclid_primes == tried


def test_square_free_rational_input_never_reaches_the_exact_gcd(euclid_primes):
    for f in (Poly((-1, 0, 0, 0, 0, 1)), Poly((Fraction(1, 3), 1, 0, Fraction(-2, 7))),
              Poly((P30 + 1, 0, 1)), Poly((0, 1)) * Poly((1, 1)) * Poly((-1, 1))):
        assert is_squarefree(f)
    assert euclid_primes == [P30] * 4


def test_hostile_leading_coefficient_walks_two_primes(euclid_primes):
    # the Euclid over Q this replaced took seconds here; P30 divides lc(f) and is skipped
    rng = random.Random(121)
    f = Poly([rng.randint(-9, 9) for _ in range(121)] + [3 * P30])
    assert is_squarefree(f)
    assert euclid_primes == [P30_NEXT]


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nonzero_polys.filter(lambda p: p.degree >= 1), nonzero_polys, st.booleans(),
       st.sampled_from((1, P30, -3 * P30, P30 * P30_NEXT)))
def test_primes_walked_are_bounded_by_the_input(euclid_primes, g, h, square, hostile):
    euclid_primes.clear()
    f = g * g * h if square else g * h
    f = Poly(f.coeffs[:-1] + (f.coeffs[-1] * hostile,))
    assert is_squarefree(f) == (gcd(f, derivative(f)).degree == 0)
    den = lcm(*(c.denominator for c in f.coeffs))
    F = [(c * den).numerator for c in f.coeffs]
    n = len(F) - 1
    bound = sum(c * c for c in F) ** (n - 1) * sum((k * c) ** 2 for k, c in enumerate(F)) ** n
    walked = [q for q in range(P30, min(euclid_primes) - 1, -1) if is_prime(q)]
    skipped = [q for q in walked if F[-1] % q == 0]
    assert sorted(set(walked) - set(skipped), reverse=True) == euclid_primes
    # every walked prime exceeds 2**29, so k failing primes have a product whose square
    # exceeds 2**(58k); once 58k >= bound.bit_length() it exceeds the bound and proves False
    assert len(walked) <= bound.bit_length() // 58 + 1 + len(skipped)


# ---------------------------------------------------------------------------
# coefficients over Q only, and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [GaussianRational(0, 1), GaussianRational(2, 0), 0.5, "1"])
def test_coefficients_are_rational_only(c):
    with pytest.raises(TypeError):
        Poly((1, c))
    with pytest.raises(TypeError):
        Poly((1, 1)) * c


def test_a_gaussian_coefficient_does_not_parse():
    with pytest.raises(TypeError):
        poly_from_json(["1", {"re": "0", "im": "1"}])


def test_fraction_coefficients_are_kept_as_they_are():
    half = Fraction(1, 2)
    c = Poly((half, 3)).coeffs[0]
    assert c == half and type(c) is Fraction
    assert all(type(c) is Fraction for c in Poly((1, True, half)).coeffs)


@given(polys)
def test_poly_json_round_trip(p):
    assert poly_from_json(poly_to_json(p)) == p


def test_the_empty_encoding_is_the_zero_polynomial():
    p = poly_from_json([])
    _assert_canonical(p)
    assert p == Poly.zero() and p.is_zero


def test_poly_json_is_ascending_strings():
    p = Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    assert poly_to_json(p) == ["35/4", "35", "35", "21", "7", "1"]


# ---------------------------------------------------------------------------
# the integer kernels of * and divmod, against a plain Fraction reference
# ---------------------------------------------------------------------------

def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _ref_mul(a, b):
    """Schoolbook product on coefficient lists, one Fraction operation at a time."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    """Schoolbook long division on coefficient lists."""
    rem = list(a)
    dv = len(b) - 1
    if len(rem) - 1 < dv:
        return [], _strip(rem)
    quot = [Fraction(0)] * (len(rem) - dv)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + dv] / b[-1]
        quot[k] = q
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    return _strip(quot), _strip(rem[:dv])


def _assert_canonical(p):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    # the stored form: integer numerators over one positive denominator, in lowest terms
    assert p._den > 0 and gcd_int(p._den, *p._num) == 1
    assert not p._num or p._num[-1] != 0


# Unrelated and large denominators and negative coefficients.
wide_fractions = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
)
wide_coeffs = st.lists(wide_fractions, min_size=0, max_size=7)
wide_nonzero = wide_coeffs.filter(lambda cs: any(cs))


@given(wide_coeffs)
@example([])
@example([Fraction(0), Fraction(-3, 9), Fraction(0), Fraction(-4, 2), Fraction(7, 10**25)])
def test_poly_json_spells_each_coefficient_as_str_fraction(cs):
    # written from the stored numerators, without building a Fraction, in str(Fraction)'s spelling
    f = Poly(cs)
    assert poly_to_json(f) == [str(c) for c in f.coeffs]


@given(wide_coeffs, wide_coeffs)
def test_mul_kernel_matches_reference(a, b):
    p = Poly(a) * Poly(b)
    _assert_canonical(p)
    assert list(p.coeffs) == _ref_mul(_strip(a), _strip(b))


@given(wide_coeffs, wide_nonzero)
def test_divmod_kernel_matches_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    q, r = divmod(pa, pb)
    _assert_canonical(q)
    _assert_canonical(r)
    assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(_strip(a), _strip(b))
    assert q * pb + r == pa
    assert r.degree < pb.degree


@pytest.mark.parametrize(
    "a, b",
    [
        ((), (3, 1)),                                                # zero dividend
        ((5,), (Fraction(2, 7),)),                                   # constant by degree 0
        ((1, 2, 3, 4), (Fraction(-3, 5),)),                          # degree-0 divisor
        ((1, Fraction(1, 3)), (1, 2, Fraction(5, 11))),              # dividend shorter
        ((Fraction(1, 6), 0, Fraction(-7, 10), 0, 1), (Fraction(2, 9), Fraction(-4, 15))),
        ((Fraction(3, 10**20 + 39), -1, 0, Fraction(5, 7)), (1, 0, Fraction(-6, 13))),
        ((Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 5), Fraction(1, 7)), (0, -2, Fraction(4, 3))),
        ((1, 0, 0, 0, 0, 0, 0, 1), (1, 1)),                          # monic, integral
        ((1, 2), (3, -4)),                                           # lead -4, e = 1
        ((Fraction(1, 3), 0, 2, -1, 5), (1, 1, Fraction(-7, 2))),    # lead -7, e = 3
    ],
)
def test_kernels_on_edge_operands(a, b):
    pa, pb = Poly(a), Poly(b)
    for p in (pa * pb, pb * pa, *divmod(pa, pb)):
        _assert_canonical(p)
    assert list((pa * pb).coeffs) == _ref_mul(list(pa.coeffs), list(pb.coeffs))
    q, r = divmod(pa, pb)
    assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(list(pa.coeffs), list(pb.coeffs))
    assert q * pb + r == pa and r.degree < pb.degree


def test_mul_by_zero_and_constants():
    p = Poly((Fraction(1, 3), -2, Fraction(5, 4)))
    assert (p * Poly.zero()).is_zero and (Poly.zero() * p).is_zero
    assert p * Poly.one() == p
    assert p * Poly((Fraction(-4, 5),)) == p * Fraction(-4, 5)


# ---------------------------------------------------------------------------
# evaluation and linear powers on integer numerators, against Fraction references
# ---------------------------------------------------------------------------

def _ref_eval(cs, t):
    """Horner's rule, one Fraction operation at a time."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * t + c
    return acc


@given(wide_coeffs, st.one_of(st.integers(-10**20, 10**20), wide_fractions))
@example([], Fraction(-7, 10**25 + 13))
@example([Fraction(5, 3), 1, 2], 0)
def test_evaluation_kernel_matches_reference(cs, t):
    got = Poly(cs)(t)
    assert type(got) is Fraction
    assert got == _ref_eval([Fraction(c) for c in cs], Fraction(t))


@pytest.mark.parametrize("t", [1.5, GaussianRational(0, 1), GaussianRational(2, 0), "1"])
@pytest.mark.parametrize("p", [Poly((1, Fraction(-2, 3), 3)), Poly.zero()], ids=["quadratic", "zero"])
def test_evaluation_takes_rationals_only(p, t):
    with pytest.raises(TypeError):
        p(t)


@given(st.tuples(wide_fractions, wide_fractions.filter(bool)), st.integers(min_value=0, max_value=12))
def test_linear_power_kernel_matches_repeated_product(c, k):
    base = Poly(c)
    expected = [Fraction(1)]
    for _ in range(k):
        expected = _ref_mul(expected, list(base.coeffs))
    p = base ** k
    _assert_canonical(p)
    assert list(p.coeffs) == expected


@given(st.tuples(wide_fractions, wide_fractions.filter(bool)), st.integers(min_value=0, max_value=60))
@example((Fraction(0), Fraction(1)), 0)
@example((Fraction(0), Fraction(-3, 7)), 41)
@example((Fraction(-5, 2), Fraction(-1)), 60)
def test_linear_power_row_matches_repeated_squaring(c, k):
    """The binomial row stepped by C(k, j+1) = C(k, j)*(k - j) // (j + 1)
    equals the binary method's repeated products, with x**0 = 1."""
    base = Poly(c)
    p = base ** k
    _assert_canonical(p)
    assert p == (repeated_squaring(base, k) if k else Poly.one())


def test_linear_power_needs_no_binomial_coefficient(monkeypatch):
    def refuse(*args):
        raise AssertionError("math.comb called with %r" % (args,))

    monkeypatch.setattr(math, "comb", refuse)
    assert Poly.x_power(1) ** 6400 == Poly.x_power(6400)
    assert Poly((1, 1)) ** 5 == Poly((1, 5, 10, 10, 5, 1))
    assert Poly((-3, 2)) ** 3 == Poly((-27, 54, -36, 8))

