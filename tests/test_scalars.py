"""Scalar layer: generalized binomials, primality, Gaussian rationals."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsionforge import scalars
from torsionforge.scalars import (
    GAUSSIAN_I,
    GaussianRational,
    gen_binom,
    is_prime,
    rational_from_str,
    scalar_from_json,
    scalar_to_json,
)

small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


# ---------------------------------------------------------------------------
# gen_binom against the integer oracle
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=12))
def test_gen_binom_matches_math_comb_on_integers(r, k):
    assert gen_binom(r, k) == math.comb(r, k)


def test_gen_binom_half_integer_values():
    # (1/2 choose 2) = (1/2)(-1/2)/2 = -1/8, a classic closed form
    assert gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert gen_binom(Fraction(7, 2), 1) == Fraction(7, 2)
    assert gen_binom(Fraction(7, 2), 0) == 1


@given(st.fractions(min_value=-10, max_value=10, max_denominator=6),
       st.integers(min_value=1, max_value=8))
def test_gen_binom_pascal_identity(r, k):
    # C(r, k) = C(r-1, k-1) + C(r-1, k) holds for arbitrary upper argument
    assert gen_binom(r, k) == gen_binom(r - 1, k - 1) + gen_binom(r - 1, k)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=6),
       st.integers(min_value=1, max_value=12))
def test_gen_binom_steps_from_the_coefficient_below(r, k):
    # one step binom(r, k-1)*(r-k+1)/k of the recurrence gives the falling factorial's value
    assert gen_binom(r, k, gen_binom(r, k - 1)) == gen_binom(r, k)


def test_gen_binom_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        gen_binom(Fraction(3, 2), -1)


# ---------------------------------------------------------------------------
# primality and p-adic valuations
# ---------------------------------------------------------------------------

def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for k in range(-3, 40):
        assert is_prime(k) is (k in primes)


def is_prime_by_trial_division(p: int) -> bool:
    """Reference primality: trial division by every k up to sqrt(p)."""
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def test_is_prime_agrees_with_trial_division_below_20000():
    for p in range(-3, 20000):
        assert is_prime(p) is is_prime_by_trial_division(p), p


# _MR_BOUND = 1287836182261 * 2575672364521, and the least prime above it
# (p - 1 = 2q with q prime below the bound, so Lucas's test proves p prime)
@pytest.mark.parametrize("p", [scalars._MR_BOUND, 3317044064679887385962123, 2**89 - 1])
def test_is_prime_refuses_at_or_above_the_bound(p):
    with pytest.raises(ValueError, match="not decided"):
        is_prime(p)


def test_is_prime_above_the_bound_still_finds_small_factors():
    assert is_prime(2 * scalars._MR_BOUND) is False
    assert is_prime(41 * 3317044064679887385962123) is False


def test_the_prime_above_the_bound_is_prime():
    p = 3317044064679887385962123
    q = (p - 1) // 2
    assert is_prime(q)
    # Lucas: 2^(p-1) = 1 while 2^((p-1)/r) != 1 for both primes r in {2, q}
    assert pow(2, p - 1, p) == 1 and pow(2, q, p) != 1 and pow(2, 2, p) != 1


@pytest.mark.parametrize("p", [3215031751, 3825123056546413051, 1000003 * 1000033, 41 * 43])
def test_is_prime_rejects_strong_pseudoprimes(p):
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7;
    # 3825123056546413051 to every prime base up to 31.
    assert is_prime(p) is False


def _strong_probable_prime(p: int, a: int) -> bool:
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    x = pow(a, t, p)
    return x in (1, p - 1) or any(pow(x, 2**r, p) == p - 1 for r in range(1, s))


def test_is_prime_decides_the_walk_primes():
    # the square-free walk tests the odd numbers from 2**30 - 35, the largest prime below 2**30, down
    assert is_prime(2**30 - 35) and not any(is_prime(p) for p in range(2**30 - 33, 2**30, 2))
    assert [p for p in range(2**30 - 35, 2**30 - 2000, -2) if is_prime(p)] == [
        p for p in range(2**30 - 35, 2**30 - 2000, -2)
        if all(_strong_probable_prime(p, a) for a in scalars._MR_BASES)]


@pytest.mark.parametrize("p", [41, 43, 1000003, 2**31 - 1, 2**61 - 1])
def test_is_prime_accepts_large_primes(p):
    assert is_prime(p) is True


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def test_imaginary_unit_squares_to_minus_one():
    assert GAUSSIAN_I * GAUSSIAN_I == -1
    assert GAUSSIAN_I ** 2 == GaussianRational(-1)
    assert GAUSSIAN_I ** 4 == 1


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_gaussian_multiplicative_inverse(z):
    if z == 0:
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / z
    else:
        assert z * (GaussianRational(1) / z) == 1
        with pytest.raises(TypeError):
            z ** -1


def test_gaussian_mixes_with_fractions():
    z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    assert z + Fraction(1, 2) == GaussianRational(1, Fraction(3, 4))
    assert Fraction(2) * z == GaussianRational(1, Fraction(3, 2))
    assert 2 * z - z == z


def test_gaussian_equality_with_rationals_when_imaginary_part_vanishes():
    assert GaussianRational(Fraction(5, 3)) == Fraction(5, 3)
    with pytest.raises(TypeError):
        hash(GaussianRational(Fraction(5, 3)))
    assert GaussianRational(1, 1) != 1


def test_every_gaussian_operator_by_operand_type():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    zn = z.re * z.re + z.im * z.im
    for w in (3, Fraction(2, 5), GaussianRational(Fraction(-1, 3), 2)):
        g = w if isinstance(w, GaussianRational) else GaussianRational(w)
        n = g.re * g.re + g.im * g.im
        for got, re_part, im_part in (
            (z + w, z.re + g.re, z.im + g.im),
            (w + z, z.re + g.re, z.im + g.im),
            (z - w, z.re - g.re, z.im - g.im),
            (w - z, g.re - z.re, g.im - z.im),
            (z * w, z.re * g.re - z.im * g.im, z.re * g.im + z.im * g.re),
            (w * z, z.re * g.re - z.im * g.im, z.re * g.im + z.im * g.re),
            (z / w, (z.re * g.re + z.im * g.im) / n, (z.im * g.re - z.re * g.im) / n),
            (w / z, (g.re * z.re + g.im * z.im) / zn, (g.im * z.re - g.re * z.im) / zn),
        ):
            assert type(got) is GaussianRational and (got.re, got.im) == (re_part, im_part), w
        assert not z == w and not w == z and z != w and w != z
        assert g == w and w == g and not g != w
    assert -z == GaussianRational(Fraction(-1, 2), Fraction(3, 4))
    assert (z == "1") is False and z != "1"
    with pytest.raises(TypeError):
        z + "x"
    with pytest.raises(TypeError):
        "x" * z
    for zero_division in (lambda: z / 0, lambda: 1 / GaussianRational(0)):
        with pytest.raises(ZeroDivisionError, match="^division by zero Gaussian rational$"):
            zero_division()
    product = GaussianRational(1)
    for k in range(6):
        assert z ** k == product and type(z ** k) is GaussianRational
        product = product * z


def test_gaussian_is_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@given(st.one_of(small_fractions, st.integers(-10**30, 10**30)))
def test_rational_string_round_trip(q):
    assert rational_from_str(scalar_to_json(q)) == q


NON_CANONICAL = [
    "2/2", "+1", "01", "-0", "1e0", " 1", "1 ", " 1 ", "0.5", "1/1", "-2/4", "0/3",
    "1_0", "\u0661", "1e200000", "1/0", "", "-", "1/", "/2", "--1", "1/-2", "1\n",
]


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_rational_from_str_rejects_non_canonical_spellings(text):
    with pytest.raises(ValueError):
        rational_from_str(text)


@pytest.mark.parametrize("text", [t for t in NON_CANONICAL if t not in ("2/2", "-2/4")])
def test_rational_from_str_checks_the_form_before_building_a_number(monkeypatch, text):
    def refuse(*args):
        raise AssertionError("a number was built from %r" % (text,))

    monkeypatch.setattr(scalars, "Fraction", refuse)
    with pytest.raises(ValueError):
        rational_from_str(text)


@pytest.mark.parametrize("obj", [{"re": "1", "im": "0"}, {"re": "0", "im": "0"},
                                 {"re": "2/2", "im": "1"}, {"re": "1", "im": "-0"},
                                 {"re": 1, "im": "1"}, 1, ["1"]])
def test_scalar_from_json_rejects_non_canonical_encodings(obj):
    with pytest.raises(ValueError):
        scalar_from_json(obj)


def test_scalar_to_json_is_canonical():
    assert scalar_to_json(Fraction(4, 2)) == "2"
    assert scalar_to_json(Fraction(-3, 9)) == "-1/3"
    assert scalar_to_json(-7) == "-7" and scalar_to_json(0) == "0"
    assert scalar_to_json(GaussianRational(Fraction(-3, 9), 2)) == {"re": "-1/3", "im": "2"}


@given(st.one_of(small_fractions, gaussians))
def test_scalar_json_round_trip(s):
    assert scalar_from_json(scalar_to_json(s)) == s


def test_scalar_json_collapses_real_gaussians():
    # a Gaussian with zero imaginary part serializes as a plain rational
    assert scalar_to_json(GaussianRational(Fraction(3, 2))) == "3/2"
    encoded = scalar_to_json(GaussianRational(1, -2))
    assert encoded == {"re": "1", "im": "-2"}
