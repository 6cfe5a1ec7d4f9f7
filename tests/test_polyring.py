"""Dense polynomials over Q: ring laws, division, gcd, squarefree."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd as gcd_int, lcm
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from torsionforge import polyring
from torsionforge.polyring import (
    NEG_INFINITY,
    Poly,
    combine,
    gcd,
    is_scaled_power,
    is_spot_sum,
    is_squarefree,
    poly_from_json,
    poly_from_pairs,
    poly_to_json,
    power_series,
    xgcd,
)
from torsionforge.scalars import (
    GaussianRational,
    is_prime,
    rational_from_str,
    repeated_squaring,
    scalar_from_json,
)
from test_scalars import NON_CANONICAL

coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=0, max_size=6
)
polys = coeffs.map(lambda cs: Poly(cs))
nonzero_polys = polys.filter(bool)


# ---------------------------------------------------------------------------
# construction and degree bookkeeping
# ---------------------------------------------------------------------------

def test_trailing_zeros_are_stripped():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert not Poly((0, 0))
    assert Poly(()).degree == NEG_INFINITY


def test_basic_constructors():
    x = Poly.x_power(1)
    assert x.degree == 1 and x(Fraction(7)) == 7
    assert Poly.x_power(4)(Fraction(2)) == 16
    assert Poly.x_minus(Fraction(3))(Fraction(3)) == 0
    with pytest.raises(ValueError, match="monomial degree must be nonnegative"):
        Poly.x_power(-1)


def test_x_power_and_x_minus_are_the_polynomials_they_spell():
    for k in range(301):
        assert Poly.x_power(k) == Poly((0,) * k + (1,))
    for a in (0, 1, -1, 12, -12, True, Fraction(7, 3), Fraction(-7, 3), Fraction(1, 12), Fraction(-5, 4)):
        assert Poly.x_minus(a) == Poly((-a, 1)), a


@pytest.mark.parametrize("pairs, num, den", [
    ([(1, 6), (1, 10), (1, 15)], (5, 3, 2), 30),  # lcm 30 of denominators sharing 2, 3 and 5
    ([(1, 6), (1, 2)], (1, 3), 6),
    ([(1, 4), (3, 4), (1, 12)], (3, 9, 1), 12),
    ([(2, 6), (4, 6)], (1, 2), 3),  # pairs not in lowest terms, one common factor 2 left over
    ([(3, 9), (6, 4), (0, 8)], (2, 9), 6),  # a trailing zero dropped
    ([(-4, 6), (2, 2)], (-2, 3), 3),
    ([(0, 6), (0, 4)], (), 1),
    ([], (), 1),
])
def test_poly_from_pairs_gives_lowest_terms(pairs, num, den):
    p = poly_from_pairs(pairs)
    assert (p._num, p._den) == (num, den)
    assert p == Poly([Fraction(n, d) for n, d in pairs])


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 60)), max_size=8))
def test_poly_from_pairs_is_the_constructor_on_fractions(pairs):
    p = poly_from_pairs(pairs)
    assert p == Poly([Fraction(n, d) for n, d in pairs])
    assert math.gcd(p._den, *p._num) == 1 and (not p._num or p._num[-1])


def test_leading_coefficient_of_zero_raises():
    with pytest.raises(ValueError):
        Poly().leading_coefficient


def test_out_of_range_coefficient_reads_zero():
    p, h = Poly((1, 2)), Poly((Fraction(1, 3), Fraction(-2, 3)))
    assert p[5] == 0 and p[2] == 0 and p[-1] == 0
    assert p[0] == 1 and h[1] == Fraction(-2, 3) and h[-1] == h[2] == 0
    assert Poly()[0] == Poly()[-1] == Poly()[3] == 0
    assert all(type(c[k]) is Fraction for c in (p, h, Poly()) for k in (-1, 0, 1, 5))


@pytest.mark.parametrize("use", [iter, list, tuple, Poly, lambda p: 3 in p, lambda p: [c for c in p]],
                         ids=["iter", "list", "tuple", "Poly", "in", "comprehension"])
def test_a_poly_is_not_iterable(use):
    """[k] reads 0 past the degree, so iteration by __getitem__ would never
    end; every iterating use raises TypeError instead."""
    with pytest.raises(TypeError):
        use(Poly((1, 2)))


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
    assert p - p == Poly()


@given(polys, polys)
def test_degree_of_product(p, q):
    if not p or not q:
        assert not p * q
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, st.fractions(min_value=-9, max_value=9, max_denominator=4))
def test_evaluation_is_a_ring_map(p, t):
    q = Poly((1, 2, 1))
    assert (p + q)(t) == p(t) + q(t)
    assert (p * q)(t) == p(t) * q(t)


@given(polys, st.integers(min_value=0, max_value=9))
def test_power_matches_repeated_product(p, k):
    expected = Poly((1,))
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


@pytest.mark.parametrize("p", [Poly(), Poly((1,)), Poly((Fraction(-2, 3),)), Poly((1, -1)),
                               Poly((0, Fraction(-2, 3))), Poly.x_minus(Fraction(3, 10**20 + 39))],
                         ids=["zero", "one", "constant", "linear", "linear-c0-zero", "linear-wide"])
def test_power_of_edge_operands(p):
    expected = Poly((1,))
    for k in range(10):
        assert p ** k == expected
        expected = expected * p
    assert p ** 0 == Poly((1,))


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

@given(polys, nonzero_polys)
def test_divmod_invariant(a, b):
    q, r = divmod(a, b)
    assert a == q * b + r
    assert not r or r.degree < b.degree


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1, 1)), Poly())


@given(polys, nonzero_polys, st.integers(0, 4))
def test_exact_div_inverts_multiplication(a, b, k):
    """Exact division: divmod of a product by a factor, and >> of a multiple of x**k;
    the shifts keep the stored form in lowest terms with no normalising gcd."""
    assert divmod(a * b, b) == (a, Poly())
    assert (a << k) >> k == a
    assert a << k == a * Poly.x_power(k)
    _assert_canonical(a << k)
    _assert_canonical((a << k) >> k)


def test_exact_div_rejects_remainders():
    assert divmod(Poly((1, 0, 1)), Poly((1, 1)))[1] == Poly((2,))
    # x + x**3 is divisible by x but not by x**2, and >> refuses a nonzero dropped term
    assert Poly((0, 1, 0, 1)) >> 1 == Poly((1, 0, 1))
    with pytest.raises(ValueError, match="does not divide"):
        Poly((0, 1, 0, 1)) >> 2


@pytest.mark.parametrize("shift", [lambda p, k: p << k, lambda p, k: p >> k], ids=["<<", ">>"])
@pytest.mark.parametrize("k", [-1, -2, -7])
def test_negative_shift_counts_are_refused(shift, k):
    """As for ``int``: x**2 >> -1 was 1 and q << -2 was q, silently."""
    for p in (Poly.x_power(2), Poly((Fraction(1, 2), 3)), Poly()):
        with pytest.raises(ValueError, match="^negative shift count$"):
            shift(p, k)


def test_monic_of_zero_raises_value_error():
    with pytest.raises(ValueError, match="^the zero polynomial has no leading coefficient$"):
        Poly().monic()
    assert Poly((2, 4)).monic() == Poly((Fraction(1, 2), 1))


# ---------------------------------------------------------------------------
# gcd and xgcd
# ---------------------------------------------------------------------------

@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_contains_common_factor(p, q, r):
    g = gcd(p * r, q * r)
    # r divides both inputs, so it divides the gcd
    assert not divmod(g, r)[1]


@given(nonzero_polys, nonzero_polys)
def test_gcd_is_monic_and_divides_both(p, q):
    g = gcd(p, q)
    assert g.is_monic
    assert not divmod(p, g)[1] and not divmod(q, g)[1]


@given(nonzero_polys, nonzero_polys)
def test_xgcd_bezout_identity(p, q):
    h, s, t = xgcd(p, q)
    assert s * p + t * q == h
    assert h.is_monic
    assert not divmod(p, h)[1] and not divmod(q, h)[1]


def test_xgcd_with_zero():
    h, s, t = xgcd(Poly((2, 4)), Poly())
    assert h == Poly((Fraction(1, 2), 1))
    assert s * Poly((2, 4)) == h


def test_gcd_of_two_zeros_raises():
    with pytest.raises(ValueError):
        gcd(Poly(), Poly())


def test_gcd_of_coprime_cyclotomics_is_one():
    p = Poly((1, 1, 1))       # x^2 + x + 1
    q = Poly((1, 1))          # x + 1
    assert gcd(p, q) == Poly((1,))


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
        is_squarefree(Poly((1,)))


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


class _Walked(Exception):
    """Raised in place of the modular walk, to tell the integer-gcd screen's answers apart."""


def _screen_proves(f) -> bool:
    """Whether is_squarefree(f) answers without walking a prime: its integer gcd proved f square-free."""
    def walk(a, b, p):
        raise _Walked

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "_coprime_mod_p", walk)
        try:
            return is_squarefree(f)
        except _Walked:
            return False


def _lc_times(p, c):
    return Poly(p.coeffs[:-1] + (p.coeffs[-1] * c,))


# scalings that put p = P30, the walk's first prime, into a leading coefficient or a denominator
HOSTILE_SCALES = st.sampled_from((1, P30, -3 * P30, Fraction(1, P30), Fraction(-7, P30 * P30_NEXT)))


@settings(deadline=None)
@given(nonzero_polys.filter(lambda p: p.degree >= 1), nonzero_polys, HOSTILE_SCALES, HOSTILE_SCALES)
def test_the_integer_gcd_screen_never_passes_a_square(g, h, lc, scale):
    f = _lc_times(g, lc) ** 2 * h * scale
    assert not _screen_proves(f)
    assert not is_squarefree(f)


@settings(deadline=None)
@given(nonzero_polys.filter(lambda p: p.degree >= 1), HOSTILE_SCALES, HOSTILE_SCALES)
@example(Poly((Fraction(21, 2), Fraction(-56, 5), Fraction(63, 5), Fraction(21, 2))), 1, 1)
def test_the_integer_gcd_screen_agrees_with_the_walk(f, lc, scale):
    # the screen may decline a square-free f (here 21/2*x^3 + ... does, by its content), never misjudge one
    f = _lc_times(f, lc) * scale
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "_SCREEN_BITS", -1)
        walked = is_squarefree(f)
    assert is_squarefree(f) == walked
    assert walked or not _screen_proves(f)


@pytest.mark.parametrize("bits, gcds", [(16, 1), (256, 1), (257, 0), (512, 0)])
def test_one_integer_gcd_runs_up_to_the_256_bit_cap_and_none_past_it(monkeypatch, bits, gcds):
    f = Poly((1, 2 ** (bits - 1), 0, 0, 0, 1))  # x^5 + 2^(bits-1)*x + 1: its widest numerator has `bits` bits
    calls = []

    def counted(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(polyring, "math", SimpleNamespace(gcd=counted))
    assert is_squarefree(f)
    assert len(calls) == gcds
    assert _screen_proves(f) == bool(gcds)


# ---------------------------------------------------------------------------
# the identity kernel L == lc(L)*(x - a)**k*u, against its expansion
# ---------------------------------------------------------------------------

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _expanded_match(L, a, k, u) -> bool:
    return bool(L) and L == Poly.x_minus(a) ** k * u * L.leading_coefficient


@settings(deadline=None, max_examples=300)
@given(small_rationals, small_rationals, st.integers(0, 9), small_rationals.filter(bool), st.booleans(),
       st.sampled_from(("exact", "perturbed", "wrong-root", "cut-short", "zero", "wrong-k")), st.data())
def test_the_identity_kernel_matches_the_expansion(a, w, k, A, link, miss, data):
    u = Poly.x_minus(w) if link else Poly((1,))
    L = Poly.x_minus(a) ** k * u * A
    if miss == "perturbed":
        i = data.draw(st.integers(0, L.degree))
        L = L + Poly.x_power(i) * data.draw(small_rationals.filter(bool))
    elif miss == "wrong-root":
        L = Poly.x_minus(a + data.draw(small_rationals.filter(bool))) ** k * u * A
    elif miss == "cut-short":
        L = L - Poly.x_power(L.degree) * A  # the leading term cancels, so the degree drops
    elif miss == "zero":
        L = Poly()
    elif miss == "wrong-k":
        k += data.draw(st.sampled_from((-1, 1)))
    k = max(k, 0)
    assert is_scaled_power(L, a, k, u) == _expanded_match(L, a, k, u)
    if miss == "exact":
        assert is_scaled_power(L, a, k, u)


def test_the_identity_kernel_near_misses():
    a, w = Fraction(-3, 7), Fraction(5, 2)
    for u in (Poly((1,)), Poly.x_minus(w)):
        L = Poly.x_minus(a) ** 6 * u * Fraction(-4, 9)
        assert is_scaled_power(L, a, 6, u)
        assert not is_scaled_power(L, a, 5, u) and not is_scaled_power(L, a, 7, u)
        assert not is_scaled_power(L, -a, 6, u)
        assert not is_scaled_power(L + Poly((Fraction(1, 10**30),)), a, 6, u)
        assert not is_scaled_power(Poly(), a, 6, u)
    assert not is_scaled_power(Poly.x_minus(a) ** 7, a, 6, Poly.x_minus(w))
    assert is_scaled_power(Poly.x_minus(a) ** 7, a, 6, Poly.x_minus(a))


# ---------------------------------------------------------------------------
# coefficients over Q only, and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [GaussianRational(0, 1), GaussianRational(2, 0), 0.5, "1"])
def test_coefficients_are_rational_only(c):
    with pytest.raises(TypeError):
        Poly((1, c))
    with pytest.raises(TypeError):
        Poly((1, 1)) * c
    with pytest.raises(TypeError):
        Poly.x_minus(c)


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
    assert p == Poly() and not p


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


def _reference_poly_from_json(obj):
    """The reference reader: every element through scalar_from_json, then
    the constructor, then the trailing-zero check."""
    p = Poly(tuple(scalar_from_json(c) for c in obj))
    if len(p.coeffs) != len(obj):
        raise ValueError("polynomial encoding ends in a zero coefficient: %r" % (obj,))
    return p


def _outcome(read, obj):
    """read(obj), or the type and message of the exception it raises."""
    try:
        return read(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


canonical_encodings = wide_coeffs.map(lambda cs: [str(c) for c in cs])


@given(canonical_encodings)
@example(["0"])
@example(["1", "0"])
def test_poly_from_json_reads_canonical_strings(obj):
    if obj and obj[-1] == "0":
        with pytest.raises(ValueError, match="ends in a zero coefficient"):
            poly_from_json(obj)
        return
    p = poly_from_json(obj)
    _assert_canonical(p)
    assert p == Poly(map(rational_from_str, obj))
    assert poly_to_json(p) == obj


GAUSSIAN_ENCODINGS = [{"re": "0", "im": "1"}, {"re": "-1/2", "im": "3"}]
MALFORMED_ELEMENTS = NON_CANONICAL + GAUSSIAN_ENCODINGS + [
    {"re": "1", "im": "0"}, {"re": "01", "im": "1"}, {"re": "1"}, 0, 1.5, None, ["1"], True,
]


@pytest.mark.parametrize("bad", MALFORMED_ELEMENTS, ids=repr)
@settings(max_examples=20)
@given(canonical_encodings.filter(lambda obj: not obj or obj[-1] != "0"), st.data())
def test_poly_from_json_refuses_as_the_reference_reader_does(bad, obj, data):
    """A non-canonical spelling, a non-scalar or a Gaussian rational at any
    position raises the exception type and message of the reference reader."""
    obj = list(obj)
    obj.insert(data.draw(st.integers(0, len(obj))), bad)
    expected = _outcome(_reference_poly_from_json, obj)
    assert isinstance(expected, tuple)
    assert _outcome(poly_from_json, obj) == expected
    if bad in GAUSSIAN_ENCODINGS:
        assert expected == (TypeError, "unsupported coefficient type: 'GaussianRational'")


def test_poly_from_json_reports_a_bad_string_after_a_gaussian_first():
    """Every element is parsed before a Gaussian rational is refused, as in the reference reader."""
    for obj in ([{"re": "0", "im": "1"}, "01"], ["1", {"re": "0", "im": "1"}, "2/4"]):
        expected = _outcome(_reference_poly_from_json, obj)
        assert expected[0] is ValueError
        assert _outcome(poly_from_json, obj) == expected


@given(wide_coeffs, wide_coeffs)
def test_mul_kernel_matches_reference(a, b):
    p = Poly(a) * Poly(b)
    _assert_canonical(p)
    assert list(p.coeffs) == _ref_mul(_strip(a), _strip(b))
    # a square (one operand twice) takes each cross product once
    sq = Poly(a)
    _assert_canonical(sq * sq)
    assert list((sq * sq).coeffs) == _ref_mul(_strip(a), _strip(a))


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-12, 12).filter(bool), wide_coeffs),
                min_size=1, max_size=4))
def test_combine_is_the_sum_of_the_multiples(terms):
    """The scalars are integer pairs (n, d), d != 0 of either sign and not reduced."""
    expected = sum((Poly(p) * Fraction(n, d) for n, d, p in terms), Poly())
    out = combine(*[((n, d), Poly(p)) for n, d, p in terms])
    _assert_canonical(out)
    assert out == expected


@given(wide_coeffs, wide_coeffs, wide_coeffs, st.integers(0, 7), wide_fractions)
def test_is_spot_sum_agrees_with_the_identity_at_2_to_20(a, b, c, k, e):
    """is_spot_sum holds where f == a*b + c*c holds, fails where f moves by e*x**k,
    e != 0, and cannot see a change that vanishes at x = 2**20."""
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    f = pa * pb + pc * pc
    assert is_spot_sum(f, (pa, pb), (pc, pc))
    assert is_spot_sum(f, (pc, pc), (pa, pb)) and is_spot_sum(f, (pb, pa), (pc, Poly(c)))
    if e:
        assert not is_spot_sum(f + Poly.x_power(k) * e, (pa, pb), (pc, pc))
        invisible = Poly.x_minus(2 ** 20) * Poly.x_power(k) * e
        assert is_spot_sum(f + invisible, (pa, pb), (pc, pc))
        assert pa * pb + pc * pc != f + invisible


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


def _ref_sqrt_series(T, b, K):
    """s_0..s_{K-1} by 2b*s_j = T_j - sum_{0<i<j} s_i*s_{j-i}, one Fraction operation at a time."""
    s = [b]
    for j in range(1, K):
        s.append((T[j] - sum(s[i] * s[j - i] for i in range(1, j))) / (2 * b))
    return s


non_integral = st.builds(Fraction, st.integers(1, 10**12), st.integers(2, 10**9)).filter(
    lambda b: b.denominator > 1)


@given(non_integral, st.booleans(), st.lists(wide_fractions, max_size=10), st.integers(1, 9))
@example(Fraction(3, 2), True, [], 9)
@example(Fraction(7, 10**9 + 7), False, [Fraction(-1, 3)] * 10, 1)
def test_power_series_at_one_half_matches_the_fraction_recurrence(b, negative, tail, K):
    """Miller's recurrence at r = 1/2 equals the convolution recurrence run on
    Fractions, and its S is a square root of T through b modulo x**K, for b
    non-integral of either sign."""
    b = -b if negative else b
    T = Poly([b * b] + tail)
    S = power_series(T, (1, 2), (b.numerator, b.denominator), K)
    _assert_canonical(S)
    assert S == Poly(_ref_sqrt_series(T, b, K))
    assert S[0] == b and S.degree < K
    assert not any((T - S * S).coeffs[:K])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(-12, 12), st.integers(-9, 9).filter(bool), st.integers(1, 4),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=8), st.integers(1, 8))
def test_power_series_is_a_truncated_power(q, p, a, a_den, tail, K):
    """For r = p/q in lowest terms, T(0) = a**q and s0 = a**p (a < 0 only with
    q odd, so a is the real q-th root), S(0) = s0, deg S < K and
    S**q = T**p mod x**K."""
    assume(math.gcd(p, q) == 1 and (a > 0 or q % 2))
    a = Fraction(a, a_den)
    T, s0 = Poly([a ** q] + tail), a ** p
    S = power_series(T, (p, q), (s0.numerator, s0.denominator), K)
    _assert_canonical(S)
    assert S[0] == s0 and S.degree < K
    lhs, rhs = (S ** q, T ** p) if p > 0 else (S ** q * T ** -p, Poly((1,)))  # T**p = 1/T**|p|
    assert not any((lhs - rhs).coeffs[:K])


def test_mul_by_zero_and_constants():
    p = Poly((Fraction(1, 3), -2, Fraction(5, 4)))
    assert not p * Poly() and not Poly() * p
    assert p * Poly((1,)) == p
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
@pytest.mark.parametrize("p", [Poly((1, Fraction(-2, 3), 3)), Poly()], ids=["quadratic", "zero"])
def test_evaluation_takes_rationals_only(p, t):
    with pytest.raises(TypeError):
        p(t)


@pytest.mark.parametrize("p, a", [(Poly((1, 2, 3)), 0.0), (Poly(), 0.5)], ids=["zero-float", "zero-poly"])
def test_shift_takes_rationals_only(p, a):
    """The shift's type is checked before the early return for a zero shift or a zero polynomial."""
    with pytest.raises(TypeError, match="^unsupported coefficient type: 'float'$"):
        p.shift(a)


@pytest.mark.parametrize("a", [0, Fraction(0)], ids=["int", "Fraction"])
def test_a_zero_shift_returns_the_polynomial_itself(a):
    p = Poly((1, Fraction(-2, 3), 3))
    assert p.shift(a) is p


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
    assert p == (repeated_squaring(base, k) if k else Poly((1,)))


def test_linear_power_needs_no_binomial_coefficient(monkeypatch):
    def refuse(*args):
        raise AssertionError("math.comb called with %r" % (args,))

    monkeypatch.setattr(math, "comb", refuse)
    assert Poly.x_power(1) ** 6400 == Poly.x_power(6400)
    assert Poly((1, 1)) ** 5 == Poly((1, 5, 10, 10, 5, 1))
    assert Poly((-3, 2)) ** 3 == Poly((-27, 54, -36, 8))

