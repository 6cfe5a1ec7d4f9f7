"""Divisor-class arithmetic on hyperelliptic curves via Mumford pairs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from torsionforge import jacobian2
from torsionforge.constructors import (
    ConstructionRequest,
    construct,
    construct_div_d,
    construct_n_plus_ed,
)
from torsionforge.curves import AffinePoint, Curve
from torsionforge.jacobian2 import (
    IDENTITY,
    MumfordDivisor,
    OrderNotFoundError,
    UnsupportedDegreeError,
    add,
    embed_point,
    neg,
    order_of,
    validate,
)
from torsionforge.polyring import Poly
from torsionforge.scalars import GaussianRational


# genus 2 with five rational branch points: x(x^2-1)(x^2-4)
GENUS2_SPLIT = Curve(2, 5, Poly.x_power(1) * (Poly.x_power(2) - Poly((1,))) * (Poly.x_power(2) - Poly((4,))))
# genus 3 with seven rational branch points
GENUS3_SPLIT = Curve(
    2,
    7,
    Poly.x_power(1)
    * (Poly.x_power(2) - Poly((1,)))
    * (Poly.x_power(2) - Poly((4,)))
    * (Poly.x_power(2) - Poly((9,))),
)


def multiples(curve, D, count):
    """[0*D, 1*D, ..., (count-1)*D] by repeated addition."""
    out = [IDENTITY]
    while len(out) < count:
        out.append(add(curve, out[-1], D))
    return out


def weierstrass_points(curve):
    roots = {0, 1, -1, 2, -2, 3, -3}
    return [
        AffinePoint(Fraction(w), Fraction(0))
        for w in sorted(roots)
        if curve.f(Fraction(w)) == 0
    ]


def torsion_generators():
    """(curve, divisor, order) triples with known cyclic structure."""
    out = []
    for n, m in ((5, 6), (5, 8), (5, 10), (7, 8), (7, 14)):
        cert = construct_div_d(n, 2, m)
        out.append((cert.curve, embed_point(cert.curve, cert.point), m))
    for n, e in ((5, 1), (5, 2), (7, 3)):
        cert = construct_n_plus_ed(n, 2, e)
        out.append((cert.curve, embed_point(cert.curve, cert.point), cert.m))
    return out


# ---------------------------------------------------------------------------
# representation and embedding
# ---------------------------------------------------------------------------

def test_identity_element():
    assert IDENTITY.is_identity()
    validate(GENUS2_SPLIT, IDENTITY)


def test_embed_point_shape():
    P = AffinePoint(Fraction(1), Fraction(0))
    D = embed_point(GENUS2_SPLIT, P)
    assert D.u == Poly((-1, 1))
    assert D.v == Poly.zero()


def test_embed_rejects_points_off_the_curve():
    with pytest.raises(ValueError):
        embed_point(GENUS2_SPLIT, AffinePoint(Fraction(1), Fraction(1)))


def test_validate_rejects_bad_mumford_pairs():
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT, MumfordDivisor(Poly((1, 2)), Poly.zero()))   # u not monic
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT, MumfordDivisor(Poly((0, 0, 0, 1)), Poly.zero()))  # deg u > g
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT, MumfordDivisor(Poly((-1, 1)), Poly((5,))))   # u does not divide v^2 - f


def test_only_hyperelliptic_covers_supported():
    c = Curve(3, 5, Poly((-1, 0, 0, 0, 0, 1)))
    with pytest.raises(UnsupportedDegreeError):
        embed_point(c, AffinePoint(Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

def test_weierstrass_points_have_order_two():
    for curve in (GENUS2_SPLIT, GENUS3_SPLIT):
        for P in weierstrass_points(curve):
            D = embed_point(curve, P)
            assert not D.is_identity()
            assert add(curve, D, D).is_identity()
            assert order_of(curve, D, bound=4) == 2


def test_identity_is_neutral():
    D = embed_point(GENUS2_SPLIT, AffinePoint(Fraction(2), Fraction(0)))
    assert add(GENUS2_SPLIT, D, IDENTITY) == D
    assert add(GENUS2_SPLIT, IDENTITY, D) == D


def test_inverse_law():
    for curve, D, m in torsion_generators():
        for E in multiples(curve, D, min(m, 6))[1:]:
            assert add(curve, E, neg(curve, E)).is_identity()


def test_500_random_additions_preserve_invariants():
    rng = random.Random(20260816)
    pools = []
    for curve in (GENUS2_SPLIT, GENUS3_SPLIT):
        pool = [embed_point(curve, P) for P in weierstrass_points(curve)]
        pools.append((curve, pool))
    for curve, D, m in torsion_generators():
        pool = multiples(curve, D, m)[1:]
        pools.append((curve, pool))

    additions = 0
    commutes = 0
    while additions < 500:
        curve, pool = pools[rng.randrange(len(pools))]
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        s = add(curve, a, b)
        validate(curve, s)
        assert add(curve, b, a) == s
        additions += 2
        commutes += 1
    assert commutes >= 250


def test_associativity_on_random_triples():
    rng = random.Random(7)
    triples_checked = 0
    for curve, D, m in torsion_generators():
        elements = multiples(curve, D, m)
        for _ in range(6):
            a, b, c = (elements[rng.randrange(m)] for _ in range(3))
            assert add(curve, add(curve, a, b), c) == add(curve, a, add(curve, b, c))
            triples_checked += 1
    w = [embed_point(GENUS3_SPLIT, P) for P in weierstrass_points(GENUS3_SPLIT)]
    for _ in range(10):
        a, b, c = (w[rng.randrange(len(w))] for _ in range(3))
        assert add(GENUS3_SPLIT, add(GENUS3_SPLIT, a, b), c) == add(
            GENUS3_SPLIT, a, add(GENUS3_SPLIT, b, c)
        )
        triples_checked += 1
    assert triples_checked >= 50


def test_mixed_weierstrass_sums_reduce_correctly():
    # adding distinct branch points yields a degree-2 divisor with v = 0
    pts = weierstrass_points(GENUS2_SPLIT)
    D = add(GENUS2_SPLIT, embed_point(GENUS2_SPLIT, pts[0]), embed_point(GENUS2_SPLIT, pts[1]))
    assert D.u.degree == 2
    assert D.v.is_zero
    validate(GENUS2_SPLIT, D)
    # order of a sum of two distinct two-torsion classes is 2
    assert order_of(GENUS2_SPLIT, D, bound=4) == 2


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def test_order_of_certified_generators():
    for curve, D, m in torsion_generators():
        assert order_of(curve, D, bound=m) == m


def test_order_of_respects_the_bound():
    curve, D, m = torsion_generators()[0]
    with pytest.raises(OrderNotFoundError):
        order_of(curve, D, bound=m - 1)


def test_order_of_gaussian_point():
    cert = construct_n_plus_ed(5, 2, 1)
    D = embed_point(cert.curve, cert.point)
    assert order_of(cert.curve, D, bound=7) == 7
    assert multiples(cert.curve, D, 8)[7].is_identity()


# ---------------------------------------------------------------------------
# order_of: the half-length scan and the quadratic twist
# ---------------------------------------------------------------------------

def reference_order(curve, D, bound):
    """The plain linear scan on the given model: least k <= bound with k*D = 0, or None."""
    acc = D
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = add(curve, acc, D)
    return None


def assert_agrees_with_reference(curve, D, bounds):
    """order_of at each bound gives what a plain scan up to max(bounds) implies."""
    first = reference_order(curve, D, max(bounds))
    for bound in bounds:
        if first is not None and first <= bound:
            assert order_of(curve, D, bound) == first, bound
        else:
            with pytest.raises(OrderNotFoundError):
                order_of(curve, D, bound)


def rational_generator():
    cert = construct_div_d(5, 2, 6)
    return cert.curve, embed_point(cert.curve, cert.point), 6


def gaussian_generator():
    cert = construct_n_plus_ed(5, 2, 1)
    return cert.curve, embed_point(cert.curve, cert.point), 7


@pytest.mark.parametrize("generator", [rational_generator, gaussian_generator])
def test_order_of_contract(generator):
    curve, D, m = generator()
    for bound in (m, 2 * m, 3 * m):
        assert order_of(curve, D, bound) == m
    # (m + 1)*D != 0, so the half-way test fails and the scan goes on to m
    assert order_of(curve, D, m + 1) == m
    with pytest.raises(OrderNotFoundError):
        order_of(curve, D, m - 1)


def test_order_of_small_bounds_on_a_weierstrass_point():
    D = embed_point(GENUS2_SPLIT, weierstrass_points(GENUS2_SPLIT)[0])
    with pytest.raises(OrderNotFoundError):
        order_of(GENUS2_SPLIT, D, bound=1)
    assert order_of(GENUS2_SPLIT, D, bound=2) == 2
    assert order_of(GENUS2_SPLIT, D, bound=3) == 2
    assert order_of(GENUS2_SPLIT, IDENTITY, bound=1) == 1
    with pytest.raises(ValueError):
        order_of(GENUS2_SPLIT, D, bound=0)


def test_twisted_pair_is_valid_on_the_twist():
    curve, D, _ = gaussian_generator()
    model, E = jacobian2._over_q(curve, D)
    assert model.f == -curve.f
    assert E.u == D.u
    assert E.v * Poly.constant(GaussianRational(0, 1)) == D.v
    assert all(isinstance(c, Fraction) for c in E.v.coeffs)
    validate(model, E)
    validate(Curve(2, curve.n, -curve.f), E)


def test_mixed_ordinate_divisor_is_not_twisted():
    # y^2 = x^5 + x^2 + 2x + 1 carries (0, 1) and (-1, i)
    cert = construct(ConstructionRequest(n=5, d=2, m=5))
    curve = cert.curve
    P = embed_point(curve, AffinePoint(Fraction(0), Fraction(1)))
    Q = embed_point(curve, AffinePoint(Fraction(-1), GaussianRational(0, 1)))
    D = add(curve, P, Q)
    assert D.v == Poly((1, GaussianRational(1, -1)))
    assert jacobian2._over_q(curve, D) == (curve, D)
    assert_agrees_with_reference(curve, D, (1, 2, 5, 6))


def ladder_certificates(max_n):
    for n in range(5, max_n + 1, 2):
        for m in [2, n] + list(range(n + 1, 2 * n + 2)):
            yield construct(ConstructionRequest(n=n, d=2, m=m))


def test_order_of_matches_the_reference_scan_on_the_ladders():
    certs = list(ladder_certificates(9))
    assert len(certs) == 30
    for cert in certs:
        m = cert.m
        D = embed_point(cert.curve, cert.point)
        assert_agrees_with_reference(cert.curve, D, (m - 1, m, m + 1, 2 * m))
