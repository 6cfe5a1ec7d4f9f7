"""Divisor-class arithmetic on hyperelliptic curves via Mumford pairs."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantor_reference import cantor_add
from torsionforge import jacobian2, polyring
from torsionforge.constructors import (
    construct,
    construct_n_plus_ed,
)
from torsionforge.curves import AffinePoint, Curve
from torsionforge.jacobian2 import (
    IDENTITY,
    MumfordDivisor,
    OrderNotFoundError,
    add,
    embed_point,
    neg,
    order_of,
    validate,
)
from torsionforge.polyring import Poly, xgcd
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


def embed(curve, P):
    """P - O for a point with rational ordinate, whose model is the curve's own f."""
    model, D = embed_point(curve, P)
    assert model is curve.f
    return D


def multiples(f, D, count):
    """[0*D, 1*D, ..., (count-1)*D] on y**2 = f by repeated addition."""
    out = [IDENTITY]
    while len(out) < count:
        out.append(add(f, out[-1], D))
    return out


def weierstrass_points(curve):
    roots = {0, 1, -1, 2, -2, 3, -3}
    return [
        AffinePoint(Fraction(w), Fraction(0))
        for w in sorted(roots)
        if curve.f(Fraction(w)) == 0
    ]


def torsion_generators():
    """(model, divisor, order) triples with known cyclic structure; the
    n-plus-ed points have ordinates in i*Q, so their model is the twist."""
    out = []
    for n, m in ((5, 6), (5, 8), (5, 10), (7, 8), (7, 14)):
        cert = construct(n, 2, m)
        out.append((*embed_point(cert.curve, cert.point), m))
    for n, e in ((5, 1), (5, 2), (7, 3)):
        cert = construct_n_plus_ed(n, 2, e)
        out.append((*embed_point(cert.curve, cert.point), cert.m))
    return out


# ---------------------------------------------------------------------------
# representation and embedding
# ---------------------------------------------------------------------------

def test_identity_element():
    assert IDENTITY.is_identity()
    validate(GENUS2_SPLIT.f, IDENTITY)


def test_embed_point_shape():
    P = AffinePoint(Fraction(1), Fraction(0))
    D = embed(GENUS2_SPLIT, P)
    assert D.u == Poly((-1, 1))
    assert D.v == Poly.zero()


def test_embed_rejects_points_off_the_curve():
    with pytest.raises(ValueError):
        embed_point(GENUS2_SPLIT, AffinePoint(Fraction(1), Fraction(1)))


def test_validate_rejects_bad_mumford_pairs():
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT.f, MumfordDivisor(Poly((1, 2)), Poly.zero()))   # u not monic
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT.f, MumfordDivisor(Poly((0, 0, 0, 1)), Poly.zero()))  # deg u > g
    with pytest.raises(ValueError):
        validate(GENUS2_SPLIT.f, MumfordDivisor(Poly((-1, 1)), Poly((5,))))   # u does not divide v^2 - f


def test_only_hyperelliptic_covers_supported():
    c = Curve(3, 5, Poly((-1, 0, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="implemented for d=2 only, got d=3"):
        embed_point(c, AffinePoint(Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

def test_weierstrass_points_have_order_two():
    for curve in (GENUS2_SPLIT, GENUS3_SPLIT):
        for P in weierstrass_points(curve):
            D = embed(curve, P)
            assert not D.is_identity()
            assert add(curve.f, D, D).is_identity()
            assert order_of(curve.f, D, bound=4) == 2


def test_identity_is_neutral():
    D = embed(GENUS2_SPLIT, AffinePoint(Fraction(2), Fraction(0)))
    assert cantor_add(GENUS2_SPLIT.f, D, IDENTITY) == D
    assert add(GENUS2_SPLIT.f, IDENTITY, D) == D


def test_inverse_law():
    for f, D, m in torsion_generators():
        for E in multiples(f, D, min(m, 6))[1:]:
            assert cantor_add(f, E, neg(E)).is_identity()


def test_500_random_additions_preserve_invariants():
    rng = random.Random(20260816)
    pools = []
    for curve in (GENUS2_SPLIT, GENUS3_SPLIT):
        pool = [embed(curve, P) for P in weierstrass_points(curve)]
        pools.append((curve.f, pool))
    for f, D, m in torsion_generators():
        pool = multiples(f, D, m)[1:]
        pools.append((f, pool))

    additions = 0
    commutes = 0
    while additions < 500:
        f, pool = pools[rng.randrange(len(pools))]
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        s = cantor_add(f, a, b)
        validate(f, s)
        assert cantor_add(f, b, a) == s
        additions += 2
        commutes += 1
    assert commutes >= 250


def test_associativity_on_random_triples():
    rng = random.Random(7)
    triples_checked = 0
    for f, D, m in torsion_generators():
        elements = multiples(f, D, m)
        for _ in range(6):
            a, b, c = (elements[rng.randrange(m)] for _ in range(3))
            assert cantor_add(f, cantor_add(f, a, b), c) == cantor_add(f, a, cantor_add(f, b, c))
            triples_checked += 1
    w = [embed(GENUS3_SPLIT, P) for P in weierstrass_points(GENUS3_SPLIT)]
    for _ in range(10):
        a, b, c = (w[rng.randrange(len(w))] for _ in range(3))
        f = GENUS3_SPLIT.f
        assert cantor_add(f, cantor_add(f, a, b), c) == cantor_add(f, a, cantor_add(f, b, c))
        triples_checked += 1
    assert triples_checked >= 50


def test_mixed_weierstrass_sums_reduce_correctly():
    # adding distinct branch points yields a degree-2 divisor with v = 0
    W = [embed(GENUS2_SPLIT, P) for P in weierstrass_points(GENUS2_SPLIT)]
    D = add(GENUS2_SPLIT.f, W[0], W[1])
    assert D == cantor_add(GENUS2_SPLIT.f, W[0], W[1])
    assert D.u.degree == 2
    assert D.v.is_zero
    validate(GENUS2_SPLIT.f, D)
    # order of a sum of two distinct two-torsion classes is 2
    assert not D.is_identity()
    assert cantor_add(GENUS2_SPLIT.f, D, D).is_identity()


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def test_order_of_certified_generators():
    for f, D, m in torsion_generators():
        assert order_of(f, D, bound=m) == m


def test_order_of_respects_the_bound():
    f, D, m = torsion_generators()[0]
    with pytest.raises(OrderNotFoundError):
        order_of(f, D, bound=m - 1)


def test_order_of_gaussian_point():
    cert = construct_n_plus_ed(5, 2, 1)
    model, D = embed_point(cert.curve, cert.point)
    assert order_of(model, D, bound=7) == 7
    assert multiples(model, D, 8)[7].is_identity()


# ---------------------------------------------------------------------------
# embed_point's quadratic twist and order_of's half-length scan
# ---------------------------------------------------------------------------

def reference_order(f, D, bound):
    """The plain linear scan on the model y**2 = f: least k <= bound with k*D = 0, or None."""
    acc = D
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = add(f, acc, D)
    return None


def assert_agrees_with_reference(f, D, bounds):
    """order_of at each bound gives what a plain scan up to max(bounds) implies."""
    first = reference_order(f, D, max(bounds))
    for bound in bounds:
        if first is not None and first <= bound:
            assert order_of(f, D, bound) == first, bound
        else:
            with pytest.raises(OrderNotFoundError):
                order_of(f, D, bound)


def rational_generator():
    cert = construct(5, 2, 6)
    return (*embed_point(cert.curve, cert.point), 6)


def gaussian_generator():
    cert = construct_n_plus_ed(5, 2, 1)
    return (*embed_point(cert.curve, cert.point), 7)


@pytest.mark.parametrize("generator", [rational_generator, gaussian_generator])
def test_order_of_contract(generator):
    f, D, m = generator()
    for bound in (m, 2 * m, 3 * m):
        assert order_of(f, D, bound) == m
    # (m + 1)*D != 0, so the half-way test fails and the scan goes on to m
    assert order_of(f, D, m + 1) == m
    with pytest.raises(OrderNotFoundError):
        order_of(f, D, m - 1)


def test_order_of_small_bounds_on_a_weierstrass_point():
    D = embed(GENUS2_SPLIT, weierstrass_points(GENUS2_SPLIT)[0])
    with pytest.raises(OrderNotFoundError):
        order_of(GENUS2_SPLIT.f, D, bound=1)
    assert order_of(GENUS2_SPLIT.f, D, bound=2) == 2
    assert order_of(GENUS2_SPLIT.f, D, bound=3) == 2
    with pytest.raises(ValueError):
        order_of(GENUS2_SPLIT.f, D, bound=0)


def test_order_of_refuses_a_base_other_than_a_point():
    W = [embed(GENUS2_SPLIT, P) for P in weierstrass_points(GENUS2_SPLIT)]
    D = add(GENUS2_SPLIT.f, W[0], W[1])
    assert D.u.degree == 2
    for base in (D, IDENTITY):
        with pytest.raises(ValueError):
            order_of(GENUS2_SPLIT.f, base, bound=4)


def test_add_refuses_a_summand_other_than_a_point():
    cert = construct(n=7, d=2, m=8)
    model, P = embed_point(cert.curve, cert.point)
    E = add(model, P, P)
    assert E.u.degree == 2
    # the sum exists, but add's three cases read E as the point (x - E.u[0], E.v[0])
    assert str(cantor_add(model, E, E)) == "<u=x^3 + 2, v=0>"
    with pytest.raises(ValueError, match="summand must be a point"):
        add(model, E, E)


def test_twisted_pair_is_valid_on_the_twist():
    rational = construct(5, 2, 6)
    assert embed_point(rational.curve, rational.point)[0] is rational.curve.f
    cert = construct_n_plus_ed(5, 2, 1)
    curve, point = cert.curve, cert.point
    model, E = embed_point(curve, point)
    assert model == -curve.f
    assert E.u == Poly.x_minus(point.x)
    assert E.v == Poly.constant(point.y.im)
    assert all(isinstance(c, Fraction) for c in E.v.coeffs)
    validate(model, E)
    # -f is square-free as f is, so the twist is a valid curve of the same shape
    assert Curve(2, curve.n, model).genus == curve.genus


def test_embed_point_by_the_field_of_the_ordinate():
    # y^2 = x^5 + x^2 + 2x + 1 carries (0, 1) and (-1, i), and f is rational
    curve = construct(n=5, d=2, m=5).curve
    assert embed_point(curve, AffinePoint(Fraction(0), GaussianRational(1))) == (
        curve.f, embed(curve, AffinePoint(Fraction(0), Fraction(1))))
    model, E = embed_point(curve, AffinePoint(Fraction(-1), GaussianRational(0, 1)))
    assert model == -curve.f and E == MumfordDivisor(Poly((1, 1)), Poly((1,)))
    with pytest.raises(ValueError):
        embed_point(curve, AffinePoint(Fraction(0), GaussianRational(1, 1)))
    # f(-1) = -1, so (-1, 1 + i) passes the twist's test -f(-1) = 1**2 but is off the curve
    with pytest.raises(ValueError):
        embed_point(curve, AffinePoint(Fraction(-1), GaussianRational(1, 1)))


def ladder_certificates(max_n):
    for n in range(5, max_n + 1, 2):
        for m in [2, n] + list(range(n + 1, 2 * n + 2)):
            yield construct(n=n, d=2, m=m)


def test_order_of_matches_the_reference_scan_on_the_ladders():
    certs = list(ladder_certificates(9))
    assert len(certs) == 30
    for cert in certs:
        m = cert.m
        model, D = embed_point(cert.curve, cert.point)
        assert_agrees_with_reference(model, D, (m - 1, m, m + 1, 2 * m))


# ---------------------------------------------------------------------------
# add's three cases against Cantor's algorithm alone
# ---------------------------------------------------------------------------

# y^2 = x^5 - x + 1 carries (0, +-1), (1, +-1) and (-1, +-1)
THREE_POINTS = Curve(2, 5, Poly((1, -1, 0, 0, 0, 1)))


@pytest.fixture
def xgcd_calls(monkeypatch):
    """Count the calls into ``polyring.xgcd`` and ``jacobian2.xgcd``, the
    extended gcd that Cantor's composition needs and ``add`` does not."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return xgcd(f, g)

    monkeypatch.setattr(polyring, "xgcd", counted)
    monkeypatch.setattr(jacobian2, "xgcd", counted)
    return calls


def branch(D, E):
    """The case of the module docstring that D + E, for a point E, falls into."""
    a, b = -E.u[0], E.v[0]
    if D.u(a):
        return "interpolation"
    return "newton" if b and D.v(a) == b else "cancellation"


def assert_step(f, D, E, expected, xgcd_calls):
    """add equals cantor_add on D + E, takes the named case without an
    extended gcd and returns the sum."""
    assert branch(D, E) == expected
    before = len(xgcd_calls)
    out = add(f, D, E)
    assert len(xgcd_calls) == before
    assert out == cantor_add(f, D, E)
    return out


def test_interpolation_through_a_second_point(xgcd_calls):
    P = embed(THREE_POINTS, AffinePoint(Fraction(0), Fraction(1)))
    Q = embed(THREE_POINTS, AffinePoint(Fraction(1), Fraction(1)))
    # the line through (0, 1) and (1, 1) is v = 1
    S = assert_step(THREE_POINTS.f, P, Q, "interpolation", xgcd_calls)
    assert S == MumfordDivisor(Poly((0, -1, 1)), Poly((1,)))


def test_newton_lift_doubles_a_point(xgcd_calls):
    P = embed(THREE_POINTS, AffinePoint(Fraction(0), Fraction(1)))
    # the tangent at (0, 1): v = 1 + f'(0)/2 * x, and x^2 | v^2 - f
    S = assert_step(THREE_POINTS.f, P, P, "newton", xgcd_calls)
    assert S == MumfordDivisor(Poly((0, 0, 1)), Poly((1, Fraction(-1, 2))))


def test_weierstrass_base_point_falls_back(xgcd_calls):
    W = [embed(GENUS2_SPLIT, P) for P in weierstrass_points(GENUS2_SPLIT)]
    assert assert_step(GENUS2_SPLIT.f, W[0], W[0], "cancellation", xgcd_calls).is_identity()
    # b = 0 but x(W[0]) is not in u1: interpolation needs no nonzero b
    assert_step(GENUS2_SPLIT.f, W[1], W[0], "interpolation", xgcd_calls)


def test_opposite_point_falls_back_to_the_identity(xgcd_calls):
    E = embed(THREE_POINTS, AffinePoint(Fraction(-1), Fraction(1)))
    S = assert_step(THREE_POINTS.f, neg(E), E, "cancellation", xgcd_calls)
    assert S == IDENTITY


def scan_steps(model, E, bound):
    """The k*E that order_of's scan adds E to, until it stops."""
    half = (bound + 1) // 2
    acc, prev = E, IDENTITY
    for k in range(1, bound + 1):
        if acc.is_identity() or k == half and acc == neg(prev if bound % 2 else acc):
            return
        yield acc
        acc, prev = cantor_add(model, acc, E), acc


def test_add_equals_cantor_add_on_the_ladders(xgcd_calls):
    seen = {"interpolation": 0, "newton": 0, "cancellation": 0}
    for cert in ladder_certificates(9):
        model, E = embed_point(cert.curve, cert.point)
        for acc in scan_steps(model, E, cert.m):
            case = branch(acc, E)
            assert_step(model, acc, E, case, xgcd_calls)
            seen[case] += 1
    assert seen["interpolation"] > 0 and seen["newton"] > 0 and seen["cancellation"] > 0


def test_order_of_makes_no_extended_gcd_on_the_ladder_grid(xgcd_calls):
    # the benchmark's ladder-d2 grid: d = 2, odd n 5..17, m in {2, n, n+1, ..., 2n+1}
    certs = list(ladder_certificates(17))
    assert len(certs) == 98
    xgcd_calls.clear()  # count order_of's calls only, not the constructions'
    for cert in certs:
        assert order_of(*embed_point(cert.curve, cert.point), bound=cert.m) == cert.m
    assert len(xgcd_calls) == 0


def test_order_of_keeps_numerators_small_at_n65(monkeypatch):
    """Every divisor the oracle divides by is monic, so its exact divisions
    scale nothing: no numerator or denominator through ``polyring._make``
    grows past 1,024 bits on the n = 65, m = 131 infinity-shift point."""
    cert = construct_n_plus_ed(65, 2, 33)
    model, D = embed_point(cert.curve, cert.point)
    make, widest = polyring._make, 0

    def recording_make(num, den):
        nonlocal widest
        widest = max(widest, den.bit_length(), *(abs(c).bit_length() for c in num))
        return make(num, den)

    monkeypatch.setattr(polyring, "_make", recording_make)
    assert order_of(model, D, bound=cert.m) == cert.m == 131
    assert widest <= 1024


def test_neg_divides_nothing_on_the_ladder(monkeypatch):
    """-(u, v) = (u, -v) with no division, on every multiple order_of scans."""
    scanned, real_add = [], jacobian2.add

    def recording_add(f, D, E):
        out = real_add(f, D, E)
        scanned.append(out)
        return out

    monkeypatch.setattr(jacobian2, "add", recording_add)
    for cert in ladder_certificates(9):
        model, D = embed_point(cert.curve, cert.point)
        scanned.append(D)
        assert order_of(model, D, bound=cert.m) == cert.m
    expected = [MumfordDivisor(M.u, divmod(-M.v, M.u)[1]) for M in scanned]
    divisions, real_divmod = [], Poly.__divmod__

    def counted(f, g):
        divisions.append((f, g))
        return real_divmod(f, g)

    monkeypatch.setattr(Poly, "__divmod__", counted)
    assert [neg(M) for M in scanned] == expected
    assert len(scanned) > 100 and divisions == []


@st.composite
def base_point_steps(draw):
    """(f, D, E): E of degree 1 and D an element of the group it lives in on y**2 = f.

    GENUS2_SPLIT and GENUS3_SPLIT have no rational points of small height
    off the branch points, so there D is a random sum of two-torsion
    points; on the torsion generators' curves D is a random multiple k*E.
    """
    f, pool, points = draw(st.sampled_from(_step_pools()))
    return f, draw(st.sampled_from(pool)), draw(st.sampled_from(points))


@functools.cache
def _step_pools():
    pools = []
    for curve in (GENUS2_SPLIT, GENUS3_SPLIT):
        W = [embed(curve, P) for P in weierstrass_points(curve)]
        sums = [IDENTITY]
        for w in W:
            sums += [add(curve.f, s, w) for s in sums]
        pools.append((curve.f, sums, W))
    for f, E, m in torsion_generators():
        pools.append((f, multiples(f, E, m), [E]))
    return pools


@settings(max_examples=80, deadline=None)
@given(base_point_steps())
def test_add_equals_cantor_add_property(step):
    f, D, E = step
    assert add(f, D, E) == cantor_add(f, D, E)
