"""Divisor-class arithmetic on hyperelliptic curves via Mumford pairs, and
the oracle's triples (u, v, w) in the point's own coordinate."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cantor_reference import IDENTITY, add_point, at, cantor_add, neg, triple, validate_pair
from torsionforge import jacobian2, polyring
from torsionforge.constructors import (
    construct,
    construct_n_plus_ed,
)
from torsionforge.curves import AffinePoint, Curve
from torsionforge.jacobian2 import (
    MumfordDivisor,
    OrderNotFoundError,
    add,
    embed_point,
    order_of,
    validate,
)
from torsionforge.polyring import Poly, is_squarefree, xgcd
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
        out.append(add_point(f, out[-1], D))
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
    assert IDENTITY == MumfordDivisor(Poly((1,)), Poly())
    # as a triple, (1, 0, f)
    assert triple(GENUS2_SPLIT.f, IDENTITY) == (Poly((1,)), Poly(), GENUS2_SPLIT.f)
    validate_pair(GENUS2_SPLIT.f, IDENTITY)


def test_embed_point_shape():
    P = AffinePoint(Fraction(1), Fraction(0))
    D = embed(GENUS2_SPLIT, P)
    assert D.u == Poly((-1, 1))
    assert D.v == Poly()


def test_embed_rejects_points_off_the_curve():
    with pytest.raises(ValueError):
        embed_point(GENUS2_SPLIT, AffinePoint(Fraction(1), Fraction(1)))


def test_validate_rejects_bad_mumford_pairs():
    """Each bad pair's triple, with w the quotient of f - v**2 by u, is refused;
    so is a good triple with w off in one coefficient."""
    f = GENUS2_SPLIT.f
    for bad in (MumfordDivisor(Poly((1, 2)), Poly()),        # u not monic
                MumfordDivisor(Poly((0, 0, 0, 1)), Poly()),  # deg u > g
                MumfordDivisor(Poly((-1, 1)), Poly((5,))),   # u does not divide v^2 - f
                MumfordDivisor(Poly((0, 1)), Poly((0, 1)))):  # deg v = deg u
        with pytest.raises(ValueError):
            validate(f, triple(f, bad))
    good = triple(f, embed(GENUS2_SPLIT, AffinePoint(Fraction(1), Fraction(0))))
    validate(f, good)
    with pytest.raises(ValueError, match="u\\*w \\+ v\\^2 != f"):
        validate(f, good._replace(w=good.w + Poly.x_power(2)))


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
            assert D != IDENTITY
            assert add_point(curve.f, D, D) == IDENTITY
            assert order_of(curve.f, D, bound=4) == 2


def test_identity_is_neutral():
    D = embed(GENUS2_SPLIT, AffinePoint(Fraction(2), Fraction(0)))
    assert cantor_add(GENUS2_SPLIT.f, D, IDENTITY) == D
    assert add_point(GENUS2_SPLIT.f, IDENTITY, D) == D


def test_inverse_law():
    for f, D, m in torsion_generators():
        for E in multiples(f, D, min(m, 6))[1:]:
            assert cantor_add(f, E, neg(E)) == IDENTITY
    # on the n = 7, m = 8 point, 2*D + 2*D = 4*D has v = 0: it is its own inverse
    cert = construct(n=7, d=2, m=8)
    model, P = embed_point(cert.curve, cert.point)
    E = add_point(model, P, P)
    assert E.u.degree == 2
    S = cantor_add(model, E, E)
    assert (str(S.u), str(S.v)) == ("x^3 + 2", "0")


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
        validate_pair(f, s)
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
    D = add_point(GENUS2_SPLIT.f, W[0], W[1])
    assert D == cantor_add(GENUS2_SPLIT.f, W[0], W[1])
    assert D.u.degree == 2
    assert not D.v
    validate_pair(GENUS2_SPLIT.f, D)
    # order of a sum of two distinct two-torsion classes is 2
    assert D != IDENTITY
    assert cantor_add(GENUS2_SPLIT.f, D, D) == IDENTITY


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
    assert multiples(model, D, 8)[7] == IDENTITY


# ---------------------------------------------------------------------------
# embed_point's quadratic twist and order_of's half-length scan
# ---------------------------------------------------------------------------

def reference_order(f, D, bound):
    """The plain linear scan on the model y**2 = f: least k <= bound with k*D = 0, or None."""
    acc = D
    for k in range(1, bound + 1):
        if acc == IDENTITY:
            return k
        acc = add_point(f, acc, D)
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


def test_order_of_adds_nothing_past_the_bound(monkeypatch):
    """Past the bound, the scan raises after bound - K adds, K = min(g, ceil(bound/2)):
    on the n = 7, m = 8 point (g = 3) bounds 1, 2, 3 and 7 take 0, 1, 1 and 4,
    with no add after the check of bound*D."""
    cert = construct(7, 2, 8)
    model, D = embed_point(cert.curve, cert.point)
    adds = []
    monkeypatch.setattr(jacobian2, "add", lambda *args: adds.append(args) or add(*args))
    for bound, expected in ((1, 0), (2, 1), (3, 1), (7, 4)):
        adds.clear()
        with pytest.raises(OrderNotFoundError):
            order_of(model, D, bound)
        assert len(adds) == expected, bound


def test_order_of_refuses_a_base_off_the_model():
    """(x - a, b) with b**2 != f(a) raises ValueError, for b = 0 and b != 0, from a
    start at K = 1 (bound 2) and, for b != 0, at K = 2 (bound 4); b = 0 always has K = 1."""
    cert = construct(7, 2, 8)
    model, D = embed_point(cert.curve, cert.point)
    b = D.v[0]
    assert b and model(-D.u[0]) == b * b
    for wrong in (0, 2 * b):
        for bound in (2, 4):
            with pytest.raises(ValueError):
                order_of(model, D._replace(v=Poly((wrong,))), bound)


def test_order_of_small_bounds_on_a_weierstrass_point():
    D = embed(GENUS2_SPLIT, weierstrass_points(GENUS2_SPLIT)[0])
    with pytest.raises(OrderNotFoundError):
        order_of(GENUS2_SPLIT.f, D, bound=1)
    assert order_of(GENUS2_SPLIT.f, D, bound=2) == 2
    assert order_of(GENUS2_SPLIT.f, D, bound=3) == 2
    with pytest.raises(ValueError):
        order_of(GENUS2_SPLIT.f, D, bound=0)


def test_order_of_refuses_a_base_other_than_a_point():
    """A base whose u is not of degree 1, or whose v is not the constant b of
    a point (x - a, b), is refused with the same ValueError: (x - a, v) with
    deg v >= 1 is not a Mumford pair, and must not get the order of (x - a, v(0))."""
    W = [embed(GENUS2_SPLIT, P) for P in weierstrass_points(GENUS2_SPLIT)]
    D = add_point(GENUS2_SPLIT.f, W[0], W[1])
    assert D.u.degree == 2
    cert = construct(7, 2, 8)
    model, P = embed_point(cert.curve, cert.point)
    assert order_of(model, P, 8) == 8
    t = Poly.x_power(1)
    cases = [(GENUS2_SPLIT.f, D), (GENUS2_SPLIT.f, IDENTITY), (GENUS2_SPLIT.f, W[0]._replace(v=t)),
             (model, P._replace(v=P.v + t)), (model, P._replace(v=P.v + t * t))]
    for f, base in cases:
        with pytest.raises(ValueError, match="^the base must be a point"):
            order_of(f, base, bound=8)


def test_twisted_pair_is_valid_on_the_twist():
    rational = construct(5, 2, 6)
    assert embed_point(rational.curve, rational.point)[0] is rational.curve.f
    cert = construct_n_plus_ed(5, 2, 1)
    curve, point = cert.curve, cert.point
    model, E = embed_point(curve, point)
    assert model == -curve.f
    assert E.u == Poly.x_minus(point.x)
    assert E.v == Poly((point.y.im,))
    assert all(isinstance(c, Fraction) for c in E.v.coeffs)
    validate_pair(model, E)
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
    """add, run in E's own coordinate, equals cantor_add on D + E, takes the
    named case without an extended gcd and returns the sum."""
    assert branch(D, E) == expected
    before = len(xgcd_calls)
    out = add_point(f, D, E)
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
    assert assert_step(GENUS2_SPLIT.f, W[0], W[0], "cancellation", xgcd_calls) == IDENTITY
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
        if acc == IDENTITY or k == half and acc == neg(prev if bound % 2 else acc):
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


@functools.cache
def n65_point():
    """The model and P - O of the n = 65, m = 131 infinity-shift certificate."""
    cert = construct_n_plus_ed(65, 2, 33)
    assert cert.m == 131
    return embed_point(cert.curve, cert.point)


def test_order_of_keeps_numerators_small_at_n65(monkeypatch):
    """Every update of the scan is a sum of rational multiples normalised
    once: no numerator or denominator through ``polyring._make`` grows past
    1,024 bits on the n = 65, m = 131 infinity-shift point."""
    model, D = n65_point()
    make, widest = polyring._make, 0

    def recording_make(num, den):
        nonlocal widest
        widest = max(widest, den.bit_length(), *(abs(c).bit_length() for c in num))
        return make(num, den)

    monkeypatch.setattr(polyring, "_make", recording_make)
    assert order_of(model, D, bound=131) == 131
    assert widest <= 1024


def test_square_root_series_at_n65():
    """At the n = 65, m = 131 point (genus 32), Miller's recurrence at r = 1/2
    gives the series of f at x(P) through b to K = 32 terms: a square root of
    f modulo t**32 that agrees with the convolution recurrence
    2b*s_j = f_j - sum s_i*s_{j-i} run one Fraction operation at a time."""
    model, D = n65_point()
    b, f_t = D.v[0], model.shift(-D.u[0])
    S = jacobian2.power_series(f_t, (1, 2), (b.numerator, b.denominator), 32)
    assert S[0] == b and S.degree <= 31
    assert not any((f_t - S * S).coeffs[:32])
    s = [b]
    for j in range(1, 32):
        s.append((f_t[j] - sum(s[i] * s[j - i] for i in range(1, j))) / (2 * b))
    assert S == Poly(s)


def test_order_of_takes_the_series_prefix_at_n65(monkeypatch):
    """On genus 32, m = 131, order_of builds 32*D from the series of f and
    adds D ceil(131/2) - 32 = 34 times, where the plain scan adds it 65 times."""
    model, D = n65_point()
    adds, validations = [], []
    monkeypatch.setattr(jacobian2, "add", lambda *args: adds.append(args) or add(*args))
    monkeypatch.setattr(jacobian2, "validate",
                        lambda *args: validations.append(args) or validate(*args))
    assert order_of(model, D, bound=131) == 131
    assert len(adds) == 34
    # one check for the prefix, and add's own check at each step
    assert len(validations) == 34 + 1


def test_order_of_divides_no_polynomial_at_n65(monkeypatch):
    """The scan on triples takes no ``Poly.__divmod__``: each division by t
    drops a constant term, and no step divides f - v**2 by u."""
    model, D = n65_point()
    divisions, real_divmod = [], Poly.__divmod__

    def counted(f, g):
        divisions.append((f, g))
        return real_divmod(f, g)

    monkeypatch.setattr(Poly, "__divmod__", counted)
    assert order_of(model, D, bound=131) == 131
    assert divisions == []


def test_order_of_decides_the_identity_exactly_once_at_n65(monkeypatch):
    """The exact u*w + v**2 == f runs once per order_of, on the triple its answer
    reads: after the half-way test (bound 131), at the identity (bound 261) and
    past the bound (130); each step's guard is the O(g) check at x = 2**20."""
    model, D = n65_point()
    calls, check = [], jacobian2._check_conserved
    monkeypatch.setattr(jacobian2, "_check_conserved", lambda *args: calls.append(args) or check(*args))
    for bound in (131, 261):
        calls.clear()
        assert order_of(model, D, bound) == 131
        assert len(calls) == 1, bound
    calls.clear()
    with pytest.raises(OrderNotFoundError):
        order_of(model, D, 130)
    assert len(calls) == 1


def invisible(M, j, delta):
    """M with w moved by delta*(x - 2**20)*x**j: u*w + v**2 moves by a multiple
    of x - 2**20, which the per-step guard at x = 2**20 cannot see."""
    return M._replace(w=M.w + Poly.x_minus(2 ** 20) * Poly.x_power(j) * delta)


@pytest.mark.parametrize("j, delta", [(1, 1), (2, -1), (3, Fraction(1, 3))])
def test_an_invisible_perturbation_fails_at_the_exit(monkeypatch, j, delta):
    """A triple moved off f by a multiple of x - 2**20 passes validate, and once it
    enters the scan, as the series prefix or as the sum of one add, order_of's
    one exact check raises ValueError where the scan stops.  (With j = 0 and
    u(0) != 0 the constant term moves too, and the next division by t raises.)"""
    cert = construct(7, 2, 8)
    model, D = embed_point(cert.curve, cert.point)
    b, f = D.v[0], model.shift(-D.u[0])
    prefix = jacobian2._series_prefix(f, b, 3)
    validate(f, invisible(prefix, j, delta))
    validate(f, invisible(add(f, prefix, b), j, delta))
    real_prefix, real_add, added = jacobian2._series_prefix, jacobian2.add, []
    with monkeypatch.context() as patch:
        patch.setattr(jacobian2, "_series_prefix", lambda *args: invisible(real_prefix(*args), j, delta))
        with pytest.raises(ValueError, match="^u\\*w \\+ v\\^2 != f where the scan stops"):
            order_of(model, D, 8)

    def add_once(*args):  # the first sum of the scan only
        added.append(args)
        out = real_add(*args)
        return invisible(out, j, delta) if len(added) == 1 else out

    monkeypatch.setattr(jacobian2, "add", add_once)
    for bound in (7, 8, 16):
        added.clear()
        with pytest.raises(ValueError, match="^u\\*w \\+ v\\^2 != f where the scan stops"):
            order_of(model, D, bound)


def test_neg_divides_nothing_on_the_ladder(monkeypatch):
    """-(u, v) = (u, -v) with no division, on every multiple order_of scans."""
    scanned, real_add = [], jacobian2.add

    def recording_add(f, D, b):
        out = real_add(f, D, b)
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
            sums += [add_point(curve.f, s, w) for s in sums]
        pools.append((curve.f, sums, W))
    for f, E, m in torsion_generators():
        pools.append((f, multiples(f, E, m), [E]))
    return pools


@settings(max_examples=80, deadline=None)
@given(base_point_steps())
def test_add_equals_cantor_add_property(step):
    f, D, E = step
    assert add_point(f, D, E) == cantor_add(f, D, E)


@settings(max_examples=80, deadline=None)
@given(base_point_steps(), st.fractions(max_denominator=50), st.integers(0, 12), st.data())
def test_triple_updates_keep_u_w_plus_v_squared(step, c, k, data):
    """Each update of the module docstring keeps u*w + v**2 as a polynomial
    for any rational c (interpolation and the Newton lift, before the
    division by t), r (cancellation) and q (reduction); add's step, moved
    back to x, is Cantor's sum; and a triple whose w is off in one
    coefficient makes add raise ValueError."""
    f, D, E = step
    a = -E.u[0]
    f_t = f.shift(a)
    u, v, w = X = triple(f_t, at(D, a))
    t = Poly.x_power(1)
    r, q = (data.draw(st.fractions(max_denominator=50)) for _ in range(2))
    keep = u * w + v * v
    assert keep == f_t
    v2 = v + u * c  # interpolation and the Newton lift: u' = t*u, w' = (w - c*(v + v'))/t
    assert u * (w - (v + v2) * c) + v2 * v2 == keep
    v2 = v - u * r  # cancellation of t from u*t: u' = u, w' = t*w + r*(v + v')
    assert u * (t * w + (v + v2) * r) + v2 * v2 == (t * u) * w + v * v
    if w:  # reduction, with w/lc(w) for u'
        u2 = w * (1 / w.leading_coefficient)
        v2 = u2 * q - v
        assert u2 * (u * w.leading_coefficient + (v - v2) * q) + v2 * v2 == keep
    b = E.v[0]
    S = add(f_t, X, b)
    validate(f_t, S)
    assert S.u * S.w + S.v * S.v == f_t  # validate checks it only at x = 2**20
    assert at(S, -a) == cantor_add(f, D, E)
    with pytest.raises(ValueError):
        add(f_t, X._replace(w=w + Poly.x_power(k) * (c or 1)), b)


def test_every_one_coefficient_perturbation_of_w_makes_add_raise():
    """Over every step of the Hypothesis pools, w moved by delta*x**k, for k <= 12
    and delta in {1, -1, 1/3}, makes add raise ValueError: each update keeps
    u*w + v**2, so the sum is off f by u*delta*x**k, nonzero at x = 2**20."""
    refused = 0
    for f, pool, points in _step_pools():
        for E in points:
            a, b = -E.u[0], E.v[0]
            f_t = f.shift(a)
            for D in pool:
                X = triple(f_t, at(D, a))
                for k in range(13):
                    for delta in (1, -1, Fraction(1, 3)):
                        with pytest.raises(ValueError):
                            add(f_t, X._replace(w=X.w + Poly.x_power(k) * delta), b)
                        refused += 1
    assert refused == 44109


# ---------------------------------------------------------------------------
# order_of's series prefix: k*D for k <= g from the square root of f at x(P)
# ---------------------------------------------------------------------------

@st.composite
def series_points(draw, min_genus=1):
    """(f, D, g): a square-free f = b**2 + (x - a)*h of degree 2g + 1, a = p/q
    with q in {1, 2, 3, 7}, and D = (x - a, b) from ``embed_point``, either of
    the point (a, b) on y**2 = f or of the Gaussian point (a, i*b) on y**2 = -f."""
    g = draw(st.integers(min_genus, 5))
    a = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3, 7))))
    b = Fraction(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))), draw(st.integers(1, 4)))
    h = draw(st.lists(st.integers(-5, 5), min_size=2 * g, max_size=2 * g))
    h = Poly(h + [draw(st.sampled_from((1, -1, 2, -3)))]) * Fraction(1, draw(st.integers(1, 3)))
    f = Poly((b * b,)) + Poly.x_minus(a) * h
    assume(is_squarefree(f))
    if draw(st.booleans()):
        model, D = embed_point(Curve(2, 2 * g + 1, -f), AffinePoint(a, GaussianRational(0, b)))
    else:
        model, D = embed_point(Curve(2, 2 * g + 1, f), AffinePoint(a, b))
    assert model == f and D == MumfordDivisor(Poly.x_minus(a), Poly((b,)))
    return f, D, g


@settings(max_examples=60, deadline=None)
@given(series_points())
def test_series_prefix_equals_repeated_adds(case):
    """For every 2 <= K <= g, the prefix's K*D, moved back to x, is what K - 1
    ``add`` calls reach from D, its w is (f - v**2)/u, and K*D with one t
    dropped, (K-1)*D for the half-way test, is what K - 2 calls reach."""
    f, D, g = case
    a, b = -D.u[0], D.v[0]
    f_t = f.shift(a)
    reached = multiples(f, D, g + 1)
    for K in range(2, g + 1):
        S = jacobian2._series_prefix(f_t, b, K)
        assert S.u == Poly.x_power(K)
        assert at(S, -a) == reached[K]
        assert S == triple(f_t, at(reached[K], a))
        assert at(jacobian2._drop(S), -a) == reached[K - 1]


@settings(max_examples=40, deadline=None)
@given(series_points(min_genus=2), st.data())
def test_series_prefix_check_refuses_a_wrong_series(case, data):
    """The prefix's one check raises ValueError when the series gives -v, the
    other square root, or one wrong coefficient."""
    f, D, g = case
    K = data.draw(st.integers(2, g))
    j = data.draw(st.integers(0, K - 1))
    real = jacobian2.power_series
    wrong = (lambda T, r, s0, K: -real(T, r, s0, K),
             lambda T, r, s0, K: real(T, r, s0, K) + Poly.x_power(j))
    for series in wrong:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jacobian2, "power_series", series)
            with pytest.raises(ValueError):
                order_of(f, D, bound=2 * K)


def cantor_order(f, D, bound):
    """Least k <= bound with k*D = 0 by Cantor's addition alone, or None."""
    acc = D
    for k in range(1, bound + 1):
        if acc == IDENTITY:
            return k
        acc = cantor_add(f, acc, D)
    return None


@functools.cache
def _small_ladder():
    return list(ladder_certificates(9))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 29), st.integers(-3, 3), st.sampled_from((2, 3, 7)), st.data())
def test_order_of_agrees_with_cantor_on_a_shifted_abscissa(index, whole, q, data):
    """A ladder certificate moved by x -> x + c, c = whole + r/q with 0 < r < q,
    keeps its order and gets an abscissa with denominator q > 1; order_of
    agrees with a plain scan by Cantor's addition at bounds m - 1, m, m + 1 and 2m."""
    cert = _small_ladder()[index]
    c, m = whole + Fraction(data.draw(st.integers(1, q - 1)), q), cert.m
    curve = Curve(2, cert.curve.n, cert.curve.f.shift(-c))
    f, D = embed_point(curve, AffinePoint(cert.point.x + c, cert.point.y))
    assert D.u[0].denominator == q
    assert cantor_order(f, D, 2 * m) == m
    with pytest.raises(OrderNotFoundError):
        order_of(f, D, m - 1)
    for bound in (m, m + 1, 2 * m):
        assert order_of(f, D, bound) == m
