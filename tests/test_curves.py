"""Curve models: validation, genus, JSON round-trip and the point predicate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from torsionforge import certify
from torsionforge.certify import reachability_verdict
from torsionforge.constructors import construct, construct_n_plus_ed
from torsionforge.curves import (
    AffinePoint,
    Curve,
    CurveError,
    PreconditionError,
    on_curve,
)
from torsionforge.polyring import Poly
from torsionforge.scalars import GaussianRational


X5_MINUS_1 = Poly((-1, 0, 0, 0, 0, 1))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_valid_curve_and_genus():
    c = Curve(2, 5, X5_MINUS_1)
    assert c.genus == 2
    assert Curve(3, 7, Poly((-2, 0, 0, 0, 0, 0, 0, 1))).genus == 6
    assert Curve(2, 7, Poly((1, 1, 0, 0, 0, 0, 0, 1))).genus == 3


def test_degree_order_must_satisfy_bounds():
    with pytest.raises(CurveError, match="cover degree d must be at least 2, got 1"):
        Curve(1, 5, X5_MINUS_1)
    with pytest.raises(CurveError, match="requires n > d"):
        Curve(5, 5, X5_MINUS_1)
    with pytest.raises(CurveError, match="requires n > d"):
        Curve(7, 5, X5_MINUS_1)


def test_gcd_violation_detected():
    f6 = Poly((1, 1, 0, 0, 0, 0, 1))
    with pytest.raises(CurveError, match="n and d must be coprime"):
        Curve(2, 6, f6)
    with pytest.raises(CurveError, match="n and d must be coprime"):
        Curve(4, 6, f6)


BAD_SHAPES = [(4, 2), (5, 1), (2, 5), (6, 3), (7, 7), (Fraction(11, 2), 2)]


@pytest.mark.parametrize("n, d", BAD_SHAPES, ids=["n%s-d%s" % shape for shape in BAD_SHAPES])
def test_every_shape_refusal_is_the_curve_rule(n, d):
    with pytest.raises(CurveError) as by_curve:
        Curve(d, n, X5_MINUS_1)
    refusals = (
        lambda: reachability_verdict(n, d, 6),
        lambda: construct(n, d, 6),
        lambda: construct_n_plus_ed(n, d, 1),
    )
    for refuse in refusals:
        with pytest.raises(CurveError) as caught:
            refuse()
        assert str(caught.value) == str(by_curve.value)


def test_every_refused_precondition_is_a_precondition_error():
    assert issubclass(CurveError, PreconditionError)
    assert certify.PreconditionError is PreconditionError


def test_wrong_degree_detected():
    with pytest.raises(CurveError, match="deg f = 2 but n = 5"):
        Curve(2, 5, Poly((1, 1, 1)))


def test_repeated_roots_rejected():
    with pytest.raises(CurveError, match="f has a repeated root"):
        Curve(2, 5, Poly((0, 0, 0, 0, 0, 1)))          # x^5
    with pytest.raises(CurveError, match="f has a repeated root"):
        Curve(2, 5, Poly.x_minus(Fraction(1)) ** 2 * Poly((1, 1, 0, 1)))


def test_every_copy_of_a_curve_is_validated():
    c = Curve(2, 5, X5_MINUS_1)
    square = Poly.x_minus(Fraction(1)) ** 2 * Poly((1, 1, 0, 1))
    with pytest.raises(CurveError, match="f has a repeated root"):
        c._replace(f=square)
    with pytest.raises(CurveError, match="f has a repeated root"):
        Curve._make((2, 5, square))
    copy = c._replace(f=-X5_MINUS_1)
    assert type(copy) is Curve and copy == Curve._make((2, 5, -X5_MINUS_1))


def test_degree_120_curve_validates_without_the_exact_gcd(euclid_primes):
    # random small coefficients: the remainders of a gcd over Q grow, those mod p do not
    rng = random.Random(120)
    f = Poly([rng.randint(-9, 9) for _ in range(120)] + [rng.randint(1, 9)])
    assert Curve(7, 120, f).genus == 357
    assert euclid_primes == [2**30 - 35]


def test_validation_order_gcd_before_squarefree():
    # a curve that violates both gcd and squarefreeness reports the gcd first
    bad = Poly((0, 0, 0, 0, 0, 0, 1))                  # x^6
    with pytest.raises(CurveError, match="n and d must be coprime"):
        Curve(2, 6, bad)


def test_curve_json_round_trip():
    c = Curve(2, 5, Poly((1, 0, 1, 2, Fraction(1, 4), 1)))
    assert Curve.from_json_dict(c.to_json_dict()) == c


def test_curve_json_refuses_keys_the_serializer_never_writes():
    obj = Curve(2, 5, Poly((1, 0, 1, 2, Fraction(1, 4), 1))).to_json_dict()
    obj["genus"] = 2
    # a malformed certificate (exit 2), not an invalid curve (a failed curve-valid line)
    with pytest.raises(ValueError, match=r"unknown curve keys \['genus'\]") as info:
        Curve.from_json_dict(obj)
    assert not isinstance(info.value, CurveError)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_on_curve_predicate():
    c = Curve(2, 5, X5_MINUS_1)
    assert on_curve(c, AffinePoint(Fraction(1), Fraction(0)))
    assert not on_curve(c, AffinePoint(Fraction(2), Fraction(5)))


def test_on_curve_gaussian_point():
    f = Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    c = Curve(2, 5, f)
    y = GaussianRational(0, Fraction(5, 2))
    assert on_curve(c, AffinePoint(Fraction(-1), y))
