"""Curve models: validation, genus, monic normalization, order-d points."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsionforge.curves import (
    AffinePoint,
    Curve,
    DegreeError,
    GcdError,
    OrderError,
    POINT_AT_INFINITY,
    RepeatedRootError,
    field_roots,
    normalize_monic,
    on_curve,
    order_d_points,
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
    with pytest.raises(OrderError):
        Curve(1, 5, X5_MINUS_1)
    with pytest.raises(OrderError):
        Curve(5, 5, X5_MINUS_1)
    with pytest.raises(OrderError):
        Curve(7, 5, X5_MINUS_1)


def test_gcd_violation_detected():
    f6 = Poly((1, 1, 0, 0, 0, 0, 1))
    with pytest.raises(GcdError):
        Curve(2, 6, f6)
    with pytest.raises(GcdError):
        Curve(4, 6, f6)


def test_wrong_degree_detected():
    with pytest.raises(DegreeError):
        Curve(2, 5, Poly((1, 1, 1)))


def test_repeated_roots_rejected():
    with pytest.raises(RepeatedRootError):
        Curve(2, 5, Poly((0, 0, 0, 0, 0, 1)))          # x^5
    with pytest.raises(RepeatedRootError):
        Curve(2, 5, Poly.x_minus(Fraction(1)) ** 2 * Poly((1, 1, 0, 1)))


def test_validation_order_gcd_before_squarefree():
    # a curve that violates both gcd and squarefreeness reports the gcd first
    bad = Poly((0, 0, 0, 0, 0, 0, 1))                  # x^6
    with pytest.raises(GcdError):
        Curve(2, 6, bad)


def test_curve_json_round_trip():
    c = Curve(2, 5, Poly((1, 0, 1, 2, Fraction(1, 4), 1)))
    assert Curve.from_json_dict(c.to_json_dict()) == c


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_on_curve_predicate():
    c = Curve(2, 5, X5_MINUS_1)
    assert on_curve(c, AffinePoint(Fraction(1), Fraction(0)))
    assert not on_curve(c, AffinePoint(Fraction(2), Fraction(5)))
    assert on_curve(c, POINT_AT_INFINITY)


def test_on_curve_gaussian_point():
    f = Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    c = Curve(2, 5, f)
    y = GaussianRational(0, Fraction(5, 2))
    assert on_curve(c, AffinePoint(Fraction(-1), y))


# ---------------------------------------------------------------------------
# monic normalization
# ---------------------------------------------------------------------------

def test_normalization_worked_example():
    # 4x^3 + 1 normalizes to x^3 + 16 with (i, j) = (-1, 1)
    f = Poly((1, 0, 0, 4))
    norm = normalize_monic(2, 3, f)
    assert (norm.i, norm.j) == (-1, 1)
    assert norm.c0 == 4
    assert norm.target.f == Poly((16, 0, 0, 1))
    # model point (0, 4) maps to (0, 1) on the source curve
    pt = norm.map_point(AffinePoint(Fraction(0), Fraction(4)))
    assert pt == AffinePoint(Fraction(0), Fraction(1))
    assert on_curve(Curve(2, 3, f), pt)


def test_normalization_of_monic_input_is_identity_map():
    norm = normalize_monic(2, 5, X5_MINUS_1)
    assert norm.target.f == X5_MINUS_1
    assert norm.c0 == 1
    pt = AffinePoint(Fraction(1), Fraction(0))
    assert norm.map_point(pt) == pt


def test_normalization_exponents_satisfy_bezout():
    f = Poly((1, 0, 0, 0, 0, 0, 0, Fraction(27)))
    norm = normalize_monic(3, 7, f)
    assert 3 * norm.i + 7 * norm.j == 1
    assert norm.target.f.is_monic


@given(st.integers(min_value=1, max_value=40),
       st.sampled_from([(2, 5), (2, 7), (3, 5), (3, 7), (4, 7), (5, 8)]))
def test_normalization_identity_property(c0_num, nd):
    """The model curve relates to the source by the recorded substitution."""
    d, n = nd
    c0 = Fraction(c0_num, 3)
    f = (Poly.x_power(n) + Poly((1, 1))) * c0
    norm = normalize_monic(d, n, f)
    h = norm.target.f
    assert h.is_monic
    # h(t) == c0^(-d*i) * f(c0^(-j) * t) at several points
    for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
        lhs = h(t) * norm.c0 ** (d * norm.i)
        rhs = f(norm.c0 ** (-norm.j) * t)
        assert lhs == rhs


def test_normalization_point_map_lands_on_source_curve():
    # start from a monic curve with a known point, scale it into a
    # non-monic model, and check the normalization recovers the curve
    # and maps the point back onto the scaled model's source
    d, n = 2, 5
    f0 = Poly.x_power(5) + Poly((1, 1)) ** 2          # x^5 + (x+1)^2
    p0 = AffinePoint(Fraction(0), Fraction(1))
    assert on_curve(Curve(d, n, f0), p0)
    i0 = pow(d, -1, n)
    i = min((i0, i0 - n), key=abs)
    j = (1 - d * i) // n
    c0 = Fraction(4)
    g = f0.scale_x(c0 ** j) * c0 ** (d * i)           # model with lc = c0
    norm = normalize_monic(d, n, g)
    assert norm.c0 == c0
    assert norm.target.f == f0
    mapped = norm.map_point(p0)
    assert on_curve(Curve(d, n, g), mapped)


def test_normalization_rejects_explicit_non_bezout_exponents():
    f = Poly((1, 0, 0, 4))
    with pytest.raises(ValueError):
        normalize_monic(2, 3, f, i=1, j=1)


# ---------------------------------------------------------------------------
# order-d points and root finding
# ---------------------------------------------------------------------------

def test_order_d_points_of_x5_minus_1():
    pts, residual = order_d_points(Curve(2, 5, X5_MINUS_1))
    assert [(p.x, p.y) for p in pts] == [(1, 0)]
    assert residual == 4


def test_order_d_points_all_rational():
    f = Poly.x() * (Poly.x_power(2) - Poly((1,))) * (Poly.x_power(2) - Poly((4,)))
    pts, residual = order_d_points(Curve(2, 5, f))
    assert sorted(p.x for p in pts) == [-2, -1, 0, 1, 2]
    assert residual == 0
    assert all(p.y == 0 for p in pts)


def test_field_roots_rational():
    p = Poly((2, -3, 1))     # (x-1)(x-2)
    assert field_roots(p) == [1, 2]
    assert field_roots(Poly((Fraction(1, 2), 1))) == [Fraction(-1, 2)]
    assert field_roots(Poly((1, 0, 1))) == []          # x^2 + 1 over the rationals


def test_field_roots_gaussian():
    i = GaussianRational(0, 1)
    p = Poly((GaussianRational(1), GaussianRational(0), GaussianRational(1)))
    roots = field_roots(p)
    assert set(roots) == {i, -i}
    q = Poly((-i, Fraction(1)))      # x - i with mixed coefficient types
    assert field_roots(q) == [i]


def test_field_roots_gaussian_with_denominators():
    i = GaussianRational(0, 1)
    half_i = GaussianRational(0, Fraction(1, 2))
    p = Poly.x_minus(half_i) * Poly((GaussianRational(3), GaussianRational(1)))
    roots = field_roots(p)
    assert set(roots) == {half_i, GaussianRational(-3)}
