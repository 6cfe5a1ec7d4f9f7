"""Divisor arithmetic on hyperelliptic Jacobians (cover degree 2).

This is the independent order oracle: it never looks at certificates or
constructions, only at the curve equation y**2 = f(x) with f of odd
degree n = 2g + 1.  Divisor classes are held in Mumford form (u, v) with
u monic, deg v < deg u <= g, and u | v**2 - f, all over Q; general
addition is Cantor's algorithm (composition via a three-way extended
gcd, then reduction), which works for any genus.  Nothing assumes f
monic.

Orders are found by scanning the multiples k*D, and the scan stops at
the half-way point when it can.  Three facts keep that work over Q,
short and free of gcds:

* Quadratic twist.  f and x(P) are rational, so y(P)**2 = f(x(P)) is
  rational and y(P) lies in Q or in i*Q (the points the infinity-shift
  constructor emits).  In the second case (x, y) -> (x, y/i) is an
  isomorphism over Q(i) from y**2 = f onto y**2 = -f that fixes O, so
  :func:`embed_point` maps P - O to a divisor over Q of the same order
  on the twist, and every step of the scan runs on rationals.
* Adding the base point.  Each scan step adds a fixed E = (x - a, b) to
  D = (u1, v1).  The composed pair is u = u1*(x - a), v = v1 + c*u1 for
  a constant c, so v agrees with v1 modulo u1 and only v**2 = f modulo
  the new factor x - a is left to solve:
  - interpolation: if u1(a) != 0, c = (b - v1(a))/u1(a) makes v(a) = b;
  - Newton lift: if u1(a) = 0 and v1(a) = b != 0, then
    w = (f - v1**2)/u1 is a polynomial and c = w(a)/(2b) makes
    (x - a)*u1 divide v**2 - f;
  - otherwise (b = 0, v1(a) = -b, or E of degree other than 1) the
    step is Cantor's composition.
  In the first two cases gcd(u1, x - a, v1 + b) = 1, so Cantor's
  composition yields a pair with the same u and the same v modulo u;
  both go through the one reduction, and reduced Mumford pairs are
  unique, so the step returns exactly what Cantor's addition does.
* Half-length scan.  Once 2k >= bound, k*D + (bound-k)*D = bound*D, so
  bound*D = 0 exactly when k*D equals -(bound-k)*D (reduced Mumford
  pairs are unique).  Then the order divides bound, and each proper
  divisor of bound is at most bound/2 <= k and was already checked
  against the identity, so the order is bound itself.  Otherwise the
  scan goes on to bound, so the least k with k*D = 0 is still found
  exactly.
"""

from __future__ import annotations

from collections import namedtuple

from .curves import AffinePoint, Curve, on_curve
from .polyring import Poly, exact_div, xgcd
from .scalars import GaussianRational


class UnsupportedDegreeError(ValueError):
    """The Jacobian oracle only handles cover degree 2."""


class OrderNotFoundError(RuntimeError):
    """No multiple k*D with k <= bound vanished."""


class MumfordDivisor(namedtuple("MumfordDivisor", "u v")):
    """Reduced Mumford pair (u, v): u monic, deg v < deg u <= g, u | v**2 - f."""

    __slots__ = ()

    def is_identity(self) -> bool:
        return self.u.degree == 0 and self.v.is_zero

    def __str__(self):
        return "<u=%s, v=%s>" % (self.u, self.v)


IDENTITY = MumfordDivisor(Poly.one(), Poly.zero())


def _require_d2(curve: Curve):
    if curve.d != 2:
        raise UnsupportedDegreeError(
            "divisor arithmetic is implemented for d=2 only, got d=%d" % (curve.d,)
        )


def validate(curve: Curve, D: MumfordDivisor):
    """Check the Mumford invariants; raises ValueError on violation."""
    _require_d2(curve)
    if D.u.is_zero or not D.u.is_monic:
        raise ValueError("u must be monic, got %s" % (D.u,))
    if D.u.degree > curve.genus:
        raise ValueError(
            "deg u = %s exceeds genus %d" % (D.u.degree, curve.genus)
        )
    if not D.v.is_zero and D.v.degree >= D.u.degree:
        raise ValueError("need deg v < deg u, got %s / %s" % (D.v, D.u))
    if not ((D.v ** 2 - curve.f) % D.u).is_zero:
        raise ValueError("u does not divide v^2 - f")


# The model y**2 = -f, with the fields Cantor's algorithm reads.  Not a
# ``Curve``: -f is square-free exactly when f is, so the twist needs no
# second validation.
_Twist = namedtuple("_Twist", "d f genus")


def embed_point(curve: Curve, point: AffinePoint):
    """(model, D): the class of P - O, for an affine point P with rational
    abscissa on the curve, as a divisor D over Q on ``model``.

    ``model`` is the curve itself, or its twist y**2 = -f when y(P) lies
    in i*Q (see the module docstring).
    """
    _require_d2(curve)
    if not on_curve(curve, point):
        raise ValueError("point %s is not on the curve" % (point,))
    y = point.y
    if isinstance(y, GaussianRational):
        # y**2 = f(x(P)) is rational, so y.re * y.im == 0
        if y.im:
            curve = _Twist(curve.d, -curve.f, curve.genus)
        y = y.im or y.re
    D = MumfordDivisor(Poly((-point.x, 1)), Poly.constant(y))
    validate(curve, D)
    return curve, D


def neg(curve: Curve, D: MumfordDivisor) -> MumfordDivisor:
    _require_d2(curve)
    return MumfordDivisor(D.u, (-D.v) % D.u)


def add(curve: Curve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Cantor addition of reduced divisors; result is reduced and validated."""
    _require_d2(curve)
    f = curve.f
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v

    # composition: d = s1*u1 + s2*u2 + s3*(v1 + v2) = gcd(u1, u2, v1 + v2)
    d0, e1, e2 = xgcd(u1, u2)
    d, c1, c2 = xgcd(d0, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2

    u = exact_div(u1 * u2, d * d)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    return _reduce(curve, u, exact_div(num, d) % u)


def _reduce(curve, u: Poly, v: Poly) -> MumfordDivisor:
    """Cantor's reduction of a semi-reduced pair (u, v); the result is validated."""
    f, g = curve.f, curve.genus
    while u.degree > g:
        u_next = exact_div(f - v ** 2, u).monic()
        v = (-v) % u_next
        u = u_next
    out = MumfordDivisor(u, v)
    validate(curve, out)
    return out


def _add_point(curve, D: MumfordDivisor, E: MumfordDivisor) -> MumfordDivisor:
    """D + E, without a gcd when E = (x - a, b); equals ``add(curve, D, E)``.

    Interpolation, Newton lift or Cantor's composition, as the module
    docstring sets out.
    """
    _require_d2(curve)
    if E.u.degree != 1:
        return add(curve, D, E)
    a, b = -E.u[0], E.v[0]
    u1, v1 = D.u, D.v
    at_a = u1(a)
    if at_a:
        c = (b - v1(a)) / at_a
    elif b and v1(a) == b:
        c = exact_div(curve.f - v1 ** 2, u1)(a) / (2 * b)
    else:
        return add(curve, D, E)
    return _reduce(curve, u1 * E.u, v1 + u1 * c)


def order_of(curve: Curve, D: MumfordDivisor, bound: int) -> int:
    """Least k >= 1 with k*D = 0, for k up to bound, where D and its model
    ``curve`` are what :func:`embed_point` returns (or any divisor on a
    model over Q).

    Returns bound after ceil(bound/2) multiples when bound*D = 0 (see
    the module docstring); otherwise every multiple up to bound is
    checked against the identity.  Either way the returned k is the
    exact order, never a proper multiple of it.  Raises
    OrderNotFoundError past the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1, got %r" % (bound,))
    half = (bound + 1) // 2
    acc, prev = D, IDENTITY
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        # at k = ceil(bound/2): is k*D == -(bound-k)*D, i.e. bound*D = 0?
        if k == half and acc == neg(curve, prev if bound % 2 else acc):
            return bound
        acc, prev = _add_point(curve, acc, D), acc
    raise OrderNotFoundError(
        "no order <= %d found for %s" % (bound, D)
    )
