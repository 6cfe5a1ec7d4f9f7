"""Divisor arithmetic on hyperelliptic Jacobians (cover degree 2).

This is the independent order oracle: it never looks at certificates or
constructions, only at the curve equation y**2 = f(x) with f of odd
degree n = 2g + 1.  Divisor classes are held in Mumford form (u, v) with
u monic, deg v < deg u <= g, and u | v**2 - f, all over Q.  Each step
adds one point to a reduced divisor and then runs Cantor's reduction
("Computing in the Jacobian of a hyperelliptic curve", Math. Comp. 48,
1987).  Nothing assumes f monic.

Orders are found by scanning the multiples k*D, and the scan stops at
the half-way point when it can.  Three facts keep that work over Q,
short and free of gcds:

* Quadratic twist.  f and x(P) are rational, so y(P)**2 = f(x(P)) is
  rational and y(P) lies in Q or in i*Q (the points the infinity-shift
  constructor emits).  In the second case (x, y) -> (x, y/i) is an
  isomorphism over Q(i) from y**2 = f onto y**2 = -f that fixes O, so
  :func:`embed_point` maps P - O to a divisor over Q of the same order
  on the twist, and every step of the scan runs on rationals.
* One group law.  :func:`add` adds a point E = (x - a, b) of the model,
  so b**2 = f(a), to D = (u1, v1) in one of three ways, then reduces:
  - interpolation: if u1(a) != 0, u = u1*(x - a) and v = v1 + c*u1,
    where c = (b - v1(a))/u1(a) makes v(a) = b;
  - Newton lift: if u1(a) = 0 and v1(a) = b != 0, w = (f - v1**2)/u1 is
    a polynomial, and c = w(a)/(2b) makes that u divide v**2 - f;
  - cancellation: otherwise u1(a) = 0 forces v1(a)**2 = b**2, so
    v1(a) = -b and D holds -E = (a, -b); a reduced divisor holds (a, 0)
    at most once.  D + E drops one copy of -E: u = u1/(x - a) and
    v = v1 mod u, already reduced.
  In the first two cases gcd(u1, x - a, v1 + b) = 1, so Cantor's
  composition yields the same u and the same v modulo u; reduced
  Mumford pairs are unique, so one reduction gives Cantor's sum.
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
# xgcd is not called here, but bench/tracer.py hooks jacobian2.xgcd by name
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
    return curve, MumfordDivisor(Poly((-point.x, 1)), Poly.constant(y))


def neg(curve: Curve, D: MumfordDivisor) -> MumfordDivisor:
    _require_d2(curve)
    return MumfordDivisor(D.u, (-D.v) % D.u)


def add(curve: Curve, D: MumfordDivisor, E: MumfordDivisor) -> MumfordDivisor:
    """D + E for a point E = (x - a, b) of the model: one of the three cases
    of the module docstring, then Cantor's reduction and :func:`validate`."""
    _require_d2(curve)
    f, g = curve.f, curve.genus
    u1, v1 = D.u, D.v
    a, b = -E.u[0], E.v[0]
    at_a = u1(a)
    if at_a:  # interpolation
        u, v = u1 * E.u, v1 + u1 * ((b - v1(a)) / at_a)
    elif b and v1(a) == b:  # Newton lift
        u, v = u1 * E.u, v1 + u1 * (exact_div(f - v1 ** 2, u1)(a) / (2 * b))
    else:  # cancellation: v1(a) = -b, so D holds -E
        u = exact_div(u1, E.u)
        v = v1 % u

    # reduction
    while u.degree > g:
        u = exact_div(f - v ** 2, u).monic()
        v = (-v) % u
    out = MumfordDivisor(u, v)
    validate(curve, out)
    return out


def order_of(curve: Curve, D: MumfordDivisor, bound: int) -> int:
    """Least k >= 1 with k*D = 0, for k up to bound, where D = P - O and
    its model ``curve`` are what :func:`embed_point` returns.

    Returns bound after ceil(bound/2) multiples when bound*D = 0 (see
    the module docstring); otherwise every multiple up to bound is
    checked against the identity.  Either way the returned k is the
    exact order, never a proper multiple of it.  Raises ValueError for
    a base of degree other than 1 and OrderNotFoundError past the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1, got %r" % (bound,))
    if D.u.degree != 1:
        raise ValueError("the base must be a point (x - a, b), got %s" % (D,))
    half = (bound + 1) // 2
    acc, prev = D, IDENTITY
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        # at k = ceil(bound/2): is k*D == -(bound-k)*D, i.e. bound*D = 0?
        if k == half and acc == neg(curve, prev if bound % 2 else acc):
            return bound
        acc, prev = add(curve, acc, D), acc
    raise OrderNotFoundError(
        "no order <= %d found for %s" % (bound, D)
    )
