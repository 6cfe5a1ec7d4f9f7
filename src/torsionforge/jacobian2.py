"""Divisor arithmetic on hyperelliptic Jacobians (cover degree 2).

This is the independent order oracle: it never looks at certificates or
constructions.  :func:`embed_point` reads the curve and the point; the rest
reads only the model y**2 = f(x), f of odd degree n = 2g + 1.  Divisor
classes are held in Mumford form (u, v) with u monic, deg v < deg u <= g,
and u | v**2 - f, all over Q.  Each step adds one point to a reduced
divisor and then takes one step of Cantor's reduction ("Computing in the
Jacobian of a hyperelliptic curve", Math. Comp. 48, 1987).  Nothing
assumes f monic.

Orders are found by scanning the multiples k*D, and the scan stops at
the half-way point when it can.  Three facts keep that work over Q,
short and free of gcds:

* Quadratic twist.  f and x(P) are rational, so y(P)**2 = f(x(P)) is
  rational and y(P) lies in Q or in i*Q (the points the infinity-shift
  constructor emits).  In the second case (x, y) -> (x, y/i) is an
  isomorphism over Q(i) from y**2 = f onto y**2 = -f that fixes O, so
  :func:`embed_point` returns -f as the model and P - O as a divisor over
  Q of the same order on it, and every step of the scan runs on rationals.
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
  Mumford pairs are unique, so reducing gives Cantor's sum.  One
  reduction step is enough: deg u1 <= g, so deg u <= g + 1 after any
  case, and when deg u = g + 1, deg v <= g makes deg(f - v**2) = 2g + 1,
  so u' = (f - v**2)/u has degree g.  :func:`validate` checks each sum.
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


def validate(f: Poly, D: MumfordDivisor):
    """Check the Mumford invariants on y**2 = f; raises ValueError on violation."""
    if not D.u.is_monic:
        raise ValueError("u must be monic, got %s" % (D.u,))
    if 2 * D.u.degree > f.degree:
        raise ValueError("deg u = %s exceeds genus %d" % (D.u.degree, f.degree // 2))
    if not D.v.is_zero and D.v.degree >= D.u.degree:
        raise ValueError("need deg v < deg u, got %s / %s" % (D.v, D.u))
    if not divmod(D.v ** 2 - f, D.u)[1].is_zero:
        raise ValueError("u does not divide v^2 - f")


def embed_point(curve: Curve, point: AffinePoint):
    """(f, D): the class of P - O, for an affine point P with rational
    abscissa on a d = 2 curve, as a divisor D over Q on the model y**2 = f.

    f is the curve's own polynomial, or -f for the twist when y(P) lies
    in i*Q (see the module docstring); -f is square-free exactly when f
    is, so the twist needs no second validation.
    """
    if curve.d != 2:
        raise ValueError("divisor arithmetic is implemented for d=2 only, got d=%d" % (curve.d,))
    if not on_curve(curve, point):
        raise ValueError("point %s is not on the curve" % (point,))
    f, y = curve.f, point.y
    if isinstance(y, GaussianRational):
        # y**2 = f(x(P)) is rational, so y.re * y.im == 0
        if y.im:
            f = -f
        y = y.im or y.re
    return f, MumfordDivisor(Poly((-point.x, 1)), Poly.constant(y))


def neg(D: MumfordDivisor) -> MumfordDivisor:
    """-D = (u, -v): -v is already reduced modulo u, as deg v < deg u."""
    return MumfordDivisor(D.u, -D.v)


def add(f: Poly, D: MumfordDivisor, E: MumfordDivisor) -> MumfordDivisor:
    """D + E on y**2 = f for a point E = (x - a, b), so b**2 = f(a): one of
    the three cases of the module docstring, then one reduction step and
    :func:`validate`.  Raises ValueError for a summand E that is not a point."""
    if E.u.degree != 1:
        raise ValueError("the summand must be a point (x - a, b), got E = %s" % (E,))
    u1, v1 = D.u, D.v
    a, b = -E.u[0], E.v[0]
    at_a = u1(a)
    if at_a:  # interpolation
        u, v = u1 * E.u, v1 + u1 * ((b - v1(a)) / at_a)
    elif b and v1(a) == b:  # Newton lift
        u, v = u1 * E.u, v1 + u1 * (exact_div(f - v1 ** 2, u1)(a) / (2 * b))
    else:  # cancellation: v1(a) = -b, so D holds -E
        u = exact_div(u1, E.u)
        v = divmod(v1, u)[1]

    # reduction: one step suffices (see the module docstring)
    if 2 * u.degree > f.degree:
        u = exact_div(f - v ** 2, u).monic()
        v = divmod(-v, u)[1]
    out = MumfordDivisor(u, v)
    validate(f, out)
    return out


def order_of(f: Poly, D: MumfordDivisor, bound: int) -> int:
    """Least k >= 1 with k*D = 0, for k up to bound, where D = P - O and
    its model y**2 = f are what :func:`embed_point` returns.

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
        if k == half and acc == neg(prev if bound % 2 else acc):
            return bound
        acc, prev = add(f, acc, D), acc
    raise OrderNotFoundError("no order <= %d found for %s" % (bound, D))
