"""Divisor arithmetic on hyperelliptic Jacobians (cover degree 2).

This is the independent order oracle: it never looks at certificates or
constructions, only at the curve equation y**2 = f(x) with f of odd
degree n = 2g + 1.  Divisor classes are held in Mumford form (u, v) with
u monic, deg v < deg u <= g, and u | v**2 - f; addition is Cantor's
algorithm (general composition via a three-way extended gcd, then
reduction), which works uniformly over any exact field the coefficient
types support - here the rationals and the Gaussian rationals - and for
any genus.  Nothing assumes f monic.

Orders are found by linear scan: the orders this package meets are tiny
(a few dozen at most), and a scan is the only approach that proves
exactness rather than divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import AffinePoint, Curve, on_curve
from .polyring import Poly, exact_div, xgcd


class UnsupportedDegreeError(ValueError):
    """The Jacobian oracle only handles cover degree 2."""


class OrderNotFoundError(RuntimeError):
    """No multiple k*D with k <= bound vanished."""


@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced Mumford pair (u, v): u monic, deg v < deg u <= g, u | v**2 - f."""

    u: Poly
    v: Poly

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


def embed_point(curve: Curve, point: AffinePoint) -> MumfordDivisor:
    """The class of P - O for an affine point P on the curve."""
    _require_d2(curve)
    if not on_curve(curve, point):
        raise ValueError("point %s is not on the curve" % (point,))
    D = MumfordDivisor(Poly((-point.x, 1)), Poly.constant(point.y))
    validate(curve, D)
    return D


def neg(curve: Curve, D: MumfordDivisor) -> MumfordDivisor:
    _require_d2(curve)
    return MumfordDivisor(D.u, (-D.v) % D.u)


def add(curve: Curve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Cantor addition of reduced divisors; result is reduced and validated."""
    _require_d2(curve)
    f, g = curve.f, curve.genus
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v

    # composition: d = s1*u1 + s2*u2 + s3*(v1 + v2) = gcd(u1, u2, v1 + v2)
    d0, e1, e2 = xgcd(u1, u2)
    vsum = v1 + v2
    if vsum.is_zero:
        d, c1, c2 = d0, Poly.one(), Poly.zero()
    else:
        d, c1, c2 = xgcd(d0, vsum)
    s1, s2, s3 = c1 * e1, c1 * e2, c2

    u = exact_div(u1 * u2, d * d)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    v = exact_div(num, d) % u

    # reduction
    while u.degree > g:
        u_next = exact_div(f - v ** 2, u)
        u_next = u_next.monic()
        v = (-v) % u_next
        u = u_next
    u = u.monic()
    out = MumfordDivisor(u, v)
    validate(curve, out)
    return out


def scalar_mul(curve: Curve, k: int, D: MumfordDivisor) -> MumfordDivisor:
    """k*D by doubling; k may be any integer."""
    if k < 0:
        return scalar_mul(curve, -k, neg(curve, D))
    acc = IDENTITY
    base = D
    while k:
        if k & 1:
            acc = add(curve, acc, base)
        base = add(curve, base, base)
        k >>= 1
    return acc


def order_of(curve: Curve, D: MumfordDivisor, bound: int) -> int:
    """Least k >= 1 with k*D = 0, by linear scan up to bound.

    The scan certifies exactness: every intermediate multiple is checked
    against the identity, so the returned k cannot be a proper multiple
    of the true order.  Raises OrderNotFoundError past the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1, got %r" % (bound,))
    acc = D
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = add(curve, acc, D)
    raise OrderNotFoundError(
        "no order <= %d found for %s" % (bound, D)
    )
