"""Divisor arithmetic on hyperelliptic Jacobians (cover degree 2).

This is the independent order oracle: it never looks at certificates or
constructions.  :func:`embed_point` reads the curve and the point; the rest
reads only the model y**2 = f(x), f of odd degree n = 2g + 1.  Divisor
classes are held in Mumford form (u, v) with u monic, deg v < deg u <= g,
and u | v**2 - f, all over Q.  Each step adds one point to a reduced
divisor and then takes one step of Cantor's reduction ("Computing in the
Jacobian of a hyperelliptic curve", Math. Comp. 48, 1987).  Nothing
assumes f monic.  Six facts keep the scan of the multiples k*D over Q,
short, cheap to guard, and free of gcds and of polynomial division:

* Quadratic twist.  f and x(P) are rational, so y(P)**2 = f(x(P)) is
  rational and y(P) lies in Q or in i*Q (the points the infinity-shift
  constructor emits).  In the second case (x, y) -> (x, y/i) is an
  isomorphism over Q(i) from y**2 = f onto y**2 = -f that fixes O, so
  :func:`embed_point` returns -f as the model and P - O as a divisor over
  Q of the same order on it, and every step of the scan runs on rationals.
* The point's own coordinate.  :func:`order_of` moves f to t = x - x(P)
  once, so P = (0, b), a value at x(P) is a constant term and a division
  by x - x(P) drops a constant term that must be 0.  The scan carries
  triples (u, v, w) with f = u*w + v**2 (Cohen and Frey, eds., *Handbook
  of Elliptic and Hyperelliptic Curve Cryptography*, 2006, ch. 14).
* One group law.  :func:`add` adds P = (t, b), b**2 = f(0), given by b,
  to D = (u, v, w) with constant terms u0, v0, w0 in one of three ways:
  - interpolation: if u0 != 0, c = (b - v0)/u0 makes v(0) = b;
  - Newton lift: if u0 = 0 and v0 = b != 0, c = w0/(2b);
    both set u' = t*u, v' = v + c*u and w' = (w - c*(v + v'))/t, whose
    dropped term w0 - c*(2*v0 + c*u0) is 0 (u0*w0 = b**2 - v0**2);
  - cancellation: otherwise u0 = 0 forces v0**2 = b**2, so v0 = -b and D
    holds -P = (0, -b) (a reduced divisor holds (0, 0) at most once);
    D + P drops one copy of it: u' = u/t, r = v[deg u'], v' = v - r*u'
    and w' = t*w + r*(v + v'), already reduced.
  In the first two cases gcd(u, t, v + b) = 1, so Cantor's composition
  yields the same u and the same v modulo u; reduced Mumford pairs are
  unique, so reducing gives Cantor's sum.  One reduction step is enough:
  deg u' <= g + 1, and when deg u' = g + 1, deg(f - v'**2) = 2g + 1, so
  w' has degree g; with L = lc(w') and q = v'[g] the sum is u'' = w'/L,
  v'' = q*u'' - v' and w'' = L*u' + q*(v' - v'').  Each update keeps
  u*w + v**2 as a polynomial, as v'**2 - v**2 = c*u*(v + v'),
  v**2 - v'**2 = r*u'*(v + v') and v''*(v'' - q*u'') = -v'*v''; so a step
  is O(g), divides nothing and keeps its scalars c, r, L and q as integer pairs.
* One exact check.  Every update keeps u*w + v**2 as a polynomial whatever
  the triple, and its only divisions, by t, by t**K and by L, are exact or
  raise; so a triple off f stays off f by the same polynomial until the
  scan stops.  :func:`validate` guards each step in O(g): u monic,
  deg v < deg u <= g, and u*w + v**2 == f at x = 2**20 (``is_spot_sum``).
  At its one exit :func:`order_of` decides u*w + v**2 == f exactly, with ``*``,
  ``+`` and ``==``, on the triple its answer reads, before it returns or raises
  OrderNotFoundError; that holds the identity for every triple before it.
* Series prefix.  When b != 0 and k <= g, k*P - k*O holds no opposite
  pair and is reduced, so k*D = (t**k, S_k, (f - S_k**2)/t**k) needs no
  step (Cantor, section 3): S_k is the one v of degree < k with v(0) = b
  and t**k | f - v**2, the square root of f through b cut to k terms,
  which ``polyring.power_series`` computes at r = 1/2 on integer pairs.
  :func:`order_of` always starts from K*D so built, K = min(g, ceil(bound/2)),
  or K = 1 when b = 0 (S_1 = b divides by nothing), and scans on from k = K.
  Two conditions check it: the K low coefficients of f - S_K**2 vanish, so
  S_K is one of the two square roots of f modulo t**K (at K = 1: the base
  is on the model), and S_K(0) = b picks the one through b; for k < K,
  t**k | t**K and S_k = S_K mod t**k.  No such k*D is the identity, as
  deg u = k >= 1, and K <= half = ceil(bound/2), so the half-way test
  below still meets the true (half-1)*D and half*D.
* Half-length scan.  Once 2k >= bound, k*D + (bound-k)*D = bound*D, so
  bound*D = 0 exactly when k*D equals -(bound-k)*D (reduced Mumford
  pairs are unique).  Then the order divides bound, and each proper
  divisor of bound is at most bound/2 <= k and was already checked
  against the identity, so the order is bound itself.  Otherwise the
  scan stops at bound*D, so the least k with k*D = 0 is still found
  exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .curves import AffinePoint, Curve, on_curve
# xgcd is not called here, but bench/tracer.py hooks jacobian2.xgcd by name
from .polyring import Poly, combine, is_spot_sum, power_series, xgcd
from .scalars import GaussianRational


class OrderNotFoundError(RuntimeError):
    """No multiple k*D with k <= bound vanished."""


#: A reduced Mumford pair (u, v): u monic, deg v < deg u <= g, u | v**2 - f;
#: in the scan it carries its cofactor w = (f - v**2)/u as well.
MumfordDivisor = namedtuple("MumfordDivisor", "u v w", defaults=(None,))


def validate(f: Poly, D: MumfordDivisor):
    """Check a triple on y**2 = f: u monic, deg v < deg u <= g and
    u*w + v**2 == f at x = 2**20, the O(g) guard of each step; raises
    ValueError on violation.  :func:`order_of` decides the identity exactly."""
    u, v, w = D
    if not u.is_monic:
        raise ValueError("u must be monic, got %s" % (u,))
    if 2 * u.degree > f.degree:
        raise ValueError("deg u = %s exceeds genus %d" % (u.degree, f.degree // 2))
    if v and v.degree >= u.degree:
        raise ValueError("need deg v < deg u, got %s / %s" % (v, u))
    if not is_spot_sum(f, (u, w), (v, v)):
        raise ValueError("u*w + v^2 != f for u = %s, v = %s" % (u, v))


def _check_conserved(f: Poly, D: MumfordDivisor):
    """Decide u*w + v**2 == f exactly on the triple that order_of's answer reads,
    and so on every triple before it (see the module docstring); ValueError if not."""
    if D.u * D.w + D.v * D.v != f:
        raise ValueError("u*w + v^2 != f where the scan stops, for u = %s, v = %s" % (D.u, D.v))


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
    return f, MumfordDivisor(Poly.x_minus(point.x), Poly((y,)))


def _drop(D: MumfordDivisor) -> MumfordDivisor:
    """Cancellation's update, for u(0) = 0: u/t, and v and w to match."""
    u, v, w = D
    (r, dr), u = v.pair(u.degree - 1), u >> 1
    v2 = combine(((1, 1), v), ((-r, dr), u))
    return MumfordDivisor(u, v2, combine(((1, 1), w << 1), ((r, dr), v), ((r, dr), v2)))


def add(f: Poly, D: MumfordDivisor, b) -> MumfordDivisor:
    """D + (t, b) on y**2 = f, for the point (t, b) with b**2 = f(0), as
    triples: one of the three updates of the module docstring, at most one
    reduction step, then :func:`validate`.  Every scalar, c, r, L = lc(w) and
    q, is an integer pair of stored coefficients read by ``Poly.pair`` and goes
    into one ``combine`` per polynomial, and w' is divided by t exactly with
    ``>> 1``: no ``Fraction`` is built."""
    u, v, w = D
    (u0, du), (v0, dv), (w0, dw) = u.pair(0), v.pair(0), w.pair(0)
    bn, bd = b.numerator, b.denominator
    if u0 or bn and v0 * bd == bn * dv:  # interpolation, c = (b - v0)/u0, or the Newton lift, c = w0/(2b)
        c, dc = ((bn * dv - v0 * bd) * du, bd * dv * u0) if u0 else (w0 * bd, 2 * bn * dw)
        g = math.gcd(c, dc)
        c, dc = c // g, dc // g
        v2 = combine(((1, 1), v), ((c, dc), u))
        D = MumfordDivisor(u << 1, v2, combine(((1, 1), w), ((-c, dc), v), ((-c, dc), v2)) >> 1)
    else:  # cancellation: v(0) = -b, so D holds -P
        D = _drop(D)
    u, v, w = D
    if 2 * u.degree > f.degree:  # reduction
        u2, L, (q, dq) = w.monic(), w.pair(w.degree), v.pair(u.degree - 1)
        v2 = combine(((q, dq), u2), ((-1, 1), v))
        D = MumfordDivisor(u2, v2, combine((L, u), ((q, dq), v), ((-q, dq), v2)))
    validate(f, D)
    return D


def _series_prefix(f: Poly, b, K: int) -> MumfordDivisor:
    """K*D for D = (t, b), 1 <= K <= g and b != 0 if K > 1, from the
    square-root series of f at t = 0, checked once (see the module docstring)."""
    S = power_series(f, (1, 2), (b.numerator, b.denominator), K)
    if S[0] != b:
        raise ValueError("the series %s does not pass through (0, %s)" % (S, b))
    out = MumfordDivisor(Poly.x_power(K), S, (f - S * S) >> K)
    validate(f, out)
    return out


def order_of(f: Poly, D: MumfordDivisor, bound: int) -> int:
    """Least k >= 1 with k*D = 0, for k up to bound, where D = P - O and
    its model y**2 = f are what :func:`embed_point` returns: the series
    prefix K*D, then ``add`` at each step up to bound*D and the half-way
    test (see the module docstring), so the returned k is the exact order,
    never a proper multiple of it.  The one exit decides u*w + v**2 == f by
    ``*``, ``+`` and ``==``, and raises ValueError if not, as for a base that
    is not a point (x - a, b), a base off the model or a prefix that fails its
    check; OrderNotFoundError, after bound - K adds, past the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1, got %r" % (bound,))
    if D.u.degree != 1 or D.v.degree > 0:
        raise ValueError("the base must be a point (x - a, b), got %s" % (D,))
    b, f = D.v[0], f.shift(-D.u[0])
    half = (bound + 1) // 2
    K = min(f.degree // 2, half) if b else 1
    acc, prev = _series_prefix(f, b, K), None
    for k in range(K, bound + 1):
        if k > K:
            acc, prev = add(f, acc, b), acc
        if not acc.u.degree:  # a reduced pair with deg u = 0 is (1, 0)
            break
        # at k = ceil(bound/2): is k*D == -(bound-k)*D, i.e. bound*D = 0?
        # -(u, v) is (u, -v): -v is already reduced modulo u, as deg v < deg u
        if k == half:
            M = (prev or _drop(acc)) if bound % 2 else acc  # at k = K, (K-1)*D is K*D less one t
            if acc.u == M.u and acc.v == -M.v:
                k = bound
                break
    else:  # bound*D != 0
        k = None
    _check_conserved(f, acc)
    if k is None:
        raise OrderNotFoundError("no order <= %d found for %s" % (bound, D))
    return k
