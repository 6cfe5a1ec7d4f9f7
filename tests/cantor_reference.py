"""The tests' references for divisor arithmetic: Cantor's addition of two
general divisors, for ``jacobian2.add``, which adds only a point to a
divisor, and negation."""

from __future__ import annotations

from torsionforge.jacobian2 import MumfordDivisor
from torsionforge.polyring import exact_div, xgcd


def cantor_add(f, D1, D2):
    """D1 + D2 on y**2 = f, with genus g = deg f // 2, by Cantor's composition
    through a three-way extended gcd, then his reduction (Math. Comp. 48, 1987)."""
    (u1, v1), (u2, v2) = D1, D2
    d0, e1, e2 = xgcd(u1, u2)
    d, c1, c2 = xgcd(d0, v1 + v2)
    u = exact_div(u1 * u2, d * d)
    num = c1 * e1 * u1 * v2 + c1 * e2 * u2 * v1 + c2 * (v1 * v2 + f)
    v = divmod(exact_div(num, d), u)[1]
    while 2 * u.degree > f.degree:
        u = exact_div(f - v ** 2, u).monic()
        v = divmod(-v, u)[1]
    return MumfordDivisor(u, v)


def neg(D):
    """-D = (u, -v): -v is already reduced modulo u, as deg v < deg u."""
    return MumfordDivisor(D.u, -D.v)
