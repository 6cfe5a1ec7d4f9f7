"""The tests' references for divisor arithmetic: Cantor's addition of two
general divisors, for ``jacobian2.add``, which adds only a point to a
divisor, and negation; and the adapters that run ``jacobian2``'s
triple step on Mumford pairs in x."""

from __future__ import annotations

from torsionforge.jacobian2 import MumfordDivisor, add, validate
from torsionforge.polyring import Poly, xgcd

IDENTITY = MumfordDivisor(Poly((1,)), Poly())


def exact_div(f, g):
    q, r = divmod(f, g)
    assert not r, "%s does not divide %s" % (g, f)
    return q


def cantor_add(f, D1, D2):
    """D1 + D2 on y**2 = f, with genus g = deg f // 2, by Cantor's composition
    through a three-way extended gcd, then his reduction (Math. Comp. 48, 1987)."""
    (u1, v1, _), (u2, v2, _) = D1, D2
    d0, e1, e2 = xgcd(u1, u2)
    d, c1, c2 = xgcd(d0, v1 + v2)
    u = exact_div(u1 * u2, d * d)
    num = c1 * e1 * u1 * v2 + c1 * e2 * u2 * v1 + c2 * (v1 * v2 + f)
    v = divmod(exact_div(num, d), u)[1]
    while 2 * u.degree > f.degree:
        u = exact_div(f - v ** 2, u)
        u = u * (1 / u.leading_coefficient)
        v = divmod(-v, u)[1]
    return MumfordDivisor(u, v)


def neg(D):
    """-D = (u, -v): -v is already reduced modulo u, as deg v < deg u."""
    return MumfordDivisor(D.u, -D.v)


def triple(f, D):
    """(u, v, w) for a pair (u, v) on y**2 = f, with w the quotient of
    f - v**2 by u; the triple is off f if that left a remainder."""
    return MumfordDivisor(D.u, D.v, divmod(f - D.v ** 2, D.u)[0])


def validate_pair(f, D):
    """``jacobian2.validate`` on the triple of a pair (u, v), and the exact
    identity u*w + v**2 == f, which ``validate`` checks only at x = 2**20."""
    T = triple(f, D)
    validate(f, T)
    assert T.u * T.w + T.v * T.v == f, "u*w + v^2 != f for %s" % (D,)


def at(D, a):
    """The pair (u, v) moved to the coordinate t = x - a: u(t + a), v(t + a)."""
    return MumfordDivisor(D.u.shift(a), D.v.shift(a))


def add_point(f, D, E):
    """D + E on y**2 = f, for a point E = (x - a, b), by ``jacobian2.add`` on
    triples in E's own coordinate t = x - a, with the sum moved back to x."""
    a = -E.u[0]
    f_t = f.shift(a)
    S = add(f_t, triple(f_t, at(D, a)), E.v[0])
    return at(S, -a)
