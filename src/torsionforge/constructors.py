"""Constructions of curves y**d = f(x) with a rational point of exact order m.

Every function here returns a TorsionCertificate whose claims the verifier
in certify.py rechecks from scratch; nothing is trusted to the algebra in
this module.  ``construct`` takes the reachability verdict of (n, d, m)
once: the row that decides a constructive verdict picks one of the four
families below, and every other verdict is refused there.  The private
builders recheck none of the row's conditions on m.

order-d       f = x**n - 1, P = (1, 0).  The zero ordinate pins the
              order to exactly d.
order-n       f = x**n + v**d with v = x + k, so d*deg v < n, v(0) = k != 0,
              f - v**d = x**n and P = (0, k) has order n.
div-d         m = d*l > n.  With s = n - m + l >= 0 the witness
              v = x**l + x**s/d + C gives f = v**d - x**m monic of degree
              n, so f - v**d = -(x**m) and P = (0, v(0)) has order m.  For
              s >= 1 the constant C is searched so that f stays
              square-free.  At s = 0 the x**s/d term is the constant 1/d
              and C = 0: for d >= 3, v = x**l + 1/d with no search, while
              for d = 2 the family degenerates (every member certifies
              order n, not 2n) and a different identity is needed:
              f = (x-w)*g with g = (x-w)*t**2 - x**n makes v = (x-w)*t
              satisfy v**2 - f = x**n*(x-w), linking P = (0, t(0)) to the
              two-torsion point (w, 0).
n-plus-ed     m = n + e*d.  Truncating the binomial series of
              (1+x)**(m/d) at x**(e*d) yields V with
              (1+x)**m - V**d = x**(e*d)*f exactly, and P sits over
              x = -1 with ordinate lam*(-1)**e*V(-1), lam**d == -1;
              for even d > 2 no lam lies in Q(i) and P is symbolic.

Search is deterministic, so rerunning a construction always reproduces
the same certificate.  Three constructions search: order-n tries
v = x + 1, x + 2, ...; div-d and the d = 2 two-torsion link try the
constants 1, -1, 2, -2, ...  Every search runs through ``_search``, which
alone applies the budget: the caller's ``search_limit`` candidates
(default 64).  The n = 3 link and the zero-deficit div-d witness are
fixed and ignore the budget.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from .certify import (
    INFINITY_SHIFT,
    ORDER_D,
    PURE_POWER,
    RULE_CONGRUENT_STEP,
    RULE_COVER_DEGREE,
    RULE_CURVE_DEGREE,
    RULE_DIVISIBLE_MULTIPLE,
    RULE_TWO_TORSION,
    RULE_ZERO_ORDINATE,
    STATUS_UNREACHABLE,
    TWO_TORSION_LINK,
    TorsionCertificate,
    exactness_rule_for,
    reachability_verdict,
)
from .curves import AffinePoint, Curve, CurveError, PreconditionError, check_shape
from .polyring import Poly
from .scalars import GAUSSIAN_I
from .series import check_truncation_valuation, truncated_binomial, truncation_quotient

DEFAULT_SEARCH_LIMIT = 64


class SearchExhausted(RuntimeError):
    """No candidate within the search budget produced a valid curve."""


def _constants(skip: set):
    """1, -1, 2, -2, ... with the given values skipped."""
    for k in count(1):
        for c in (Fraction(k), Fraction(-k)):
            if c not in skip:
                yield c


def _search(candidates, build, order: str, search_limit: int) -> TorsionCertificate:
    """``build`` of the first of at most ``search_limit`` candidates that it
    does not reject with CurveError; else SearchExhausted, naming the
    ``order`` label, the budget and the last such error."""
    last_error = ""  # " (message)" of the last rejection, if any candidate was tried
    for _, cand in zip(range(search_limit), candidates):
        try:
            return build(cand)
        except CurveError as exc:
            last_error = " (%s)" % (exc,)
    raise SearchExhausted(
        "no square-free curve with a point of order %s found within %d candidates%s; "
        "raise --c-range to widen the search" % (order, search_limit, last_error)
    )


# ---------------------------------------------------------------------------
# order-d: points with zero ordinate
# ---------------------------------------------------------------------------

def _order_d(n: int, d: int) -> TorsionCertificate:
    """Curve with the point (1, 0) of exact order d: f = x**n - 1."""
    a = Fraction(1)
    curve = Curve(d, n, Poly.x_power(n) - Poly.constant(a))
    return TorsionCertificate(
        curve=curve,
        m=d,
        identity_kind=ORDER_D,
        v=None,
        a=a,
        point=AffinePoint(a, Fraction(0)),
        exactness_rule=RULE_ZERO_ORDINATE,
    )


# ---------------------------------------------------------------------------
# order-n
# ---------------------------------------------------------------------------

def _order_n(n: int, d: int, search_limit: int) -> TorsionCertificate:
    """Curve f = x**n + v**d with P = (0, v(0)) of exact order n.

    The witnesses v = x + 1, x + 2, ... are tried until f is square-free;
    n > d admits deg v = 1, and v(0) != 0 keeps P off the x-axis.

    The first witness works: a common root t of f = x**n + (x+1)**d and
    f' is neither 0 nor -1, and dividing t**n = -(t+1)**d by n*t**(n-1) =
    -d*(t+1)**(d-1) gives t = -n/(n-d) and t + 1 = -d/(n-d).  Then f(t) = 0
    forces n**n = d**d * (n-d)**(n-d) in absolute value, but a prime factor
    of n divides neither d nor n - d, as gcd(n, d) = 1.
    """
    return _search(
        (Poly((k, 1)) for k in count(1)),
        lambda v: _pure_power(n, d, n, v, Poly.x_power(n) + v ** d),
        "n=%d" % (n,),
        search_limit,
    )


def _pure_power(n: int, d: int, m: int, v: Poly, f: Poly) -> TorsionCertificate:
    """The pure-power certificate of f - v**d = +-x**m at a = 0, P = (0, v(0))."""
    a = Fraction(0)
    return TorsionCertificate(
        curve=Curve(d, n, f),
        m=m,
        identity_kind=PURE_POWER,
        v=v,
        a=a,
        point=AffinePoint(a, v(a)),
        exactness_rule=exactness_rule_for(m, n),
    )


# ---------------------------------------------------------------------------
# div-d: m a multiple of d beyond n
# ---------------------------------------------------------------------------

def _div_d(n: int, d: int, m: int, search_limit: int) -> TorsionCertificate:
    """Curve with a point of exact order m where d | m, m > n and the
    deficit n - m + m/d is nonnegative (the divisible-multiple row)."""
    l = m // d
    s = n - m + l
    if s == 0 and d == 2:
        return _two_torsion_link(n, search_limit)
    if s == 0:
        return _div_d_with(n, d, m, l, s, Fraction(0))
    return _search(
        _constants({Fraction(0), -Fraction(1, d)}),
        lambda c: _div_d_with(n, d, m, l, s, c),
        "m=%d" % (m,),
        search_limit,
    )


def _div_d_with(n: int, d: int, m: int, l: int, s: int, c: Fraction) -> TorsionCertificate:
    v = Poly.x_power(l) + Poly.monomial(Fraction(1, d), s) + Poly.constant(c)
    return _pure_power(n, d, m, v, v ** d - Poly.x_power(m))


def _two_torsion_link(n: int, search_limit: int) -> TorsionCertificate:
    """d = 2, m = 2n: certify via a divisor linking P to two-torsion.

    With w = 1 and t = x**k + x**(k-1) + c, k = (n-1)/2, the curve
    f = (x-w)*((x-w)*t**2 - x**n) is monic and the witness v = (x-w)*t
    satisfies v**2 - f = x**n*(x-w).  Then n*(P-O) equals the class of
    (w,0) - (O), which is nonzero two-torsion, so P - O has exact order
    2n.  For n = 3 the monic condition already fixes t = x + 1 (c = 0).
    """
    k = (n - 1) // 2
    if k == 1:
        return _two_torsion_link_with(n, k, Fraction(0))
    return _search(
        _constants({Fraction(0)}),
        lambda c: _two_torsion_link_with(n, k, c),
        "2n=%d" % (2 * n,),
        search_limit,
    )


def _two_torsion_link_with(n: int, k: int, c: Fraction) -> TorsionCertificate:
    w = Fraction(1)
    t = Poly.x_power(k) + Poly.x_power(k - 1) + Poly.constant(c)
    f = Poly.x_minus(w) * (Poly.x_minus(w) * t ** 2 - Poly.x_power(n))
    return TorsionCertificate(
        curve=Curve(2, n, f),
        m=2 * n,
        identity_kind=TWO_TORSION_LINK,
        u=Poly.x_minus(w),
        v=Poly.x_minus(w) * t,
        a=Fraction(0),
        point=AffinePoint(Fraction(0), t(Fraction(0))),
        exactness_rule=RULE_TWO_TORSION,
    )


# ---------------------------------------------------------------------------
# n-plus-ed: truncated binomial series
# ---------------------------------------------------------------------------

def construct_n_plus_ed(n: int, d: int, e: int) -> TorsionCertificate:
    """Curve with a point of exact order m = n + e*d over x = -1.

    Requires m > d*(e*d - 1); otherwise the truncated series does not
    leave a degree-n quotient and a PreconditionError is raised.  Under it
    m < 2n when d >= 3, and m is odd with m <= 2n + 1 < 3n when d = 2, so
    an exactness rule always applies.

    ``check_truncation_valuation`` raises that error; its docstring
    proves that (1+x)**m - V**d then vanishes to order exactly E = e*d,
    so the quotient by x**E is exact.
    """
    check_shape(n, d)
    if e < 1:
        raise PreconditionError("requires e >= 1, got e=%d" % (e,))
    m = n + e * d
    E = e * d
    check_truncation_valuation(m, d, E)
    V = truncated_binomial(m, d, E)
    f = truncation_quotient(m, d, E, V)
    curve = Curve(d, n, f)
    symbolic = d % 2 == 0 and d > 2
    lam = point = None
    if not symbolic:
        lam = GAUSSIAN_I if d == 2 else Fraction(-1)
        point = AffinePoint(Fraction(-1), lam * Fraction(-1) ** e * V(Fraction(-1)))
    return TorsionCertificate(
        curve=curve,
        m=m,
        identity_kind=INFINITY_SHIFT,
        v=V,
        a=Fraction(-1),
        e=e,
        lam=lam,
        exactness_rule=exactness_rule_for(m, n),
        point=point,
        point_symbolic=symbolic,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def construct(n: int, d: int, m: int, search_limit: int = DEFAULT_SEARCH_LIMIT) -> TorsionCertificate:
    """The certificate of the family that the verdict's constructive row names.

    ``reachability_verdict`` decides m once, and its deciding row picks the
    builder: cover-degree is order-d, curve-degree order-n,
    divisible-multiple div-d and congruent-step n-plus-ed.  Every other
    verdict is refused with a PreconditionError, which for an unreachable
    order carries the deciding rule as its attribute ``rule``."""
    verdict = reachability_verdict(n, d, m)
    rule = verdict.deciding_rule
    if rule == RULE_COVER_DEGREE:
        return _order_d(n, d)
    if rule == RULE_CURVE_DEGREE:
        return _order_n(n, d, search_limit)
    if rule == RULE_DIVISIBLE_MULTIPLE:
        return _div_d(n, d, m, search_limit)
    if rule == RULE_CONGRUENT_STEP:
        return construct_n_plus_ed(n, d, (m - n) // d)
    if verdict.status == STATUS_UNREACHABLE:
        error = PreconditionError("order m=%d is unreachable on (n=%d, d=%d) curves" % (m, n, d))
        error.rule = rule
        raise error
    raise PreconditionError("no construction family covers m=%d on (n=%d, d=%d) curves" % (m, n, d))
