"""Torsion certificates, their exactness rules and their verifier.

A certificate pins down a function phi on the curve y**d = f(x) whose
divisor is m*(P) - m*(O), which proves the class of P - O has order
dividing m, together with an exactness rule that upgrades "divides" to
"equals".  Each identity kind names a polynomial identity that encodes
div(phi) completely; the verifier rechecks the identity from scratch, so a
certificate is auditable with no access to the code that produced it: of
this package, the module imports only scalars, polyring and curves.

Identity kinds
--------------

pure-power        shift-power at u = 1 with -v**d: f - v**d == A*(x-a)**m,
                  A != 0, max(n, d*deg v) == m and v(a) != 0.  Witness
                  function y - v(x); P = (a, v(a)).
shift-power       u**d * f + v**d == A*(x-a)**m with
                  max(d*deg u + n, d*deg v) == m and v(a) != 0.  Witness
                  u(x)*y - mu*v(x) for a constant mu with mu**d == -1;
                  P = (a, c) with (u(a)*c)**d == -v(a)**d.  No
                  constructor emits this kind, but one core checks it
                  and the other two power kinds.
infinity-shift    shift-power at u = x**e and a = -1, with m == n + e*d:
                  x**(e*d) * f + v**d == A*(1+x)**m with d*deg v < m and
                  v(-1) != 0.  P = (-1, lam*(-1)**e*v(-1)), lam**d == -1.
order-d           f(a) == 0 and m == d; P = (a, 0).  A zero ordinate
                  forces order exactly d.
two-torsion-link  d == 2, m == 2n, v**2 - f == A*(x-a)**n * (x-w) with
                  v(w) == 0, w != a, deg v == (n+1)/2.  Witness y + v(x)
                  has divisor n*(P) + (W) - (n+1)*(O) with W = (w, 0), so
                  n*(P-O) is nonzero two-torsion; P = (a, -v(a)).

Since gcd(n, d) = 1 and d >= 2, n plus a multiple of d is never a
multiple of d, so the two terms on the left of each identity never share
a degree: its degree is the larger one, the pole order at O, and it is
not zero.  (The link's v**2 - f reaches the degree n + 1 > n = deg f of
its right side only if 2*deg v == n + 1.)  A monic right side of degree
m matches only when that pole order is m, so each verifier builds the
identity only then, and its ``pole-order`` line reports the same fact.

Exactness rules
---------------

Once m*(P) - m*(O) is principal the order k of P - O divides m, and k is
d or at least n.  The stored rule names the extra fact forcing k == m:

* "prime-order": m is prime.
* "below-twice-degree": m < 2n.
* "odd-below-thrice-degree": m odd and m < 3n.
* "zero-ordinate": y(P) == 0, so k == d == m (order-d kind only).
* "two-torsion-link": n*(P-O) is nonzero two-torsion and y(P) != 0, so
  k | 2n, k does not divide n, and the divisor-floor argument leaves
  only k == 2n (two-torsion-link kind only).

For the first three rules the verifier also requires y(P) != 0, which
rules out k == d.

Validation
----------

A curve is validated once, by the ``Curve`` type, when it is constructed,
parsed or copied with ``_replace`` (which builds through ``Curve._make``,
so no copy bypasses the check); ``Curve`` and ``Poly`` are immutable, so
the verifier takes ``cert.curve`` as it is.  Outside input is checked
when it is parsed: a certificate whose curve data is invalid becomes a
single failed ``curve-valid`` line.  ``_FIELDS`` is the one list of the
serialized fields after the curve and the point: the serializer, the parser
and its unknown-key check all walk it.  Scalars, polynomials and a symbolic
point's abscissa must be spelled as the serializer spells them; any
other spelling is malformed.  Only ``point.y`` and ``lambda`` may be
Gaussian rationals: a Gaussian coefficient of f, u or v, a Gaussian
``a`` or a Gaussian ``point.x`` is malformed too.  So is any value but
the serializer's in a field the kind's verifier never reads (``_KINDS``).
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .curves import AffinePoint, Curve, CurveError, on_curve
from .polyring import Poly, is_scaled_power, poly_from_json, poly_to_json
from .scalars import GaussianRational, field_from_json, is_prime, rational_from_str, scalar_from_json, scalar_to_json


# identity kinds
PURE_POWER = "pure-power"
SHIFT_POWER = "shift-power"
INFINITY_SHIFT = "infinity-shift"
ORDER_D = "order-d"
TWO_TORSION_LINK = "two-torsion-link"

# (key, attribute, writer, reader) per field, in the serializer's order.  No
# writer writes the value as it is; an int or str reader means field_from_json,
# another parses a non-null value.  lambda's calls scalar_from_json by name, so
# that bench/tracer.py's hook on certify.scalar_from_json counts it.
_FIELDS = (
    ("m", "m", None, int),
    ("identity_kind", "identity_kind", None, str),
    ("u", "u", poly_to_json, poly_from_json),
    ("v", "v", poly_to_json, poly_from_json),
    ("a", "a", scalar_to_json, rational_from_str),
    ("e", "e", None, int),
    ("lambda", "lam", scalar_to_json, lambda obj: scalar_from_json(obj)),
    ("exactness_rule", "exactness_rule", None, str),
)

# exactness rules
RULE_PRIME = "prime-order"
RULE_BELOW_TWICE = "below-twice-degree"
RULE_ODD_BELOW_THRICE = "odd-below-thrice-degree"
RULE_ZERO_ORDINATE = "zero-ordinate"
RULE_TWO_TORSION = "two-torsion-link"

# The divisor-to-exact-order rules, in the order exactness_rule_for tries them.
_DIVISOR_RULES = {
    RULE_BELOW_TWICE: lambda m, n: m < 2 * n,
    RULE_PRIME: lambda m, n: is_prime(m),
    RULE_ODD_BELOW_THRICE: lambda m, n: m % 2 == 1 and m < 3 * n,
}


def exactness_rule_for(m: int, n: int) -> str | None:
    """First divisor-to-exact-order rule applicable to (m, n), if any."""
    return next((rule for rule, holds in _DIVISOR_RULES.items() if holds(m, n)), None)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class TorsionCertificate(namedtuple(
    "TorsionCertificate",
    "curve m identity_kind v exactness_rule u a e lam point point_symbolic",
    defaults=(None, None, 0, None, None, False),
)):
    """Machine-checkable witness that P - O has exact order m."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        if self.point_symbolic:
            point = {"x": scalar_to_json(self.a), "symbolic": True}
        elif self.point is not None:
            point = {
                "x": scalar_to_json(self.point.x),
                "y": scalar_to_json(self.point.y),
            }
        else:
            point = None
        out = {"curve": self.curve.to_json_dict(), "point": point}
        for key, attr, writer, _ in _FIELDS:
            value = getattr(self, attr)
            out[key] = value if writer is None or value is None else writer(value)
        return out

    def to_json_str(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TorsionCertificate":
        """Parse the exact shape ``to_json_dict`` writes; anything else raises
        KeyError, TypeError or ValueError (after the curve is parsed, so an
        invalid curve is reported first)."""
        curve = Curve.from_json_dict(obj["curve"])
        unknown = set(obj) - {"curve", "point"} - {key for key, _, _, _ in _FIELDS}
        if unknown:
            raise ValueError("unknown certificate keys %s" % (sorted(unknown),))
        pt = obj["point"]
        if pt is not None and (
            not isinstance(pt, dict)
            or set(pt) not in ({"x", "y"}, {"x", "symbolic"})
            or pt.get("symbolic", True) is not True
        ):
            raise ValueError('point must be null, {"x", "y"} or {"x", "symbolic": true}, got %r' % (pt,))
        symbolic = pt is not None and "symbolic" in pt
        point = None
        if pt is not None and not symbolic:
            point = AffinePoint(rational_from_str(pt["x"]), scalar_from_json(pt["y"]))
        fields = {attr: field_from_json(key, obj[key], reader) if reader in (int, str)
                  else None if obj[key] is None else reader(obj[key])
                  for key, attr, _, reader in _FIELDS}
        cert = cls(curve=curve, point=point, point_symbolic=symbolic, **fields)
        # the serializer writes a symbolic point's abscissa from a
        if symbolic and scalar_from_json(pt["x"]) != cert.a:
            raise ValueError("symbolic point abscissa %r is not a = %s" % (pt["x"], cert.a))
        known = _KINDS.get(cert.identity_kind)
        for key, value in (known.unread if known else {}).items():
            if obj[key] != value:
                raise ValueError("the %s verifier never reads %s, so it must be %s, got %s" % (
                    cert.identity_kind, key, json.dumps(value), json.dumps(obj[key])))
        return cert


def canonical_json(obj) -> str:
    """Deterministic JSON text: fixed key order, two-space indent, newline."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class CheckLine(namedtuple("CheckLine", "name ok detail", defaults=("",))):
    __slots__ = ()

    def __str__(self):
        mark = "ok " if self.ok else "FAIL"
        return "%s %-22s %s" % (mark, self.name, self.detail)


class _Report(list):
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.append(CheckLine(name, bool(ok), detail))
        return bool(ok)


_CHUNK, _SHOWN = 10 ** 640, 10 ** 4300  # the least int<->str limit an environment can set; the default


def _shown(x) -> str:
    """str(x) for a computed int, Fraction or GaussianRational, with each integer converted in chunks
    of 640 digits, so that no int<->str limit applies, and past 4,300 digits written as its size."""
    if isinstance(x, GaussianRational):
        return x.text(_shown)
    if -_CHUNK < x.numerator < _CHUNK and x.denominator < _CHUNK:
        return str(x)
    if x.denominator != 1:
        return "%s/%s" % (_shown(x.numerator), _shown(x.denominator))
    sign, n = "-" * (x < 0), abs(x.numerator)
    if n >= _SHOWN:
        return sign + "<%d-bit integer>" % n.bit_length()
    return sign + _shown(n // _CHUNK) + "%0640d" % (n % _CHUNK)


def _check_identity(r: _Report, claim: str, gate: bool, left, a, k: int, u: Poly = Poly((1,))):
    """The identity line: L = left(), built only if the gate passes, is A*(x - a)**k*u for a monic u
    exactly when (x - a)*u*L' == (k*u + (x - a)*u')*L (``is_scaled_power``), and then A = lc(L)."""
    L = left() if gate else None
    ok = gate and is_scaled_power(L, a, k, u)
    r.check("identity", ok, "%s, A=%s" % (claim, _shown(L.leading_coefficient)) if ok else claim)


def parse_and_verify(obj: dict) -> tuple[TorsionCertificate | None, list[CheckLine]]:
    """Parse a certificate given as a parsed JSON dict, once, and verify it.

    Returns the certificate and the report.  A structurally well-formed
    certificate whose curve data is invalid (wrong degree, repeated root,
    gcd violation) counts as a failed verification, not a parse error:
    the certificate is None and the report is the one failed
    ``curve-valid`` line.  Malformed structure still raises.
    """
    try:
        cert = TorsionCertificate.from_json_dict(obj)
    except CurveError as exc:
        return None, [CheckLine("curve-valid", False, str(exc))]
    return cert, verify_certificate(cert)[1]


def verify_certificate(cert: TorsionCertificate) -> tuple[bool, list[CheckLine]]:
    """Recheck every claim of a certificate from first principles.

    Returns (all_ok, report).  Mathematically invalid certificates never
    raise; each failed fact becomes a failed line in the report.  The one
    refusal: a ``prime-order`` claim whose m is too large for ``is_prime``
    raises its ValueError, which ``verify`` reports with exit 2.  The
    curve is not validated again: a ``Curve`` is validated once, when it
    is constructed or parsed, and is immutable, so the ``curve-valid``
    line only reports its shape.
    """
    r = _Report()
    curve = cert.curve
    r.check("curve-valid", True, "d=%d n=%d genus=%d" % (curve.d, curve.n, curve.genus))

    kind = cert.identity_kind
    known = _KINDS.get(kind)
    if not r.check("identity-kind", known is not None, "kind=%r" % (kind,)):
        return False, r

    if not r.check("order-positive", cert.m >= 2, "m=%d" % (cert.m,)):
        return False, r

    known.verify(r, cert, curve)
    return all(line.ok for line in r), r


def _check_point(
    r: _Report, cert: TorsionCertificate, curve: Curve, x, symbolic_ok: bool
) -> AffinePoint | None:
    """The certificate's point, checked to lie on the curve over x; None
    when it is missing or, for a kind that allows it, symbolic."""
    if symbolic_ok and cert.point_symbolic:
        r.check(
            "point-symbolic",
            curve.d % 2 == 0 and curve.d > 2,
            "ordinate lives outside the supported fields (d=%d)" % (curve.d,),
        )
        return None
    pt = cert.point
    if pt is None:
        r.check("point-present", False, "certificate has no point")
        return None
    r.check("point-on-curve", on_curve(curve, pt), str(pt))
    r.check("point-abscissa", pt.x == x)
    return pt


def _verify_order_d(r: _Report, cert: TorsionCertificate, curve: Curve):
    r.check("order-matches-kind", cert.m == curve.d, "m=%d d=%d" % (cert.m, curve.d))
    if cert.a is None:
        r.check("witness-present", False, "missing abscissa a")
        return
    r.check("root-of-f", curve.f(cert.a) == 0, "f(a) with a=%s" % (cert.a,))
    pt = _check_point(r, cert, curve, cert.a, symbolic_ok=False)
    if pt is not None:
        r.check("ordinate-zero", not pt.y, "y(P)=%s" % (pt.y,))
    r.check("exactness-rule", cert.exactness_rule == RULE_ZERO_ORDINATE, cert.exactness_rule)


def _verify_power(r: _Report, cert: TorsionCertificate, curve: Curve, du, left, a, texts, point_lines,
                  symbolic_ok=True, gate=True):
    """The shift-power identity u^d*f + v^d == A*(x-a)^m with deg u = du, and
    every line after it.  left() builds the left side; texts, the kind's claim,
    pole-order detail and name of a, are formatted with d, m, a and the pole."""
    d, n, m, v = curve.d, curve.n, cert.m, cert.v
    pole = max(d * du + n, d * v.degree)  # v.degree is -inf for the zero v
    claim, pole_detail, a_name = (t % {"d": d, "m": m, "a": a, "pole": _shown(pole)} for t in texts)
    _check_identity(r, claim, pole == m and gate, left, a, m)
    r.check("pole-order", pole == m, pole_detail)
    va = v(a)
    r.check("witness-nonzero-at-a", va != 0, "v(%s)=%s" % (a_name, _shown(va)))
    pt = _check_point(r, cert, curve, a, symbolic_ok)
    if pt is not None:
        point_lines(pt, va)
        r.check("ordinate-nonzero", bool(pt.y))
    holds = _DIVISOR_RULES.get(cert.exactness_rule)
    if r.check("exactness-rule-known", holds is not None, cert.exactness_rule):
        r.check("exactness-rule", holds(m, n), "%s with m=%d n=%d" % (cert.exactness_rule, m, n))


def _verify_pure_power(r: _Report, cert: TorsionCertificate, curve: Curve):
    d, f, v = curve.d, curve.f, cert.v
    if v is None or cert.a is None:
        r.check("witness-present", False, "pure-power needs v and a")
        return
    # u = 1 and the sign of v^d flipped: P is the zero of y - v
    _verify_power(
        r, cert, curve, 0, lambda: f - v ** d, cert.a,
        ("f - v^%(d)d == A*(x-a)^%(m)d, a=%(a)s", "max(n, d*deg v) = %(pole)s, m = %(m)d", "a"),
        lambda pt, va: r.check("point-ordinate", pt.y == va, "y(P)=%s v(a)=%s" % (pt.y, _shown(va))),
        symbolic_ok=False)


def _verify_shift_power(r: _Report, cert: TorsionCertificate, curve: Curve):
    d, f, u, v = curve.d, curve.f, cert.u, cert.v
    if v is None or cert.a is None or u is None:
        r.check("witness-present", False, "shift-power needs u, v, a")
        return
    if not r.check("u-nonzero", bool(u)):
        return
    # P is the single zero of u*y - mu*v for some mu with mu^d == -1
    _verify_power(
        r, cert, curve, u.degree, lambda: u ** d * f + v ** d, cert.a,
        ("u^%(d)d*f + v^%(d)d == A*(x-a)^%(m)d", "pole order %(pole)s, m = %(m)d", "a"),
        lambda pt, va: r.check("point-matches-witness", (u(cert.a) * pt.y) ** d == -(va ** d),
                               "(u(a)*y)^d vs -v(a)^d"))


def _verify_infinity_shift(r: _Report, cert: TorsionCertificate, curve: Curve):
    d, n, f, v, e = curve.d, curve.n, curve.f, cert.v, cert.e
    if v is None or e < 1:
        r.check("witness-present", False, "infinity-shift needs v and e >= 1")
        return
    r.check("order-form", cert.m == n + e * d, "m=%d n=%d e=%d d=%d" % (cert.m, n, e, d))

    # u = x^e and a = -1: P = (-1, lam*(-1)^e*v(-1)) with lam^d == -1
    def point_lines(pt, vm1):
        if cert.lam is None:
            r.check("lambda-present", False, "materialized point needs lambda")
            return
        r.check("lambda-root", cert.lam ** d == -1, "lambda^%d" % (d,))
        expected = cert.lam * (Fraction(-1) ** e) * vm1
        r.check("point-ordinate", pt.y == expected, "y(P)=%s expected=%s" % (pt.y, _shown(expected)))

    # (1+x)^m has every term up to m, x^(ed)*f + v^d none strictly between d*deg v and ed
    _verify_power(
        r, cert, curve, e, lambda: (f << e * d) + v ** d, Fraction(-1),
        ("x^(ed)*f + v^%(d)d == A*(1+x)^%(m)d", "pole order %(pole)s", "-1"),
        point_lines, gate=e * d <= d * v.degree + 1)


def _verify_two_torsion_link(r: _Report, cert: TorsionCertificate, curve: Curve):
    d, n, f, m = curve.d, curve.n, curve.f, cert.m
    r.check("cover-degree-two", d == 2, "d=%d" % (d,))
    r.check("order-twice-degree", m == 2 * n, "m=%d n=%d" % (m, n))
    if cert.v is None or cert.a is None or cert.u is None:
        r.check("witness-present", False, "two-torsion-link needs u, v, a")
        return
    u, v, a = cert.u, cert.v, cert.a
    if not r.check("link-root-shape", u.degree == 1 and u.is_monic, "u=%s" % (u,)):
        return
    w = -u[0]
    r.check("link-root-distinct", w != a, "w=%s a=%s" % (w, a))
    vw = v(w)
    r.check("witness-vanishes-at-link", vw == 0, "v(w)=%s" % (_shown(vw),))
    pole_ok = v.degree * 2 == n + 1
    _check_identity(r, "v^2 - f == A*(x-a)^%d*(x-w)" % (n,), pole_ok, lambda: v ** 2 - f, a, n, u)
    r.check("pole-order", pole_ok, "deg v = %s, (n+1)/2 = %s" % (v.degree, Fraction(n + 1, 2)))
    va = v(a)
    r.check("witness-nonzero-at-a", va != 0, "v(a)=%s" % (_shown(va),))
    pt = _check_point(r, cert, curve, a, symbolic_ok=False)
    if pt is not None:
        r.check("point-ordinate", pt.y == -va, "y(P)=%s -v(a)=%s" % (pt.y, _shown(-va)))
        r.check("ordinate-nonzero", bool(pt.y))
    r.check("exactness-rule", cert.exactness_rule == RULE_TWO_TORSION, cert.exactness_rule)


# per identity kind: its verifier, and the serializer's value for each field it never reads
_Kind = namedtuple("_Kind", "verify unread")
_KINDS = {
    PURE_POWER: _Kind(_verify_pure_power, {"u": None, "e": 0, "lambda": None}),
    SHIFT_POWER: _Kind(_verify_shift_power, {"e": 0, "lambda": None}),
    INFINITY_SHIFT: _Kind(_verify_infinity_shift, {"u": None, "a": "-1"}),
    ORDER_D: _Kind(_verify_order_d, {"u": None, "v": None, "e": 0, "lambda": None}),
    TWO_TORSION_LINK: _Kind(_verify_two_torsion_link, {"e": 0, "lambda": None}),
}
