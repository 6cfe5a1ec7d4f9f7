"""Superelliptic curves y**d = f(x) and their basic geometry.

A curve is the data (d, n, f) with 1 < d < n, gcd(n, d) = 1, and f
square-free of degree exactly n.  Under those constraints the projective
model has a single point O at infinity and the genus is
(n-1)(d-1)/2.  Points of order exactly d in the Jacobian (differences
P - O) are precisely the affine points with zero ordinate, i.e. (w, 0)
for w a root of f, so enumerating them is root finding over the working
field.

The working field is fixed by the coefficient type of f: ``Fraction``
coefficients mean the rationals, ``GaussianRational`` coefficients mean
the Gaussian rationals.  Root finding is complete over each (rational
root theorem, and its Gaussian-integer analogue with divisor enumeration
through norm factorization); no factoring over field extensions happens
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Optional, Union

from .polyring import Poly, is_squarefree, poly_from_json, poly_to_json
from .scalars import GaussianRational, Scalar


class CurveError(ValueError):
    """Base for curve validation failures."""


class OrderError(CurveError):
    """Degree ordering violated: requires n > d >= 2."""


class GcdError(CurveError):
    """n and d are not coprime."""


class DegreeError(CurveError):
    """deg(f) differs from the declared n."""


class RepeatedRootError(CurveError):
    """f is not square-free."""


@dataclass(frozen=True)
class Curve:
    """y**d = f(x); validated on construction."""

    d: int
    n: int
    f: Poly

    def __post_init__(self):
        if not isinstance(self.d, int) or not isinstance(self.n, int):
            raise OrderError("d and n must be integers")
        if self.d < 2:
            raise OrderError("cover degree d must be at least 2, got %d" % (self.d,))
        if self.n <= self.d:
            raise OrderError("requires n > d, got n=%d, d=%d" % (self.n, self.d))
        if int_gcd(self.n, self.d) != 1:
            raise GcdError("n and d must be coprime, got n=%d, d=%d" % (self.n, self.d))
        if self.f.degree != self.n:
            raise DegreeError(
                "deg f = %s but n = %d" % (self.f.degree, self.n)
            )
        if not is_squarefree(self.f):
            raise RepeatedRootError("f has a repeated root: %s" % (self.f,))

    @property
    def genus(self) -> int:
        return (self.n - 1) * (self.d - 1) // 2

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "f": poly_to_json(self.f)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Curve":
        return cls(int(obj["d"]), int(obj["n"]), poly_from_json(obj["f"]))


@dataclass(frozen=True)
class AffinePoint:
    x: Scalar
    y: Scalar

    def __str__(self):
        return "(%s, %s)" % (self.x, self.y)


class _PointAtInfinity:
    """The unique point at infinity; a singleton marker."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


POINT_AT_INFINITY = _PointAtInfinity()

CurvePoint = Union[AffinePoint, _PointAtInfinity]


def on_curve(curve: Curve, point: CurvePoint) -> bool:
    if point is POINT_AT_INFINITY:
        return True
    return point.y ** curve.d == curve.f(point.x)


# ---------------------------------------------------------------------------
# monic normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonicNormalization:
    """A monic model h of a non-monic f, with the point map between them.

    Solving d*i + n*j = 1 gives exponents such that
    h(x) = c0**(-d*i) * f(c0**(-j) * x) is monic, and
    (x, y) |-> (c0**(-j) * x, c0**(i) * y) carries points of y**d = h(x)
    to points of y**d = f(x).  The defining identity
    c0**(d*i) * h(x) == f(c0**(-j) * x) is checked symbolically at
    construction time, never assumed.
    """

    source_f: Poly
    target: Curve
    i: int
    j: int
    c0: Scalar

    def map_point(self, point: AffinePoint) -> AffinePoint:
        """Carry a point on the monic model to the original curve."""
        return AffinePoint(
            self.c0 ** (-self.j) * point.x, self.c0 ** (self.i) * point.y
        )


def normalize_monic(
    d: int,
    n: int,
    f: Poly,
    i: Optional[int] = None,
    j: Optional[int] = None,
) -> MonicNormalization:
    """Monic model of y**d = f(x) via coordinate scaling.

    The exponent pair (i, j) must satisfy d*i + n*j = 1; when omitted the
    pair with minimal ``abs(i)`` is used.  The resulting h is validated
    as a curve (square-freeness is scale-invariant, so this only rejects
    inputs that were invalid to begin with).
    """
    if f.degree != n:
        raise DegreeError("deg f = %s but n = %d" % (f.degree, n))
    if int_gcd(n, d) != 1:
        raise GcdError("n and d must be coprime, got n=%d, d=%d" % (n, d))
    c0 = f.leading_coefficient
    if (i is None) != (j is None):
        raise ValueError("give both exponents i and j, or neither")
    if i is None:
        i0 = pow(d, -1, n)
        i = i0 if abs(i0) <= abs(i0 - n) else i0 - n
        j = (1 - d * i) // n
    if d * i + n * j != 1:
        raise ValueError("exponents must satisfy d*i + n*j = 1, got i=%r j=%r" % (i, j))

    h = f.scale_x(c0 ** (-j)) * (c0 ** (-d * i))
    target = Curve(d, n, h)
    # Defensive identity check, on an evaluation path independent of
    # scale_x: the point map (x, y) |-> (c0^-j x, c0^i y) satisfies the
    # curve equation iff c0^(d*i) * h(t) == f(c0^-j * t) for all t.
    if not target.f.is_monic:
        raise AssertionError("normalization produced a non-monic model")
    scale_out = c0 ** (d * i)
    scale_in = c0 ** (-j)
    for t in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1)):
        if scale_out * h(t) != f(scale_in * t):
            raise AssertionError(
                "normalization identity failed at x=%s; exponent bookkeeping bug" % (t,)
            )
    return MonicNormalization(source_f=f, target=target, i=i, j=j, c0=c0)


# ---------------------------------------------------------------------------
# roots in the working field
# ---------------------------------------------------------------------------

def _int_divisors(v: int) -> list[int]:
    v = abs(v)
    out = []
    k = 1
    while k * k <= v:
        if v % k == 0:
            out.append(k)
            if k != v // k:
                out.append(v // k)
        k += 1
    return sorted(out)


def _rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of a Fraction-coefficient polynomial."""
    roots: list[Fraction] = []
    coeffs = list(f.coeffs)
    # strip powers of x; 0 is a root when the constant term vanishes
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    g = Poly(ints)
    c0, cn = ints[0], ints[-1]
    seen = set()
    for p in _int_divisors(c0):
        for q in _int_divisors(cn):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if cand in seen:
                    continue
                seen.add(cand)
                if g(cand) == 0:
                    roots.append(cand)
    roots.sort()
    return roots


# Gaussian-integer helpers for root finding over the Gaussian rationals.
# Values are GaussianRational with integer parts throughout.

def _zi_norm(z: GaussianRational) -> int:
    return int(z.norm())


def _zi_divmod(z: GaussianRational, w: GaussianRational):
    q = z / w
    qr = Fraction(round(q.re))
    qi = Fraction(round(q.im))
    qq = GaussianRational(qr, qi)
    return qq, z - qq * w


def _zi_gcd(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    while b:
        _, r = _zi_divmod(a, b)
        a, b = b, r
    return a


def _zi_factor(z: GaussianRational) -> list[tuple[GaussianRational, int]]:
    """Prime factorization in Z[i] (primes up to units), via the norm."""
    out: list[tuple[GaussianRational, int]] = []
    nrm = _zi_norm(z)
    p = 2
    rest = nrm
    rational_primes = []
    while p * p <= rest:
        if rest % p == 0:
            rational_primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        rational_primes.append(rest)
    for p in rational_primes:
        if p == 2:
            gauss_primes = [GaussianRational(1, 1)]
        elif p % 4 == 3:
            gauss_primes = [GaussianRational(p, 0)]
        else:
            c = next(c for c in range(2, p) if (c * c + 1) % p == 0)
            pi = _zi_gcd(GaussianRational(p, 0), GaussianRational(c, 1))
            gauss_primes = [pi, pi.conjugate()]
        for pi in gauss_primes:
            e = 0
            while True:
                q, r = _zi_divmod(z, pi)
                if r:
                    break
                z, e = q, e + 1
            if e:
                out.append((pi, e))
    return out


def _zi_divisors(z: GaussianRational) -> list[GaussianRational]:
    """All divisors of a nonzero Gaussian integer, up to units."""
    divs = [GaussianRational(1, 0)]
    for pi, e in _zi_factor(z):
        divs = [d * pi ** k for d in divs for k in range(e + 1)]
    return divs


_ZI_UNITS = (
    GaussianRational(1, 0),
    GaussianRational(-1, 0),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def _gaussian_roots(f: Poly) -> list[GaussianRational]:
    """All Gaussian-rational roots of a GaussianRational-coefficient polynomial."""
    roots: list[GaussianRational] = []
    coeffs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in f.coeffs]
    shift = 0
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(GaussianRational(0, 0))
    if len(coeffs) <= 1:
        return _sorted_gaussian(roots)
    den_lcm = 1
    for c in coeffs:
        for part in (c.re, c.im):
            den_lcm = den_lcm * part.denominator // int_gcd(den_lcm, part.denominator)
    ints = [c * den_lcm for c in coeffs]
    g = Poly(ints)
    seen = set()
    for pnum in _zi_divisors(ints[0]):
        for pden in _zi_divisors(ints[-1]):
            for u in _ZI_UNITS:
                cand = u * pnum / pden
                if cand in seen:
                    continue
                seen.add(cand)
                if not g(cand):
                    roots.append(cand)
    return _sorted_gaussian(roots)


def _sorted_gaussian(vals: list[GaussianRational]) -> list[GaussianRational]:
    return sorted(vals, key=lambda z: (z.re, z.im))


def field_roots(f: Poly) -> list[Scalar]:
    """Roots of f in the working field fixed by its coefficient type."""
    if any(isinstance(c, GaussianRational) for c in f.coeffs):
        return _gaussian_roots(f)
    return _rational_roots(f)


def order_d_points(curve: Curve) -> tuple[list[AffinePoint], int]:
    """All points (w, 0) with w a root of f in the working field.

    These are exactly the points of order d in the Jacobian.  Returns
    the points together with the residual degree n - (number of roots
    found), the degree of the part of f with no root in the field.
    """
    roots = field_roots(curve.f)
    points = [AffinePoint(w, w * 0) for w in roots]
    return points, curve.n - len(roots)
