"""Exact scalar arithmetic: rationals, Gaussian rationals, generalized
binomial coefficients and primality.

Two scalar fields are supported.  Plain rationals are
``fractions.Fraction`` values; the Fraction type keeps every value in
lowest terms with a positive denominator, so equality is plain component
comparison and string serialization is canonical, and parsing accepts
only that canonical form.  :class:`GaussianRational` adjoins a square
root of -1.  It is the only field extension the package needs: it houses
the constant ``lam`` with ``lam**2 == -1`` that appears in point
ordinates on curves of cover degree 2.  Larger cyclotomic fields are
deliberately out of scope.

Everything in this module is immutable and purely functional.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

#: Prime bases that make Miller-Rabin exact below :data:`_MR_BOUND`.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Sorenson and Webster (2015): no composite below this is a strong
#: probable prime to every base in :data:`_MR_BASES`.
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality.

    Below :data:`_MR_BOUND` this is Miller-Rabin with the thirteen prime
    bases 2..41, which is exact there.  At or above it, a p with no prime
    factor up to 41 raises ValueError rather than take unbounded work.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= _MR_BOUND:
        raise ValueError("primality of %d is not decided at or above %d" % (p, _MR_BOUND))
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def gen_binom(r: int | Fraction, k: int, below: Fraction | None = None) -> Fraction:
    """Generalized binomial coefficient binom(r, k) for rational r.

    Defined by the falling factorial r(r-1)...(r-k+1)/k!, and computed by
    its recurrence binom(r, j) = binom(r, j-1)*(r-j+1)/j from binom(r, 0) = 1:
    all k steps, or only the last when below = binom(r, k-1) is given, so a
    row binom(r, 0..E-1) costs E steps.  For a noninteger rational r the
    value is nonzero for every k >= 0, because no factor of the falling
    factorial can vanish.
    """
    if k < 0:
        raise ValueError("binomial index k must be nonnegative, got %r" % (k,))
    start, c = (1, Fraction(1)) if below is None else (k, below)
    for j in range(start, k + 1):
        c = c * (r - j + 1) / j
    return c


def repeated_squaring(base, k: int):
    """base**k for k >= 1 by the right-to-left binary method (Knuth, *TAOCP*
    vol. 2, section 4.6.3, Algorithm A), squaring no further than k's top bit."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _field(other, op):
    """op(o) for the operand o of a GaussianRational operator, lifted to one
    if it is an ``int`` or a ``Fraction``; NotImplemented for any other type."""
    if isinstance(other, (int, Fraction)):
        other = GaussianRational(other)
    elif not isinstance(other, GaussianRational):
        return NotImplemented
    return op(other)


class GaussianRational:
    """An element a + b*i of the Gaussian rationals, a and b exact rationals.

    Every binary operator takes its operand by one rule, :func:`_field`: an
    ``int`` or a ``Fraction`` on either side is lifted and any other type is
    left to Python.  ``GaussianRational(3, 0) == Fraction(3)``.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        return _field(other, lambda o: GaussianRational(self.re + o.re, self.im + o.im))

    __radd__ = __add__

    def __sub__(self, other):
        return _field(other, lambda o: GaussianRational(self.re - o.re, self.im - o.im))

    def __rsub__(self, other):
        return _field(other, lambda o: GaussianRational(o.re - self.re, o.im - self.im))

    def __mul__(self, other):
        return _field(other, lambda o: GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re))

    __rmul__ = __mul__

    def _inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return _field(other, lambda o: self * o._inverse())

    def __rtruediv__(self, other):
        return _field(other, lambda o: o * self._inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return repeated_squaring(self, k) if k else GaussianRational(1)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        return _field(other, lambda o: self.re == o.re and self.im == o.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % (self.im,)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (self.re, sign, abs(self.im))


#: The square root of -1 used by ordinates on cover-degree-2 curves.
GAUSSIAN_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

#: What ``str(Fraction)`` emits, short of the lowest-terms condition.
_CANONICAL_RATIONAL = re.compile(r"0|-?[1-9][0-9]*(/([2-9]|[1-9][0-9]+))?")


def rational_pair(s: str) -> tuple[int, int]:
    """(numerator, denominator) of the rational that ``str(Fraction)`` spells as exactly s, else
    ValueError.  The form is checked before any integer is built, and a ``Fraction`` only to refuse s."""
    if not (isinstance(s, str) and _CANONICAL_RATIONAL.fullmatch(s)):
        raise ValueError("Invalid literal for Fraction: %r" % (s,))
    num, _, den = s.partition("/")
    den, num = int(den or 1), int(num)  # den first: of two integers past the digit limit, den's is reported
    if math.gcd(num, den) != 1:
        raise ValueError("rational %r is not the canonical spelling %r" % (s, str(Fraction(num, den))))
    return num, den


def rational_from_str(s: str) -> Fraction:
    """The rational that ``str(Fraction)`` spells as exactly s, else ValueError."""
    return Fraction(*rational_pair(s))


def scalar_to_json(x: Fraction | GaussianRational | int):
    """JSON form of a scalar: rational string ``str(x)``, or {'re','im'} object."""
    if isinstance(x, GaussianRational):
        if x.im == 0:
            # a Gaussian value that happens to be rational round-trips as one
            return str(x.re)
        return {"re": str(x.re), "im": str(x.im)}
    return str(x)


def field_from_json(name: str, obj, kind: type):
    """A JSON field of type ``kind`` (``int``, which no ``bool`` is, or ``str``), else TypeError."""
    if type(obj) is not kind:
        raise TypeError("%s must be a JSON %s, got %r" % (name, "integer" if kind is int else "string", obj))
    return obj


def scalar_from_json(obj) -> Fraction | GaussianRational:
    if isinstance(obj, str):
        return rational_from_str(obj)
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        re_part, im_part = rational_from_str(obj["re"]), rational_from_str(obj["im"])
        if im_part == 0:
            # scalar_to_json writes such a value as a rational string
            raise ValueError("Gaussian scalar with zero imaginary part: %r" % (obj,))
        return GaussianRational(re_part, im_part)
    raise ValueError("not a scalar encoding: %r" % (obj,))
