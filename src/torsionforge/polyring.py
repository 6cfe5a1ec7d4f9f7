"""Dense univariate polynomials over the rationals.

A polynomial is stored as a tuple of integer numerators, ascending (index
k belongs to x**k), over one positive integer denominator, in lowest
terms: the denominator is coprime to the numerators together, and the
last numerator is nonzero.  That form is canonical, so two polynomials
are equal exactly when their numerators and denominators are.  The
constructor accepts ``int`` and ``Fraction`` coefficients and refuses any
other type, Gaussian rationals included: the only non-rational numbers
the package needs are two scalars of a certificate, a point's ordinate
and ``lambda``, never a polynomial coefficient.

Every kernel works on the stored integers and ends in one normalising
gcd: ``+`` and ``-`` align the two denominators by their lcm, ``*`` is a
schoolbook convolution of the numerators, (n0 + n1*x)**k is expanded by
the binomial theorem, evaluation at p/q is Horner's rule on p and q, and
``divmod`` is pseudo-division (Knuth, *TAOCP* vol. 2, section 4.6.1,
Algorithm R), scaled at each step only as far as that step needs.
``Fraction``s are built only at the edges: ``coeffs``, ``[k]``,
``leading_coefficient`` and the value of a polynomial at a point, never
in the serializer, which spells each c/den as ``str(Fraction)`` would.

Square-freeness is decided modulo primes only, on plain ``int`` lists
with ``pow(x, -1, p)`` inverses, so no coefficient grows: a unit gcd of
f and f' modulo one prime proves True, and enough primes dividing the
resultant of f and f' prove False (see :func:`is_squarefree`).  Each
prime is below 2**30, so every product fits in two CPython digits.  No
answer is probabilistic, and no Euclid over Q runs.

The degree of the zero polynomial is the distinguished sentinel
:data:`NEG_INFINITY` (``float('-inf')``), never an ordinary integer, so
degree comparisons behave correctly without special cases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, count, repeat

from .scalars import is_prime, repeated_squaring, scalar_from_json

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


def _rational(c):
    """c itself when it is an ``int`` or a ``Fraction``; TypeError otherwise."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("unsupported coefficient type: %r" % (type(c).__name__,))


def _make(num: list, den: int) -> "Poly":
    """The Poly num/den in lowest terms, for integers num and den != 0."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num) if den != 1 else 1
    if den < 0:
        g = -g
    if g != 1:
        num, den = [c // g for c in num], den // g
    p = object.__new__(Poly)
    object.__setattr__(p, "_num", tuple(num))
    object.__setattr__(p, "_den", den)
    return p


class Poly:
    """Immutable dense polynomial; create with Poly([c0, c1, ...])."""

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs=()):
        cs = [_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _make([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((0,) * k + (c,))

    @classmethod
    def x_power(cls, k: int) -> "Poly":
        return cls.monomial(1, k)

    @classmethod
    def x_minus(cls, a) -> "Poly":
        return cls((-a, 1))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int | float:
        return len(self._num) - 1 if self._num else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading_coefficient(self):
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def __getitem__(self, k: int):
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self._num, self._den) == (other._num, other._den)

    __hash__ = None  # mutable-free but unhashable; never used as a key

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign*other, over the lcm of the two denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._num, other._num
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        out = [c * sa for c in a] + [0] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] += c * sb
        return _make(out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make([c * other.numerator for c in self._num], self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        # a schoolbook convolution of the numerators
        a, b = self._num, other._num
        acc = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    acc[j] += x * y
        return _make(acc, self._den * other._den)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        if len(self._num) == 2:
            # (n0 + n1*x)**k / den**k by the binomial theorem, with the row stepped
            # by C(k, j+1) = C(k, j)*(k - j) // (j + 1) and each power by one product
            n0, n1 = self._num
            low = list(accumulate(repeat(n0, k), int.__mul__, initial=1))  # n0**0 .. n0**k
            coeffs, c, high = [], 1, 1
            for j in range(k + 1):
                coeffs.append(c * low[k - j] * high)
                c, high = c * (k - j) // (j + 1), high * n1
            return _make(coeffs, self._den ** k)
        return repeated_squaring(self, k) if k else Poly.one()

    def __divmod__(self, other):
        """Pseudo-division (Knuth, Algorithm R) on the numerators, scaled
        only as far as each step needs.

        With self = A/da, other = B/db and L the leading numerator of B,
        a step whose top remainder numerator is c scales the remainder and
        the quotient so far by s = |L| / gcd(c, L) and takes c*s/L as its
        quotient term.  With S the product of the s, S*A = Q*B + R, so the
        quotient is Q*db / (S*da) and the remainder R / (S*da).  A monic
        divisor has primitive numerators, so by Gauss's lemma an exact
        division by it has s = 1 at every step and scales nothing.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, low, lead = list(self._num), other._num[:-1], other._num[-1]
        e = len(rem) - len(low)
        if e <= 0:
            return Poly.zero(), self
        quot, scale = [0] * e, 1
        for k in range(e - 1, -1, -1):
            c = rem.pop()
            s = abs(lead) // math.gcd(c, lead)
            if s != 1:
                rem, quot, scale = [s * r for r in rem], [s * q for q in quot], scale * s
            quot[k] = q = c * s // lead
            if q:
                for j, y in enumerate(low, k):
                    rem[j] -= q * y
        den = scale * self._den
        return _make([q * other._den for q in quot], den), _make(rem, den)

    def __call__(self, t):
        """Evaluate at a rational t = p/q: Horner's rule on the numerators
        F over den gives sum F_i*p^i*q^(n-i), over den*q^n."""
        p, q = _rational(t).numerator, t.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc, qk = acc * p + c * qk, qk * q
        return Fraction(acc * q, self._den * qk)

    # -- normal form ----------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return _make(list(self._num), self._num[-1])

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return "Poly([%s])" % (", ".join(str(c) for c in self.coeffs),)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        cs = self.coeffs
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("x" if c == 1 else "%s*x" % (c,))
            else:
                parts.append("x^%d" % k if c == 1 else "%s*x^%d" % (c, k))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; ValueError otherwise."""
    q, r = divmod(f, g)
    if not r.is_zero:
        raise ValueError("%s does not divide %s exactly (remainder %s)" % (g, f, r))
    return q


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; both inputs zero is rejected."""
    return xgcd(f, g)[0]


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (h, s, t) with h monic and s*f + t*g == h."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = f, g
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
        if not r1.is_zero:
            lead = r1.leading_coefficient
            if lead != 1:
                inv = 1 / lead
                r1, s1, t1 = r1 * inv, s1 * inv, t1 * inv
    lead = r0.leading_coefficient
    if lead != 1:
        inv = 1 / lead
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


def is_squarefree(f: Poly) -> bool:
    """True when f shares no root with its derivative (no repeated factor).

    Constant and zero inputs are rejected: square-freeness is a question
    about polynomials with roots.

    F is f's stored integer numerators, n its degree.  The primes p are
    walked down from 1073741789 = 2**30 - 35, skipping those dividing lc(F),
    so F̄ and F̄′ keep degrees n and n − 1 and Res(F̄, F̄′) = Res(F, F′) mod p.
    A unit gcd(F̄, F̄′) over F_p makes the resultant nonzero: True.
    Otherwise p divides it, and once the product of such primes, squared,
    exceeds the Hadamard bound (ΣF_i²)^(n−1)·(ΣF′_i²)^n on Res², the
    resultant is 0: False (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 6).  As p² > 2**58, at most bound.bit_length() // 58 + 1
    primes fail, so a repeated-root f costs work linear in the bound's bits.
    """
    if f.degree < 1:
        raise ValueError("square-freeness needs degree >= 1, got %r" % (f,))
    F = f._num
    n, bound, proof = len(F) - 1, None, 1
    # 1073741789 = 2**30 - 35 is prime; only the primes below it are tested
    for p in chain((1073741789,), filter(is_prime, count(1073741787, -2))):
        if not F[-1] % p:
            continue
        fbar = [c % p for c in F]
        if _coprime_mod_p(fbar, [k * c % p for k, c in enumerate(fbar) if k], p):
            return True
        # computed once, after the first failing prime
        bound = bound or (sum(c * c for c in F) ** (n - 1)
                          * sum((k * c) ** 2 for k, c in enumerate(F)) ** n)
        proof *= p
        if proof * proof > bound:
            return False


def _coprime_mod_p(a: list, b: list, p: int) -> bool:
    """Euclid over F_p on ascending ``int`` lists with nonzero tops; consumes both."""
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % p
            k = len(a) - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


# ---------------------------------------------------------------------------
# serialization: JSON array of coefficient strings, ascending degree
# ---------------------------------------------------------------------------

def poly_to_json(f: Poly) -> list:
    """Each coefficient c/den spelled as ``str(Fraction(c, den))``, without building it."""
    den = f._den
    return ["%d" % (c // g) if (g := math.gcd(c, den)) == den else "%d/%d" % (c // g, den // g)
            for c in f._num]


def poly_from_json(obj) -> Poly:
    if not isinstance(obj, list):
        raise ValueError("polynomial encoding must be a JSON array, got %r" % (obj,))
    p = Poly(tuple(scalar_from_json(c) for c in obj))
    if len(p._num) != len(obj):
        raise ValueError("polynomial encoding ends in a zero coefficient: %r" % (obj,))
    return p
