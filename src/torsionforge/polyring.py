"""Dense univariate polynomials over the rationals.

Coefficients are ``Fraction``s stored ascending (index k holds the
coefficient of x**k) with no trailing zeros, so two polynomials are
equal exactly when their coefficient tuples are.  The constructor
accepts ``int`` and ``Fraction`` coefficients and refuses any other type,
Gaussian rationals included: the only non-rational numbers the package
needs are two scalars of a certificate, a point's ordinate and
``lambda``, never a polynomial coefficient.

``*``, ``divmod``, evaluation and the powers of a linear polynomial run
on integers: each operand is scaled to integer numerators over the lcm
of its denominators; the product is a schoolbook convolution of those
numerators, division is fraction-free long division over a running
denominator, evaluation at p/q is Horner's rule on p and q, and
(c0 + c1*x)**k is expanded by the binomial theorem.  Each output is then
one ``Fraction``, in lowest terms as always, so results are exactly those
of coefficient-wise ``Fraction`` arithmetic, with one normalising gcd
per output coefficient rather than one per coefficient operation.

Square-freeness is decided modulo primes only, on plain ``int`` lists
with ``pow(x, -1, p)`` inverses, so no coefficient grows: a unit gcd of
f and f' modulo one prime proves True, and enough primes dividing the
resultant of f and f' prove False (see :func:`is_squarefree`).  No
answer is probabilistic, and no Euclid over Q runs.

The degree of the zero polynomial is the distinguished sentinel
:data:`NEG_INFINITY` (``float('-inf')``), never an ordinary integer, so
degree comparisons behave correctly without special cases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import comb, lcm

from .scalars import is_prime, scalar_from_json, scalar_to_json

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


class DivisibilityError(ArithmeticError):
    """Raised by exact_div when the division leaves a remainder."""


def _coerce_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("unsupported coefficient type: %r" % (type(c).__name__,))


def _over_lcm(cs) -> tuple[list, int]:
    """Integer numerators of ``cs`` over the lcm of their denominators."""
    dens = [c.denominator for c in cs]
    den = lcm(*dens)
    return [c.numerator * (den // d) for c, d in zip(cs, dens)], den


def _canonical(cs: list) -> "Poly":
    """A Poly of ``Fraction``s, trailing zeros stripped, without re-coercion."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Poly)
    object.__setattr__(p, "_coeffs", tuple(cs))
    return p


class Poly:
    """Immutable dense polynomial; create with Poly([c0, c1, ...])."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

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
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self):
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def __getitem__(self, k: int):
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None  # mutable-free but unhashable; never used as a key

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _canonical(out)

    def __neg__(self):
        return _canonical([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] -= c
        return _canonical(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _canonical([c * other for c in self._coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly.zero()
        # a schoolbook convolution of the integer numerators
        na, da = _over_lcm(a)
        nb, db = _over_lcm(b)
        acc = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb, i):
                    acc[j] += x * y
        den = da * db
        return _canonical([Fraction(c, den) for c in acc])

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        if k == 0:
            return Poly.one()
        if len(self._coeffs) == 2:
            # (n0 + n1*x)**k / den**k by the binomial theorem
            (n0, n1), den = _over_lcm(self._coeffs)
            dk = den ** k
            return _canonical([Fraction(comb(k, j) * n0 ** (k - j) * n1 ** j, dk)
                               for j in range(k + 1)])
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __divmod__(self, other):
        """Fraction-free long division on integer numerators.

        With self = R/den and other = B/db, each step removes the top
        term c of R: the quotient coefficient is c*db/(den*L), L the
        leading numerator of B, and the remainder becomes
        (L*R - c*x^k*B)/(den*L).  When L == 1 the rescale is skipped.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(), self
        rem, den = _over_lcm(self._coeffs)
        nb, db = _over_lcm(other._coeffs)
        dv = len(nb) - 1
        lead = nb[-1]
        quot = [Fraction(0)] * (len(rem) - dv)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dv]
            if not c:
                continue
            quot[k] = Fraction(c * db, den * lead)
            if lead != 1:
                for j in range(k + dv):
                    rem[j] *= lead
                den *= lead
            for j, y in enumerate(nb[:-1], k):
                rem[j] -= c * y
        return _canonical(quot), _canonical([Fraction(c, den) for c in rem[:dv]])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, t):
        """Evaluate at a rational t = p/q: Horner's rule on the integer
        numerators F over den gives sum F_i*p^i*q^(n-i), over den*q^n."""
        t = _coerce_coeff(t)
        if not self._coeffs:
            return Fraction(0)
        F, den = _over_lcm(self._coeffs)
        p, q = t.numerator, t.denominator
        acc, qk = F[-1], 1
        for c in reversed(F[:-1]):
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, den * qk)

    # -- calculus and transforms ---------------------------------------------

    def derivative(self) -> "Poly":
        return _canonical([k * c for k, c in enumerate(self._coeffs) if k])

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading_coefficient
        if lead == 1:
            return self
        return _canonical([c / lead for c in self._coeffs])

    def valuation_at_zero(self) -> int:
        """Multiplicity of the root 0, i.e. the index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no valuation at zero")
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        raise AssertionError("unreachable")  # pragma: no cover

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return "Poly([%s])" % (", ".join(str(c) for c in self._coeffs),)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
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
    """Quotient f/g when g divides f exactly; DivisibilityError otherwise."""
    q, r = divmod(f, g)
    if not r.is_zero:
        raise DivisibilityError(
            "%s does not divide %s exactly (remainder %s)" % (g, f, r)
        )
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

    F is f's integer numerators over the lcm of its denominators, n its
    degree.  The primes p are walked down from 2**61 - 1, skipping those
    that divide lc(F), so F̄ and F̄′ keep degrees n and n − 1 and
    Res(F̄, F̄′) = Res(F, F′) mod p.  A unit gcd(F̄, F̄′) over F_p makes
    the resultant nonzero: True.  Otherwise p divides it, and once the
    product of such primes, squared, exceeds the Hadamard bound
    (ΣF_i²)^(n−1)·(ΣF′_i²)^n on Res², the resultant is 0: False (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).  As p > 2**60,
    at most bound.bit_length() // 120 + 1 primes fail before the answer.
    """
    if f.degree < 1:
        raise ValueError("square-freeness needs degree >= 1, got %r" % (f,))
    F = _over_lcm(f._coeffs)[0]
    n, bound, proof = len(F) - 1, None, 1
    # 2**61 - 1 is a Mersenne prime; only the primes below it are tested
    for p in chain((2305843009213693951,), filter(is_prime, count(2305843009213693949, -2))):
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
    return [scalar_to_json(c) for c in f.coeffs]


def poly_from_json(obj) -> Poly:
    if not isinstance(obj, list):
        raise ValueError("polynomial encoding must be a JSON array, got %r" % (obj,))
    p = Poly(tuple(scalar_from_json(c) for c in obj))
    if len(p.coeffs) != len(obj):
        raise ValueError("polynomial encoding ends in a zero coefficient: %r" % (obj,))
    return p
