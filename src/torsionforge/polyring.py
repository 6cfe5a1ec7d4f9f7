"""Dense univariate polynomials over the rationals.

A polynomial is stored as a tuple of integer numerators, ascending (index
k belongs to x**k), over one positive integer denominator, in lowest
terms: the denominator is coprime to the numerators together, and the
last numerator is nonzero.  That form is canonical, so two polynomials
are equal exactly when their numerators and denominators are.
``Poly(coefficients)`` is the one constructor (``Poly()`` is zero) and
truth the one zero test (``not p``); ``x_power`` and ``x_minus`` spell
x**k and x - a, the two shapes the package builds, from integers, and
integer pairs (n, d) enter by the one door :func:`poly_from_pairs`.  The
constructor accepts ``int`` and ``Fraction`` coefficients and refuses
any other type, Gaussian rationals included: the only non-rational
numbers the package needs are two scalars of a certificate, a point's
ordinate and ``lambda``, never a polynomial coefficient.

Every kernel works on the stored integers and ends in one normalising
gcd: :func:`combine`, the sum of multiples behind ``+`` and ``-``, takes
its scalars as integer pairs (n, d), such as ``p.pair(k)`` reads, and
aligns the denominators by their lcm, ``*`` is a schoolbook convolution
of the numerators (a square takes each cross product once),
(n0 + n1*x)**k is expanded by the binomial theorem, evaluation at p/q is
Horner's rule on p and q, and the shift x -> x + p/q is synthetic
division homogenised by q.  ``p << k`` and
``p >> k`` multiply and divide exactly by x**k with no gcd, as a shift
keeps lowest terms.  :func:`sqrt_series` runs its recurrence on integer
pairs in lowest terms.  :func:`is_product_sum` decides f == sum p*q with
no gcd at all, and :func:`is_spot_sum` compares the two sides at
x = 2**20 only, each value a sum of shifted numerators, in O(deg) work.
Only the extended gcd divides, by plain long division.
``Fraction``s are built only at the edges: ``coeffs``, ``[k]``,
``leading_coefficient`` and the value of a polynomial at a point, never
in the serializer, which spells each c/den as ``str(Fraction)`` would,
nor in the reader, which parses each string to its integer pair.

Square-freeness is decided by one integer gcd or modulo primes below 2**30
(:func:`is_squarefree`), and L == lc(L)*(x - a)**k*u by its log-derivative.

The degree of the zero polynomial is the distinguished sentinel
:data:`NEG_INFINITY` (``float('-inf')``), never an ordinary integer, so
degree comparisons behave correctly without special cases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, count, repeat

from .scalars import is_prime, rational_pair, repeated_squaring, scalar_from_json

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")
_SCREEN_BITS = 256  # the widest numerator, in bits, for is_squarefree's integer gcd


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
    return _stored(tuple(num), den)


def _stored(num: tuple, den: int) -> "Poly":
    """The Poly num/den, for num and den already in lowest terms."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


class Poly:
    """Immutable dense polynomial; create with Poly([c0, c1, ...])."""

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs=()):
        return poly_from_pairs([(c.numerator, c.denominator) for c in map(_rational, coeffs)])

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def x_power(cls, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return _make([0] * k + [1], 1)

    @classmethod
    def x_minus(cls, a) -> "Poly":
        p, q = _rational(a).numerator, a.denominator
        return _make([-p, q], q)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int | float:
        return len(self._num) - 1 if self._num else NEG_INFINITY

    @property
    def leading_coefficient(self):
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def pair(self, k: int) -> tuple:
        """(c, den) with c/den the coefficient of x**k, not reduced: no ``Fraction`` is built."""
        return (self._num[k] if 0 <= k < len(self._num) else 0), self._den

    def monic(self) -> "Poly":
        """self divided by its leading coefficient."""
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return _make(list(self._num), self._num[-1])

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

    __hash__ = __iter__ = None  # never a key; and [k] reads 0 past the degree, so iteration would not end

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return combine(((1, 1), self), ((1, 1), other)) if isinstance(other, Poly) else NotImplemented

    def __sub__(self, other):
        return combine(((1, 1), self), ((-1, 1), other)) if isinstance(other, Poly) else NotImplemented

    def __neg__(self):
        return _make([-c for c in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make([c * other.numerator for c in self._num], self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _make(_convolve(self._num, other._num), self._den * other._den)

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
        return repeated_squaring(self, k) if k else Poly((1,))

    def __divmod__(self, other):
        """Long division: (q, r) with self = q*other + r and deg r < deg other."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, n = [], self, len(other._num) - 1
        for k in range(len(self._num) - 1 - n, -1, -1):
            quot.append(rem[k + n] / other.leading_coefficient)
            rem = rem - (other << k) * quot[-1]
        return Poly(reversed(quot)), rem

    def __lshift__(self, k: int) -> "Poly":
        """self * x**k, still in lowest terms; ValueError for k < 0, as ``int`` gives."""
        if k < 0:
            raise ValueError("negative shift count")
        return _stored((0,) * k + self._num if self._num else (), self._den)

    def __rshift__(self, k: int) -> "Poly":
        """self / x**k, exact and still in lowest terms: ValueError for k < 0 or
        unless the k low coefficients are 0."""
        if k < 0:
            raise ValueError("negative shift count")
        if any(self._num[:k]):
            raise ValueError("x^%d does not divide %s" % (k, self))
        return _stored(self._num[k:], self._den)

    def __call__(self, t):
        """Evaluate at a rational t = p/q: Horner's rule on the numerators
        F over den gives sum F_i*p^i*q^(n-i), over den*q^n."""
        p, q = _rational(t).numerator, t.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc, qk = acc * p + c * qk, qk * q
        return Fraction(acc * q, self._den * qk)

    def shift(self, a) -> "Poly":
        """self(x + a), for a rational a = p/q, by Taylor's shift kept in the
        integers: with F over den of degree n, G_i = F_i*q^(n-i) gives
        q^n*den*self(X/q) = G(X); n passes of synthetic division by X - p
        give G(X + p) = sum H_j X^j, so self(x + a) = sum H_j*q^j x^j / (q^n*den)."""
        if not self or not a:
            return self
        p, q = _rational(a).numerator, a.denominator
        n = len(self._num) - 1
        G = [c * q ** (n - i) for i, c in enumerate(self._num)]
        for j in range(n):
            for i in range(n - 1, j - 1, -1):
                G[i] += p * G[i + 1]
        return _make([h * q ** j for j, h in enumerate(G)], q ** n * self._den)

    # -- display --------------------------------------------------------------

    def __repr__(self):
        return "Poly([%s])" % (", ".join(str(c) for c in self.coeffs),)

    def __str__(self):
        parts = []
        for k, c in reversed(list(enumerate(self.coeffs))):
            if c:
                x = "" if k == 0 else "x" if k == 1 else "x^%d" % k
                parts.append(str(c) if not x else x if c == 1 else "%s*%s" % (c, x))
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def _convolve(a, b) -> list:
    """The convolution of integer lists a and b; a square (a is b) doubles each cross product."""
    acc = [0] * (len(a) + len(b) - 1)
    if a is b:
        for i, x in enumerate(a):
            acc[2 * i] += x * x
            x += x
            for j, y in enumerate(a[i + 1:], 2 * i + 1):
                acc[j] += x * y
        return acc
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return acc


def poly_from_pairs(pairs: list) -> Poly:
    """The Poly with coefficients n/d for the integer pairs (n, d), d > 0, over the lcm of the d."""
    den = math.lcm(*[d for _, d in pairs])
    return _make([n * (den // d) for n, d in pairs], den)


def combine(*terms) -> Poly:
    """The sum of (n/d)*p over the terms ((n, d), p), integers n and d != 0, over the lcm of the denominators."""
    den = math.lcm(*[d * p._den for (_, d), p in terms])
    out = [0] * max([len(p._num) for _, p in terms])
    for (n, d), p in terms:
        s = n * (den // (d * p._den))
        for k, x in enumerate(p._num):
            out[k] += s * x
    return _make(out, den)


def is_product_sum(f: Poly, *pairs) -> bool:
    """Whether f == sum of p*q over the pairs (p, q), on the stored integers
    scaled to the lcm of the denominators after each convolution."""
    den = math.lcm(f._den, *[p._den * q._den for p, q in pairs])
    out = [-c * (den // f._den) for c in f._num] + [0] * sum(len(p._num) + len(q._num) for p, q in pairs)
    for p, q in pairs:
        s = den // (p._den * q._den)
        for k, c in enumerate(_convolve(p._num, q._num)):
            out[k] += s * c
    return not any(out)


def is_spot_sum(f: Poly, *pairs) -> bool:
    """Whether f and the sum of p*q over the pairs (p, q) agree at x = 2**20: each side's stored
    numerators summed as shifts, the values compared cross-multiplied by the denominators."""
    def at(num):
        return sum(map(int.__lshift__, num, range(0, 20 * len(num), 20)))
    lhs, den = at(f._num), f._den  # f(2**20) - the sum so far, as lhs/den
    for p, q in pairs:
        d, value = p._den * q._den, at(p._num)
        lhs, den = lhs * d - value * (value if p is q else at(q._num)) * den, den * d
    return not lhs


def sqrt_series(T: Poly, b, K: int) -> Poly:
    """S of degree < K with S**2 = T mod x**K and S(0) = b, for T(0) = b**2 (b != 0 if K > 1), by
    2b*s_j = T_j - sum_{0<i<j} s_i*s_{j-i} on integer pairs in lowest terms: the sum over the lcm
    of its denominators, each cross product once, one gcd per term and one _make at the end."""
    p, q, t, dt = b.numerator, b.denominator, T._num + (0,) * K, T._den
    s = [(p, q)]
    for j in range(1, K):
        terms = [(s[i], s[j - i], 1 + (2 * i < j)) for i in range(1, j // 2 + 1)]
        lcm = math.lcm(*[xd * yd for (_, xd), (_, yd), _ in terms])
        dot = sum(k * xn * yn * (lcm // (xd * yd)) for (xn, xd), (yn, yd), k in terms)
        n, d = (t[j] * lcm - dot * dt) * q, 2 * p * dt * lcm  # (t_j/dt - dot/lcm)/(2p/q)
        g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
        s.append((n // g, d // g))
    return poly_from_pairs(s)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; both inputs zero is rejected."""
    return xgcd(f, g)[0]


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (h, s, t) with h monic and s*f + t*g == h."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    (r0, s0, t0), (r1, s1, t1) = (f, Poly((1,)), Poly()), (g, Poly(), Poly((1,)))
    while r1:
        q, r = divmod(r0, r1)
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r, s0 - q * s1, t0 - q * t1)
    inv = 1 / r0.leading_coefficient
    return r0 * inv, s0 * inv, t0 * inv


def is_scaled_power(L: Poly, a, k: int, u: Poly) -> bool:
    """Whether L == lc(L)*(x - a)**k*u, for a rational a = p/q and a monic u, with no (x - a)**k
    built: L != 0 is a multiple of T = (x - a)**k*u exactly when (L/T)' = 0, or P*L' == R*L on
    L's numerators (its denominator cancels) with u's numerators U, P = (q*x - p)*U and
    R = k*q*U + (q*x - p)*U'.  For L = 0 the two sides differ in length."""
    N, U, qx_p = L._num, u._num, [-a.numerator, a.denominator]
    dN, dU = ([i * c for i, c in enumerate(X)][1:] for X in (N, U))
    R = [k * a.denominator * c + e for c, e in zip(U, _convolve(qx_p, dU))]
    return _convolve(_convolve(qx_p, U), dN) == _convolve(R, N)


def is_squarefree(f: Poly) -> bool:
    """True when f shares no root with its derivative (no repeated factor).

    Constant and zero inputs are rejected: square-freeness is a question
    about polynomials with roots.

    F is f's stored integer numerators, n its degree and b the bits of the
    widest.  While b <= _SCREEN_BITS = 256 (past it CPython's quadratic
    gcd is slower than the walk), with B = b + 8, gcd(F(2**B), F′(2**B)) <
    2**B − 2**b proves True, by the root bound behind GCDHEU (Char, Geddes
    and Gonnet, *J. Symbolic Computation* 7, 1989): each root z has
    |z| < 2**b (Cauchy), so a primitive h of degree ≥ 1 dividing F and F′
    divides the gcd and |h(2**B)| ≥ Π|2**B − z| > 2**B − 2**b.  Otherwise
    the primes p are walked down from 1073741789 = 2**30 - 35, skipping
    those dividing lc(F), so F̄ and F̄′ keep degrees n and n − 1 and
    Res(F̄, F̄′) = Res(F, F′) mod p.  A unit gcd(F̄, F̄′) over F_p makes
    the resultant nonzero: True.  Otherwise p divides it, and once the
    product of such primes, squared, exceeds the Hadamard bound
    (ΣF_i²)^(n−1)·(ΣF′_i²)^n on Res², the resultant is 0: False (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).  As p² > 2**58,
    at most bound.bit_length() // 58 + 1 primes fail, so a repeated-root f
    costs work linear in the bound's bits.
    """
    if f.degree < 1:
        raise ValueError("square-freeness needs degree >= 1, got %r" % (f,))
    F = f._num
    b = max(map(abs, F)).bit_length()
    if b <= _SCREEN_BITS:
        B, X, Y = b + 8, 0, 0
        for k in range(len(F) - 1, 0, -1):  # Horner's rule at 2**B by shifts
            X, Y = (X << B) + F[k], (Y << B) + k * F[k]
        if math.gcd((X << B) + F[0], Y) < (1 << B) - (1 << b):
            return True
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
    pairs = [rational_pair(c) if isinstance(c, str) else scalar_from_json(c) for c in obj]
    for gaussian in [c for c in pairs if not isinstance(c, tuple)]:
        _rational(gaussian)  # refused after every element has parsed, so a malformed one is reported first
    p = poly_from_pairs(pairs)
    if len(p._num) != len(obj):
        raise ValueError("polynomial encoding ends in a zero coefficient: %r" % (obj,))
    return p
