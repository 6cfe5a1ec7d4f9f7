"""Superelliptic curves y**d = f(x) and their basic geometry.

A curve is the data (d, n, f) with 1 < d < n, gcd(n, d) = 1, and f
square-free of degree exactly n.  Under those constraints the projective
model has a single point O at infinity and the genus is
(n-1)(d-1)/2.  Points of order exactly d in the Jacobian (differences
P - O) are precisely the affine points with zero ordinate, i.e. (w, 0)
for w a root of f; the constructors build such a point together with
its curve, so no root finding happens anywhere.

f is a polynomial over Q.  A point's abscissa is rational; its ordinate
may be a ``GaussianRational``, as for the d = 2 points of order n + e*d.

The (n, d) rule is stated once, in ``check_shape``.  Every refused
precondition is a ``PreconditionError``; ``CurveError`` is its subclass.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd as int_gcd

from .polyring import is_squarefree, poly_from_json, poly_to_json
from .scalars import field_from_json


class PreconditionError(ValueError):
    """A stated precondition of an operation fails."""


class CurveError(PreconditionError):
    """A curve validation failure; its message names the violated condition."""


def check_shape(n: int, d: int):
    """Require integers with n > d >= 2 and gcd(n, d) = 1, else CurveError."""
    if not isinstance(d, int) or not isinstance(n, int):
        raise CurveError("d and n must be integers")
    if d < 2:
        raise CurveError("cover degree d must be at least 2, got %d" % (d,))
    if n <= d:
        raise CurveError("requires n > d, got n=%d, d=%d" % (n, d))
    if int_gcd(n, d) != 1:
        raise CurveError("n and d must be coprime, got n=%d, d=%d" % (n, d))


class Curve(namedtuple("Curve", "d n f")):
    """y**d = f(x); validated on construction, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, d, n, f):
        self = super().__new__(cls, d, n, f)
        # a separate method: bench/tracer.py and tests/test_surface.py hook it by name
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so that ``_replace`` validates too."""
        return cls(*iterable)

    def __post_init__(self):
        check_shape(self.n, self.d)
        if self.f.degree != self.n:
            raise CurveError("deg f = %s but n = %d" % (self.f.degree, self.n))
        if not is_squarefree(self.f):
            raise CurveError("f has a repeated root: %s" % (self.f,))

    @property
    def genus(self) -> int:
        return (self.n - 1) * (self.d - 1) // 2

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "f": poly_to_json(self.f)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Curve":
        unknown = set(obj) - {"d", "n", "f"}
        if unknown:
            raise ValueError("unknown curve keys %s" % (sorted(unknown),))
        d, n = (field_from_json(key, obj[key], int) for key in ("d", "n"))
        return cls(d, n, poly_from_json(obj["f"]))


class AffinePoint(namedtuple("AffinePoint", "x y")):
    __slots__ = ()

    def __str__(self):
        return "(%s, %s)" % (self.x, self.y)


def on_curve(curve: Curve, point: AffinePoint) -> bool:
    return point.y ** curve.d == curve.f(point.x)
