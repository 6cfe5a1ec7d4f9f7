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
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd as int_gcd

from .polyring import is_squarefree, poly_from_json, poly_to_json
from .scalars import int_from_json


class CurveError(ValueError):
    """A curve validation failure; its message names the violated condition."""


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
        if not isinstance(self.d, int) or not isinstance(self.n, int):
            raise CurveError("d and n must be integers")
        if self.d < 2:
            raise CurveError("cover degree d must be at least 2, got %d" % (self.d,))
        if self.n <= self.d:
            raise CurveError("requires n > d, got n=%d, d=%d" % (self.n, self.d))
        if int_gcd(self.n, self.d) != 1:
            raise CurveError("n and d must be coprime, got n=%d, d=%d" % (self.n, self.d))
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
        return cls(
            int_from_json("d", obj["d"]), int_from_json("n", obj["n"]), poly_from_json(obj["f"])
        )


class AffinePoint(namedtuple("AffinePoint", "x y")):
    __slots__ = ()

    def __str__(self):
        return "(%s, %s)" % (self.x, self.y)


def on_curve(curve: Curve, point: AffinePoint) -> bool:
    return point.y ** curve.d == curve.f(point.x)
