"""Exact-arithmetic torsion certificates for superelliptic curves y**d = f(x).

The package decides which torsion orders are reachable for given degrees
(n, d), constructs square-free polynomials f carrying a point of exact
order m together with a machine-checkable certificate, and independently
confirms d = 2 orders by divisor-class arithmetic.  The top level exports
the five entry points below; every other name is imported from its module.
"""

from .certify import verify_certificate
from .constructors import construct, reachability_verdict
from .jacobian2 import embed_point, order_of

__version__ = "0.1.0"

__all__ = [
    "construct",
    "embed_point",
    "order_of",
    "reachability_verdict",
    "verify_certificate",
]
