"""Exact-arithmetic torsion certificates for superelliptic curves y**d = f(x).

The package decides which torsion orders are reachable for given degrees
(n, d), constructs square-free polynomials f carrying a point of exact
order m together with a machine-checkable certificate, and independently
confirms d = 2 orders by divisor-class arithmetic.  The top level exports
the six entry points below; every other name is imported from its module.
"""

from .certify import reachability_verdict, verify_certificate
from .constructors import ConstructionRequest, construct
from .jacobian2 import embed_point, order_of

__version__ = "0.1.0"

__all__ = [
    "ConstructionRequest",
    "construct",
    "embed_point",
    "order_of",
    "reachability_verdict",
    "verify_certificate",
]
