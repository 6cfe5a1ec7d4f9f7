"""Exact-arithmetic torsion certificates for superelliptic curves y**d = f(x).

The package decides which torsion orders are reachable for given degrees
(n, d), constructs square-free polynomials f carrying a point of exact
order m together with a machine-checkable certificate, and independently
confirms d = 2 orders by divisor-class arithmetic.
"""

from __future__ import annotations

from .certify import (
    PreconditionError,
    TorsionCertificate,
    Verdict,
    exactness_rule_for,
    reachability_verdict,
    verify_certificate,
)
from .constructors import (
    ConstructionRequest,
    SearchExhausted,
    SearchLimitError,
    construct,
    construct_div_d,
    construct_n_plus_ed,
    construct_order_d,
    construct_order_n,
    infer_style,
)
from .curves import (
    AffinePoint,
    Curve,
    CurveError,
    DegreeError,
    GcdError,
    OrderError,
    RepeatedRootError,
    on_curve,
)
from .jacobian2 import (
    IDENTITY,
    MumfordDivisor,
    OrderNotFoundError,
    UnsupportedDegreeError,
    add,
    embed_point,
    neg,
    order_of,
    validate,
)
from .polyring import DivisibilityError, Poly, exact_div, is_squarefree, xgcd
from .scalars import GAUSSIAN_I, GaussianRational, is_prime
from .series import (
    HypothesisError,
    TruncationSpec,
    check_truncation_valuation,
    truncated_binomial,
    truncation_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePoint",
    "ConstructionRequest",
    "Curve",
    "CurveError",
    "DegreeError",
    "DivisibilityError",
    "GAUSSIAN_I",
    "GaussianRational",
    "GcdError",
    "HypothesisError",
    "IDENTITY",
    "MumfordDivisor",
    "OrderError",
    "OrderNotFoundError",
    "Poly",
    "PreconditionError",
    "RepeatedRootError",
    "SearchExhausted",
    "SearchLimitError",
    "TorsionCertificate",
    "TruncationSpec",
    "UnsupportedDegreeError",
    "Verdict",
    "add",
    "check_truncation_valuation",
    "construct",
    "construct_div_d",
    "construct_n_plus_ed",
    "construct_order_d",
    "construct_order_n",
    "embed_point",
    "exact_div",
    "exactness_rule_for",
    "infer_style",
    "is_prime",
    "is_squarefree",
    "neg",
    "on_curve",
    "order_of",
    "reachability_verdict",
    "truncated_binomial",
    "truncation_quotient",
    "validate",
    "verify_certificate",
    "xgcd",
]
