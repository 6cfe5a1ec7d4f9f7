"""Construction families: frozen constants, search determinism, refusals."""

from __future__ import annotations

import inspect
import re
from collections import Counter
from fractions import Fraction
from itertools import count
from math import gcd

import pytest

from torsionforge import constructors, series
from torsionforge.certify import verify_certificate
from torsionforge.constructors import (
    DEFAULT_SEARCH_LIMIT,
    STATUS_CONSTRUCTIVE,
    STATUS_UNDECIDED,
    STATUS_UNREACHABLE,
    SearchExhausted,
    _search,
    construct,
    construct_n_plus_ed,
    reachability_verdict,
)
from torsionforge.curves import AffinePoint, CurveError, PreconditionError
from torsionforge.jacobian2 import embed_point, order_of
from torsionforge.polyring import Poly
from torsionforge.scalars import GAUSSIAN_I, GaussianRational


def assert_verifies(cert):
    ok, lines = verify_certificate(cert)
    assert ok, [str(l) for l in lines if not l.ok]
    return cert


# ---------------------------------------------------------------------------
# frozen worked constants
# ---------------------------------------------------------------------------

def test_n_plus_ed_worked_constant():
    cert = assert_verifies(construct_n_plus_ed(5, 2, 1))
    assert cert.curve.f == Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    assert cert.point == AffinePoint(Fraction(-1), GaussianRational(0, Fraction(5, 2)))
    assert cert.m == 7
    assert cert.lam == GAUSSIAN_I
    assert order_of(*embed_point(cert.curve, cert.point), bound=7) == 7


def test_div_d_worked_constant():
    cert = assert_verifies(construct(5, 2, 6))
    assert cert.curve.f == Poly((1, 0, 1, 2, Fraction(1, 4), 1))
    assert cert.v == Poly((1, 0, Fraction(1, 2), 1))
    assert cert.point == AffinePoint(Fraction(0), Fraction(1))
    assert order_of(*embed_point(cert.curve, cert.point), bound=6) == 6


# ---------------------------------------------------------------------------
# order-d
# ---------------------------------------------------------------------------

def test_order_d_basic():
    cert = assert_verifies(construct(5, 2, 2))
    assert cert.curve.f == Poly((-1, 0, 0, 0, 0, 1))
    assert cert.point == AffinePoint(Fraction(1), Fraction(0))
    assert cert.m == 2
    assert order_of(*embed_point(cert.curve, cert.point), bound=2) == 2


# ---------------------------------------------------------------------------
# order-n
# ---------------------------------------------------------------------------

def test_order_n_default_search():
    cert = assert_verifies(construct(5, 2, 5))
    assert cert.m == 5
    assert cert.curve.f == Poly.x_power(5) + Poly((1, 1)) ** 2
    assert order_of(*embed_point(cert.curve, cert.point), bound=5) == 5


def test_order_n_first_witness_is_square_free():
    # x^n + (x+1)^d is square-free for coprime d < n (_order_n's
    # docstring proves it), so a budget of one candidate always suffices
    for n in range(3, 41):
        for d in range(2, n):
            if gcd(n, d) == 1:
                cert = construct(n, d, n, search_limit=1)
                assert cert.v == Poly((1, 1)), (n, d)


# ---------------------------------------------------------------------------
# div-d
# ---------------------------------------------------------------------------

def test_div_d_requires_divisibility_and_size():
    # m = 7 is not a multiple of d, so n-plus-ed builds it; m = 4 lies below n
    assert construct(5, 2, 7).identity_kind == "infinity-shift"
    with pytest.raises(PreconditionError, match=re.escape("order m=4 is unreachable on (n=5, d=2)")):
        construct(5, 2, 4)


def test_div_d_negative_deficit_refused():
    # (7, 5): m = 10 has deficit 7 - 10 + 2 = -1
    assert reachability_verdict(7, 5, 10).deciding_rule == "multiple-deficit"
    with pytest.raises(PreconditionError, match=re.escape("order m=10 is unreachable on (n=7, d=5)")) as info:
        construct(7, 5, 10)
    assert info.value.rule == "multiple-deficit"


def test_div_d_zero_deficit_unique_representative():
    # (8, 3): m = 12, deficit 0, no search, v = x^4 + 1/3
    cert = assert_verifies(construct(8, 3, 12))
    assert cert.v == Poly.x_power(4) + Poly((Fraction(1, 3),))
    assert cert.curve.f == Poly((Fraction(1, 27), 0, 0, 0, Fraction(1, 3), 0, 0, 0, 1))
    assert cert.point == AffinePoint(Fraction(0), Fraction(1, 3))


def test_div_d_two_torsion_link_for_twice_degree():
    cert = assert_verifies(construct(5, 2, 10))
    assert cert.identity_kind == "two-torsion-link"
    assert cert.curve.f == Poly((1, 0, 0, -2, 0, 1))      # x^5 - 2x^3 + 1
    assert cert.point == AffinePoint(Fraction(0), Fraction(1))
    assert cert.u == Poly((-1, 1))
    assert order_of(*embed_point(cert.curve, cert.point), bound=10) == 10


def test_two_torsion_link_smallest_case():
    # n = 3: the witness is fully forced
    cert = assert_verifies(construct(3, 2, 6))
    assert cert.curve.f == Poly.x_minus(Fraction(1)) * Poly((-1, -1, 1))
    assert order_of(*embed_point(cert.curve, cert.point), bound=6) == 6


def test_div_d_search_is_deterministic():
    a = construct(7, 2, 8)
    b = construct(7, 2, 8)
    assert a == b
    assert a.to_json_str() == b.to_json_str()


def test_exhausted_search_reports_budget():
    # budget of zero candidates cannot succeed
    with pytest.raises(SearchExhausted, match=r"within 0 candidates; raise --c-range"):
        construct(7, 2, 8, search_limit=0)


def _rejecting_build(k: int):
    """A build that rejects its first k candidates as not square-free."""
    def build(cand):
        if cand <= k:
            raise CurveError("candidate %d rejected" % (cand,))
        return cand
    return build


def _exhausted_message(order: str, limit: int, error) -> str:
    return (
        "no square-free curve with a point of order %s found within %d candidates (%s); "
        "raise --c-range to widen the search" % (order, limit, error)
    )


@pytest.mark.parametrize("k", [1, 3])
def test_search_skips_rejected_candidates(k):
    assert _search(count(1), _rejecting_build(k), "m=8", search_limit=k + 1) == k + 1


@pytest.mark.parametrize("k", [1, 3])
def test_search_exhausted_names_the_budget_and_the_last_error(k):
    with pytest.raises(SearchExhausted) as info:
        _search(count(1), _rejecting_build(k), "m=8", search_limit=k)
    assert str(info.value) == _exhausted_message("m=8", k, "candidate %d rejected" % (k,))


def test_default_search_limit_is_64_candidates():
    assert DEFAULT_SEARCH_LIMIT == 64
    assert inspect.signature(construct).parameters["search_limit"].default == DEFAULT_SEARCH_LIMIT
    assert _search(count(1), _rejecting_build(63), "n=7", DEFAULT_SEARCH_LIMIT) == 64
    with pytest.raises(SearchExhausted) as info:
        _search(count(1), _rejecting_build(64), "n=7", DEFAULT_SEARCH_LIMIT)
    assert str(info.value) == _exhausted_message("n=7", 64, "candidate 64 rejected")


def test_search_limit_none_is_a_type_error():
    # no implicit budget: None does not mean "unbounded" or "the default"
    with pytest.raises(TypeError):
        _search(count(1), _rejecting_build(0), "n=7", None)
    with pytest.raises(TypeError):
        construct(7, 2, 8, search_limit=None)


# ---------------------------------------------------------------------------
# n-plus-ed
# ---------------------------------------------------------------------------

def test_n_plus_ed_rational_point_for_odd_d():
    cert = assert_verifies(construct_n_plus_ed(7, 3, 1))
    assert cert.m == 10
    assert cert.lam == Fraction(-1)
    assert cert.point is not None and not cert.point_symbolic


def test_n_plus_ed_symbolic_point_for_even_d():
    cert = assert_verifies(construct_n_plus_ed(9, 4, 1))
    assert cert.m == 13
    assert cert.point_symbolic
    assert cert.point is None
    assert cert.lam is None


def test_n_plus_ed_hypothesis_violations_raise():
    # the gate m > d*(E-1) fails at 11 <= 12 and 13 <= 14; construct refuses
    # both orders itself, before the builder runs
    unreachable = "order m=11 is unreachable on (n=7, d=4) curves"
    with pytest.raises(PreconditionError, match=re.escape(unreachable)) as info:
        construct(7, 4, 11)
    assert info.value.rule == "step-threshold"
    undecided = "no construction family covers m=13 on (n=5, d=2) curves"
    with pytest.raises(PreconditionError, match=re.escape(undecided)):
        construct(5, 2, 13)


def test_congruent_step_is_exactly_a_degree_n_quotient():
    # the converse of the gate, from the series itself: for m = n + e*d the
    # verdict is congruent-step exactly when the truncated quotient has degree
    # n; every other such m leaves a quotient of larger degree
    cases = Counter()
    for d in (2, 3, 4, 5, 7):
        for n in (n for n in range(d + 1, 26) if gcd(n, d) == 1):
            for e in (1, 2, 3):
                m, E = n + e * d, e * d
                degree = series.truncation_quotient(m, d, E, series.truncated_binomial(m, d, E)).degree
                congruent = reachability_verdict(n, d, m).deciding_rule == "congruent-step"
                assert degree == n if congruent else degree > n, (n, d, e)
                cases[congruent] += 1
    assert cases[True] > 0 and cases[False] > 0


def test_n_plus_ed_builds_the_series_once(monkeypatch):
    # one series of E = e*d = 4 terms for m = n + e*d = 9, built by one call
    calls = []

    def counted(m, d, E):
        calls.append((m, d, E))
        return series.truncated_binomial(m, d, E)

    monkeypatch.setattr(constructors, "truncated_binomial", counted)
    construct_n_plus_ed(5, 2, 2)
    assert calls == [(9, 2, 4)]


def test_n_plus_ed_tight_boundary():
    # m = 2n + 1 is the largest hyperelliptic case: 15 > 14 just barely
    cert = assert_verifies(construct_n_plus_ed(7, 2, 4))
    assert cert.m == 15
    assert cert.exactness_rule == "odd-below-thrice-degree"


@pytest.mark.parametrize("n, d, lam", [(36, 7, Fraction(-1)), (25, 6, None)])
def test_n_plus_ed_lambda_at_larger_cover_degrees(n, d, lam):
    # odd d: lam = -1 with lam**d == -1; even d > 2: no d-th root of -1
    # in Q(i), so the point is symbolic
    cert = assert_verifies(construct_n_plus_ed(n, d, 1))
    assert cert.lam == lam
    assert cert.point_symbolic is (lam is None)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_construct_picks_the_family_by_m():
    kinds = {2: "order-d", 5: "pure-power", 6: "pure-power", 10: "two-torsion-link", 7: "infinity-shift"}
    for m, kind in kinds.items():
        assert construct(5, 2, m).identity_kind == kind
    for m in (3, 4):
        message = "order m=%d is unreachable on (n=5, d=2) curves" % (m,)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            construct(5, 2, m)
    for m in (13, 15):
        message = "no construction family covers m=%d on (n=5, d=2) curves" % (m,)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            construct(5, 2, m)
    with pytest.raises(PreconditionError, match="orders below 2 are not meaningful, got m=1"):
        construct(5, 2, 1)


def test_every_refusal_is_a_precondition_error_with_the_unreachable_rule():
    # construct builds exactly the constructive triples; it refuses the rest
    # itself, naming the deciding rule of an unreachable order
    refused = Counter()
    for d in range(2, 6):
        for n in (n for n in range(d + 1, 12) if gcd(n, d) == 1):
            for m in range(2, 2 * n + 2):
                verdict = reachability_verdict(n, d, m)
                if verdict.status == STATUS_CONSTRUCTIVE:
                    continue
                with pytest.raises(PreconditionError) as info:
                    construct(n, d, m)
                assert type(info.value) is PreconditionError, (n, d, m)
                refused[verdict.status] += 1
                if verdict.status == STATUS_UNREACHABLE:
                    message = "order m=%d is unreachable on (n=%d, d=%d) curves"
                    assert info.value.rule == verdict.deciding_rule, (n, d, m)
                else:
                    message = "no construction family covers m=%d on (n=%d, d=%d) curves"
                    assert not hasattr(info.value, "rule"), (n, d, m)
                assert str(info.value) == message % (m, n, d)
    assert refused[STATUS_UNREACHABLE] > 0 and refused[STATUS_UNDECIDED] > 0


def test_construct_checks_the_shape_before_the_order():
    with pytest.raises(CurveError, match="cover degree d must be at least 2, got 0"):
        construct(5, 0, 7)


BAD_SHAPES = [(5, 0, 7), (5, 1, 7), (4, 2, 6), (3, 5, 8), (6, 3, 6), (5, 5, 6)]


@pytest.mark.parametrize(
    "n, d, m", BAD_SHAPES, ids=["-".join(str(x) for x in case) for case in BAD_SHAPES],
)
def test_construct_rejects_bad_shapes(n, d, m):
    with pytest.raises(PreconditionError):
        construct(n=n, d=d, m=m)


def test_construct_dispatch_round_trip():
    for m in (2, 5, 6, 7, 8, 9, 10, 11):
        cert = construct(n=5, d=2, m=m)
        assert cert.m == m
        assert_verifies(cert)
