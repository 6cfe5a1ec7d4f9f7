"""End-to-end acceptance battery.

Each test exercises one externally checkable promise of the package and
prints a single ``CRITERION n PASS`` line on success (visible with
``pytest tests/test_acceptance.py -v -s``).
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from cantor_reference import IDENTITY, add_point, cantor_add, neg, validate_pair
from torsionforge.cli import certify_request, main
from torsionforge.constructors import (
    DEFAULT_SEARCH_LIMIT,
    STATUS_CONSTRUCTIVE,
    STATUS_UNREACHABLE,
    construct,
    construct_n_plus_ed,
    reachability_verdict,
)
from torsionforge.curves import AffinePoint, Curve, PreconditionError
from torsionforge.jacobian2 import embed_point, order_of
from torsionforge.polyring import Poly, is_squarefree
from torsionforge.scalars import GaussianRational, gen_binom
from torsionforge.series import (
    check_truncation_valuation,
    truncated_binomial,
    truncation_quotient,
)


def build_and_check(n: int, d: int, m: int, oracle: bool = True):
    """Construct order m on a degree-(n, d) curve, verify, and (for d = 2)
    confirm the order independently by divisor arithmetic, through the
    same pipeline as ``construct`` and ``scan --construct``, which prints
    any failure report itself."""
    code, cert = certify_request(n, d, m, DEFAULT_SEARCH_LIMIT, oracle)
    assert code == 0, "pipeline failed for (n=%d, d=%d, m=%d)" % (n, d, m)
    assert cert.m == m
    return cert


def ladder_orders(n: int) -> list[int]:
    return sorted({2, n, *range(n + 1, 2 * n + 2)})


def test_criterion_01_quintic_ladder_under_ten_seconds():
    start = time.monotonic()
    for m in ladder_orders(5):
        build_and_check(5, 2, m)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, "ladder took %.2fs" % elapsed
    print(
        "CRITERION 1 PASS: orders %s realized, verified, and oracle-confirmed "
        "on degree-5 hyperelliptic curves in %.2fs" % (ladder_orders(5), elapsed)
    )


def test_criterion_02_septic_ladder_under_sixty_seconds():
    start = time.monotonic()
    for m in ladder_orders(7):
        build_and_check(7, 2, m)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "ladder took %.2fs" % elapsed
    print(
        "CRITERION 2 PASS: orders %s realized, verified, and oracle-confirmed "
        "on degree-7 hyperelliptic curves in %.2fs" % (ladder_orders(7), elapsed)
    )


def test_criterion_03_worked_examples_match_frozen_constants():
    cert7 = construct_n_plus_ed(5, 2, 1)
    assert cert7.m == 7
    assert cert7.curve.f == Poly((Fraction(35, 4), 35, 35, 21, 7, 1))
    assert cert7.point == AffinePoint(
        Fraction(-1), GaussianRational(0, Fraction(5, 2))
    )
    assert order_of(*embed_point(cert7.curve, cert7.point), bound=7) == 7

    cert6 = construct(5, 2, 6)
    assert cert6.curve.f == Poly((1, 0, 1, 2, Fraction(1, 4), 1))
    assert cert6.v == Poly((1, 0, Fraction(1, 2), 1))
    assert cert6.point == AffinePoint(Fraction(0), Fraction(1))
    assert order_of(*embed_point(cert6.curve, cert6.point), bound=6) == 6

    print(
        "CRITERION 3 PASS: frozen curves y^2 = x^5+7x^4+... and "
        "y^2 = x^5+x^4/4+... reproduced with divisor orders 7 and 6"
    )


def test_criterion_04_obstructed_orders_are_refused():
    v1 = reachability_verdict(7, 5, 10)
    assert v1.status == STATUS_UNREACHABLE
    assert v1.deciding_rule == "multiple-deficit"
    with pytest.raises(PreconditionError):
        construct(7, 5, 10)

    v2 = reachability_verdict(7, 4, 11)
    assert v2.status == STATUS_UNREACHABLE
    assert v2.deciding_rule == "step-threshold"
    with pytest.raises(PreconditionError):
        construct(7, 4, 11)

    print(
        "CRITERION 4 PASS: orders 10 on (7,5) and 11 on (7,4) ruled out "
        "by verdict rules multiple-deficit and step-threshold, and the "
        "matching constructions raise"
    )


def test_criterion_05_scan_flags_the_degree_gap(capsys):
    code = main(["scan", "--d", "2", "--n", "5", "--m", "2..11"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    by_status = {}
    for row in rows:
        by_status.setdefault(row["status"], set()).add(row["m"])
    assert by_status[STATUS_UNREACHABLE] == {3, 4}
    assert by_status[STATUS_CONSTRUCTIVE] == {2, 5, 6, 7, 8, 9, 10, 11}
    print(
        "CRITERION 5 PASS: scan over (n=5, d=2, m=2..11) flags exactly "
        "{3, 4} as unreachable"
    )


def truncation_grid(max_m: int = 40):
    for d in (2, 3, 5):
        for E in range(2, 9):
            for m in range(d * (E - 1) + 1, max_m + 1):
                if gcd(m, d) == 1:
                    yield d, E, m


def test_criterion_06_truncation_valuation_and_quotients():
    cases = 0
    for d, E, m in truncation_grid():
        assert check_truncation_valuation(m, d, E)
        V = truncated_binomial(m, d, E)
        diff = Poly((1, 1)) ** m - V ** d
        assert next(k for k, c in enumerate(diff.coeffs) if c) == E, (d, E, m)
        assert is_squarefree(truncation_quotient(m, d, E, V)), (d, E, m)
        # d is prime on this grid: d | den V(-1) means v_d(V(-1)) < 0
        value = V(Fraction(-1))
        assert value != 0 and value.denominator % d == 0, (d, E, m)
        cases += 1
    assert cases >= 200
    print(
        "CRITERION 6 PASS: %d grid cases have x-adic valuation exactly E, "
        "square-free quotient, and a d-adically non-integral value at -1"
        % cases
    )


def derivative(f):
    """f', coefficient by coefficient."""
    return Poly([k * c for k, c in enumerate(f.coeffs) if k])


def test_criterion_07_recurrence_and_derivative_identities():
    one_plus_x = Poly((1, 1))
    cases = 0
    for d, E, m in truncation_grid():
        r = Fraction(m, d)
        V = truncated_binomial(m, d, E)
        V_prev = truncated_binomial(m - d, d, E - 1)
        tail = Poly.x_power(E - 1) * gen_binom(r - 1, E - 1)
        assert V == one_plus_x * V_prev + tail, (d, E, m)
        assert derivative(V) == V_prev * r, (d, E, m)
        cases += 1
    assert cases >= 200
    print(
        "CRITERION 7 PASS: tail-corrected recurrence and derivative "
        "identity hold on all %d grid cases" % cases
    )


def test_criterion_08_divisor_arithmetic_bulk_check():
    genus2 = Curve(
        2, 5,
        Poly.x_power(1) * (Poly.x_power(2) - Poly((1,))) * (Poly.x_power(2) - Poly((4,))),
    )
    genus3 = Curve(
        2, 7,
        Poly.x_power(1)
        * (Poly.x_power(2) - Poly((1,)))
        * (Poly.x_power(2) - Poly((4,)))
        * (Poly.x_power(2) - Poly((9,))),
    )

    pools = []
    for curve in (genus2, genus3):
        branch = [
            AffinePoint(Fraction(w), Fraction(0))
            for w in (-3, -2, -1, 0, 1, 2, 3)
            if curve.f(Fraction(w)) == 0
        ]
        embeds = [embed_point(curve, P)[1] for P in branch]
        for W in embeds:
            assert order_of(curve.f, W, bound=2) == 2
        pools.append((curve.f, embeds))

    for n, m in ((5, 6), (5, 10), (7, 8), (7, 14)):
        cert = construct(n, 2, m)
        model, D = embed_point(cert.curve, cert.point)
        multiples = [D]
        while len(multiples) < m - 1:
            multiples.append(add_point(model, multiples[-1], D))
        pools.append((model, multiples))

    # add steps by a point; Cantor's addition of two general divisors is the reference
    rng = random.Random(20260816)
    steps = 0
    while steps < 500:
        f, pool = pools[rng.randrange(len(pools))]
        points = [E for E in pool if E.u.degree == 1]
        a = pool[rng.randrange(len(pool))]
        E = points[rng.randrange(len(points))]
        s = add_point(f, a, E)
        validate_pair(f, s)
        assert s == cantor_add(f, a, E)
        assert cantor_add(f, E, a) == s
        assert cantor_add(f, a, IDENTITY) == a
        assert cantor_add(f, a, neg(a)) == IDENTITY
        steps += 1
    print(
        "CRITERION 8 PASS: %d random point steps on genus-2/3 curves preserve "
        "Mumford invariants and equal Cantor's addition, which commutes and "
        "respects the identity and inverses; branch points have order "
        "exactly 2" % steps
    )


def certificate_family():
    """A deterministic family across cover degrees 2..5."""
    for m in ladder_orders(5):
        yield build_and_check(5, 2, m, oracle=False)
    for m in ladder_orders(7):
        yield build_and_check(7, 2, m, oracle=False)
    for d in (3, 4, 5):
        for n in range(d + 1, 12):
            if gcd(n, d) != 1:
                continue
            for m in range(2, n * d + d + 1):
                verdict = reachability_verdict(n, d, m)
                if verdict.status == STATUS_CONSTRUCTIVE:
                    yield build_and_check(n, d, m, oracle=False)


def test_criterion_09_certificates_obey_the_pole_congruence():
    checked = 0
    total = 0
    for cert in certificate_family():
        total += 1
        n, d = cert.curve.n, cert.curve.d
        if 1 < cert.m < n * d:
            # m = j*n mod d for some 0 <= j <= m // n
            assert any((cert.m - j * n) % d == 0 for j in range(cert.m // n + 1)), (n, d, cert.m)
            checked += 1
    assert checked >= 40
    print(
        "CRITERION 9 PASS: all %d certificates with d < m < n*d (of %d built) "
        "satisfy the pole-order congruence" % (checked, total)
    )


def test_criterion_10_cli_round_trip_and_tamper_detection(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(
        ["construct", "--n", "7", "--d", "2", "--m", "12", "--out", str(cert_path)]
    )
    capsys.readouterr()
    assert code == 0

    assert main(["verify", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "certificate VALID" in out

    obj = json.loads(cert_path.read_text())
    obj["curve"]["f"][3] = str(Fraction(obj["curve"]["f"][3]) + 1)
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(obj))
    assert main(["verify", str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "identity check failed" in out

    print(
        "CRITERION 10 PASS: emitted certificate re-verifies with exit 0; a "
        "single tampered coefficient is rejected with exit 1"
    )
