"""Certificates: verdict engine, verifier, JSON round-trips."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torsionforge import certify, cli, polyring

from torsionforge.certify import (
    CheckLine,
    RULE_TWO_TORSION,
    TorsionCertificate,
    canonical_json,
    exactness_rule_for,
    parse_and_verify,
    verify_certificate,
)
from torsionforge.constructors import (
    STATUS_CONSTRUCTIVE,
    STATUS_UNDECIDED,
    STATUS_UNREACHABLE,
    construct,
    construct_n_plus_ed,
    reachability_verdict,
)
from torsionforge.curves import AffinePoint, PreconditionError
from torsionforge.jacobian2 import embed_point, order_of
from torsionforge.polyring import Poly
from torsionforge.scalars import GAUSSIAN_I, GaussianRational, scalar_from_json, scalar_to_json


# ---------------------------------------------------------------------------
# verdict engine
# ---------------------------------------------------------------------------

def test_verdict_battery_on_the_hyperelliptic_ladder():
    expected = {
        2: (STATUS_CONSTRUCTIVE, "cover-degree"),
        3: (STATUS_UNREACHABLE, "degree-floor"),
        4: (STATUS_UNREACHABLE, "degree-floor"),
        5: (STATUS_CONSTRUCTIVE, "curve-degree"),
        6: (STATUS_CONSTRUCTIVE, "divisible-multiple"),
        7: (STATUS_CONSTRUCTIVE, "congruent-step"),
        8: (STATUS_CONSTRUCTIVE, "divisible-multiple"),
        9: (STATUS_CONSTRUCTIVE, "congruent-step"),
        10: (STATUS_CONSTRUCTIVE, "divisible-multiple"),
        11: (STATUS_CONSTRUCTIVE, "congruent-step"),
    }
    for m, (status, rule) in expected.items():
        v = reachability_verdict(5, 2, m)
        assert (v.status, v.deciding_rule) == (status, rule), m


def test_verdict_obstruction_spot_checks():
    v = reachability_verdict(7, 5, 10)
    assert v.status == STATUS_UNREACHABLE
    assert v.deciding_rule == "multiple-deficit"

    v = reachability_verdict(7, 4, 11)
    assert v.status == STATUS_UNREACHABLE
    assert v.deciding_rule == "step-threshold"


def test_verdict_pole_congruence_failures():
    for m in (8, 9, 11):
        v = reachability_verdict(7, 5, m)
        assert v.status == STATUS_UNREACHABLE
        assert v.deciding_rule == "pole-congruence"


def test_verdict_undecided_cases_stay_undecided():
    # d | m, deficit < 0 but m is not the smallest multiple: no rule fires
    v = reachability_verdict(7, 5, 15)
    assert v.status == STATUS_UNDECIDED
    # m = n + e*d with e >= 2 failing the threshold inequality
    v = reachability_verdict(5, 4, 13)
    assert v.status == STATUS_UNDECIDED


def test_verdict_battery_states_the_paper_results():
    """[BZR]'s floor and the abstract's four results, over every coprime (n, d)
    with 2 <= d <= 12 and d < n <= 80."""
    def status(n, d, m):
        return reachability_verdict(n, d, m).status

    def expect(ok):
        return STATUS_CONSTRUCTIVE if ok else STATUS_UNREACHABLE

    pairs = [(n, d) for d in range(2, 13) for n in range(d + 1, 81) if gcd(n, d) == 1]
    assert len(pairs) == 475
    for n, d in pairs:
        # [BZR]: below n, only d and n themselves are reachable
        for m in range(2, n + 1):
            assert status(n, d, m) == expect(m in (d, n)), (n, d, m)
        # result 1: between n and 2n, off both congruence classes, unreachable
        for m in range(n + 1, 2 * n):
            if m % d and (m - n) % d:
                assert status(n, d, m) == STATUS_UNREACHABLE, (n, d, m)
        # result 2: the least multiple of d above n
        k = (n + d) // d
        assert status(n, d, d * k) == expect(n - (d - 1) * k >= 0), (n, d)
        # result 3: one step of d above n
        assert status(n, d, n + d) == expect(d * d - 2 * d < n), (n, d)
        # result 4: on hyperelliptic curves every order from n + 1 to 2n + 1
        if d == 2:
            for m in range(n + 1, 2 * n + 2):
                assert status(n, d, m) == STATUS_CONSTRUCTIVE, (n, m)


def test_verdict_validates_shape():
    with pytest.raises(PreconditionError):
        reachability_verdict(4, 2, 6)
    with pytest.raises(PreconditionError):
        reachability_verdict(5, 1, 6)
    with pytest.raises(PreconditionError):
        reachability_verdict(2, 5, 6)
    with pytest.raises(PreconditionError):
        reachability_verdict(5, 2, 1)


# ---------------------------------------------------------------------------
# exactness rules
# ---------------------------------------------------------------------------

def test_exactness_rule_selection():
    assert exactness_rule_for(7, 5) == "below-twice-degree"
    assert exactness_rule_for(11, 5) == "prime-order"
    assert exactness_rule_for(15, 7) == "odd-below-thrice-degree"
    assert exactness_rule_for(10, 5) is None        # 2n, composite, even
    assert exactness_rule_for(16, 7) is None


def test_exactness_rule_holds():
    def holds(rule, m, n):
        """Whether the verifier accepts ``rule`` for order m on a degree-n curve."""
        cert = construct(n, 2, n)._replace(m=m, exactness_rule=rule)
        lines = [line for line in verify_certificate(cert)[1] if line.name.startswith("exactness-rule")]
        return bool(lines) and all(line.ok for line in lines)

    assert holds("below-twice-degree", 9, 5)
    assert not holds("below-twice-degree", 10, 5)
    assert holds("prime-order", 11, 5)
    assert not holds("prime-order", 15, 7)
    assert holds("odd-below-thrice-degree", 15, 7)
    assert not holds("odd-below-thrice-degree", 16, 7)
    assert not holds("no-such-rule", 7, 5)


# ---------------------------------------------------------------------------
# verifier: positive and negative paths
# ---------------------------------------------------------------------------

def certificates_of_every_kind():
    return [
        construct(5, 2, 2),   # order-d
        construct(5, 2, 5),   # pure-power at m = n
        construct(5, 2, 6),   # pure-power at m > n
        construct(5, 2, 10),  # two-torsion-link
        construct_n_plus_ed(5, 2, 1),              # infinity-shift, Gaussian point
        construct_n_plus_ed(7, 3, 1),              # infinity-shift, rational point
        construct_n_plus_ed(9, 4, 1),              # infinity-shift, symbolic point
    ]


def test_constructed_certificates_verify():
    for cert in certificates_of_every_kind():
        ok, lines = verify_certificate(cert)
        assert ok, [str(l) for l in lines if not l.ok]


def test_verifier_rejects_wrong_order():
    cert = construct(5, 2, 6)
    bad = cert._replace(m=8)
    ok, lines = verify_certificate(bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "identity" in failed or "pole-order" in failed


def test_verifier_rejects_tampered_witness():
    cert = construct(5, 2, 6)
    bad = cert._replace(v=cert.v + Poly((1,)))
    ok, lines = verify_certificate(bad)
    assert not ok


def test_verifier_rejects_wrong_point():
    cert = construct(5, 2, 6)
    bad = cert._replace(point=AffinePoint(Fraction(0), Fraction(-1)))
    ok, lines = verify_certificate(bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "point-ordinate" in failed


def test_verifier_rejects_zero_ordinate_outside_order_d():
    # a witness vanishing at a would put the point on the x-axis, where the
    # order is d; the check fires even though the identity also breaks
    cert = construct(5, 2, 5)
    bad = cert._replace(v=Poly((0, 1)), point=AffinePoint(Fraction(0), Fraction(0)))
    ok, lines = verify_certificate(bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "witness-nonzero-at-a" in failed
    assert "ordinate-nonzero" in failed


def test_verifier_rejects_wrong_exactness_rule():
    cert = construct(5, 2, 10)
    bad = cert._replace(exactness_rule="below-twice-degree")
    ok, lines = verify_certificate(bad)
    assert not ok


def test_verifier_rejects_misassigned_lambda():
    cert = construct_n_plus_ed(5, 2, 1)
    bad = cert._replace(lam=GAUSSIAN_I * 2, point=cert.point)
    ok, lines = verify_certificate(bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "lambda-root" in failed


def test_verifier_rejects_unknown_kind():
    cert = construct(5, 2, 6)
    bad = cert._replace(identity_kind="mystery")
    ok, lines = verify_certificate(bad)
    assert not ok


def test_verifier_never_raises_on_mangled_certificates():
    cert = construct(5, 2, 10)
    manglings = [
        cert._replace(v=None),
        cert._replace(u=None),
        cert._replace(a=None),
        cert._replace(v=Poly()),
        cert._replace(u=Poly((3, 2, 1))),
        cert._replace(m=-4),
        cert._replace(point=None),
        cert._replace(exactness_rule=""),
    ]
    for bad in manglings:
        ok, lines = verify_certificate(bad)
        assert not ok


def test_two_torsion_link_requires_witness_vanishing_at_link():
    cert = construct(5, 2, 10)
    bad = cert._replace(u=Poly.x_minus(Fraction(2)))
    ok, lines = verify_certificate(bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "witness-vanishes-at-link" in failed or "identity" in failed


def _exit_path_cases() -> list[dict]:
    return json.loads((Path(__file__).resolve().parent / "data" / "cli_exit_paths.json")
                      .read_text(encoding="utf-8"))["cases"]


def _verify_recording_the_longest_poly(monkeypatch, cert):
    """verify_certificate(cert), and the most coefficients of any
    polynomial it built (every Poly is made by ``polyring._make``)."""
    make = polyring._make
    longest = 0

    def recording_make(num, den):
        nonlocal longest
        longest = max(longest, len(num))
        return make(num, den)

    monkeypatch.setattr(polyring, "_make", recording_make)
    ok, lines = verify_certificate(cert)
    monkeypatch.setattr(polyring, "_make", make)
    return ok, lines, longest


@pytest.mark.parametrize("consistent_m", [False, True])
def test_infinity_shift_rejects_huge_e_without_building_the_product(monkeypatch, consistent_m):
    """x^(ed)*f is never built when the identity's degree or low terms cannot match."""
    lshift = Poly.__lshift__

    def bounded_lshift(p, k):
        assert k <= 10 ** 4, "x^%d*f built" % (k,)
        return lshift(p, k)

    monkeypatch.setattr(Poly, "__lshift__", bounded_lshift)
    cert = construct_n_plus_ed(5, 2, 1)
    e = 10 ** 9
    bad = cert._replace(e=e, m=5 + 2 * e if consistent_m else cert.m)
    ok, lines, longest = _verify_recording_the_longest_poly(monkeypatch, bad)
    assert not ok
    failed = {l.name for l in lines if not l.ok}
    assert "identity" in failed
    assert ("order-form" in failed) is not consistent_m
    assert longest <= bad.curve.n + 2
    assert verify_certificate(cert)[0]


def _is_monomial(p) -> bool:
    """Whether p is c*x^k for some k >= 1."""
    return isinstance(p, Poly) and p.degree >= 1 and not any(p.coeffs[:-1])


@pytest.mark.parametrize("n, d, e", [(5, 2, 1), (7, 2, 3), (10, 3, 2), (13, 4, 1)])
def test_infinity_shift_builds_x_to_the_ed_times_f_as_a_shift(monkeypatch, n, d, e):
    """A counter, not a timer: verify multiplies no polynomial by a monomial."""
    mul, products = Poly.__mul__, []

    def counting_mul(p, q):
        products.append(_is_monomial(p) or _is_monomial(q))
        return mul(p, q)

    cert = construct_n_plus_ed(n, d, e)
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert Poly.x_power(3) * Poly((1, 1)) and products == [True]  # the counter sees x^k*p
    products.clear()
    ok, lines = verify_certificate(cert)
    assert ok and cert.identity_kind == "infinity-shift" and cert.e == e
    assert not any(products)  # v^d multiplies when deg v >= 2; f times x^(ed) never


def _pole_mismatch_certificate(kind: str) -> TorsionCertificate:
    """A certificate whose m disagrees with its degrees: the two pinned
    d = 40 exit-path cases (deg v = 40, so v**40 has degree 1600), and a
    two-torsion link and an infinity shift whose v gains an x**800 term."""
    if kind in ("two-torsion-link", "infinity-shift"):
        cert = construct(5, 2, 10) if kind == "two-torsion-link" else construct_n_plus_ed(5, 2, 1)
        return cert._replace(v=cert.v + Poly.x_power(800))
    case = next(c for c in _exit_path_cases() if c["name"] == "verify-%s-pole-mismatch" % (kind,))
    return TorsionCertificate.from_json_dict(json.loads(case["input"]))


@pytest.mark.parametrize("kind", ["pure-power", "shift-power", "infinity-shift", "two-torsion-link"])
def test_a_pole_order_mismatch_builds_no_power_of_the_witness(monkeypatch, kind):
    """The pole-order gate fails the identity before its left side is
    built: verify builds no polynomial longer than n + 2 coefficients."""
    cert = _pole_mismatch_certificate(kind)
    assert cert.identity_kind == kind
    ok, lines, longest = _verify_recording_the_longest_poly(monkeypatch, cert)
    assert not ok
    assert {"identity", "pole-order"} <= {l.name for l in lines if not l.ok}
    assert longest <= cert.curve.n + 2


def test_every_emitted_infinity_shift_certificate_verifies_as_shift_power():
    """x^(ed)*f + v^d == A*(1+x)^m is the shift-power identity with u = x^e
    and a = -1, and its point condition is shift-power's: every
    infinity-shift certificate construct emits for d in {2, 3, 5, 7} and
    d < n < 30 still verifies when rewritten as shift-power."""
    rewritten = 0
    for d in (2, 3, 5, 7):
        for n in range(d + 1, 30):
            if gcd(n, d) != 1:
                continue
            # m = n + e*d is constructive only below the congruent-step bound, so m <= 2n + 1
            for m in range(n + d, 2 * n + 2, d):
                if reachability_verdict(n, d, m).status != STATUS_CONSTRUCTIVE:
                    continue
                cert = construct(n, d, m)
                assert cert.identity_kind == "infinity-shift"
                shifted = cert._replace(identity_kind="shift-power", u=Poly.x_power(cert.e),
                                        a=Fraction(-1), e=0, lam=None)
                ok, lines = verify_certificate(shifted)
                assert ok, (n, d, m, [str(line) for line in lines if not line.ok])
                rewritten += 1
    assert rewritten == 181


def _ungated_identity_line(cert: TorsionCertificate) -> CheckLine:
    """The identity line of ``cert`` with no pole-order gate: build q and
    the target and compare q with A*target, A the ratio of their leading
    coefficients, whatever their degrees."""
    d, n, f, m = cert.curve.d, cert.curve.n, cert.curve.f, cert.m
    u, v, a, e = cert.u, cert.v, cert.a, cert.e
    if cert.identity_kind == "pure-power":
        q, target = f - v ** d, Poly.x_minus(a) ** m
        claim = "f - v^%d == A*(x-a)^%d, a=%s" % (d, m, a)
    elif cert.identity_kind == "shift-power":
        q, target = u ** d * f + v ** d, Poly.x_minus(a) ** m
        claim = "u^%d*f + v^%d == A*(x-a)^%d" % (d, d, m)
    elif cert.identity_kind == "infinity-shift":
        q, target = Poly.x_power(e * d) * f + v ** d, Poly((1, 1)) ** m
        claim = "x^(ed)*f + v^%d == A*(1+x)^%d" % (d, m)
    else:
        q, target = v ** 2 - f, Poly.x_minus(a) ** n * u
        claim = "v^2 - f == A*(x-a)^%d*(x-w)" % (n,)
    A = q.leading_coefficient / target.leading_coefficient if q else None
    if A is None or q != target * A:
        return CheckLine("identity", False, claim)
    return CheckLine("identity", True, "%s, A=%s" % (claim, A))


def test_the_pole_order_gate_decides_the_identity_as_the_ungated_comparison():
    certs = certificates_of_every_kind() + [
        TorsionCertificate.from_json_dict(json.loads(case["input"]))
        for case in _exit_path_cases() if "shift-power" in case["name"]]
    compared = 0
    for cert in certs:
        d = cert.curve.d
        variants = [cert._replace(m=cert.m + dm) for dm in (0, -1, 1, -d, d)]
        if cert.v is not None:
            top = Poly.x_power(max(cert.v.degree, 0) + 1)
            variants += [cert._replace(v=cert.v + top), cert._replace(v=Poly())]
        for variant in variants:
            line = next((l for l in verify_certificate(variant)[1] if l.name == "identity"), None)
            if line is not None:
                assert line == _ungated_identity_line(variant), variant
                compared += 1
    assert compared == 83


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    for cert in certificates_of_every_kind():
        text = cert.to_json_str()
        obj = json.loads(text)
        back = TorsionCertificate.from_json_dict(obj)
        assert back == cert
        assert back.to_json_str() == text


def test_certificate_json_key_order_is_canonical():
    cert = construct(5, 2, 6)
    obj = json.loads(cert.to_json_str())
    assert list(obj.keys()) == [
        "curve", "point", "m", "identity_kind", "u", "v", "a", "e",
        "lambda", "exactness_rule",
    ]


def test_verify_certificate_json_flags_invalid_curves():
    cert = construct(5, 2, 6)
    obj = json.loads(cert.to_json_str())
    obj["curve"]["f"] = ["0", "0", "0", "0", "0", "1"]     # x^5: repeated root
    cert, lines = parse_and_verify(obj)
    assert cert is None
    assert [(line.name, line.ok) for line in lines] == [("curve-valid", False)]


def test_verify_certificate_json_raises_on_malformed_structure():
    cert = construct(5, 2, 6)
    obj = json.loads(cert.to_json_str())
    del obj["m"]
    with pytest.raises(KeyError):
        parse_and_verify(obj)


def test_every_stored_certificate_the_parser_accepts_serializes_back_to_itself():
    """to_json_dict(from_json_dict(obj)) == obj for every certificate text in
    data/cli_exit_paths.json and the frozen replay-verify set that parses;
    the exit-path inputs hold the only shift-power certificates."""
    frozen = json.loads((Path(__file__).resolve().parent.parent / "bench" / "expected"
                         / "replay-verify.json").read_text(encoding="utf-8"))
    texts = [case["input"] for case in _exit_path_cases() if case["input"] is not None]
    texts += [entry["text"] for entry in frozen["certificates"] + frozen["large_e"]]
    kinds = set()
    for text in texts:
        try:
            obj = json.loads(text, object_pairs_hook=cli._unique_keys)
            cert = TorsionCertificate.from_json_dict(obj)
        except (KeyError, TypeError, ValueError):
            continue
        assert cert.to_json_dict() == obj, text
        kinds.add(cert.identity_kind)
    assert set(KINDS) <= kinds


def test_the_parser_reports_the_first_defect_in_field_order():
    """Fields are read in the serializer's order, so a non-integer m is
    reported before the missing u that follows it."""
    obj = json.loads(construct(5, 2, 6).to_json_str())
    del obj["u"]
    obj["m"] = "6"
    with pytest.raises(TypeError, match="m must be a JSON integer"):
        TorsionCertificate.from_json_dict(obj)


# ---------------------------------------------------------------------------
# canonical spellings: the parser accepts only what the serializer writes
# ---------------------------------------------------------------------------

FROZEN = [
    entry["text"]
    for entry in json.loads(
        (Path(__file__).resolve().parent.parent / "bench" / "expected" / "replay-verify.json")
        .read_text(encoding="utf-8")
    )["certificates"]
]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussian_parts = st.tuples(rationals, rationals.filter(bool))


def _spellings_of(q: Fraction) -> list:
    """Spellings of q, and of Gaussians with q as a part, that the
    serializer never writes."""
    s = str(q)
    out = [" " + s, s + " ", "+" + s, "0" + s, s + "e0", s + "/1",
           "%d/%d" % (3 * q.numerator, 3 * q.denominator), {"re": s, "im": "0"},
           {"re": s, "im": "1/1"}, {"re": "2/2", "im": s}]
    if q == 0:
        out.append("-0")
    if q.denominator in (1, 2, 4, 5):
        out.append(repr(float(q)))          # "0.5", "3.0", "-1.25"
    return out


canonical_scalars = st.one_of(
    rationals.map(str),
    gaussian_parts.map(lambda parts: {"re": str(parts[0]), "im": str(parts[1])}),
)
non_canonical_scalars = st.one_of(
    st.sampled_from(["2/2", "+1", "01", "-0", "1e0", " 1", {"re": "1", "im": "0"}]),
    rationals.flatmap(lambda q: st.sampled_from(_spellings_of(q))),
)


def _scalar_paths(obj: dict) -> list[tuple]:
    paths = [("curve", "f", i) for i in range(len(obj["curve"]["f"]))]
    for key in ("u", "v"):
        paths += [(key, i) for i in range(len(obj[key] or ()))]
    paths += [(key,) for key in ("a", "lambda") if obj[key] is not None]
    paths += [("point", key) for key in ("x", "y") if key in (obj["point"] or {})]
    return paths


def _verify_exit_code(obj: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli.main(["verify", str(path)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scalar_spellings_round_trip_or_are_malformed(data):
    obj = json.loads(data.draw(st.sampled_from(FROZEN)))
    *parents, last = data.draw(st.sampled_from(_scalar_paths(obj)))
    canonical = data.draw(st.booleans())
    target = obj
    for key in parents:
        target = target[key]
    target[last] = data.draw(canonical_scalars if canonical else non_canonical_scalars)
    if not canonical:
        assert _verify_exit_code(obj) == 2
        return
    try:
        cert, _ = parse_and_verify(obj)
    except (KeyError, TypeError, ValueError):
        return
    if cert is not None:
        assert cert.to_json_str() == canonical_json(obj)


# ---------------------------------------------------------------------------
# d = 2: a certificate the verifier accepts has the order the oracle finds
# ---------------------------------------------------------------------------

LADDER_D2 = [
    (n, m)
    for n in (3, 5, 7)
    for m in sorted({2, n, *range(n + 1, 2 * n + 2)})
    if reachability_verdict(n, 2, m).status == STATUS_CONSTRUCTIVE
]
EXACTNESS_RULES = ("prime-order", "below-twice-degree", "odd-below-thrice-degree",
                   "zero-ordinate", "two-torsion-link")

# None, or one change to the serialized certificate
mutations = st.one_of(
    st.none(),
    st.tuples(st.just("coefficient"), st.sampled_from(("f", "u", "v")),
              st.integers(0, 15), st.sampled_from((-2, -1, 1, 2))),
    st.tuples(st.just("ordinate"), st.sampled_from((-1, 1))),
    st.tuples(st.just("integer"), st.sampled_from(("m", "e")), st.sampled_from((-1, 1))),
    st.tuples(st.just("rule"), st.sampled_from(EXACTNESS_RULES)),
)

_ladder_json = {}


def _ladder_certificate(n: int, m: int) -> dict:
    if (n, m) not in _ladder_json:
        _ladder_json[n, m] = canonical_json(construct(n=n, d=2, m=m).to_json_dict())
    return json.loads(_ladder_json[n, m])


def _mutate(obj: dict, mutation) -> bool:
    """Apply the mutation to obj; False when it has nothing to act on."""
    kind, *args = mutation
    if kind == "coefficient":
        key, k, delta = args
        coeffs = obj["curve"]["f"] if key == "f" else obj[key]
        if not coeffs:
            return False
        k %= len(coeffs)
        coeffs[k] = scalar_to_json(scalar_from_json(coeffs[k]) + delta)
    elif kind == "ordinate":
        y = scalar_from_json(obj["point"]["y"])
        obj["point"]["y"] = scalar_to_json(-y if args[0] < 0 else y + 1)
    elif kind == "integer":
        key, delta = args
        obj[key] += delta
    else:
        if obj["exactness_rule"] == args[0]:
            return False
        obj["exactness_rule"] = args[0]
    return True


def _unmutated_examples(test):
    for n, m in LADDER_D2:
        test = example((n, m), None)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LADDER_D2), mutations)
@_unmutated_examples
def test_d2_certificate_the_verifier_accepts_has_the_oracle_order(order, mutation):
    obj = _ladder_certificate(*order)
    if mutation is not None and not _mutate(obj, mutation):
        return
    try:
        cert, lines = parse_and_verify(json.loads(canonical_json(obj)))
    except (KeyError, TypeError, ValueError):
        return
    if cert is None or cert.point is None or not all(line.ok for line in lines):
        return
    assert order_of(*embed_point(cert.curve, cert.point), cert.m) == cert.m


# ---------------------------------------------------------------------------
# verifier reports pinned over a mutation corpus
# ---------------------------------------------------------------------------

# sha256 over the reports below, captured from commit a7d3aa3 (the corpus
# of commit 66088aa plus the pole-mismatch shift-power exit-path case)
MUTATION_CORPUS_SHA256 = "08a3b685ce72df9d5772b2a1b8fb7373e05d52e16289aadccc0c80fe6b797474"

KINDS = ("pure-power", "shift-power", "infinity-shift", "order-d", "two-torsion-link")


def _mutation_corpus() -> list[TorsionCertificate]:
    """Every certificate construct emits for d in {2, 3, 4, 5}, coprime
    d < n < 12 and m = 2..2n+1, then the shift-power certificates pinned
    in data/cli_exit_paths.json."""
    certs = []
    for d in (2, 3, 4, 5):
        for n in range(d + 1, 12):
            if gcd(n, d) != 1:
                continue
            for m in range(2, 2 * n + 2):
                try:
                    certs.append(construct(n=n, d=d, m=m))
                except PreconditionError:
                    assert reachability_verdict(n, d, m).status != STATUS_CONSTRUCTIVE, (n, d, m)
    certs += [TorsionCertificate.from_json_dict(json.loads(case["input"]))
              for case in _exit_path_cases() if "shift-power" in case["name"]]
    return certs


def _mutations(cert: TorsionCertificate):
    """cert itself, then each single mutation of it that has something to act on."""
    yield cert
    for kind in (*KINDS, "nope"):
        yield cert._replace(identity_kind=kind)
    for rule in (*EXACTNESS_RULES, "bogus"):
        yield cert._replace(exactness_rule=rule)
    for dm in (-1, 1, 2):
        yield cert._replace(m=cert.m + dm)
    for de in (-1, 1):
        yield cert._replace(e=cert.e + de)
    for field in ("u", "v", "a", "point", "lam"):
        yield cert._replace(**{field: None})
    yield cert._replace(point_symbolic=not cert.point_symbolic)
    for u in (Poly((-1, 1)), Poly((2, 3))):
        yield cert._replace(u=u)
    if cert.v is not None:
        yield cert._replace(v=cert.v + Poly((1,)))
        yield cert._replace(v=-cert.v)
    if cert.a is not None:
        yield cert._replace(a=cert.a + 1)
    if cert.point is not None:
        yield cert._replace(point=AffinePoint(cert.point.x, -cert.point.y))
        yield cert._replace(point=AffinePoint(cert.point.x + 1, cert.point.y))
    for lam in (GAUSSIAN_I, Fraction(-1)):
        yield cert._replace(lam=lam)


def test_verifier_reports_over_the_mutation_corpus_are_pinned():
    certs = _mutation_corpus()
    assert len(certs) == 111
    digest = hashlib.sha256()
    reports = 0
    for cert in certs:
        for mutant in _mutations(cert):
            ok, lines = verify_certificate(mutant)
            digest.update(repr((ok, [str(line) for line in lines])).encode())
            reports += 1
    assert reports == 3617
    assert digest.hexdigest() == MUTATION_CORPUS_SHA256


def _build_and_reparse_the_grid() -> int:
    """Build and re-parse each certificate construct emits for d in {2, 3, 4, 5, 7},
    coprime d < n <= 25 and m = 2..2n+1; returns how many it built."""
    built = 0
    for d in (2, 3, 4, 5, 7):
        for n in range(d + 1, 26):
            if gcd(n, d) != 1:
                continue
            for m in range(2, 2 * n + 2):
                try:
                    cert = construct(n=n, d=d, m=m)
                except PreconditionError:
                    assert reachability_verdict(n, d, m).status != STATUS_CONSTRUCTIVE, (n, d, m)
                    continue
                assert TorsionCertificate.from_json_dict(cert.to_json_dict()) == cert
                built += 1
    return built


def test_every_constructed_certificate_validates_without_the_exact_gcd(euclid_primes):
    """With the integer-gcd screen off, square-freeness of every constructed
    curve is decided mod 2^30 - 35: one modular Euclid per curve, on the
    first prime of the walk."""
    assert (_build_and_reparse_the_grid(), set(euclid_primes)) == (451, {2**30 - 35})


def test_every_constructed_certificate_validates_by_the_integer_gcd(monkeypatch):
    """With the screen on, its one integer gcd proves every constructed curve
    square-free (the widest numerator is 115 bits), and no modular Euclid runs."""
    walked = []
    monkeypatch.setattr(polyring, "_coprime_mod_p", lambda a, b, p: walked.append(p))
    assert (_build_and_reparse_the_grid(), walked) == (451, [])


# ---------------------------------------------------------------------------
# computed values in report lines, under any int<->str limit
# ---------------------------------------------------------------------------

# each evaluates to a value whose integers have at most 4,300 digits, CPython's default limit
SHOWN_EXACTLY = ("10**4300 - 1", "-(10**4299 + 7)", "Fraction(-(10**4000 + 1), 10**3000 + 3)", "0", "-5",
                 "GaussianRational(Fraction(1, 10**1000 + 1), -(10**2000 + 9))", "GaussianRational(0, 10**700)")


def test_computed_values_print_their_exact_digits_under_the_least_limit():
    # under PYTHONINTMAXSTRDIGITS=640 str() refuses these; the report's formatter converts 640 digits at a time
    src = str(Path(polyring.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, %r); from fractions import Fraction; "
            "from torsionforge.scalars import GaussianRational; from torsionforge.certify import _shown; "
            "print('\\n'.join(_shown(eval(e)) for e in %r))" % (src, SHOWN_EXACTLY))
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    namespace = {"Fraction": Fraction, "GaussianRational": GaussianRational}
    assert out.stdout.splitlines() == [str(eval(e, namespace)) for e in SHOWN_EXACTLY]


def test_computed_values_past_4300_digits_print_their_size():
    big = 10**4300
    bits = big.bit_length()
    assert certify._shown(big) == "<%d-bit integer>" % bits
    assert certify._shown(-big) == "-<%d-bit integer>" % bits
    assert certify._shown(Fraction(3, big)) == "3/<%d-bit integer>" % bits
    assert certify._shown(GaussianRational(1, -big)) == "1-<%d-bit integer>*i" % bits
    assert certify._shown(big - 1) == str(big - 1)
