"""Command-line surface: exit codes, determinism, round-trips."""

from __future__ import annotations

import ast
import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torsionforge import cli, constructors
from torsionforge.certify import TorsionCertificate
from torsionforge.cli import main
from torsionforge.polyring import Poly, poly_from_json


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:          # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_writes_certificate_json(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--m", "6")
    assert code == 0
    obj = json.loads(out)
    assert poly_from_json(obj["curve"]["f"]) == Poly((1, 0, 1, 2, Fraction(1, 4), 1))
    assert obj["m"] == 6
    assert obj["point"] == {"x": "0", "y": "1"}


def test_construct_is_byte_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "construct", "--n", "7", "--d", "2", "--m", "9")
    code2, out2, _ = run_cli(capsys, "construct", "--n", "7", "--d", "2", "--m", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_unreachable_exits_3_with_rule(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "7", "--d", "4", "--m", "11")
    assert code == 3
    obj = json.loads(out)
    assert obj["error"]["type"] == "PreconditionError"
    assert obj["error"]["rule"] == "step-threshold"


def test_construct_takes_the_verdict_once(capsys, monkeypatch):
    # construct alone decides the order; the CLI does not take the verdict first
    calls = []
    for module in (cli, constructors):
        def counted(n, d, m, verdict=module.reachability_verdict):
            calls.append((n, d, m))
            return verdict(n, d, m)
        monkeypatch.setattr(module, "reachability_verdict", counted)
    code, _, _ = run_cli(capsys, "construct", "--n", "7", "--d", "2", "--m", "12")
    assert code == 0
    assert calls == [(7, 2, 12)]


def test_construct_multiple_deficit_exits_3(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "7", "--d", "5", "--m", "10")
    assert code == 3
    assert json.loads(out)["error"]["rule"] == "multiple-deficit"


def test_construct_gcd_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "4", "--d", "2", "--m", "6")
    assert code == 2
    assert "gcd" in err


def test_construct_exhausted_search_exits_4(capsys):
    code, out, err = run_cli(
        capsys, "construct", "--n", "7", "--d", "2", "--m", "8", "--c-range", "0"
    )
    assert code == 4
    assert json.loads(out)["error"]["type"] == "SearchExhausted"


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "5", "--d", "2", "--m", "6"),
    ("scan", "--d", "2", "--n", "5", "--m", "6", "--construct"),
])
def test_negative_c_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--c-range", "-3")
    assert code == 2
    assert out == ""
    assert err.endswith(
        "\ntorsion-forge: error: --c-range must be a nonnegative integer, got -3\n"
    )


def test_non_integer_c_range_is_argparses_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--m", "6", "--c-range", "x")
    assert code == 2
    assert err.endswith("\ntorsion-forge construct: error: argument --c-range: invalid int value: 'x'\n")


def test_construct_e_flag_names_the_order(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--e", "1")
    assert code == 0
    assert json.loads(out)["m"] == 7
    code, _, err = run_cli(
        capsys, "construct", "--n", "5", "--d", "2", "--e", "1", "--m", "9"
    )
    assert code == 2


def test_construct_oracle_reports_on_stderr_only(capsys):
    code1, out1, err1 = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--m", "6")
    code2, out2, err2 = run_cli(
        capsys, "construct", "--n", "5", "--d", "2", "--m", "6", "--oracle"
    )
    assert code1 == code2 == 0
    assert out1 == out2                      # stdout stays pure certificate JSON
    assert "oracle" in err2 and "6" in err2
    assert "oracle" not in err1


def test_construct_out_writes_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "construct", "--n", "5", "--d", "2", "--m", "10", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["identity_kind"] == "two-torsion-link"


def test_construct_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "cert.json"
    code, out, err = run_cli(
        capsys, "construct", "--n", "5", "--d", "2", "--m", "7", "--out", str(target)
    )
    assert (code, out, err) == (2, "", "cannot write %s: No such file or directory\n" % (target,))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.fixture
def cert_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "construct", "--n", "5", "--d", "2", "--m", "7", "--out", str(target)
    )
    assert code == 0
    return target


def test_verify_valid_certificate_exits_0(cert_file, capsys):
    code, out, _ = run_cli(capsys, "verify", str(cert_file))
    assert code == 0
    assert "certificate VALID" in out
    assert "FAIL" not in out


def test_verify_with_oracle(cert_file, capsys):
    code, out, err = run_cli(capsys, "verify", str(cert_file), "--oracle")
    assert code == 0
    assert "oracle" in err


def test_verify_tampered_coefficient_exits_1(cert_file, tmp_path, capsys):
    obj = json.loads(cert_file.read_text())
    obj["curve"]["f"][2] = "36"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "identity check failed" in out
    assert "INVALID" in out


def test_verify_every_single_coefficient_tamper_is_caught(cert_file, tmp_path, capsys):
    base = json.loads(cert_file.read_text())
    n_coeffs = len(base["curve"]["f"])
    for idx in range(n_coeffs):
        obj = json.loads(cert_file.read_text())
        original = Fraction(obj["curve"]["f"][idx])
        obj["curve"]["f"][idx] = str(original + 1)
        bad = tmp_path / ("bad%d.json" % idx)
        bad.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1, "tampering coefficient %d went unnoticed" % idx


def test_verify_truncated_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"curve": {"d": 2,')
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [
        b'\xff{"curve": {}}',                         # not UTF-8
        b"[" * 100000 + b"]" * 100000,                 # nested past the recursion limit
        b'{"m": ' + b"7" * 5000 + b"}",                # past the int-string digit limit
    ],
    ids=["non-utf8", "deep-nesting", "huge-integer"],
)
def test_verify_undecodable_file_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read certificate: ")
    assert err.count("\n") == 1


def test_verify_missing_key_exits_2(cert_file, tmp_path, capsys):
    obj = json.loads(cert_file.read_text())
    del obj["identity_kind"]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "keys, value",
    [
        (("m",), 6.9),
        (("m",), "6"),
        (("m",), True),
        (("e",), 1.0),
        (("curve", "n"), "5"),
    ],
    ids=["m-float", "m-string", "m-bool", "e-float", "curve-n-string"],
)
def test_verify_non_integer_json_field_exits_2(cert_file, tmp_path, capsys, keys, value):
    # integer fields must be JSON ints: int() would truncate 6.9 to 6 and
    # accept the string "6"
    obj = json.loads(cert_file.read_text())
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "nonint.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("malformed certificate: TypeError: %s must be a JSON integer" % keys[-1])


def test_verify_prime_order_rule_with_huge_m_finishes(tmp_path, capsys):
    # a 300-byte certificate claiming the prime-order rule for m = 2^61 - 1
    # must not make the verifier trial-divide up to sqrt(m)
    code, out, _ = run_cli(capsys, "construct", "--n", "5", "--d", "2", "--m", "6")
    assert code == 0
    obj = json.loads(out)
    obj["m"] = 2**61 - 1
    obj["exactness_rule"] = "prime-order"
    bad = tmp_path / "huge-prime-m.json"
    bad.write_text(json.dumps(obj))
    assert len(bad.read_bytes()) < 300
    code, out, err = run_cli(capsys, "verify", str(bad))
    m = obj["m"]
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "ok  curve-valid            d=2 n=5 genus=2",
        "ok  identity-kind          kind='pure-power'",
        "ok  order-positive         m=%d" % m,
        "FAIL identity               f - v^2 == A*(x-a)^%d, a=0" % m,
        "FAIL pole-order             max(n, d*deg v) = 6, m = %d" % m,
        "ok  witness-nonzero-at-a   v(a)=1",
        "ok  point-on-curve         (0, 1)",
        "ok  point-abscissa         ",
        "ok  point-ordinate         y(P)=1 v(a)=1",
        "ok  ordinate-nonzero       ",
        "ok  exactness-rule-known   prime-order",
        "ok  exactness-rule         prime-order with m=%d n=5" % m,
        "identity check failed",
        "certificate INVALID (identity, pole-order)",
    ]


def test_verify_invalid_curve_data_exits_1(cert_file, tmp_path, capsys):
    # structurally fine JSON whose f has a repeated root: a verification
    # failure, not a parse error
    obj = json.loads(cert_file.read_text())
    obj["curve"]["f"] = ["0", "0", "0", "0", "0", "1"]
    bad = tmp_path / "rep.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "curve-valid" in out


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_ladder_statuses(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "2", "--n", "5", "--m", "2..11")
    assert code == 0
    rows = json.loads(out)["rows"]
    status = {r["m"]: r["status"] for r in rows}
    assert {m for m, s in status.items() if s == "unreachable"} == {3, 4}
    assert {m for m, s in status.items() if s == "reachable-constructive"} == {
        2, 5, 6, 7, 8, 9, 10, 11
    }


def test_scan_with_construct_embeds_verified_certificates(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--m", "2..11", "--construct"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        if row["status"] == "reachable-constructive":
            assert "certificate" in row
            assert row["certificate"]["m"] == row["m"]
        else:
            assert "certificate" not in row


def test_scan_obstruction_row(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "5", "--n", "7", "--m", "8..11")
    assert code == 0
    rows = json.loads(out)["rows"]
    rules = {r["m"]: r["deciding_rule"] for r in rows}
    assert rules[10] == "multiple-deficit"
    assert rules[8] == rules[9] == rules[11] == "pole-congruence"
    assert all(r["status"] == "unreachable" for r in rows)


def test_scan_preset_covers_the_ladder(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--preset", "hyperelliptic-ladder"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["m"] for r in rows] == [6, 7, 8, 9, 10, 11]
    assert all(r["status"] == "reachable-constructive" for r in rows)


def test_scan_preset_requires_d2(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--d", "3", "--n", "7", "--preset", "hyperelliptic-ladder"
    )
    assert code == 2


def test_scan_preset_refuses_m(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--preset", "hyperelliptic-ladder",
        "--m", "garbage", "--format", "csv",
    )
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: --m garbage conflicts with --preset hyperelliptic-ladder (which sets m = n+1..2n+1)\n"
    )


def test_scan_empty_grid_is_ok(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "2", "--n", "5", "--m", "9..8")
    assert code == 0
    assert out == '{\n  "d": 2,\n  "rows": []\n}\n'


# certificates of every emitted kind at d = 2, 3 and 7, as (text, dict)
REPORT_CERTIFICATES = [
    (cert.to_json_str(), cert.to_json_dict())
    for cert in (constructors.construct(n, d, m) for n, d, m in (
        (5, 2, 2), (5, 2, 6), (5, 2, 7), (5, 2, 10), (5, 3, 3), (7, 3, 10), (8, 7, 7), (8, 7, 8), (37, 7, 44)))
]
# text with what JSON must escape: a quote, a backslash, control characters, DEL,
# non-ASCII and non-BMP characters, and a lone surrogate (a path's, from surrogateescape)
ESCAPED_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f/é€\U0001f600\udcff'), st.characters()))


@st.composite
def scan_rows(draw):
    """A scan's rows as ``_scan_report`` reads them, and as ``json.dumps`` would."""
    rows, dicts = [], []
    for _ in range(draw(st.integers(0, 4))):
        row = (draw(st.integers(0, 10**6)), draw(st.integers(2, 9)), draw(st.integers(2, 10**6)),
               draw(st.sampled_from(("unreachable", "undecided")) | st.text()),
               draw(st.sampled_from(("pole-congruence", "congruent-step")) | st.text()))
        as_dict = dict(zip(("n", "d", "m", "status", "deciding_rule"), row))
        text = path = None
        if draw(st.booleans()):
            text, as_dict["certificate"] = draw(st.sampled_from(REPORT_CERTIFICATES))
        if draw(st.booleans()):
            path = as_dict["certificate_path"] = draw(ESCAPED_TEXT)
        rows.append(row + (text, path))
        dicts.append(as_dict)
    return rows, dicts


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), scan_rows())
@example(2, ([], []))
def test_scan_report_is_the_canonical_json_of_its_rows(d, rows_and_dicts):
    rows, dicts = rows_and_dicts
    assert cli._scan_report(d, rows) == json.dumps({"d": d, "rows": dicts}, indent=2) + "\n"


def test_scan_encodes_each_certificate_once(tmp_path, capsys, monkeypatch):
    calls = []
    to_json_dict = TorsionCertificate.to_json_dict

    def counted(self):
        calls.append(self.m)
        return to_json_dict(self)

    monkeypatch.setattr(TorsionCertificate, "to_json_dict", counted)
    grid = ("scan", "--d", "3", "--n", "5..11", "--m", "2..30", "--construct")
    code, _, _ = run_cli(capsys, *grid, "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert len(list(tmp_path.glob("r-n*-m*.cert.json"))) == len(calls) == 25
    calls.clear()
    code, out, _ = run_cli(capsys, *grid, "--format", "csv")
    assert code == 0 and out.count("reachable-constructive") == 25
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "7", "--d", "2", "--m", "11", "--oracle"),
    ("scan", "--d", "3", "--n", "5..7", "--m", "2..14", "--construct"),
])
def test_certificate_files_hold_the_printed_certificate_text(argv, tmp_path, capsys, monkeypatch):
    """construct --out writes what construct prints; scan --out writes each certificate
    file with the text its report embeds, indented there to its depth."""
    runs = []
    for out in ((), ("--out", "c.json")):
        workdir = tmp_path / str(len(out))
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        runs.append((*run_cli(capsys, *argv, *out),
                     {path.name: path.read_text(encoding="utf-8") for path in sorted(workdir.iterdir())}))
    (code, stdout, _, _), (code_out, _, _, files) = runs
    assert code == code_out == 0
    assert '"curve": {' in stdout and "c.json" in files
    if argv[0] == "construct":
        assert files == {"c.json": stdout}
        return
    report = files.pop("c.json")
    assert len(files) == report.count('"certificate": ') > 1
    for name, text in files.items():
        assert name.endswith(".cert.json")
        assert '"certificate": %s,\n      "certificate_path": %s' % (
            text[:-1].replace("\n", "\n      "), json.dumps(name)) in report


@settings(max_examples=200, deadline=None)
@given(ESCAPED_TEXT, ESCAPED_TEXT, st.fixed_dictionaries({}, optional={
    "n": st.integers(), "m": st.integers(), "rule": ESCAPED_TEXT}))
@example("PreconditionError", "m = 11 is unreachable", {"n": 7, "m": 11, "rule": "step-threshold"})
def test_error_json_is_the_stdlib_encoding(exc_type, message, extra):
    error = {"type": exc_type, "message": message, **extra}
    assert cli._error_json(exc_type, message, **extra) == json.dumps({"error": error}, indent=2) + "\n"


def _json_writers(tree):
    """Each json.JSONEncoder construction and each json.dump(s) call given an indent in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            if name == "JSONEncoder" or name in ("dump", "dumps") and any(
                    keyword.arg == "indent" for keyword in node.keywords):
                yield name, node.lineno


def test_the_package_writes_indented_json_only_through_json_text():
    package = Path(cli.__file__).parent
    found = {path.name: list(_json_writers(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(package.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert list(_json_writers(ast.parse("json.JSONEncoder(indent=2)\njson.dumps(x, indent=2)"))) == [
        ("JSONEncoder", 1), ("dumps", 2)]


def test_scan_skips_invalid_degrees_in_range(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d", "2", "--n", "4..6", "--m", "7..7")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [5]       # 4 and 6 share a factor with d


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--m", "2..6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d", "m", "status", "deciding_rule", "certificate_path"]
    assert rows[2] == ["5", "2", "3", "unreachable", "degree-floor", ""]


def test_scan_out_writes_certificate_files(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "scan", "--d", "2", "--n", "5", "--m", "6..7", "--construct",
        "--out", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    for row in payload["rows"]:
        path = row["certificate_path"]
        cert_obj = json.loads(open(path).read())
        assert cert_obj["m"] == row["m"]
        verify_code, _, _ = run_cli(capsys, "verify", path)
        assert verify_code == 0


def test_scan_csv_out_names_each_certificate_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = ["scan", "--d", "3", "--n", "5..7", "--m", "2..14", "--construct"]
    code, report, _ = run_cli(capsys, *grid)
    assert code == 0
    code, out, _ = run_cli(capsys, *grid, "--format", "csv", "--out", "r.csv")
    assert (code, out) == (0, "")
    header, *rows = csv.reader(io.StringIO((tmp_path / "r.csv").read_text()))
    assert header == ["n", "d", "m", "status", "deciding_rule", "certificate_path"]
    columns = header[:5]
    assert [row[:5] for row in rows] == [[str(row[k]) for k in columns] for row in json.loads(report)["rows"]]
    written = sorted(path.name for path in tmp_path.glob("r-n*-m*.cert.json"))
    assert len(written) == 8
    assert sorted(row[5] for row in rows if row[5]) == written


def test_scan_unwritable_certificate_path_exits_2(tmp_path, capsys):
    report = tmp_path / "report.json"
    cert = tmp_path / "report-n5-m6.cert.json"
    cert.mkdir()
    code, out, err = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--m", "6..7", "--construct", "--out", str(report)
    )
    assert (code, out, err) == (2, "", "cannot write %s: Is a directory\n" % (cert,))
    assert json.loads(report.read_text())["rows"][0]["certificate_path"] == str(cert)


def test_scan_report_in_a_missing_directory_exits_2(tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--m", "6..7", "--construct", "--out", str(report)
    )
    assert (code, out, err) == (2, "", "cannot write %s: No such file or directory\n" % (report,))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_unwritable_report_exits_2(tmp_path, capsys, fmt):
    report = tmp_path / "report"
    report.mkdir()
    code, out, err = run_cli(
        capsys, "scan", "--d", "2", "--n", "5", "--m", "6..7", "--construct",
        "--format", fmt, "--out", str(report),
    )
    assert (code, out, err) == (2, "", "cannot write %s: Is a directory\n" % (report,))
    assert list(tmp_path.rglob("*.cert.json")) == []


def test_scan_bad_bounds_exit_2(capsys):
    code, _, _ = run_cli(capsys, "scan", "--d", "2", "--n", "5", "--m", "2..x")
    assert code == 2
    code, _, _ = run_cli(capsys, "scan", "--d", "2", "--n", "5")
    assert code == 2


def test_scan_with_oracle(capsys):
    code, out, err = run_cli(
        capsys,
        "scan", "--d", "2", "--n", "5", "--m", "6..7", "--construct", "--oracle",
    )
    assert code == 0
    assert err.count("oracle") == 2
