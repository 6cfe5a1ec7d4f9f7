"""Command-line surface: construct certificates, verify certificate files,
and scan (n, m) grids into reachability tables.

Exit codes (fixed so shell harnesses can assert on them):

0  success
1  verification failure (a certificate check or the divisor oracle fails)
2  invalid arguments, bad bounds, an unparseable certificate file, or an
   unwritable --out path
3  a stated precondition fails: an unreachable order, or any PreconditionError
4  the candidate search budget was exhausted

Identical invocations produce byte-identical output: JSON uses a fixed key
order and canonical rational strings, and searches are deterministic.  The
--oracle flag writes its confirmation to stderr so stdout stays pure JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_string
from math import gcd as int_gcd

from .certify import TorsionCertificate, json_text, parse_and_verify, verify_certificate
from .constructors import (
    DEFAULT_SEARCH_LIMIT,
    STATUS_CONSTRUCTIVE,
    SearchExhausted,
    construct,
    reachability_verdict,
)
from .curves import PreconditionError
from .jacobian2 import OrderNotFoundError, embed_point, order_of

PRESET_HYPERELLIPTIC_LADDER = "hyperelliptic-ladder"

# a scan row's five plain fields, as json.dumps(indent=2) indents them two levels down
_ROW = '    {\n      "n": %d,\n      "d": %d,\n      "m": %d,\n      "status": %s,\n      "deciding_rule": %s'

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_PRECONDITION = 3
EXIT_SEARCH_EXHAUSTED = 4


def _error_json(exc_type: str, message: str, **extra) -> str:
    return json_text({"error": {"type": exc_type, "message": message, **extra}}, "") + "\n"


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to stdout, or to the path ``out``; a path that cannot
    be written is one stderr line and exit 2."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print("cannot write %s: %s" % (out, exc.strerror or exc), file=sys.stderr)
        return EXIT_BAD_ARGS
    return EXIT_OK


def _usage_error(message: str):
    """The top-level parser's ``error``, which builds that parser only when called."""
    build_parser().error(message)


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    """Parse "7" or "2..11" into an inclusive integer interval."""
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        _usage_error("%s expects an integer or a..b range, got %r" % (flag, text))


def _check_shape_args(n: int, d: int):
    if d < 2:
        _usage_error("--d must be at least 2, got %d" % (d,))
    if n <= d:
        _usage_error("--n must exceed --d, got n=%d d=%d" % (n, d))
    if int_gcd(n, d) != 1:
        _usage_error("gcd(n, d) must be 1, got n=%d d=%d" % (n, d))


def _check_budget(c_range: int):
    if c_range < 0:
        _usage_error("--c-range must be a nonnegative integer, got %d" % (c_range,))


def _oracle_check(cert: TorsionCertificate) -> tuple[bool, str]:
    """Confirm the certified order by divisor arithmetic (d = 2 only)."""
    curve = cert.curve
    if curve.d != 2:
        return True, "oracle skipped: divisor arithmetic supports d=2 only (curve has d=%d)" % (curve.d,)
    try:
        model, divisor = embed_point(curve, cert.point)
        found = order_of(model, divisor, bound=cert.m)
    except OrderNotFoundError:
        return False, "oracle: no order up to %d found for P - O (certificate claims %d)" % (cert.m, cert.m)
    ok = found == cert.m
    return ok, "oracle: divisor order of P - O is %d (certificate claims %d)" % (found, cert.m)


# ---------------------------------------------------------------------------
# the certify pipeline: construct, self-verify, optional oracle
# ---------------------------------------------------------------------------

def certify_request(
    n: int, d: int, m: int, search_limit: int, oracle: bool, scan_row: bool = False
) -> tuple[int, TorsionCertificate | None]:
    """Construct a certificate, verify it, and optionally confirm its order
    by the d = 2 divisor oracle.  Returns the exit code and, when it is 0,
    the certificate.

    Output is printed where it is decided: the oracle line and a failed
    self-verification's report go to stderr, a failure's error JSON to
    stdout; the caller prints the certificate.  ``construct`` refuses an
    order that no family builds, and the error JSON of an unreachable
    one ends with its deciding ``rule``.  With ``scan_row`` the triple is
    one row of a scan: its n and m go into the error JSON, the oracle line
    is prefixed with them, and a failed self-verification names the row.
    """
    where = {"n": n, "m": m} if scan_row else {}
    try:
        cert = construct(n, d, m, search_limit)
    except (SearchExhausted, PreconditionError) as exc:
        code = EXIT_SEARCH_EXHAUSTED if isinstance(exc, SearchExhausted) else EXIT_PRECONDITION
        if hasattr(exc, "rule"):
            where["rule"] = exc.rule
        sys.stdout.write(_error_json(type(exc).__name__, str(exc), **where))
        return code, None

    ok, lines = verify_certificate(cert)
    if not ok:
        for line in lines:
            print(line, file=sys.stderr)
        if scan_row:
            message = "certificate for n=%d m=%d failed verification" % (n, m)
        else:
            message = "constructed certificate failed self-verification"
        sys.stdout.write(_error_json("VerificationError", message))
        return EXIT_VERIFY_FAILED, None

    if oracle:
        ok, message = _oracle_check(cert)
        print("n=%d m=%d %s" % (n, m, message) if scan_row else message, file=sys.stderr)
        if not ok:
            sys.stdout.write(_error_json("OracleMismatch", message, **where))
            return EXIT_VERIFY_FAILED, None
    return EXIT_OK, cert


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    _check_shape_args(args.n, args.d)
    _check_budget(args.c_range)
    if args.m is None and args.e is None:
        _usage_error("construct needs --m or --e")
    m = args.m
    if args.e is not None:
        from_e = args.n + args.e * args.d
        if m is not None and m != from_e:
            _usage_error("--m %d conflicts with --e %d (which means m = %d)" % (m, args.e, from_e))
        m = from_e
    if m < 2:
        _usage_error("--m must be at least 2, got %d" % (m,))
    code, cert = certify_request(args.n, args.d, m, args.c_range, args.oracle)
    if code == EXIT_OK:
        code = _emit(cert.to_json_str(), args.out)
    return code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, refusing a repeated key (json keeps its last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %r" % (key,))
        obj[key] = value
    return obj


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, a repeated key, non-UTF-8 bytes, over-long integers
        print("cannot read certificate: %s" % (exc,), file=sys.stderr)
        return EXIT_BAD_ARGS
    try:
        cert, lines = parse_and_verify(obj)
    except (KeyError, TypeError, ValueError) as exc:
        print("malformed certificate: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_BAD_ARGS

    for line in lines:
        print(line)
    failed = [line.name for line in lines if not line.ok]
    if failed:
        if any(name == "identity" for name in failed):
            print("identity check failed")
        print("certificate INVALID (%s)" % (", ".join(failed),))
        return EXIT_VERIFY_FAILED

    if args.oracle:
        ok, message = _oracle_check(cert)
        print(message, file=sys.stderr)
        if not ok:
            print("certificate INVALID (oracle)")
            return EXIT_VERIFY_FAILED

    print("certificate VALID")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_rows(args):
    n_lo, n_hi = _parse_range(args.n, "--n")
    m_range = None if args.preset else _parse_range(args.m, "--m")
    for n in range(n_lo, n_hi + 1):
        if n <= args.d or int_gcd(n, args.d) != 1:
            continue
        m_lo, m_hi = m_range or (n + 1, 2 * n + 1)
        for m in range(max(2, m_lo), m_hi + 1):
            yield n, m


def _scan_report(d: int, rows: list) -> str:
    """``json.dumps({"d": d, "rows": rows}, indent=2)`` and a newline for ``cmd_scan``'s row tuples,
    a certificate text embedded as itself, indented to its depth (see ``json_text``)."""
    parts = []
    for n, row_d, m, status, rule, text, path in rows:
        row = _ROW % (n, row_d, m, _json_string(status), _json_string(rule))
        if text is not None:
            row += ',\n      "certificate": ' + text[:-1].replace("\n", "\n      ")
        if path is not None:
            row += ',\n      "certificate_path": ' + _json_string(path)
        parts.append(row + "\n    }")
    return '{\n  "d": %d,\n  "rows": %s\n}\n' % (d, "[\n%s\n  ]" % ",\n".join(parts) if parts else "[]")


def cmd_scan(args) -> int:
    if args.d < 2:
        _usage_error("--d must be at least 2, got %d" % (args.d,))
    if args.preset == PRESET_HYPERELLIPTIC_LADDER and args.d != 2:
        _usage_error("preset %s requires --d 2" % (PRESET_HYPERELLIPTIC_LADDER,))
    if args.preset is not None and args.m is not None:
        _usage_error("--m %s conflicts with --preset %s (which sets m = n+1..2n+1)" % (args.m, args.preset))
    if args.preset is None and args.m is None:
        _usage_error("scan needs --m or --preset")
    if args.n is None:
        _usage_error("scan needs --n")
    _check_budget(args.c_range)

    # a row is (n, d, m, status, deciding_rule, text, path): a constructed row's certificate text,
    # encoded once if the report or a file shows it, and with --out its path; else None
    base = None if args.out is None else os.path.splitext(args.out)[0]
    rows = []
    for n, m in _scan_rows(args):
        verdict = reachability_verdict(n, args.d, m)
        text = path = None
        if args.construct and verdict.status == STATUS_CONSTRUCTIVE:
            code, cert = certify_request(n, args.d, m, args.c_range, args.oracle, scan_row=True)
            if code != EXIT_OK:
                return code
            if args.format == "json" or base is not None:
                text = cert.to_json_str()
            if base is not None:
                path = "%s-n%d-m%d.cert.json" % (base, n, m)
        rows.append((n, args.d, m, verdict.status, verdict.deciding_rule, text, path))

    if args.format == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(("n", "d", "m", "status", "deciding_rule", "certificate_path"))
        # csv writes a None path as an empty field
        writer.writerows((n, d, m, status, rule, path) for n, d, m, status, rule, _, path in rows)
        report = buffer.getvalue()
    else:
        report = _scan_report(args.d, rows)

    # the report first, so an unwritable --out leaves no certificate file
    code = _emit(report, args.out)
    for *_, text, path in rows:
        if code == EXIT_OK and path is not None:
            code = _emit(text, path)
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _invalid_choice(text: str, choices) -> str:
    """argparse's refusal of a choice as 3.10 to 3.13.0 word it (later releases drop the quotes)."""
    return "invalid choice: %r (choose from %s)" % (text, ", ".join(map(repr, choices)))


def _choice(*choices: str):
    """An argparse ``type`` admitting only ``choices``, refused in the same words on every Python."""
    def check(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(_invalid_choice(text, choices))
        return text
    return check


def _construct_arguments(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True, help="degree of f")
    p.add_argument("--d", type=int, required=True, help="cover degree")
    p.add_argument("--m", type=int, help="target torsion order")
    p.add_argument("--e", type=int, help="target order as m = n + e*d (alternative to --m)")
    p.add_argument(
        "--c-range",
        dest="c_range",
        type=int,
        default=DEFAULT_SEARCH_LIMIT,
        help="candidate budget for constant searches (default: %(default)s)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="confirm the order by d=2 divisor arithmetic (report on stderr)",
    )
    p.add_argument("--out", help="write the certificate to this path")


def _verify_arguments(p: argparse.ArgumentParser):
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="additionally confirm the order by d=2 divisor arithmetic",
    )


def _scan_arguments(p: argparse.ArgumentParser):
    p.add_argument("--d", type=int, required=True, help="cover degree")
    p.add_argument("--n", help="degree of f: integer or a..b range")
    p.add_argument("--m", help="torsion orders: integer or a..b range")
    p.add_argument("--preset", type=_choice(PRESET_HYPERELLIPTIC_LADDER), metavar="{hyperelliptic-ladder}",
                   help="named grid: m in n+1..2n+1 with d=2")
    p.add_argument(
        "--construct",
        action="store_true",
        help="build and verify a certificate for every constructive row",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="confirm constructed d=2 orders by divisor arithmetic",
    )
    p.add_argument("--c-range", dest="c_range", type=int, default=DEFAULT_SEARCH_LIMIT,
                   help="candidate budget for constant searches")
    p.add_argument("--format", type=_choice("json", "csv"), metavar="{json,csv}", default="json",
                   help="output format")
    p.add_argument("--out", help="write the report to this path")


# name: (help, add_arguments, run) of each subcommand, in the order --help lists them
_COMMANDS = {
    "construct": ("build a certificate for a point of exact order m", _construct_arguments, cmd_construct),
    "verify": ("check a certificate file", _verify_arguments, cmd_verify),
    "scan": ("tabulate reachability verdicts over an (n, m) grid", _scan_arguments, cmd_scan),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every subcommand (``main`` says when it is built)."""
    parser = argparse.ArgumentParser(
        prog="torsion-forge",
        description="Construct, verify, and tabulate torsion certificates "
        "for superelliptic curves y^d = f(x).",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse with the parser of the subcommand named first, by the call the top-level
    parser makes on it; the top-level parser parses only if none is named or args are left,
    and refuses a first word that is no command and no option as argparse 3.10 to 3.13.0 do."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        _usage_error("argument command: " + _invalid_choice(argv[0], _COMMANDS))
    if argv and argv[0] in _COMMANDS:
        _, add_arguments, run = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog="torsion-forge " + argv[0])
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return run(args)
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command][2](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
