"""CLI output pinned byte for byte: stdout, stderr and exit code.

Two corpora are replayed through ``cli.main``, read-only:

* a fast subset of the benchmark's frozen outputs in ``bench/expected/``:
  the d = 2 ``construct --oracle`` ladders for n <= 9, the d = 3
  ``scan --construct`` rows for n <= 11, and the ``verify`` reports of
  the certificates those invocations emit;
* ``data/cli_exit_paths.json``: the construct / scan / verify exit paths
  that corpus does not reach (exit 3 and 4, oracle lines and mismatches,
  self-verification failures, invalid and malformed certificates, output
  that a stray TORSION_FORGE_SEARCH_LIMIT in the environment does not
  change, a prime-order m that only the Miller-Rabin loop decides).  Its
  bytes were captured from commit 7929b6e, before the construct ->
  verify -> oracle pipeline was merged into one function; the
  shift-power and large-e ``verify`` cases were captured from commit
  67cb2f2, the last one that could still produce shift-power
  certificates (by carrying a constructed certificate onto a non-monic
  model of its curve).  Paths that the command line alone cannot reach
  (forced failures, a set environment variable) are reached by the named
  monkeypatches in ``PATCHES``.  The ``every-row-constructive`` patch
  changes only the rows scan chooses to build: ``construct`` reads the
  real verdict, so a patched row that no family covers exits 3 with
  construct's own refusal, and an unreachable one names its rule.  Its
  ``parser-`` cases pin argparse's help, usage and error bytes.

argparse wraps usage and help to the terminal width, which it reads from
COLUMNS, so every case runs with COLUMNS=80.  ``main`` parses with the
parser of the subcommand named first, alone, and builds the top-level
parser only for help and errors; at COLUMNS=37, where Python versions wrap
differently, the parser cases are compared with runs that parse every argv
with the top-level parser rather than pinned, and every argv the benchmark
runs must parse to the same namespace either way.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from torsionforge import cli
from torsionforge.certify import STATUS_CONSTRUCTIVE, CheckLine
from torsionforge.jacobian2 import OrderNotFoundError

TESTS_DIR = Path(__file__).resolve().parent
BENCH_EXPECTED = TESTS_DIR.parent / "bench" / "expected"


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _bench_cases() -> list[tuple[str, list[str], str, int, str, str]]:
    """(id, argv, input text, exit, stdout, stderr) from bench/expected/."""
    cases = []
    for entry in _load(BENCH_EXPECTED / "ladder-d2.json")["invocations"]:
        argv = entry["argv"]
        if _flag(argv, "--n") <= 9:
            cases.append((" ".join(argv), argv, None,
                          entry["exit"], entry["stdout"], entry["stderr"]))
    for entry in _load(BENCH_EXPECTED / "sweep-d3to7.json")["invocations"]:
        argv = entry["argv"]
        if _flag(argv, "--d") == 3 and _flag(argv, "--n") <= 11:
            cases.append((" ".join(argv), argv, None,
                          entry["exit"], entry["stdout"], entry["stderr"]))
    subset = re.compile(r"(ladder-d2/n[579]|sweep-d3to7/d3-n([4-9]|1[01]))-m\d+")
    for entry in _load(BENCH_EXPECTED / "replay-verify.json")["certificates"]:
        if subset.fullmatch(entry["id"]):
            cases.append(("verify " + entry["id"], ["verify", "{input}"], entry["text"],
                          0, entry["report"], ""))
    return cases


BENCH_CASES = _bench_cases()
EXIT_PATHS = _load(TESTS_DIR / "data" / "cli_exit_paths.json")["cases"]
PARSER_CASES = [case for case in EXIT_PATHS if case["name"].startswith("parser-")]


@pytest.fixture(autouse=True)
def _columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _failing_self_verification(monkeypatch):
    report = [CheckLine("identity", False, "forced failure")]
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: (False, report))


def _oracle_order_off_by_one(monkeypatch):
    monkeypatch.setattr(cli, "order_of", lambda curve, divisor, bound: bound + 1)


def _oracle_finds_no_order(monkeypatch):
    def order_of(curve, divisor, bound):
        raise OrderNotFoundError("forced")

    monkeypatch.setattr(cli, "order_of", order_of)


def _every_row_constructive(monkeypatch):
    verdict = cli.reachability_verdict
    monkeypatch.setattr(
        cli, "reachability_verdict",
        lambda n, d, m: verdict(n, d, m)._replace(status=STATUS_CONSTRUCTIVE),
    )


def _ignored_search_limit_env(monkeypatch):
    """A variable that once set the search budget; --c-range alone sets it now."""
    monkeypatch.setenv("TORSION_FORGE_SEARCH_LIMIT", "zero")


PATCHES = {
    "failing-self-verification": _failing_self_verification,
    "oracle-order-off-by-one": _oracle_order_off_by_one,
    "oracle-finds-no-order": _oracle_finds_no_order,
    "every-row-constructive": _every_row_constructive,
    "ignored-search-limit-env": _ignored_search_limit_env,
}


def run_cli(capsys, tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "cert.json"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if arg == "{input}" else arg for arg in argv]
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_subset_size():
    kinds = Counter(case[1][0] for case in BENCH_CASES)
    assert kinds == {"construct": 30, "scan": 6, "verify": 59}


@pytest.mark.parametrize(
    "argv, text, code, out, err", [case[1:] for case in BENCH_CASES],
    ids=[case[0] for case in BENCH_CASES],
)
def test_frozen_bench_output(capsys, tmp_path, argv, text, code, out, err):
    assert run_cli(capsys, tmp_path, argv, text) == (code, out, err)


@pytest.mark.parametrize("case", EXIT_PATHS, ids=[case["name"] for case in EXIT_PATHS])
def test_exit_path_bytes(capsys, tmp_path, monkeypatch, case):
    if case["patch"] is not None:
        PATCHES[case["patch"]](monkeypatch)
    got = run_cli(capsys, tmp_path, case["argv"], case["input"])
    assert got == (case["exit"], case["stdout"], case["stderr"])


def _main_by_the_full_parser(argv):
    """``cli.main`` with its one-parser path switched off: every argv is
    parsed by ``build_parser().parse_args``."""
    args = cli.build_parser().parse_args(argv)
    commands = {"construct": cli.cmd_construct, "verify": cli.cmd_verify, "scan": cli.cmd_scan}
    return commands[args.command](args)


@pytest.mark.parametrize("case", PARSER_CASES, ids=[case["name"] for case in PARSER_CASES])
def test_parser_bytes_equal_the_full_parser_at_37_columns(capsys, tmp_path, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "37")
    got = run_cli(capsys, tmp_path, case["argv"], None)
    monkeypatch.setattr(cli, "main", _main_by_the_full_parser)
    assert got == run_cli(capsys, tmp_path, case["argv"], None)
    assert got[0] == case["exit"]


FULL_PARSER = ["torsion-forge", "torsion-forge construct", "torsion-forge verify", "torsion-forge scan"]


@pytest.fixture
def built_parsers(monkeypatch) -> list:
    """The prog of every ``argparse.ArgumentParser`` built, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_main_builds_one_parser_for_a_named_command(monkeypatch, built_parsers):
    argvs = _parsed_argvs()
    monkeypatch.setattr(cli, "cmd_construct", lambda args: 0)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 0)
    monkeypatch.setattr(cli, "cmd_scan", lambda args: 0)
    for argv in argvs:
        built_parsers.clear()
        assert cli.main(list(argv)) == 0
        assert built_parsers == ["torsion-forge " + argv[0]], argv


def test_main_builds_the_full_parser_only_for_help_and_errors(capsys, tmp_path, monkeypatch, built_parsers):
    cases = [
        ([], FULL_PARSER),
        (["-h", "verify"], FULL_PARSER),
        (["frobnicate"], FULL_PARSER),
        (["--", "verify", "x.json"], FULL_PARSER),
        (["verify", "a.json", "extra"], ["torsion-forge verify"] + FULL_PARSER),
        (["construct", "--n", "4", "--d", "2", "--m", "6"], ["torsion-forge construct"] + FULL_PARSER),
        (["scan", "-h"], ["torsion-forge scan"]),
    ]
    for argv, expected in cases:
        built_parsers.clear()
        run_cli(capsys, tmp_path, argv, None)
        assert built_parsers == expected, argv
    built_parsers.clear()
    monkeypatch.setattr(sys, "argv", ["torsion-forge", "construct", "-h"])
    with pytest.raises(SystemExit):
        cli.main()
    assert built_parsers == ["torsion-forge construct"]
    assert capsys.readouterr().out.startswith("usage: torsion-forge construct [-h] --n N --d D")


def _parsed_argvs() -> list[list[str]]:
    """Every argv the benchmark runs, and each parser case that parses."""
    argvs = [entry["argv"]
             for name in ("ladder-d2", "sweep-d3to7")
             for entry in _load(BENCH_EXPECTED / (name + ".json"))["invocations"]]
    argvs += [["verify", entry["id"] + ".json"]
              for entry in _load(BENCH_EXPECTED / "replay-verify.json")["certificates"]]
    for case in PARSER_CASES:
        try:
            cli.build_parser().parse_args(case["argv"])
        except SystemExit:
            continue
        argvs.append(case["argv"])
    return argvs


def test_the_named_commands_parser_parses_like_the_full_parser():
    argvs = _parsed_argvs()
    assert len(argvs) == 98 + 58 + 345 + 2
    add_arguments = {name: add for name, _, add in cli._COMMANDS}
    for argv in argvs:
        parser = argparse.ArgumentParser(prog="torsion-forge " + argv[0])
        add_arguments[argv[0]](parser)
        got, extras = parser.parse_known_args(argv[1:])
        assert extras == [], argv
        got.command = argv[0]
        assert got == cli.build_parser().parse_args(argv), argv
