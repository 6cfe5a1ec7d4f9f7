"""The three benchmark workloads: their invocation grids, frozen expected
outputs, seeded tampers and the output checker.

Every invocation is a real ``torsion-forge`` argv list.  The grids are
fixed; the seed only shuffles invocation order and picks tamper positions.
Expected outputs were generated once, from the commit named in
``expected/MANIFEST.json``, by ``freeze.py``; they are never regenerated
from the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
MANIFEST = os.path.join(EXPECTED_DIR, "MANIFEST.json")

LADDER = "ladder-d2"
SWEEP = "sweep-d3to7"
REPLAY = "replay-verify"
WORKLOADS = (LADDER, SWEEP, REPLAY)

# The large-e slice: infinity-shift certificates from the n = 5 and n = 7
# ladders with e raised into 10^4..10^5.  The claim m == n + e*d is then
# false, so each must be rejected, and the seed verifier's work grows
# linearly in e.  At least eleven copies are slower than any ordinary
# verification, so the slice sets op_tail_ms.  Never shrink it.
LARGE_E_SOURCES = ("ladder-d2/n5-m7", "ladder-d2/n5-m9", "ladder-d2/n5-m11", "ladder-d2/n7-m9")
LARGE_E_VALUES = (25000, 50000, 75000, 100000)

_INVALID_LINE = re.compile(r"certificate INVALID \(.+\)")


def ladder_argvs() -> list[list[str]]:
    """construct --oracle for m in {2, n, n+1..2n+1}, odd n = 5..17."""
    out = []
    for n in range(5, 18, 2):
        for m in [2, n, *range(n + 1, 2 * n + 2)]:
            out.append(["construct", "--n", str(n), "--d", "2", "--m", str(m), "--oracle"])
    return out


def sweep_argvs() -> list[list[str]]:
    """scan --construct over m = 2..3n for coprime (d, n), d in {3,4,5,7}, n <= 25."""
    out = []
    for d in (3, 4, 5, 7):
        for n in range(d + 1, 26):
            if gcd(n, d) == 1:
                out.append(
                    ["scan", "--d", str(d), "--n", str(n), "--m", "2..%d" % (3 * n), "--construct"]
                )
    return out


def canonical_text(obj) -> str:
    """The certificate file format: two-space indented JSON plus newline."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def tamper(cert_text: str, rng: random.Random) -> str:
    """Add a nonzero integer to one coefficient x^k of f, with k < n.

    For every identity kind in the corpus this makes the certified claim
    false: the perturbation delta*x^k is not a multiple of (x-a)^m,
    (1+x)^m or (x-a)^n*(x-w) (pure-power, infinity-shift,
    two-torsion-link), and it moves f(a) off zero (order-d, a = 1).  The
    degree of f is unchanged because the leading coefficient is never
    touched.  By the README exit-code table such a certificate exits 1.
    """
    obj = json.loads(cert_text)
    f = obj["curve"]["f"]
    k = rng.randrange(obj["curve"]["n"])
    delta = rng.choice((-2, -1, 1, 2))
    f[k] = str(Fraction(f[k]) + delta)
    return canonical_text(obj)


@dataclass(frozen=True)
class Expected:
    """What one invocation must produce.

    ``stdout`` is the exact text, or None for a rejection, whose last
    stdout line must read ``certificate INVALID (...)``.
    """

    exit: int
    stdout: Optional[str]
    stderr: str = ""


def check(expected: Expected, code, stdout: str, stderr: str) -> Optional[str]:
    """None when the output matches, else a one-line reason."""
    if code != expected.exit:
        return "exit code %r, expected %d" % (code, expected.exit)
    if stderr != expected.stderr:
        return "stderr %r, expected %r" % (stderr[:200], expected.stderr[:200])
    if expected.stdout is None:
        lines = stdout.splitlines()
        if not lines or not _INVALID_LINE.fullmatch(lines[-1]):
            return "last stdout line %r is not a rejection" % (lines[-1:] or [""])[0]
    elif stdout != expected.stdout:
        return "stdout differs from the frozen output (%d vs %d bytes)" % (
            len(stdout), len(expected.stdout))
    return None


@dataclass
class Invocation:
    argv: list[str]
    expected: Expected
    # text of the certificate file a verify invocation reads (its argv[1])
    input: Optional[str] = None


def load_expected(name: str):
    """Parsed ``expected/<name>.json`` after checking it against the manifest."""
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    path = os.path.join(EXPECTED_DIR, name + ".json")
    with open(path, "rb") as handle:
        raw = handle.read()
    if hashlib.sha256(raw).hexdigest() != manifest["sha256"][name + ".json"]:
        raise ValueError("%s does not match its hash in MANIFEST.json" % (path,))
    return json.loads(raw)


def load(workload: str, seed: int, workdir: str) -> list[Invocation]:
    """The workload's invocations.  replay-verify's inputs (corpus, seeded
    tampers and the large-e slice) are named under ``workdir`` but only
    written there by :func:`write_inputs`."""
    if workload in (LADDER, SWEEP):
        return [
            Invocation(entry["argv"], Expected(entry["exit"], entry["stdout"], entry["stderr"]))
            for entry in load_expected(workload)["invocations"]
        ]
    if workload != REPLAY:
        raise ValueError("unknown workload %r" % (workload,))
    data = load_expected(REPLAY)
    rng = random.Random(seed)
    out = []

    def add(name: str, text: str, expected: Expected):
        path = os.path.join(workdir, name.replace("/", "_") + ".json")
        out.append(Invocation(["verify", path], expected, text))

    for entry in data["certificates"]:
        add(entry["id"], entry["text"], Expected(0, entry["report"]))
        add(entry["id"] + "-tampered", tamper(entry["text"], rng), Expected(1, None))
    for entry in data["large_e"]:
        add(entry["id"], entry["text"], Expected(1, None))
    return out


def write_inputs(invocations: list[Invocation]):
    for inv in invocations:
        if inv.input is not None:
            os.makedirs(os.path.dirname(inv.argv[1]), exist_ok=True)
            with open(inv.argv[1], "w", encoding="utf-8") as handle:
                handle.write(inv.input)
