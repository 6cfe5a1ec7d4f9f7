"""Replay the unpatched cases of ``data/cli_exit_paths.json`` through a
command, by default the installed ``torsion-forge`` console script.

    python tests/replay_exit_paths.py [COMMAND ...]

COMMAND may also run this checkout's package, uninstalled, under any
interpreter: ``PYTHON -m torsionforge.cli``, with ``PYTHONPATH`` set to the
absolute path of ``src`` (the cases run in other directories), as in

    PYTHONPATH="$PWD/src" python3 tests/replay_exit_paths.py python3.12 -m torsionforge.cli

Each case whose ``patch`` is null runs in a fresh temporary directory,
with its input written to a file there in place of ``{input}``, and with
COLUMNS=80, the width at which the parser cases' help and usage lines
were recorded.  Its exit code, stdout and stderr must equal the recorded
bytes.  The script names each case that differs and exits 1 if any does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = Path(__file__).resolve().parent / "data" / "cli_exit_paths.json"


def main(command: list[str]) -> int:
    cases = [c for c in json.loads(CASES.read_text(encoding="utf-8"))["cases"] if c["patch"] is None]
    env = dict(os.environ, COLUMNS="80")
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            argv = case["argv"]
            if case["input"] is not None:
                path = Path(tmp) / "cert.json"
                path.write_text(case["input"], encoding="utf-8")
                argv = [str(path) if arg == "{input}" else arg for arg in argv]
            run = subprocess.run(command + argv, cwd=tmp, env=env, capture_output=True, encoding="utf-8")
        if (run.returncode, run.stdout, run.stderr) != (case["exit"], case["stdout"], case["stderr"]):
            failed += 1
            print("MISMATCH %s: exit %d, stdout %r, stderr %r"
                  % (case["name"], run.returncode, run.stdout, run.stderr))
    print("%d of %d unpatched exit-path cases match" % (len(cases) - failed, len(cases)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["torsion-forge"]))
