"""Regenerate the frozen expected outputs under ``expected/``.

Run once, from the repository root of the commit whose outputs become the
reference:

    python3 bench/freeze.py

It runs every ladder-d2 and sweep-d3to7 invocation, extracts the 345
certificates they emit as the replay-verify corpus, records the verify
report of each, builds the large-e slice, and writes MANIFEST.json with
the sha256 of every file and the git commit they came from.  The
benchmark only reads these files; it never regenerates them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import run
import workloads as wl


def _invoke_ok(main, argv, expect_exit=0):
    code, out, err = run.invoke(main, argv)
    if code != expect_exit:
        raise SystemExit("%s exited %r: %s %s" % (" ".join(argv), code, out[-500:], err[-500:]))
    return out, err


def main():
    cli = run.import_cli()
    ladder, certificates = [], []
    for argv in wl.ladder_argvs():
        out, err = _invoke_ok(cli.main, argv)
        n, m = int(argv[2]), int(argv[6])
        if err != "oracle: divisor order of P - O is %d (certificate claims %d)\n" % (m, m):
            raise SystemExit("oracle did not confirm order %d: %r" % (m, err))
        ladder.append({"argv": argv, "exit": 0, "stdout": out, "stderr": err})
        certificates.append({"id": "ladder-d2/n%d-m%d" % (n, m), "text": out})
    sweep = []
    for argv in wl.sweep_argvs():
        out, err = _invoke_ok(cli.main, argv)
        sweep.append({"argv": argv, "exit": 0, "stdout": out, "stderr": err})
        for row in json.loads(out)["rows"]:
            if "certificate" in row:
                certificates.append({
                    "id": "sweep-d3to7/d%d-n%d-m%d" % (row["d"], row["n"], row["m"]),
                    "text": wl.canonical_text(row["certificate"]),
                })
    by_id = {c["id"]: c["text"] for c in certificates}
    large_e = []
    for source in wl.LARGE_E_SOURCES:
        for e in wl.LARGE_E_VALUES:
            obj = json.loads(by_id[source])
            obj["e"] = e
            large_e.append({"id": "large-e/%s-e%d" % (source.split("/")[1], e),
                            "text": wl.canonical_text(obj)})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        for group, expect_exit in ((certificates, 0), (large_e, 1)):
            for entry in group:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(entry["text"])
                out, _ = _invoke_ok(cli.main, ["verify", path], expect_exit)
                if expect_exit == 0:
                    entry["report"] = out

    files = {
        wl.LADDER + ".json": {"invocations": ladder},
        wl.SWEEP + ".json": {"invocations": sweep},
        wl.REPLAY + ".json": {"certificates": certificates, "large_e": large_e},
    }
    os.makedirs(wl.EXPECTED_DIR, exist_ok=True)
    digests = {}
    for name, payload in files.items():
        text = json.dumps(payload, indent=1, ensure_ascii=True) + "\n"
        with open(os.path.join(wl.EXPECTED_DIR, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        digests[name] = hashlib.sha256(text.encode("ascii")).hexdigest()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    manifest = {"generated_from": commit, "python": sys.version.split()[0], "sha256": digests}
    with open(wl.MANIFEST, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2) + "\n")
    print("froze %d ladder, %d sweep, %d certificates, %d large-e at %s"
          % (len(ladder), len(sweep), len(certificates), len(large_e), commit))


if __name__ == "__main__":
    main()
