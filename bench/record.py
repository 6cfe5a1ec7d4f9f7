"""Run all three workloads, untraced and traced, print every metric and
record them as one trajectory entry.

    python3 bench/record.py --label seed

Each workload runs ten times with ``run.py --trace 0``, on seeds 1 to 10
and for the ``run_seconds`` that BENCHMARK.json declares, for the
end-to-end metrics; each metric is recorded with every value, its median
and its quartiles.  One ``--trace 1`` run on seed 1 gives the per-layer
metrics.  The entry goes to
``bench/trajectory/BENCH_<label>.json`` with the git commit, Python
version and processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads as wl

TRAJECTORY_DIR = os.path.join(wl.BENCH_DIR, "trajectory")
SEEDS = range(1, 11)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(wl.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("%s --trace %d exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    entry = {
        "label": args.label,
        "git_sha": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in wl.WORKLOADS:
        untraced = [run_workload(workload, seed, seconds, 0) for seed in SEEDS]
        traced, _ = run_workload(workload, SEEDS[0], seconds, 1)
        with open(run.layers_path(workload), encoding="utf-8") as handle:
            layers = json.load(handle)
        end_to_end = {}
        for name, first in untraced[0][0]["metrics"].items():
            values = [result["metrics"][name]["value"] for result, _ in untraced]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                                "values": values}
        attempted = sum(result["attempted"] for result, _ in untraced)
        failed = sum(result["failed"] for result, _ in untraced)
        entry["workloads"][workload] = {
            "end_to_end": end_to_end,
            "failed_frac": {"value": failed / attempted, "unit": "frac"},
            "correct": traced["correct"] and all(result["correct"] for result, _ in untraced),
            "report": untraced[0][1],
            "per_layer": layers,
        }
    os.makedirs(TRAJECTORY_DIR, exist_ok=True)
    path = os.path.join(TRAJECTORY_DIR, "BENCH_%s.json" % (args.label,))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, indent=2) + "\n")
    print("recorded %s" % (os.path.relpath(path, run.ROOT),))


if __name__ == "__main__":
    main()
