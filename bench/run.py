"""Benchmark runner: one workload of real torsion-forge invocations.

    python3 bench/run.py --workload ladder-d2 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every invocation goes through
``torsionforge.cli.main(argv)`` in this one process, without threads, with
stdout and stderr captured and checked against the frozen outputs.  It is
a closed loop with one client: each invocation starts when the previous
one returns.  Whole passes over the workload's invocations, each in a
seeded order, repeat a fixed number of times: ``--seconds`` divided by
the workload's pass time at the seed, rounded, and at least one.  The
count does not depend on how fast this run goes, so every commit gets the
same number of samples per invocation.  Every time is reported at the
reference host's speed (see ``calibrate.py``).

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
one untraced pass is followed by one traced pass and the per-layer
metrics are reported; the spans and every layer metric are written to
``.bench_work/spans-<workload>.jsonl`` and ``layers-<workload>.json``.
The last stdout line is the JSON result.  The package is imported from
``src/`` of this checkout only; without it the run fails with exit 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import calibrate as cal
import tracer as tr
import workloads as wl

ROOT = os.path.dirname(wl.BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
SETUP_CHILDREN = 12
TAIL_BEYOND = 10

# Seconds per untraced pass at the seed, at reference speed: the
# workload's invocations over its ops_per_s median in
# trajectory/BENCH_seed.json.
SEED_PASS_S = {wl.LADDER: 13.4, wl.SWEEP: 2.0, wl.REPLAY: 9.0}

# Per-layer metrics in the JSON result of a traced run: all but the
# times that tracer.SHARED_TIMES gives as shares instead.
PER_LAYER = [name for name in tr.LAYER_UNITS if name not in tr.SHARED_TIMES]

# Run in a fresh interpreter with the src/ and bench/ directories as
# arguments: the import of torsionforge.cli, at reference speed.
SETUP_CHILD = """\
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:3]
start = perf_counter()
import torsionforge.cli
seconds = perf_counter() - start
import calibrate
print(repr(seconds * calibrate.factor(calibrate.gap() + calibrate.gap())))
"""


def layers_path(workload: str) -> str:
    return os.path.join(WORK_DIR, "layers-%s.json" % (workload,))


def import_cli():
    """torsionforge.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    from torsionforge import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("torsionforge was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def invoke(main, argv):
    """(exit code, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def child_setup_seconds() -> float:
    """Set-up time measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, SRC, wl.BENCH_DIR],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed: %s" % (proc.stderr.strip()[-500:],))
    return float(proc.stdout.split()[-1])


class Pass:
    """Time of each invocation in one pass, indexed like the invocations.

    ``times_ms`` are at reference speed: calibration kernels run before
    the first invocation and after each one, outside their times.
    """

    def __init__(self, main, invocations, order, tracer=None):
        order = list(order)
        self.times_ms = [0.0] * len(invocations)
        self.failures: list[str] = []
        raw_ms, gaps = [], [cal.gap()]
        for i in order:
            inv = invocations[i]
            t0 = perf_counter()
            if tracer is not None:
                tracer.invocation = i
                tracer.counts["cli." + inv.argv[0]] += 1
                tracer.begin("cli.main")
            try:
                code, out, err = invoke(main, inv.argv)
                problem = wl.check(inv.expected, code, out, err)
            except Exception as exc:  # a crash fails this invocation only
                out, problem = "", "raised %s: %s" % (type(exc).__name__, exc)
            if tracer is not None:
                tracer.end()
                tracer.counts["cli.stdout_bytes"] += len(out.encode("utf-8"))
            raw_ms.append((perf_counter() - t0) * 1e3)
            gaps.append(cal.gap())
            if problem is not None:
                self.failures.append("%s: %s" % (" ".join(inv.argv), problem))
        for i, ms, factor in zip(order, raw_ms, cal.speed_factors(gaps, len(order))):
            self.times_ms[i] = ms * factor
        self.seconds = sum(self.times_ms) / 1e3


def end_to_end(passes, setup_samples) -> dict:
    """Each invocation counts at its median time over the passes."""
    times = sorted(statistics.median(t) for t in zip(*(p.times_ms for p in passes)))
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(times) / (sum(times) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_tail_ms": (times[len(times) - TAIL_BEYOND - 1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report(title: str, metrics: dict):
    print(title)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))


def run(args) -> int:
    run_dir = os.path.join(WORK_DIR, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        cli = import_cli()
        invocations = wl.load(args.workload, args.seed, run_dir)
        wl.write_inputs(invocations)
        rng = random.Random("order-%d" % args.seed)

        def shuffled():
            order = list(range(len(invocations)))
            rng.shuffle(order)
            return order

        # The set-up children run in groups before each pass and after the
        # last, so they sample the same stretches of host speed as the passes.
        count = 1 if args.trace else max(1, round(args.seconds / SEED_PASS_S[args.workload]))
        setup_samples = []
        passes = []
        for k in range(count + 1):
            while len(setup_samples) < SETUP_CHILDREN * (k + 1) // (count + 1):
                setup_samples.append(child_setup_seconds())
            if k < count:
                passes.append(Pass(cli.main, invocations, shuffled()))
        metrics = end_to_end(passes, setup_samples)

        if args.trace:
            tracer = tr.Tracer()
            restore = tr.install(tracer)
            try:
                traced = Pass(cli.main, invocations, shuffled(), tracer)
            finally:
                restore()
            os.makedirs(WORK_DIR, exist_ok=True)
            tracer.write(os.path.join(WORK_DIR, "spans-%s.jsonl" % (args.workload,)))
            layers = tr.layer_metrics(tracer, traced.seconds, passes[0].seconds)
            with open(layers_path(args.workload), "w", encoding="utf-8") as handle:
                json.dump({k: {"value": v, "unit": u} for k, (v, u) in layers.items()}, handle,
                          indent=1)
            passes.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p.times_ms) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:5]:
        print("FAILED %s" % (line,), file=sys.stderr)
    report(
        "%s seed %d: %d untraced pass(es) over %d invocations, each timed at its median "
        "at reference speed; op_tail_ms is p%.1f (%d of %d invocations beyond it); "
        "setup_s is the median of %d fresh interpreters"
        % (args.workload, args.seed, len(passes) - args.trace, len(invocations),
           100.0 * (len(invocations) - TAIL_BEYOND) / len(invocations), TAIL_BEYOND,
           len(invocations), len(setup_samples)),
        {**metrics, "failed_frac": (len(failures) / attempted, "frac")},
    )
    if args.trace:
        report("%s traced pass, per layer:" % (args.workload,), layers)
        chosen = {name: layers[name] for name in PER_LAYER}
    else:
        chosen = metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ImportError, OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print("benchmark failed: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
