"""Tests of the benchmark itself; none of them reads a clock.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import calibrate as cal  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

CLI = run.import_cli()


def _inputs(invocations):
    return [(os.path.basename(i.argv[1]), i.input, i.expected) for i in invocations]


def test_seeded_generation_is_deterministic(tmp_path):
    first = wl.load(wl.REPLAY, 7, str(tmp_path))
    assert _inputs(first) == _inputs(wl.load(wl.REPLAY, 7, str(tmp_path)))
    assert _inputs(first) != _inputs(wl.load(wl.REPLAY, 8, str(tmp_path)))
    assert len(first) == 2 * 345 + len(wl.LARGE_E_SOURCES) * len(wl.LARGE_E_VALUES)
    wl.write_inputs(first)
    for inv in first:
        with open(inv.argv[1], encoding="utf-8") as handle:
            assert handle.read() == inv.input
    for name in (wl.LADDER, wl.SWEEP):
        assert [i.argv for i in wl.load(name, 1, "")] == [i.argv for i in wl.load(name, 2, "")]


def test_grids_have_the_stated_sizes():
    assert len(wl.ladder_argvs()) == 98
    assert len(wl.sweep_argvs()) == 58
    assert [i.argv for i in wl.load(wl.LADDER, 0, "")] == wl.ladder_argvs()
    assert [i.argv for i in wl.load(wl.SWEEP, 0, "")] == wl.sweep_argvs()


def test_checker_flags_one_byte_and_exit_code_changes():
    inv = wl.load(wl.LADDER, 0, "")[0]
    exp = inv.expected
    assert wl.check(exp, 0, exp.stdout, exp.stderr) is None
    flipped = exp.stdout[:10] + chr(ord(exp.stdout[10]) ^ 1) + exp.stdout[11:]
    assert wl.check(exp, 0, flipped, exp.stderr) is not None
    assert wl.check(exp, 1, exp.stdout, exp.stderr) is not None
    assert wl.check(exp, 0, exp.stdout, "") is not None
    reject = wl.Expected(1, None)
    assert wl.check(reject, 1, "FAIL identity\ncertificate INVALID (identity)\n", "") is None
    assert wl.check(reject, 1, "certificate VALID\n", "") is not None
    assert wl.check(reject, 2, "certificate INVALID (identity)\n", "") is not None


def test_every_tamper_changes_one_low_coefficient_of_f():
    rng = random.Random(3)
    for entry in wl.load_expected(wl.REPLAY)["certificates"]:
        before = json.loads(entry["text"])
        after = json.loads(wl.tamper(entry["text"], rng))
        assert after != before
        changed = [k for k, (a, b) in enumerate(zip(before["curve"]["f"], after["curve"]["f"]))
                   if a != b]
        assert len(changed) == 1 and changed[0] < before["curve"]["n"]
        k = changed[0]
        assert Fraction(after["curve"]["f"][k]) != Fraction(before["curve"]["f"][k])
        after["curve"]["f"][k] = before["curve"]["f"][k]
        assert after == before


def test_large_e_slice_is_fixed():
    large = wl.load_expected(wl.REPLAY)["large_e"]
    assert len(large) == 16
    assert sorted(json.loads(e["text"])["e"] for e in large) == sorted(wl.LARGE_E_VALUES * 4)
    assert all(len(e["text"]) < 600 for e in large)


def test_speed_factors_use_the_gaps_on_both_sides():
    ref = cal.REFERENCE_S
    gaps = [[ref] * 3, [ref] * 3, [2 * ref] * 3, [2 * ref] * 3]
    assert cal.speed_factors(gaps, 3) == pytest.approx([1.0, 2 / 3, 0.5])
    # one slow outlier in a gap does not move the median of six
    assert cal.speed_factors([[ref, ref, 9 * ref], [ref] * 3], 1) == [1.0]
    with pytest.raises(ValueError):
        cal.speed_factors(gaps, 4)


def test_kernel_is_fixed_work():
    assert cal.kernel() == cal.kernel()
    assert len(cal.gap()) == cal.GAP_SAMPLES


def _traced_n5_ladder():
    invocations = [i for i in wl.load(wl.LADDER, 0, "") if i.argv[2] == "5"]
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        traced = run.Pass(CLI.main, invocations, range(len(invocations)), tracer)
    finally:
        restore()
    return invocations, tracer, traced


def test_hand_checked_counts_on_the_n5_ladder():
    # m in {2, 5, 6..11}; the oracle's scan adds m - 1 times for order m.
    invocations, tracer, traced = _traced_n5_ladder()
    assert traced.failures == []
    layers = {k: v for k, (v, _) in tr.layer_metrics(tracer, 1.0, 1.0).items()}
    orders = [int(i.argv[6]) for i in invocations]
    assert orders == [2, 5, 6, 7, 8, 9, 10, 11]
    assert layers["jacobian2.add.calls"] == sum(m - 1 for m in orders) == 50
    assert layers["jacobian2.order_of.calls"] == 8
    assert layers["jacobian2.adds_per_order"] == 50 / 8
    assert layers["constructors.construct.calls"] == 8
    assert layers["curves.validations_per_op"] == 2
    # n-plus-ed orders 7, 9, 11 each build the truncated series three times
    assert layers["series.truncated_binomial.calls"] == 9
    assert layers["series.binomials_per_n_plus_ed"] == 3
    assert layers["cli.main.calls"] == 8
    assert layers["cli.stdout_bytes"] == sum(len(i.expected.stdout) for i in invocations)


def test_hooks_are_restored():
    from torsionforge import cli, jacobian2, polyring
    from torsionforge.scalars import GaussianRational

    before = (cli.order_of, jacobian2.add, polyring.Poly.__dict__["__mul__"],
              GaussianRational.__dict__["__radd__"], polyring.gcd)
    _traced_n5_ladder()
    after = (cli.order_of, jacobian2.add, polyring.Poly.__dict__["__mul__"],
             GaussianRational.__dict__["__radd__"], polyring.gcd)
    assert before == after


def test_span_self_times_add_up_to_each_invocation():
    _, tracer, _ = _traced_n5_ladder()
    spans = tracer.spans
    children = [0] * len(spans)
    for span in spans:
        if span[tr.PARENT] >= 0:
            children[span[tr.PARENT]] += span[tr.END] - span[tr.START]
    self_by_invocation, root_by_invocation = {}, {}
    for i, span in enumerate(spans):
        inv = span[tr.INVOCATION]
        duration = span[tr.END] - span[tr.START]
        self_by_invocation[inv] = self_by_invocation.get(inv, 0) + duration - children[i]
        if span[tr.PARENT] < 0:
            assert span[tr.NAME] == "cli.main"
            root_by_invocation[inv] = duration
    assert len(root_by_invocation) == 8
    assert self_by_invocation == root_by_invocation


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_benchmark_json_lists_what_run_reports(key):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    if key == "end_to_end":
        fake_pass = SimpleNamespace(times_ms=[float(k) for k in range(1, 21)])
        reported = run.end_to_end([fake_pass], [1.0])
    else:
        reported = {name: (0, tr.LAYER_UNITS[name]) for name in run.PER_LAYER}
    assert [(m["name"], m["unit"]) for m in spec[key]] == [
        (name, unit) for name, (_, unit) in reported.items()]
