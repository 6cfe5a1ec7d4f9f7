"""Spans and counts for the traced run, hooked from outside the package.

Nothing under ``src/`` changes.  :func:`install` replaces each entry point
where its callers look it up - class attributes on ``Poly``,
``GaussianRational``, ``Curve`` and ``TorsionCertificate``, and module
globals in every importing module, such as ``cli.order_of`` or
``jacobian2.xgcd`` - and returns a function that puts the originals back.

A span records its name, start, end, parent span, invocation id and a
tag (the exception type it raised, or ``rejected`` for a failed
verification).  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children; a
name's inclusive time counts only spans with no ancestor of that name.
GaussianRational arithmetic is only counted, since it runs about a
million times per ladder pass.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

NAME, START, END, PARENT, INVOCATION, TAG = range(6)

VERIFY_KINDS = ("pure-power", "infinity-shift", "order-d", "two-torsion-link")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.invocation = -1
        self._stack: list[int] = []

    def begin(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0, 0, parent, self.invocation, None]
        self.spans.append(span)
        span[START] = perf_counter_ns()

    def end(self, tag=None):
        t = perf_counter_ns()
        span = self.spans[self._stack.pop()]
        span[END] = t
        if tag is not None:
            span[TAG] = tag

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _spanned(tracer: Tracer, fn, name, tag_result=None):
    """fn inside a span; ``name`` may be a function of fn's arguments."""
    namer = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(namer(*args, **kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(type(exc).__name__)
            raise
        tracer.end(tag_result(result) if tag_result else None)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _coeff_bits(c) -> int:
    parts = (c.re, c.im) if hasattr(c, "re") else (c,)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length()) for p in parts)


def install(tracer: Tracer):
    """Hook every traced entry point; returns the function that unhooks them."""
    from torsionforge import certify, cli, constructors, curves, jacobian2, polyring, series
    from torsionforge.scalars import GaussianRational

    saved = []

    def hook(owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, tag_result=None):
        hook(owner, attr, lambda fn: _spanned(tracer, fn, name, tag_result))

    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        hook(GaussianRational, attr, lambda fn: _counted(tracer, fn, "scalars.gaussian_ops"))
    span(series, "gen_binom", "scalars.gen_binom")
    for module in (polyring, certify):
        span(module, "scalar_from_json", "scalars.parse")

    span(polyring.Poly, "__mul__", "polyring.mul")
    span(polyring.Poly, "__divmod__", "polyring.divmod")
    span(polyring, "gcd", "polyring.gcd")
    for module in (polyring, jacobian2):
        span(module, "xgcd", "polyring.xgcd")

    for module in (series, constructors):
        span(module, "truncated_binomial", "series.truncated_binomial")
    span(constructors, "check_truncation_valuation", "series.check_truncation_valuation")
    span(constructors, "truncation_quotient", "series.truncation_quotient")

    span(curves.Curve, "__post_init__", "curves.validate")

    span(cli, "construct", "constructors.construct")
    span(constructors, "construct_n_plus_ed", "constructors.n_plus_ed")

    span(cli, "reachability_verdict", "certify.verdict")
    for module in (cli, certify):
        span(module, "verify_certificate",
             lambda cert: "certify.verify." + cert.identity_kind,
             lambda result: None if result[0] else "rejected")
    for owner in (certify.TorsionCertificate, curves.Curve):
        span(owner, "from_json_dict", "certify.from_json")
    for attr in ("to_json_dict", "to_json_str"):
        span(certify.TorsionCertificate, attr, "certify.to_json")

    def order_field(curve, divisor, **_):
        gaussian = any(isinstance(c, GaussianRational) and c.im for c in divisor.v.coeffs)
        return "jacobian2.order_of." + ("gaussian" if gaussian else "rational")

    def add_bits(result):
        coeffs = result.u.coeffs + result.v.coeffs
        tracer.max_coeff_bits = max(tracer.max_coeff_bits, *map(_coeff_bits, coeffs))

    span(cli, "order_of", order_field)
    span(jacobian2, "add", "jacobian2.add", add_bits)
    span(jacobian2, "validate", "jacobian2.validate")

    def restore():
        while saved:
            owner, attr, raw = saved.pop()
            setattr(owner, attr, raw)

    return restore


# Units of the per-layer metrics, in report order.
LAYER_UNITS = {
    "scalars.gaussian_ops": "count",
    "scalars.gen_binom.calls": "count",
    "scalars.gen_binom.self_s": "s",
    "scalars.parse.calls": "count",
    "scalars.parse.self_s": "s",
    "polyring.mul.calls": "count",
    "polyring.mul.self_s": "s",
    "polyring.divmod.calls": "count",
    "polyring.divmod.self_s": "s",
    "polyring.xgcd.calls": "count",
    "polyring.xgcd.self_s": "s",
    "polyring.gcd.calls": "count",
    "polyring.gcd.self_s": "s",
    "series.truncated_binomial.calls": "count",
    "series.self_s": "s",
    "series.binomials_per_n_plus_ed": "ratio",
    "curves.validate.calls": "count",
    "curves.validate.incl_s": "s",
    "curves.validations_per_op": "ratio",
    "curves.rejected": "count",
    "constructors.construct.calls": "count",
    "constructors.construct.incl_s": "s",
    "constructors.candidates_tried": "count",
    "constructors.accept_ratio": "ratio",
    "certify.verdict.calls": "count",
    "certify.verdict.incl_s": "s",
    "certify.verify.calls": "count",
    "certify.verify.rejected": "count",
    "certify.verify.incl_s": "s",
    **{"certify.verify.%s.incl_s" % kind: "s" for kind in VERIFY_KINDS},
    "certify.from_json.incl_s": "s",
    "certify.to_json.incl_s": "s",
    "jacobian2.order_of.calls": "count",
    "jacobian2.order_of.rational.incl_s": "s",
    "jacobian2.order_of.gaussian.incl_s": "s",
    "jacobian2.add.calls": "count",
    "jacobian2.add.self_s": "s",
    "jacobian2.adds_per_order": "ratio",
    "jacobian2.validate.incl_s": "s",
    "jacobian2.max_coeff_bits": "bits",
    "jacobian2.traced_share": "frac",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

# Times that are exactly 0 on a workload where their layer never runs.  A
# time that reads 0 on every run cannot be told from a stuck clock, so the
# JSON result gives each of these as its share of the traced invocation
# time instead, named with ``_share`` in place of ``_s``.
SHARED_TIMES = (
    "scalars.gen_binom.self_s", "scalars.parse.self_s", "polyring.xgcd.self_s", "series.self_s",
    "constructors.construct.incl_s", "certify.verdict.incl_s",
    "certify.verify.two-torsion-link.incl_s", "certify.from_json.incl_s",
    "certify.to_json.incl_s", "jacobian2.order_of.rational.incl_s",
    "jacobian2.order_of.gaussian.incl_s", "jacobian2.add.self_s", "jacobian2.validate.incl_s",
)
LAYER_UNITS.update({name[:-2] + "_share": "frac" for name in SHARED_TIMES})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric of one traced pass, keyed as in LAYER_UNITS."""
    spans = tracer.spans
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]

    def has_ancestor(span, test) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if test(spans[parent][NAME]):
                return True
            parent = spans[parent][PARENT]
        return False

    calls, self_ns, incl_ns, tagged = Counter(), Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        calls[name] += 1
        self_ns[name] += duration - covered[i]
        if span[TAG] is not None:
            tagged[name] += 1
        if not has_ancestor(span, name.__eq__):
            incl_ns[name] += duration

    def group(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    candidates = sum(
        1 for span in spans
        if span[NAME] == "curves.validate"
        and has_ancestor(span, "constructors.construct".__eq__)
    )
    verify_calls = group(calls, "certify.verify.")
    constructions = calls["constructors.construct"] - tagged["constructors.construct"]
    verify_commands = tracer.counts["cli.verify"]
    orders = group(calls, "jacobian2.order_of.")
    s = 1e-9
    values = {
        "scalars.gaussian_ops": tracer.counts["scalars.gaussian_ops"],
        "scalars.gen_binom.calls": calls["scalars.gen_binom"],
        "scalars.gen_binom.self_s": self_ns["scalars.gen_binom"] * s,
        "scalars.parse.calls": calls["scalars.parse"],
        "scalars.parse.self_s": self_ns["scalars.parse"] * s,
        "polyring.mul.calls": calls["polyring.mul"],
        "polyring.mul.self_s": self_ns["polyring.mul"] * s,
        "polyring.divmod.calls": calls["polyring.divmod"],
        "polyring.divmod.self_s": self_ns["polyring.divmod"] * s,
        "polyring.xgcd.calls": calls["polyring.xgcd"],
        "polyring.xgcd.self_s": self_ns["polyring.xgcd"] * s,
        "polyring.gcd.calls": calls["polyring.gcd"],
        "polyring.gcd.self_s": self_ns["polyring.gcd"] * s,
        "series.truncated_binomial.calls": calls["series.truncated_binomial"],
        "series.self_s": group(self_ns, "series.") * s,
        "series.binomials_per_n_plus_ed": _ratio(
            calls["series.truncated_binomial"], calls["constructors.n_plus_ed"]),
        "curves.validate.calls": calls["curves.validate"],
        "curves.validate.incl_s": incl_ns["curves.validate"] * s,
        "curves.validations_per_op": _ratio(
            calls["curves.validate"], calls["constructors.construct"] + verify_commands),
        "curves.rejected": tagged["curves.validate"],
        "constructors.construct.calls": calls["constructors.construct"],
        "constructors.construct.incl_s": incl_ns["constructors.construct"] * s,
        "constructors.candidates_tried": candidates,
        "constructors.accept_ratio": _ratio(constructions, candidates),
        "certify.verdict.calls": calls["certify.verdict"],
        "certify.verdict.incl_s": incl_ns["certify.verdict"] * s,
        "certify.verify.calls": verify_calls,
        "certify.verify.rejected": group(tagged, "certify.verify."),
        "certify.verify.incl_s": group(incl_ns, "certify.verify.") * s,
        **{"certify.verify.%s.incl_s" % kind: incl_ns["certify.verify." + kind] * s
           for kind in VERIFY_KINDS},
        "certify.from_json.incl_s": incl_ns["certify.from_json"] * s,
        "certify.to_json.incl_s": incl_ns["certify.to_json"] * s,
        "jacobian2.order_of.calls": orders,
        "jacobian2.order_of.rational.incl_s": incl_ns["jacobian2.order_of.rational"] * s,
        "jacobian2.order_of.gaussian.incl_s": incl_ns["jacobian2.order_of.gaussian"] * s,
        "jacobian2.add.calls": calls["jacobian2.add"],
        "jacobian2.add.self_s": self_ns["jacobian2.add"] * s,
        "jacobian2.adds_per_order": _ratio(calls["jacobian2.add"], orders),
        "jacobian2.validate.incl_s": incl_ns["jacobian2.validate"] * s,
        "jacobian2.max_coeff_bits": tracer.max_coeff_bits,
        "jacobian2.traced_share": _ratio(
            group(incl_ns, "jacobian2.order_of."), incl_ns["cli.main"]),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_ns["cli.main"] * s,
        "cli.stdout_bytes": tracer.counts["cli.stdout_bytes"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for name in SHARED_TIMES:
        values[name[:-2] + "_share"] = _ratio(values[name], incl_ns["cli.main"] * s)
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
