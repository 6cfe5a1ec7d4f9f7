"""The public surface and the benchmark's hooks into it.

``bench/tracer.py`` hooks entry points of the package by name, from
outside it; a deletion or rename under ``src/`` that drops one of those
names breaks the traced benchmark, which no other test here runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import torsionforge
from torsionforge import certify, cli, constructors, curves, jacobian2, polyring, series
from torsionforge.scalars import GaussianRational

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

HOOKED = (
    certify, cli, constructors, curves, jacobian2, polyring, series,
    GaussianRational, polyring.Poly, curves.Curve, certify.TorsionCertificate,
)


def test_every_public_name_resolves():
    missing = [name for name in torsionforge.__all__ if not hasattr(torsionforge, name)]
    assert missing == []


def test_tracer_install_and_restore(capsys):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = [dict(vars(owner)) for owner in HOOKED]

    tracer = tracer_module.Tracer()
    restore = tracer_module.install(tracer)
    try:
        assert cli.main(["construct", "--n", "5", "--d", "2", "--m", "7", "--oracle"]) == 0
    finally:
        restore()
    capsys.readouterr()

    names = {span[tracer_module.NAME] for span in tracer.spans}
    assert {"constructors.construct", "certify.verify.infinity-shift",
            "jacobian2.order_of.gaussian", "curves.validate"} <= names
    for owner, saved in zip(HOOKED, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is saved[key] for key in saved), owner
