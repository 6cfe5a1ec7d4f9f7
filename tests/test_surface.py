"""The public surface and the benchmark's hooks into it.

``bench/tracer.py`` hooks entry points of the package by name, from
outside it; a deletion or rename under ``src/`` that drops one of those
names breaks the traced benchmark, which no other test here runs.  Every
exported name must also be used inside the package, so that surface only
tests reach does not build up again.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import torsionforge
from torsionforge import certify, cli, constructors, curves, jacobian2, polyring, series
from torsionforge.scalars import GaussianRational

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PACKAGE = Path(torsionforge.__file__).resolve().parent

HOOKED = (
    certify, cli, constructors, curves, jacobian2, polyring, series,
    GaussianRational, polyring.Poly, curves.Curve, certify.TorsionCertificate,
)


def test_every_public_name_resolves():
    missing = [name for name in torsionforge.__all__ if not hasattr(torsionforge, name)]
    assert missing == []


def _references(tree: ast.Module) -> set[str]:
    """Names read in a module, except a top-level definition's own name
    inside its body (a recursive call is not a use)."""
    found = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def test_every_public_name_is_used_inside_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _references(tree)
    dead = sorted(set(torsionforge.__all__) - used)
    assert dead == []


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
            "jacobian2.order_of.rational", "curves.validate"} <= names
    for owner, saved in zip(HOOKED, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is saved[key] for key in saved), owner
