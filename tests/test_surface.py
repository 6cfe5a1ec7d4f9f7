"""The public surface and the benchmark's hooks into it.

``bench/tracer.py`` hooks entry points of the package by name, from
outside it; a deletion or rename under ``src/`` that drops one of those
names breaks the traced benchmark, which no other test here runs.  Every
public name of every module must also be used inside the package, so
that surface only tests reach does not build up again.  The package top
level exports exactly the names the README's library example imports.
The verifier's module imports none of the code that produces certificates.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import torsionforge
from torsionforge import certify, cli, constructors, curves, jacobian2, polyring, series
from torsionforge.scalars import GaussianRational

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
README = ROOT / "README.md"
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
    inside its body (a recursive call is not a use) and an attribute of a
    module imported whole (``math.gcd`` is no use of ``polyring.gcd``)."""
    modules = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    found = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in modules):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def _definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found |= {node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)}
    return found


# Public names that no code in the package calls, kept because
# bench/tracer.py hooks them by name: its install fails on a missing one.
# gen_binom is also the tests' Fraction reference for the binomial row.
HOOKED_ONLY = {"gcd", "gen_binom"}


def test_every_public_name_is_used_inside_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    used = set().union(*map(_references, trees))
    public = {name for tree in trees for name in _definitions(tree) if not name.startswith("_")}
    assert sorted(public - used) == sorted(HOOKED_ONLY)
    tracer = TRACER.read_text(encoding="utf-8")
    assert all('"%s"' % (name,) in tracer for name in HOOKED_ONLY)


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is read under node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_method_is_read_as_an_attribute_inside_the_package():
    """Each public method or property defined in a class body is read as an
    attribute somewhere in the package outside its own body, so that an
    alias only tests reach does not come back."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    read = sum(map(_attributes, trees), Counter())
    methods = ["%s.%s" % (cls.name, stmt.name)
               for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
               and read[stmt.name] <= _attributes(stmt)[stmt.name]]
    assert methods == []


# the stored form of a Poly, and the one function that normalises it
POLY_INTERNALS = {"_make", "_num", "_den"}


def test_only_polyring_touches_the_stored_form_of_a_poly():
    """No module but polyring imports or reads ``_make``, ``_num`` or ``_den``,
    by name, as an attribute or as a ``getattr`` string: every Poly is
    normalised by ``polyring._make``, looked up on the module, or is a shift
    of one, so a test that patches it there sees every numerator, and the
    stored numerators are read elsewhere only through polyring's accessors."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "polyring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Constant):
                names = {node.value}
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name) for name in names & POLY_INTERNALS]
    assert found == []


# the reachability verdict's vocabulary, which constructors holds
VERDICT_NAMES = (
    "Verdict", "reachability_verdict", "_VERDICT_RULES", "_FAMILIES",
    "STATUS_CONSTRUCTIVE", "STATUS_UNREACHABLE", "STATUS_UNDECIDED",
    "RULE_COVER_DEGREE", "RULE_CURVE_DEGREE", "RULE_DEGREE_FLOOR", "RULE_POLE_CONGRUENCE",
    "RULE_MULTIPLE_DEFICIT", "RULE_DIVISIBLE_MULTIPLE", "RULE_STEP_THRESHOLD",
    "RULE_CONGRUENT_STEP", "RULE_UNDECIDED",
)


def test_the_verifier_imports_no_code_that_produces_certificates():
    """certify.py, the verifier's trust base, imports from the package only
    scalars, polyring and curves, and binds no name of the verdict or of
    its family table."""
    tree = ast.parse((PACKAGE / "certify.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {"." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
               for node in imports for alias in node.names}
    package = {name for name in modules if name.startswith((".", "torsionforge"))}
    assert package == {".scalars", ".polyring", ".curves"}
    bound = _definitions(tree) | {alias.asname or alias.name for node in imports for alias in node.names}
    assert sorted(bound & set(VERDICT_NAMES)) == []
    assert all(hasattr(constructors, name) for name in VERDICT_NAMES)


def _library_usage() -> str:
    """The python block under the README's "Library usage" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library usage\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_library_example_runs_and_imports_the_whole_facade(capsys):
    code = _library_usage()
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "torsionforge"
                for alias in node.names}
    assert set(torsionforge.__all__) == imported
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "reachable-constructive divisible-multiple\n"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_install_and_restore(capsys):
    tracer_module = _tracer_module()
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
    # on genus 2, order_of builds K*D for K = min(2, ceil(7/2)) = 2 from the series of f,
    # validated once, and scans on to the half-way point of m = 7 in ceil(7/2) - 2 = 2 adds
    counts = Counter(span[tracer_module.NAME] for span in tracer.spans)
    assert counts["jacobian2.add"] == 2
    assert counts["jacobian2.validate"] == 2 + 1
    assert tracer.max_coeff_bits > 0
    for owner, saved in zip(HOOKED, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is saved[key] for key in saved), owner


def test_traced_n5_ladder_counts(capsys):
    """construct --oracle over the n = 5, d = 2 ladder, traced: order_of
    starts from K*D for K = min(g, ceil(m/2)) = min(2, ceil(m/2)) built from
    the series of f and validated once, for every order (K = 1 at m = 2,
    whose point has y = 0), then its half-way scan takes ceil(m/2) - K adds
    per order (16 in all), each validated, each of the 8 curves is validated
    once, and each n-plus-ed order (7, 9, 11) builds its truncated binomial once."""
    ladder = (2, 5, 6, 7, 8, 9, 10, 11)
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    restore = tracer_module.install(tracer)
    try:
        for m in ladder:
            assert cli.main(["construct", "--n", "5", "--d", "2", "--m", str(m), "--oracle"]) == 0
    finally:
        restore()
    capsys.readouterr()

    counts = Counter(span[tracer_module.NAME] for span in tracer.spans)
    halves = [-(-m // 2) for m in ladder]
    assert counts["jacobian2.add"] == sum(h - min(2, h) for h in halves) == 16
    assert counts["jacobian2.validate"] == counts["jacobian2.add"] + len(ladder) == 16 + 8
    assert counts["curves.validate"] == 8
    assert counts["series.truncated_binomial"] == 3
