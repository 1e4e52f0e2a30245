"""Every name a public ``__all__`` lists exists, every exported name has a
caller, every private name is loaded in its module, every config knob is
read by the run, no module imports another's private names, no public
signature names a private type, every expected-failure marker of the
tests names the exception it expects and an open ROADMAP item, and the
work pins of the extraction count its work through public names only.

A string left in ``__all__`` after its name is deleted breaks only
``from module import *``, which no other test does.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path

import pytest

import fuzzystab
from fuzzystab import extraction, harness

MODULES = ["fuzzystab"] + [
    f"fuzzystab.{info.name}" for info in pkgutil.iter_modules(fuzzystab.__path__)
]

PACKAGE = Path(fuzzystab.__file__).parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

#: Exported names that only ``test_acceptance.py`` calls, each with its criterion.
UNCALLED = {
    "residual_quadratic": "criterion 5: the quadratic component satisfies its law",
    "residual_additive": "criterion 5: the additive component satisfies its law",
    "uniqueness_crosscheck": "criterion 9: two index windows give one limit",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert sorted(n for n in exported if not hasattr(module, n)) == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_the_package_and_its_library_modules_declare_all():
    for name in ("fuzzystab", "control", "extraction", "funceq", "harness", "spaces"):
        module = importlib.import_module(name if name == "fuzzystab" else f"fuzzystab.{name}")
        assert hasattr(module, "__all__"), name


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore marks a name its module may change at will
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("fuzzystab"):
                continue
            offenders += [
                f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []


def _private_annotations(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """The underscore names that the function's annotations mention."""
    args = function.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    annotations = [a.annotation for a in every if a is not None] + [function.returns]
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for annotation in annotations
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Name) and node.id.startswith("_")
        or isinstance(node, ast.Attribute) and node.attr.startswith("_")
    ]


def test_no_public_signature_names_a_private_type():
    # a caller of a public function or method must be able to name what it
    # passes and gets without reaching for a name its module may change
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"fuzzystab.{path.stem}")
        exported = set(getattr(module, "__all__", ()))
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions) and node.name in exported:
                public = [node]
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                public = [m for m in node.body if isinstance(m, functions)]
                public = [m for m in public if not m.name.startswith("_")]
            else:
                continue
            offenders += [
                f"{path.name}: {function.name}: {name}"
                for function in public
                for name in _private_annotations(function)
            ]
    assert offenders == []


def test_every_exported_function_has_a_caller():
    # every name a library module exports (function, class or constant) has
    # a caller: a name load (f or module.f) in the library or the benchmark
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    loaded = set()
    for path in sources + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    exported = {n for module in modules for n in getattr(module, "__all__", ())}
    assert UNCALLED.keys() <= exported
    assert sorted(exported - loaded - UNCALLED.keys()) == []


def _private_definitions(statement: ast.stmt) -> list[str]:
    """The one-underscore names that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_loaded_in_its_module():
    # a top-level private name (function, class or assignment) that its own
    # module never loads outside its definition is dead code: nothing else
    # may import it
    dead, checked = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for statement in body:
            for name in _private_definitions(statement):
                checked += 1
                loaded = (
                    node
                    for other in body
                    if other is not statement
                    for node in ast.walk(other)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id == name
                )
                if next(loaded, None) is None:
                    dead.append(f"{path.name}: {name}")
    assert checked > 0 and dead == []


def test_every_config_knob_is_read_by_the_run():
    # a knob that run_pipeline ignores would accept a value that changes nothing
    tree = ast.parse(inspect.getsource(harness.run_pipeline))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == "cfg"
    }
    knobs = {f.name for f in fields(harness.ExperimentConfig) if f.metadata}
    assert knobs and sorted(knobs - read) == []


def test_the_work_pins_load_no_private_name_of_the_extraction():
    # test_work_counts.py counts the extraction's work through public names
    # (rows of f, norms, extract_limit calls), so that a refactor of its
    # private helpers that keeps the work keeps the pins: no extraction._x
    # attribute, no imported _x, and no string "_x" that names one
    private = {n for n in vars(extraction) if n.startswith("_") and not n.startswith("__")}
    loaded = []
    for node in ast.walk(ast.parse((TESTS / "test_work_counts.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "extraction":
            loaded.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "fuzzystab.extraction":
            loaded += [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded.append(node.value)
    assert private and sorted(set(loaded) & private) == []


def test_every_xfail_marker_names_the_exception_it_expects():
    # an expected failure without raises= also counts a TypeError or an
    # AttributeError as expected, so a case that API drift breaks would pass
    offenders = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "pytest.mark.xfail":
                call = calls.get(id(node))
                if call is None or "raises" not in {k.arg for k in call.keywords}:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


#: A ledger reason opens with the open ROADMAP item or items meant to fix it.
LEDGER_REASON = re.compile(r"ROADMAP (?:item (\d+)|items (\d+) and (\d+))\b")


def _open_items() -> set[int]:
    """The numbers of the item headings under "## Open items" in ROADMAP.md."""
    text = (TESTS.parent / "ROADMAP.md").read_text(encoding="utf-8")
    section = text.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.M)}


def _marked(module) -> Iterator[tuple[str, object]]:
    """(name, object) of each test function and test class of ``module``,
    and of each test method of its classes: what pytest reads marks from."""
    for name, test in vars(module).items():
        if name.startswith("Test") and isinstance(test, type):
            yield name, test
            yield from ((f"{name}::{m}", v) for m, v in vars(test).items() if m.startswith("test"))
        elif name.startswith("test"):
            yield name, test


def _xfail_reasons() -> list[tuple[str, object]]:
    """(test, reason) of every expected-failure marker of the tests: on a
    test, or on a case of its parametrization.  Cases that a generator
    hands to the parametrization are read again from their module's
    ``_cells()``, as pytest has used up the generator."""
    reasons = []
    for path in sorted(TESTS.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, test in _marked(module):
            for mark in getattr(test, "pytestmark", []):
                if mark.name == "xfail":
                    reasons.append((f"{path.stem}::{name}", mark.kwargs.get("reason")))
                if mark.name != "parametrize":
                    continue
                cases = mark.args[1]
                if isinstance(cases, Iterator):
                    cases = module._cells()
                reasons += [
                    (f"{path.stem}::{name}[{case.id}]", marked.kwargs.get("reason"))
                    for case in cases
                    for marked in getattr(case, "marks", ())
                    if marked.name == "xfail"
                ]
    return reasons


def test_every_xfail_reason_names_an_open_roadmap_item():
    # each expected failure is a wrong verdict or a missed fault that an
    # open item is meant to fix; its reason names that item, whose fix
    # removes the marker, so the ledger and the ROADMAP stay one list
    open_items, reasons = _open_items(), _xfail_reasons()
    offenders = []
    for test, reason in reasons:
        named = LEDGER_REASON.match(reason) if isinstance(reason, str) else None
        items = {int(n) for n in named.groups() if n} if named else set()
        if not items or not items <= open_items:
            offenders.append(f"{test}: {reason!r}")
    assert reasons and offenders == []
