"""Every name a public ``__all__`` lists exists, and no module imports
another's private names.

A string left in ``__all__`` after its name is deleted breaks only
``from module import *``, which no other test does.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fuzzystab

MODULES = ["fuzzystab"] + [
    f"fuzzystab.{info.name}" for info in pkgutil.iter_modules(fuzzystab.__path__)
]


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
    package = Path(fuzzystab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("fuzzystab"):
                continue
            offenders += [
                f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []
