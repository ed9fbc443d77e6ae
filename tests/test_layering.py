"""The modules form layers: each imports only modules before it in ORDER.

Imports inside functions count too.  The one exception is listed with the
function that makes it.
"""
import ast
from pathlib import Path

import octica

ORDER = ("strata", "poly", "parsing", "linalg", "linsys", "pointsearch", "singclass",
         "paramfam", "curveprofile", "witnesses", "verify", "cli")
# (module, function, imported module): the catalogue looks up which components
# have a witness recipe
EXCEPTIONS = {("strata", "build_catalogue", "witnesses")}


def _package_imports(tree):
    """(enclosing function or None, imported module) for every `from .x import`."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                out.append((function, child.module))
            else:
                visit(child, function)

    visit(tree, None)
    return out


def test_every_module_has_a_layer():
    package = Path(octica.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(ORDER)


def test_modules_import_only_earlier_layers():
    package = Path(octica.__file__).parent
    offenders = []
    for i, module in enumerate(ORDER):
        tree = ast.parse((package / f"{module}.py").read_text())
        for function, imported in _package_imports(tree):
            if imported not in ORDER[:i] and (module, function, imported) not in EXCEPTIONS:
                offenders.append((module, function, imported))
    assert offenders == []
