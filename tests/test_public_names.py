"""Every public function, class and module-level constant of the package
serves a request.

A public name counts as used when `src/octica` (the CLI included) or `bench/`
reads it, by name, attribute or import, outside the statement that defines
it: a function that only calls itself, or a constant that only its own
assignment mentions, is unused.  Dunder names are left out.  A name that
only tests use belongs in `tests/local_checks.py`.
"""
import ast
from pathlib import Path

import octica


def _defined(node) -> set[str]:
    """Public names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def _read(node) -> set[str]:
    """Names a statement reads, by name, attribute or import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_public_names_are_used_outside_tests():
    src = sorted(Path(octica.__file__).parent.glob("*.py"))
    bench = sorted((Path(octica.__file__).parents[2] / "bench").glob("*.py"))
    assert src and bench
    defined, used = {}, set()
    for path in src + bench:
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            if path in src and names:
                defined.setdefault(path.stem, set()).update(names)
            used |= _read(node) - names
    unused = {module: names - used for module, names in defined.items() if names - used}
    assert unused == {}


def test_self_reference_is_not_use():
    # the rule above, on a module of its own
    tree = ast.parse("A = 1\n"
                     "def f(n):\n    return f(n - 1) if n else A\n"
                     "class C:\n    def copy(self):\n        return C()\n")
    used = set()
    for node in tree.body:
        used |= _read(node) - _defined(node)
    assert {"A", "f", "C"} - used == {"f", "C"}
