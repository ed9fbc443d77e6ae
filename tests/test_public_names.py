"""Every public function, class, method and module-level constant of the
package serves a request.

A public name counts as used when `src/octica` (the CLI included) or `bench/`
reads it, by name, attribute or import, outside the statement that defines
it: a function that only calls itself, or a constant that only its own
assignment mentions, is unused.  A method is a statement of its own, so a
sibling method's call is a use, but a class's own body reading the class's
name is not.  Dunder names are left out.  A name that only tests use belongs
in `tests/local_checks.py`.
"""
import ast
from pathlib import Path

import octica


def _defined(node) -> set[str]:
    """Public names a module-level statement or a method binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def _read(nodes) -> set[str]:
    """Names the nodes read, by name, attribute or import."""
    out = set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _statements(tree):
    """(nodes, public names they define, names read there without use) for
    each module-level statement; a class is split into its header and the
    statements of its body, and its own name is read there without use."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            yield [node], _defined(node), _defined(node)
            continue
        own = _defined(node)
        yield node.bases + node.keywords + node.decorator_list, own, own
        for stmt in node.body:
            names = _defined(stmt) if isinstance(stmt, ast.FunctionDef) else set()
            yield [stmt], names, names | own


def _unused(modules: dict[str, str], checked) -> dict[str, set[str]]:
    """Public names of the `checked` modules that no statement uses."""
    defined, used = {}, set()
    for module, text in modules.items():
        for nodes, names, skip in _statements(ast.parse(text)):
            if module in checked and names:
                defined.setdefault(module, set()).update(names)
            used |= _read(nodes) - skip
    return {module: names - used for module, names in defined.items() if names - used}


def test_public_names_are_used_outside_tests():
    src = sorted(Path(octica.__file__).parent.glob("*.py"))
    bench = sorted((Path(octica.__file__).parents[2] / "bench").glob("*.py"))
    assert src and bench
    modules = {f"{path.parent.name}/{path.stem}": path.read_text() for path in src + bench}
    assert _unused(modules, {f"octica/{path.stem}" for path in src}) == {}


def test_self_reference_is_not_use():
    # the rule above, on a module of its own
    text = ("A = 1\n"
            "def f(n):\n    return f(n - 1) if n else A\n"
            "class C:\n"
            "    def copy(self):\n        return C()\n"
            "    def size(self):\n        return self.half() * 2\n"
            "    def half(self):\n        return self.half()\n"
            "    def alone(self):\n        return self.alone()\n")
    assert _unused({"m": text}, {"m"}) == {"m": {"f", "C", "copy", "size", "alone"}}
