"""Every public function and class of the package serves a request.

A module-level public name counts as used when `src/octica` (the CLI
included) or `bench/` refers to it, by name, attribute or import.  The names
below are used only by tests today; the list may only shrink, and a name
leaves it once it is put to work, moved out of `src` or deleted.
"""
import ast
from pathlib import Path

import octica

TEST_ONLY = {
    "strata": {"hodge_hasse_edges", "normal_pipelines", "nonnormal_pipelines"},
}


def test_public_names_are_used_outside_tests():
    src = sorted(Path(octica.__file__).parent.glob("*.py"))
    bench = sorted((Path(octica.__file__).parents[2] / "bench").glob("*.py"))
    assert src and bench
    defined, used = {}, set()
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.setdefault(path.stem, set()).add(node.name)
    for path in src + bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = {module: names - used for module, names in defined.items() if names - used}
    assert unused == TEST_ONLY
