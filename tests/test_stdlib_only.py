"""The package imports nothing outside the standard library at run time."""
import ast
import sys
from pathlib import Path

import octica


def test_runtime_imports_are_stdlib_only():
    paths = sorted(Path(octica.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "octica" or top in sys.stdlib_module_names, (path.name, name)
