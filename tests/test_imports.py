"""The package promises a pure standard library: every absolute import in
src/monicheb must name a standard-library module."""
import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "monicheb").glob("*.py"))


def absolute_imports(path):
    """(line, module name) for every absolute import in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "certify.py", "numpoly.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    for lineno, name in absolute_imports(path):
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names, f"{path.name}:{lineno} imports {name}"
