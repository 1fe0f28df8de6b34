"""Every exported name has a caller inside the package."""

import ast
from pathlib import Path

import nashflow


def _names_read_outside_init():
    """Names the package modules other than ``__init__`` read or import."""
    names = set()
    for path in Path(nashflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller_in_the_package():
    orphans = set(nashflow.__all__) - _names_read_outside_init()
    assert sorted(orphans) == []
