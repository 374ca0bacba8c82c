"""Checks on the package source itself."""

import ast
from pathlib import Path

import coxtoric


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # must raise explicitly
    files = sorted(Path(coxtoric.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
