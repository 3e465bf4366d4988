from __future__ import annotations

import ast
from pathlib import Path

import sigdim


def test_no_assert_in_package():
    # Invariants must raise: `python -O` strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(sigdim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
