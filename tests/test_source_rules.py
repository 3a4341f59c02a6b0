"""Rules every module of the package follows, checked on its source."""

import ast
from pathlib import Path

import stshapeopt

PACKAGE = Path(stshapeopt.__file__).parent


def test_package_raises_named_errors_instead_of_asserting():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; failures must raise a package error instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
