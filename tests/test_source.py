"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import ucclcu

PACKAGE = Path(ucclcu.__file__).parent


def test_no_bare_assert_in_package():
    """`python -O` strips assert statements, so no correctness check in the
    package may be one."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_exported_name_resolves():
    """A name deleted from the package must leave `__all__` too."""
    missing = [name for name in ucclcu.__all__ if not hasattr(ucclcu, name)]
    assert not missing, missing
