"""Properties of the package source itself."""

import ast
from pathlib import Path

import kernelogic

PACKAGE = Path(kernelogic.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant the package
    # relies on must raise explicitly.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_cli_imports_no_private_names():
    # The command line is built on what the other modules export.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}:{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("kernelogic"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
