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


def test_closure_internals_stay_in_resolution():
    # How a Closure stores its clauses is known to resolution.py alone:
    # no other module reads an _-prefixed attribute of a Closure.
    tree = ast.parse((PACKAGE / "resolution.py").read_text(encoding="utf-8"))
    (closure,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Closure"
    ]
    private = {
        node.attr
        for node in ast.walk(closure)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
    }
    private |= {
        node.name
        for node in closure.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    assert {"_parts", "_entry", "_search_parents"} <= private
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "resolution.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}:{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
    assert found == []


def test_both_kinds_of_part_answer_the_same_questions():
    # A Closure asks any part the same questions, in the part's cells;
    # and the atom map, the one bridge from universe masks to cells,
    # stays inside resolution.py.
    tree = ast.parse((PACKAGE / "resolution.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def questions(name):
        return {
            node.name
            for node in classes[name].body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }

    assert questions("_LatticePart") == questions("_PairwisePart")
    assert questions("_LatticePart") == {
        "entry", "items", "subclauses", "codes", "minimal", "sides"
    }
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "resolution.py" and "_AtomMap" in path.read_text(encoding="utf-8")
    ]
    assert found == []
