"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

import pytest

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


def test_only_the_record_base_writes_fields():
    # A record's constructor hands its values to Record.__init__, the one
    # place that stores them past the base's refusal of assignment.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "records.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
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
        "entry", "items", "subclauses", "ordered", "minimal", "candidates"
    }
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "resolution.py" and "_AtomMap" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_public_names_resolve_lazily_to_their_definitions():
    # Each name of __all__ is the object its defining submodule holds,
    # reached through the package's module-level __getattr__.
    for name in kernelogic.__all__:
        value = getattr(kernelogic, name)
        assert value.__module__.startswith("kernelogic.")
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec("from kernelogic import *", namespace)
    assert set(kernelogic.__all__) <= namespace.keys()
    assert set(kernelogic.__all__) <= set(dir(kernelogic))
    with pytest.raises(AttributeError, match="no_such_name"):
        kernelogic.no_such_name


# The modules every CLI call loads, and the engines they must not load
# when they are imported: those load where a command runs them.
LIGHT_MODULES = (
    "__init__", "cli", "io_text", "kernels", "graphs", "clauses", "records", "errors"
)
ENGINES = {"resolution", "semantics", "oracle", "numpy"}


def imports(tree):
    """Each import statement of a module, with its targets and where it
    runs: ``"load"`` when the module is loaded, ``"call"`` inside a
    function body, ``"typing"`` under ``if TYPE_CHECKING:`` only."""
    stack = [(node, "load") for node in tree.body]
    while stack:
        node, place = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            place = "call"
        elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            stack += [(child, "typing") for child in node.body]
            stack += [(child, place) for child in node.orelse]
            continue
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names], place
        elif isinstance(node, ast.ImportFrom):
            yield node, [f"{node.module or ''}.{alias.name}" for alias in node.names], place
        stack += [(child, place) for child in ast.iter_child_nodes(node)]


def parsed(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imports_of(modules, banned, places=("load",)):
    """Where ``modules`` import a module named in ``banned``, in one of
    ``places`` (at load time by default)."""
    return [
        f"{name}.py:{node.lineno}:{target}"
        for name in modules
        for node, targets, place in imports(parsed(name))
        if place in places
        for target in targets
        if banned & set(target.split("."))
    ]


def test_light_modules_import_no_engine_at_load_time():
    assert imports_of(LIGHT_MODULES, ENGINES) == []


def test_no_module_imports_dataclasses_at_load_time():
    # Importing dataclasses loads inspect, ast, dis and tokenize, and
    # each decorated class execs generated code: the records are plain
    # slotted classes instead.
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py"))]
    assert imports_of(modules, {"dataclasses"}) == []


def test_no_module_imports_json():
    # io_text writes JSON itself, so no call loads json, whatever route
    # it takes: not when a module loads, nor inside a function.
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py"))]
    assert imports_of(modules, {"json", "_json"}, ("load", "call", "typing")) == []


def test_only_the_cli_imports_package_modules_inside_functions():
    # The CLI imports each engine in the commands that run it. Every
    # other module imports the package modules it needs when it loads,
    # so the package's imports run one way; numpy may still load where
    # it is used.
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"]
    found = [
        f"{name}.py:{node.lineno}"
        for name in modules
        for node, targets, place in imports(parsed(name))
        if place == "call"
        and (
            getattr(node, "level", 0)
            or any(target.split(".")[0] == "kernelogic" for target in targets)
        )
    ]
    assert found == []


def test_semantics_imports_nothing_from_resolution():
    # resolution builds on semantics, never the other way round.
    found = [
        f"semantics.py:{node.lineno}:{target}"
        for node, targets, _ in imports(parsed("semantics"))
        for target in targets
        if "resolution" in target.split(".")
    ]
    assert found == []


def test_closure_lookup_stays_in_resolution():
    # Every closure-backed query lives beside the closure it reads.
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "resolution.py" and "_closure_for" in path.read_text(encoding="utf-8")
    ]
    assert found == []
