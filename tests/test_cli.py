"""End-to-end command line behavior, including exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import cli
from kernelogic.cli import main
from kernelogic.io_text import (
    CLAUSE_SET,
    EDGE_LIST,
    format_graph,
    format_theory,
    json_chunks,
    parse_clause,
    parse_document,
    sorted_clause_strings,
    to_json,
)

from test_io import DELTA_TEXT
from test_kernels import component_unions, small_graphs

LEWIS_TEXT = "a\n~a\nb ~b\n"


@pytest.fixture()
def delta_file(tmp_path):
    path = tmp_path / "delta.gnf"
    path.write_text(DELTA_TEXT)
    return str(path)


@pytest.fixture()
def lewis_file(tmp_path):
    path = tmp_path / "lewis.clauses"
    path.write_text(LEWIS_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_models_human(capsys, delta_file):
    code, out, _ = run(capsys, "models", delta_file)
    assert code == 0
    assert out.strip() == "true={a} false={a',b} paradox={c,d,e}"


def test_models_json(capsys, delta_file):
    code, out, _ = run(capsys, "models", delta_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["result"] == [
        {"true": ["a"], "false": ["a'", "b"], "paradox": ["c", "d", "e"]}
    ]


def test_kernels_and_semikernels(capsys, delta_file):
    code, out, _ = run(capsys, "kernels", delta_file)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "semikernels", delta_file)
    assert code == 0
    assert out.splitlines() == ["{}", "{a}", "{a'}"]


def test_oracle_flag_matches(capsys, delta_file):
    _, engine, _ = run(capsys, "models", delta_file)
    _, oracle, _ = run(capsys, "models", delta_file, "--oracle")
    assert engine == oracle


def test_paradox_and_subdiscourse(capsys, delta_file):
    code, out, _ = run(capsys, "paradox", delta_file)
    assert code == 0 and out.strip() == "{c,d,e}"

    code, out, _ = run(capsys, "subdiscourse", delta_file)
    assert code == 0
    lines = out.splitlines()
    assert "paradox: {c,d,e}" in lines
    assert "border: {b}" in lines
    assert "  ~b" in lines


def test_closure_and_min(capsys, delta_file):
    code, out, _ = run(capsys, "closure", delta_file)
    assert code == 0
    assert out.splitlines()[0] == "[]"

    code, out, _ = run(capsys, "min", delta_file)
    assert code == 0
    listed = set(out.splitlines())
    assert {"a", "~a'", "~b", "c", "~c", "d", "~d", "e", "~e"} <= listed


def test_prove_exit_codes_and_trace(capsys, delta_file):
    code, out, _ = run(capsys, "prove", "~b", delta_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1. ") and "[input]" in lines[0]
    assert lines[-1].endswith("on c]")
    code, out, _ = run(capsys, "prove", "b", delta_file)
    assert code == 1
    assert "not provable" in out


def test_prove_weakening_lewis(capsys, lewis_file):
    assert run(capsys, "prove", "b", lewis_file, "--weakening", "cw")[0] == 0
    assert run(capsys, "prove", "b", lewis_file, "--weakening", "awbw")[0] == 1
    assert run(capsys, "prove", "b", lewis_file)[0] == 1
    # Weakening among paradoxical atoms is allowed.
    assert run(capsys, "prove", "a ~a", lewis_file, "--weakening", "awbw")[0] == 0


DEMO_DATA = Path(__file__).parent.parent / "demos" / "data"

PINNED_PROOFS = {
    ("lewis.clauses", "b", "cw"): (
        0,
        """\
1. a [input]
2. ~a [input]
3. [] [res 1 2 on a]
b [weakening from []]
""",
    ),
    ("lewis.clauses", "b", "awbw"): (1, "not provable under weakening mode 'awbw'\n"),
    ("lewis.clauses", "a b ~b", "cw"): (
        0,
        """\
1. a [input]
2. ~a [input]
3. [] [res 1 2 on a]
a b ~b [weakening from []]
""",
    ),
    ("lewis.clauses", "a b ~b", "awbw"): (
        0,
        """\
1. b ~b [input]
a b ~b [weakening from b ~b]
""",
    ),
    ("delta.gnf", "c d e", "cw"): (
        0,
        """\
1. c d [input]
2. c e [input]
3. ~d ~e [input]
4. c ~d [res 2 3 on e]
5. c [res 1 4 on d]
6. d e [input]
7. ~c ~e [input]
8. ~c d [res 6 7 on e]
9. ~c ~d [input]
10. ~c [res 8 9 on d]
11. [] [res 5 10 on c]
c d e [weakening from []]
""",
    ),
    ("delta.gnf", "c d e", "awbw"): (
        0,
        "c d e [weakening: all atoms provably paradoxical]\n",
    ),
    ("delta.gnf", "~b c", "awbw"): (
        0,
        """\
1. c d [input]
2. ~b ~c [input]
3. ~b d [res 1 2 on c]
4. c e [input]
5. ~d ~e [input]
6. c ~d [res 4 5 on e]
7. ~b c [res 3 6 on d]
""",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_PROOFS), ids="|".join)
def test_prove_weakening_output_is_pinned(capsys, case):
    name, goal, mode = case
    code, out, _ = run(capsys, "prove", goal, str(DEMO_DATA / name), "--weakening", mode)
    assert (code, out) == PINNED_PROOFS[case]


def test_entails_variants(capsys, delta_file):
    assert run(capsys, "entails", "~b", delta_file)[0] == 0
    assert run(capsys, "entails", "a' c", delta_file)[0] == 1
    assert run(capsys, "entails", "c ~d e", delta_file)[0] == 0
    assert run(capsys, "entails", "~b", delta_file, "--classical")[0] == 0

    code, out, _ = run(capsys, "entails", "a'", delta_file, "--semantic")
    assert code == 1
    assert "countermodel" in out

    code, out, _ = run(capsys, "entails", "~b c", delta_file, "--semantic", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["via"]["witness"] == "~b"


def test_relevant(capsys, delta_file):
    assert run(capsys, "relevant", "~b", delta_file)[0] == 0
    assert run(capsys, "relevant", "a ~b", delta_file)[0] == 1


def test_usage_and_parse_errors(capsys, tmp_path, delta_file):
    bad = tmp_path / "bad.gnf"
    bad.write_text("a : b\n")
    code, _, err = run(capsys, "models", str(bad))
    assert code == 2 and "loose atom" in err

    # A bare clause set cannot answer graph questions.
    cs = tmp_path / "t.clauses"
    cs.write_text("a ~b\n")
    code, _, err = run(capsys, "models", str(cs))
    assert code == 2 and "edge-list" in err

    code, _, err = run(capsys, "entails", "zz", delta_file)
    assert code == 2 and "unknown atom" in err

    assert run(capsys, "nonsense")[0] == 2
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["prove", "entails", "relevant"])
@pytest.mark.parametrize("blank", ["", "  "])
def test_a_blank_clause_argument_is_refused(capsys, tmp_path, delta_file, command, blank):
    # The empty clause is spelled "[]"; a blank argument is no clause at
    # all, on a graph input and on a one-line theory alike.
    sink = tmp_path / "sink.gnf"
    sink.write_text("a :\n")
    for path in (delta_file, str(sink)):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, command, blank, path, *extra)
            assert (code, out) == (2, "")
            assert err == "error: no clause given; the empty clause is spelled '[]'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-random", "--count", "-2"],
        ["check-random", "--n", "-1", "--count", "1"],
        ["check-random", "--p", "1.5", "--count", "1"],
        ["check-random", "--p", "-0.1", "--count", "1"],
        ["check-random", "--p", "nan", "--count", "1"],
        ["closure", "--max-clauses", "-5"],
        ["models", "--max-atoms", "-1"],
    ],
    ids=" ".join,
)
def test_invalid_numeric_flags_are_usage_errors(capsys, delta_file, argv):
    inputs = [] if argv[0] == "check-random" else [delta_file]
    code, out, err = run(capsys, *argv, *inputs)
    assert code == 2 and out == ""
    assert f"argument {argv[1]}:" in err


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_parse_errors_count_lines_by_newline(capsys, tmp_path, char):
    path = tmp_path / "f.gnf"
    path.write_text(f"a :{char}b$ : a\n", encoding="utf-8")
    code, out, err = run(capsys, "models", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1, column 5: invalid atom 'b$'\n"


def test_a_bare_carriage_return_does_not_end_a_line(capsys, monkeypatch, tmp_path):
    text = "a : b\rb$ :\n"
    path = tmp_path / "cr.gnf"
    path.write_bytes(text.encode())
    code, out, err = run(capsys, "models", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1, column 7: invalid atom 'b$'\n"

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, err = run(capsys, "models", "-")
    assert code == 2 and out == ""
    assert err == "error: line 1, column 7: invalid atom 'b$'\n"

    path.write_bytes(b"a : b\r\nb$ :\r\n")
    code, out, err = run(capsys, "models", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 2, column 1: invalid atom 'b$'\n"


def test_clause_argument_errors_name_their_line(capsys, delta_file):
    code, out, err = run(capsys, "prove", "a\nb$", delta_file)
    assert code == 2 and out == ""
    assert err == "error: line 2, column 1: invalid literal 'b$'\n"


def test_complete_loose_flag(capsys, tmp_path):
    path = tmp_path / "loose.gnf"
    path.write_text("a : b\n")
    code, out, _ = run(capsys, "kernels", str(path), "--complete-loose")
    assert code == 0
    assert out.splitlines() == ["{b}", "{a,b'}"]


def test_resource_caps(capsys, delta_file):
    code, _, err = run(capsys, "closure", delta_file, "--max-clauses", "10")
    assert code == 3 and "exceeded" in err
    code, _, err = run(capsys, "models", delta_file, "--max-atoms", "3")
    assert code == 3


@pytest.mark.parametrize("command", ["kernels", "semikernels", "models"])
def test_oracle_listings_keep_the_enumeration_cap(capsys, monkeypatch, delta_file, command):
    # The cap refuses the graph before the brute-force scan starts, as
    # on the engine path.
    def scanned(graph):
        raise AssertionError("the brute-force scan ran past --max-atoms")

    monkeypatch.setattr(f"kernelogic.oracle.brute_{command}", scanned)
    assert run(capsys, command, delta_file, "--max-atoms", "3", "--oracle") == (
        3,
        "",
        "error: graph has 6 atoms, enumeration cap is 3\n",
    )


def test_prove_json_writes_the_verdict_without_a_proof(capsys, monkeypatch, lewis_file):
    def unwritten(*args):
        raise AssertionError("--json writes no proof text")

    monkeypatch.setattr("kernelogic.resolution.proof_of", unwritten)
    monkeypatch.setattr("kernelogic.resolution.weakening_witness", unwritten)
    for goal, mode, yes in [("a", "none", True), ("b", "cw", True), ("b", "awbw", False)]:
        code, out, err = run(capsys, "prove", goal, lewis_file, "--weakening", mode, "--json")
        assert (code, json.loads(out)["result"], err) == (int(not yes), yes, "")


def test_wide_paradox_exits_3_promptly(capsys, tmp_path):
    # A connected 12-atom component runs pairwise rounds, whose count
    # of resolved pairs is capped along with the clauses.
    graph = kl.random_digraph(kl.RandomGraphSpec(12, 0.2, 0))
    path = tmp_path / "wide.clauses"
    lines = sorted_clause_strings(kl.clausal_theory(graph).clauses)
    path.write_text("".join(line + "\n" for line in lines))
    start = time.perf_counter()
    code, out, err = run(capsys, "paradox", str(path))
    assert code == 3 and out == ""
    assert "clause pairs" in err
    assert time.perf_counter() - start < 30


def test_wide_graph_paradox_answers_from_its_models(capsys, tmp_path):
    # The same 12-atom component as a graph: no closure is built.
    graph = kl.random_digraph(kl.RandomGraphSpec(12, 0.2, 0))
    path = tmp_path / "wide.gnf"
    path.write_text(format_theory(kl.graph_to_theory(graph)))
    start = time.perf_counter()
    code, out, err = run(capsys, "paradox", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "{}\n", "")


def small_components_union(sizes, seed):
    """Disjoint random components (p 0.5, self-loops included) of the
    given sizes; atom j of component k is named ``x{j}_{k}``."""
    names, edges = [], []
    for k, n in enumerate(sizes):
        part = kl.random_digraph(kl.RandomGraphSpec(n, 0.5, seed + k))
        rename = {v: f"x{j}_{k}" for j, v in enumerate(part.vertices)}
        names += rename.values()
        edges += [(rename[a], rename[b]) for a, b in part.edges]
    return kl.Digraph(names, edges)


def test_paradox_counts_atoms_per_component(capsys, tmp_path):
    graph = small_components_union((5, 5, 4, 4, 4, 4, 4, 4), 60)
    bad = kl.paradoxical_atoms(kl.saturate(kl.clausal_theory(graph)))
    assert len(graph.vertices) == 34 and bad
    path = tmp_path / "union.gnf"
    path.write_text(format_theory(kl.graph_to_theory(graph)))
    code, out, err = run(capsys, "paradox", str(path))
    assert (code, out, err) == (0, "{" + ",".join(sorted(bad)) + "}\n", "")
    code, out, err = run(capsys, "models", str(path))
    assert code == 3 and out == ""
    assert "34 atoms" in err


def test_models_cap_counts_every_component(capsys, tmp_path):
    path = tmp_path / "wide.gnf"
    path.write_text("".join(f"v{i:02d} :\n" for i in range(21)))
    code, out, err = run(capsys, "models", str(path))
    assert code == 3 and out == ""
    assert "21 atoms" in err
    code, out, err = run(capsys, "entails", "v00", str(path), "--semantic")
    assert (code, out, err) == (0, "yes (healthy-witness)\nwitness: v00\n", "")
    # One connected component over the cap still exits 3 on entails --semantic.
    path = tmp_path / "path.gnf"
    path.write_text("".join(f"v{i:02d} : v{i + 1:02d}\n" for i in range(20)) + "v20 :\n")
    code, out, err = run(capsys, "entails", "v00", str(path), "--semantic")
    assert code == 3 and out == ""
    assert "cap of 20 atoms" in err


# Runs the CLI calls given as JSON in argv[1] in one fresh interpreter.
# Prints the package modules (and numpy) loaded by ``import kernelogic``,
# then one JSON line per call: its exit code, its stdout, and what is
# loaded after it.
ROUTE_SCRIPT = """
import contextlib, io, json, sys
import kernelogic

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("kernelogic", "numpy"))

print(json.dumps(loaded()))
from kernelogic import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    print(json.dumps({"code": code, "out": out.getvalue(), "loaded": loaded()}))
"""

ENGINES = ("kernelogic.oracle", "kernelogic.resolution", "kernelogic.semantics", "numpy")


def run_routes(*argvs):
    """The modules ``import kernelogic`` loads, and per call in order
    its exit code, stdout lines and the engines loaded after it."""
    proc = subprocess.run(
        [sys.executable, "-c", ROUTE_SCRIPT, json.dumps(argvs)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    first, *calls = map(json.loads, proc.stdout.splitlines())
    return first, [
        (call["code"], call["out"].splitlines(), set(call["loaded"]) & set(ENGINES))
        for call in calls
    ]


def test_graph_commands_do_not_import_numpy():
    # Neither resolution nor numpy loads on the model route, semantics
    # only for the commands that call it, and oracle only for --oracle.
    demo = str(DEMO_DATA / "delta.gnf")
    first, calls = run_routes(
        ["models", demo],
        ["kernels", demo],
        ["semikernels", demo],
        ["paradox", demo],
        ["entails", "c ~d e", demo],
        ["min", demo],
        ["relevant", "~b", demo],
        ["subdiscourse", demo],
        ["entails", "~b c", demo, "--semantic"],
        ["entails", "~b c", demo, "--classical"],
        ["models", demo, "--oracle"],
    )
    assert first == ["kernelogic"]
    assert [code for code, _, _ in calls] == [0] * 11
    assert [engines for _, _, engines in calls] == [set()] * 7 + [
        {"kernelogic.semantics"}
    ] * 3 + [{"kernelogic.semantics", "kernelogic.oracle"}]
    out = [lines for _, lines, _ in calls]
    assert out[0] == ["true={a} false={a',b} paradox={c,d,e}"]
    assert out[1:3] == [[], ["{}", "{a}", "{a'}"]]
    assert out[3] == ["{c,d,e}"]
    assert out[4] == ["yes"]
    assert out[5] == ["a", "~a'", "~b", "c", "~c", "d", "~d", "e", "~e"]
    assert out[6] == ["yes"]
    assert out[7][0] == "paradox: {c,d,e}"
    assert out[8] == ["yes (healthy-witness)", "witness: ~b"]
    assert out[9] == ["yes"]
    assert out[10] == out[0]


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["check-random", "--count", "2"], {"kernelogic.oracle"}),
        (["closure", "delta.gnf"], {"kernelogic.resolution", "kernelogic.semantics", "numpy"}),
        (["prove", "c", "delta.gnf"], {"kernelogic.resolution", "kernelogic.semantics", "numpy"}),
        # Every component of lewis.clauses has at most 3 atoms: it closes
        # pairwise, with no numpy.
        (["paradox", "lewis.clauses"], {"kernelogic.resolution", "kernelogic.semantics"}),
        # A 14-atom chain is one component too wide for a lattice: its
        # closure, witness, proof and listing need no numpy.
        (
            ["prove", "x05 x07", "chain.clauses", "--weakening", "cw"],
            {"kernelogic.resolution", "kernelogic.semantics"},
        ),
        (
            ["prove", "x05 x07", "chain.clauses", "--weakening", "awbw"],
            {"kernelogic.resolution", "kernelogic.semantics"},
        ),
        (["closure", "chain.clauses"], {"kernelogic.resolution", "kernelogic.semantics"}),
        (
            ["closure", "chain.clauses", "--json"],
            {"kernelogic.resolution", "kernelogic.semantics"},
        ),
    ],
)
def test_the_closure_and_the_oracle_load_only_where_they_run(tmp_path, argv, engines):
    # chain.clauses is x00, ~x00 x01, ..., ~x12 x13.
    chain = tmp_path / "chain.clauses"
    chain.write_text("x00\n" + "".join(f"~x{i:02d} x{i + 1:02d}\n" for i in range(13)))
    argv = [
        str(chain if arg == chain.name else DEMO_DATA / arg)
        if arg.endswith((".gnf", ".clauses"))
        else arg
        for arg in argv
    ]
    _, [(code, _, loaded)] = run_routes(argv)
    assert (code, loaded) == (0, engines)


def test_closures_of_components_up_to_3_atoms_load_no_numpy():
    # Every component of these demos has at most 3 atoms, so their
    # closures, witnesses, proofs and listings are all pairwise.
    _, calls = run_routes(
        ["prove", "~f", str(DEMO_DATA / "f2.gnf")],
        ["closure", str(DEMO_DATA / "f1.gnf"), "--json"],
        ["entails", "b", str(DEMO_DATA / "lewis.clauses")],
        ["prove", "b", str(DEMO_DATA / "loop_chain.edges"), "--weakening", "awbw"],
    )
    closure_route = {"kernelogic.resolution", "kernelogic.semantics"}
    assert [(code, loaded) for code, _, loaded in calls] == [
        (0, closure_route),
        (0, closure_route),
        (1, closure_route),
        (0, closure_route),
    ]


def test_python_m_kernelogic_paradox_loads_no_engine():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "kernelogic", "paradox", str(DEMO_DATA / "delta.gnf")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "{c,d,e}\n")
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"kernelogic", "kernelogic.cli", "kernelogic.kernels"} <= imported
    assert imported.isdisjoint(ENGINES)


# Site hooks load standard modules before any script runs, and which
# ones differs between machines: only those loaded after the snapshot
# count. The script imports no json itself.
STDLIB_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
from kernelogic import cli
for command in ("paradox", "models"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, sys.argv[1]]) == 0
print(" ".join(sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before))))
"""


def test_text_output_calls_load_no_dataclasses_inspect_or_json():
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_SCRIPT, str(DEMO_DATA / "delta.gnf")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


# The same for --json calls, one fresh interpreter per call: the closure
# route loads numpy, and numpy loads inspect.
JSON_STDLIB_SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
from kernelogic import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) in (0, 1)
print(" ".join(sorted({"dataclasses", "json"} & (set(sys.modules) - before))))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["paradox"],
        ["models"],
        ["closure"],
        ["subdiscourse"],
        ["entails", "~b c"],
        ["entails", "~b c", "--semantic"],
        ["prove", "c"],
        ["min"],
        ["check-random", "--count", "2"],
    ],
    ids=" ".join,
)
def test_json_output_calls_load_no_json(argv):
    if argv[0] != "check-random":
        argv = [*argv, str(DEMO_DATA / "delta.gnf")]
    proc = subprocess.run(
        [sys.executable, "-c", JSON_STDLIB_SCRIPT, *argv, "--json"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_unknown_atom_error_does_not_depend_on_the_hash_seed():
    # --max-atoms 0 sends entails to the closure.
    f2 = str(DEMO_DATA / "f2.gnf")
    script = (
        "from kernelogic.cli import main\n"
        "for route in ([], ['--max-atoms', '0'], ['--semantic'], ['--classical']):\n"
        f"    assert main(['entails', 'A ~contingent', {f2!r}] + route) == 2\n"
        f"assert main(['prove', 'A ~contingent', {f2!r}]) == 2\n"
        "for route in ([], ['--max-atoms', '0']):\n"
        f"    assert main(['relevant', 'A ~contingent', {f2!r}] + route) == 2\n"
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0 and proc.stdout == ""
        assert proc.stderr == "error: unknown atom 'A'\n" * 7


def test_relevant_errors_match_the_closure_route(capsys, delta_file):
    # --max-atoms 0 sends relevant to the closure.
    for goal, message in (
        ("[]", "relevance is undefined for the empty clause"),
        ("zz a", "unknown atom 'zz'"),
    ):
        expected = (2, "", f"error: {message}\n")
        assert run(capsys, "relevant", goal, delta_file) == expected
        assert run(capsys, "relevant", goal, delta_file, "--max-atoms", "0") == expected


def symmetric_digraph(spec):
    """The random graph of ``spec`` with every edge made two-way and the
    loops dropped: its kernels are its maximal independent sets."""
    graph = kl.random_digraph(spec)
    edges = {(a, b) for a, b in graph.edges if a != b}
    return kl.Digraph(graph.vertices, edges | {(b, a) for a, b in edges})


def test_min_on_many_models_answers_and_caps_promptly(capsys, tmp_path):
    # One connected 20-atom component with 99 models and 3,133 minimal
    # clauses, far past the closure's reach; naive dualization of its
    # models takes tens of seconds.
    graph = symmetric_digraph(kl.RandomGraphSpec(20, 0.15, 1))
    assert len(kl.models(graph)) == 99
    path = tmp_path / "symmetric.gnf"
    path.write_text(format_theory(kl.graph_to_theory(graph)))
    start = time.perf_counter()
    code, out, err = run(capsys, "min", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0 and err == "" and len(out.splitlines()) == 3133
    start = time.perf_counter()
    code, out, err = run(capsys, "min", str(path), "--max-clauses", "3132")
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (3, "", "error: minimal clauses exceeded 3132\n")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a -> b\nb -> a\n")))
    code, out, _ = run(capsys, "kernels")
    assert code == 0
    assert out.splitlines() == ["{a}", "{b}"]


def test_check_random(capsys):
    code, out, _ = run(
        capsys, "check-random", "--n", "4", "--p", "0.3", "--seed", "5", "--count", "6"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith("ok") for line in lines[:-1])
    assert lines[-1] == "6 graphs checked, 0 mismatches"

    code, out, _ = run(
        capsys, "check-random", "--n", "3", "--seed", "9", "--count", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ok"] is True


def assert_check_random_reports(capsys, name):
    """check-random, with --json and without, exits 1 and names ``name``
    in every mismatch it reports."""
    argv = ["check-random", "--n", "4", "--p", "0.3", "--seed", "5", "--count", "6"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    doc = json.loads(out)["result"]
    assert doc["ok"] is False and doc["mismatches"]
    assert all(name in m["mismatched"] for m in doc["mismatches"])

    code, out, _ = run(capsys, *argv)
    assert code == 1
    rows = out.splitlines()
    assert any(f"MISMATCH {name}" in row for row in rows[:-1])
    assert rows[-1] == f"6 graphs checked, {len(doc['mismatches'])} mismatches"


@pytest.mark.parametrize("name", ["kernels", "semikernels", "models"])
def test_check_random_reports_a_mismatch(capsys, monkeypatch, name):
    _, oracle, items, line = cli._LISTINGS[name]
    monkeypatch.setitem(cli._LISTINGS, name, (lambda graph, cap: [], oracle, items, line))
    assert_check_random_reports(capsys, name)


def test_check_random_reports_a_classical_mismatch(capsys, monkeypatch):
    # A truth table missing its first row disagrees with the kernels.
    tables = kl.truth_table_models
    monkeypatch.setattr(
        "kernelogic.oracle.truth_table_models", lambda theory: tables(theory)[1:]
    )
    assert_check_random_reports(capsys, "classical-models")


def test_gnf_defining_vertex_first_parses(capsys, tmp_path):
    path = tmp_path / "vertex.gnf"
    path.write_text("vertex : a\na :\n")
    code, out, err = run(capsys, "models", str(path))
    assert (code, err) == (0, "")
    assert out == "true={a} false={vertex} paradox={}\n"


def test_module_entry_point(delta_file):
    proc = subprocess.run(
        [sys.executable, "-m", "kernelogic", "paradox", delta_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{c,d,e}"


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_reader_closing_the_pipe_early_keeps_the_exit_code(tmp_path, flags):
    # An 8-atom closure of 65,026 clauses, far past any pipe buffer.
    graph = kl.random_digraph(kl.RandomGraphSpec(8, 0.2, 0))
    path = tmp_path / "big.edges"
    path.write_text(
        "".join(f"{a} -> {b}\n" for a in sorted(graph.vertices) for b in graph.successors(a))
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "kernelogic", "closure", str(path), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


def test_undecodable_input_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "bad.gnf"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, "models", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err

    undecodable = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", undecodable)
    code, out, err = run(capsys, "paradox", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: <stdin>") and "UTF-8" in err


def test_closed_stdin_exits_2(capsys, monkeypatch):
    # sys.stdin is None in a process started without file descriptor 0.
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "models", "-")
    assert (code, out, err) == (2, "", "error: <stdin> is closed\n")


def test_stdin_is_read_as_strict_utf8_whatever_the_io_encoding():
    # The bad byte sits in a comment, so only a strict decoding refuses
    # it, on stdin as from a file.
    for extra in ({}, {"PYTHONIOENCODING": "latin-1"}):
        proc = subprocess.run(
            [sys.executable, "-m", "kernelogic", "models", "-"],
            input=b"a -> b # \xff\n",
            capture_output=True,
            env=dict(os.environ, **extra),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2,
            b"",
            b"error: <stdin> is not UTF-8 text (invalid start byte)\n",
        )


def test_memory_error_exits_3(capsys, monkeypatch, delta_file):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("kernelogic.resolution.saturate", exhausted)
    code, out, err = run(capsys, "closure", delta_file)
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


DEMO_INPUTS = sorted(DEMO_DATA.iterdir())


def load_demo(path):
    """A demo file's graph (None for a clause set) and clause form."""
    doc = parse_document(path.read_text())
    if doc.kind == CLAUSE_SET:
        return None, doc.payload
    graph = doc.payload if doc.kind == EDGE_LIST else kl.theory_to_graph(doc.payload)
    return graph, kl.clausal_theory(graph)


@pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.name)
def test_closure_output_is_the_sorted_closure(capsys, path):
    _, theory = load_demo(path)
    closure = kl.saturate(theory)
    naive = [str(c) for c in sorted(closure.derived, key=kl.clause_sort_key)]
    code, out, _ = run(capsys, "closure", str(path))
    assert code == 0 and out == "".join(line + "\n" for line in naive)
    code, out, _ = run(capsys, "closure", str(path), "--json")
    assert code == 0 and json.loads(out)["result"] == naive


DEMO_GOALS = {
    "delta.gnf": "c ~d e",
    "f1.gnf": "~f",
    "f2.gnf": "s",
    "lewis.clauses": "b",
    "loop_chain.edges": "b",
}


@pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.name)
def test_graph_questions_match_the_closure(capsys, path):
    # Graph inputs answer from their models, the clause set from its
    # closure; both must print what the closure says.
    graph, theory = load_demo(path)
    closure = kl.saturate(theory)

    def fmt(atoms):
        return "{" + ",".join(sorted(atoms)) + "}"

    bad = kl.paradoxical_atoms(closure)
    report = kl.consistent_subtheory(theory, graph, closure=closure)
    lines = [
        f"paradox: {fmt(report.paradox_atoms)}",
        f"healthy: {fmt(report.healthy_atoms)}",
        f"border: {fmt(report.border)}",
        "theory:",
    ] + [f"  {c}" for c in sorted_clause_strings(report.theory.clauses)]
    expected = {
        ("paradox",): (0, [fmt(bad)], bad),
        ("subdiscourse",): (0, lines, report),
    }
    for goal in (DEMO_GOALS[path.name], "[]"):
        yes = kl.entails_para(theory, parse_clause(goal), closure=closure)
        expected[("entails", goal)] = (1 - yes, ["yes" if yes else "no"], yes)
    for argv, (code, lines, result) in expected.items():
        text = "".join(line + "\n" for line in lines)
        assert run(capsys, *argv, str(path)) == (code, text, "")
        as_json = to_json(result, argv[0]) + "\n"
        assert run(capsys, *argv, str(path), "--json") == (code, as_json, "")


@pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.name)
def test_min_and_relevant_match_the_closure_route(capsys, path):
    # --max-atoms 0 sends a graph input to the closure: both routes must
    # print the same bytes and exit alike.
    _, theory = load_demo(path)
    minimal = sorted_clause_strings(kl.min_clauses(theory))
    assert run(capsys, "min", str(path)) == (0, "".join(c + "\n" for c in minimal), "")
    goals = [DEMO_GOALS[path.name], *minimal]
    goals += [f"{a} {b}" for a, b in zip(minimal, minimal[1:])]
    for argv in [("min",)] + [("relevant", goal) for goal in goals]:
        for flags in ([], ["--json"]):
            models = run(capsys, *argv, str(path), *flags)
            closure = run(capsys, *argv, str(path), *flags, "--max-atoms", "0")
            assert models == closure and models[0] in (0, 1), argv


def test_min_json_lists_a_lone_clause(capsys, tmp_path):
    path = tmp_path / "one.clauses"
    path.write_text("a\n")
    code, out, err = run(capsys, "min", str(path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["result"] == ["a"]


@pytest.mark.parametrize("name", ["delta.gnf", "f1.gnf", "loop_chain.edges"])
def test_min_takes_a_cap_past_sys_maxsize(capsys, name):
    # islice refuses a stop past sys.maxsize; a cap that large is never
    # reached, so min answers as at the default cap.
    demo = str(DEMO_DATA / name)
    expected = run(capsys, "min", demo)
    assert expected[0] == 0
    for cap in (str(sys.maxsize), str(10**20)):
        assert run(capsys, "min", demo, "--max-clauses", cap) == expected


SWEEP_COMMANDS = [
    ["models"],
    ["kernels"],
    ["semikernels"],
    ["paradox"],
    ["subdiscourse"],
    ["closure"],
    ["prove", "a"],
    ["prove", "a b", "--weakening", "cw"],
    ["entails", "a"],
    ["entails", "a", "--semantic"],
    ["entails", "a", "--classical"],
    ["relevant", "a"],
    ["min"],
]


@pytest.mark.parametrize("flag", ["--max-atoms", "--max-clauses"])
@pytest.mark.parametrize("value", [0, 1, 2**64])
def test_every_command_exits_by_the_contract_at_extreme_caps(capsys, flag, value):
    calls = [["check-random"]]
    for name in ("delta.gnf", "lewis.clauses"):
        calls += [argv + [str(DEMO_DATA / name)] for argv in SWEEP_COMMANDS]
    for argv in calls:
        code, out, err = run(capsys, *argv, flag, str(value))
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in out + err, argv


def test_check_random_refuses_a_wide_graph_before_drawing_it(capsys):
    # Every drawn graph goes to the brute-force oracle, whose cap holds
    # even where --max-atoms lets the engine go wider.
    def draw(spec):
        raise AssertionError("drew a graph that is refused")

    oracle_cap = "brute-force path is capped at 16 atoms"
    cases = [
        (("--n", "3000", "--p", "0"), "graph has 3000 atoms, enumeration cap is 20"),
        (("--n", "17"), oracle_cap),
        (("--n", "40", "--p", "0.05", "--max-atoms", "100"), oracle_cap),
        (("--n", "60", "--p", "0.03", "--max-atoms", "100"), oracle_cap),
    ]
    with mock.patch("kernelogic.oracle.random_digraph", draw):
        for argv, message in cases:
            start = time.perf_counter()
            code, out, err = run(capsys, "check-random", *argv, "--count", "1")
            assert time.perf_counter() - start < 1
            assert (code, out, err) == (3, "", f"error: {message}\n")
            code, out, _ = run(capsys, "check-random", *argv, "--count", "0")
            assert code == 0 and out == "0 graphs checked, 0 mismatches\n"


# The a* and c* atoms are one 9-atom component; b sorts inside it, so
# that component's atoms are not consecutive in the universe and map to
# its own indices run by run. The expected texts were recorded before
# that mapping changed.
SCATTERED_TEXT = (
    "a0 ~a1\na1 ~a2 a3\n~a3 c4\nc4 ~c5\nc5 c6 ~a0\n~c6 c7\nc7 ~c8 a2\nc8\n~a0\nb\n~b\n"
)

SCATTERED_CLOSURE = """\
[]
~a0
~a1
b
~b
c8
a0 ~a0
a0 ~a1
a1 ~a1
a2 ~a2
a2 c7
~a2 a3
~a2 c4
a3 ~a3
a3 c7
~a3 c4
b ~b
c4 ~c4
c4 ~c5
c4 c7
c5 ~c5
c6 ~c6
~c6 c7
c7 ~c7
c8 ~c8
a0 ~a2 a3
a0 ~a2 c4
a0 a3 c7
a0 c4 c7
~a0 c4 c6
~a0 c4 c7
~a0 c5 c6
~a0 c5 c7
a1 ~a2 a3
a1 ~a2 c4
a1 a3 c7
a1 c4 c7
~a1 c4 c6
~a1 c4 c7
~a1 c5 c6
~a1 c5 c7
a2 c7 ~c8
~a2 c4 c6
~a2 c4 c7
a3 c4 c7
a3 c5 c7
a3 c7 ~c8
c4 c5 c7
c4 c6 c7
c4 c7 ~c8
a0 a3 c7 ~c8
a0 c4 c7 ~c8
a1 a3 c7 ~c8
a1 c4 c7 ~c8
~a2 a3 c4 c6
~a2 a3 c4 c7
~a2 a3 c5 c6
~a2 a3 c5 c7
~a2 c4 c5 c6
~a2 c4 c5 c7
a3 c4 c6 c7
a3 c4 c7 ~c8
a3 c5 c6 c7
a3 c5 c7 ~c8
c4 c5 c6 c7
c4 c5 c7 ~c8
c4 c6 c7 ~c8
a3 c4 c6 c7 ~c8
a3 c5 c6 c7 ~c8
c4 c5 c6 c7 ~c8
"""

SCATTERED_CLOSURE_JSON = """\
{
  "command": "closure",
  "result": [
    "[]",
    "~a0",
    "~a1",
    "b",
    "~b",
    "c8",
    "a0 ~a0",
    "a0 ~a1",
    "a1 ~a1",
    "a2 ~a2",
    "a2 c7",
    "~a2 a3",
    "~a2 c4",
    "a3 ~a3",
    "a3 c7",
    "~a3 c4",
    "b ~b",
    "c4 ~c4",
    "c4 ~c5",
    "c4 c7",
    "c5 ~c5",
    "c6 ~c6",
    "~c6 c7",
    "c7 ~c7",
    "c8 ~c8",
    "a0 ~a2 a3",
    "a0 ~a2 c4",
    "a0 a3 c7",
    "a0 c4 c7",
    "~a0 c4 c6",
    "~a0 c4 c7",
    "~a0 c5 c6",
    "~a0 c5 c7",
    "a1 ~a2 a3",
    "a1 ~a2 c4",
    "a1 a3 c7",
    "a1 c4 c7",
    "~a1 c4 c6",
    "~a1 c4 c7",
    "~a1 c5 c6",
    "~a1 c5 c7",
    "a2 c7 ~c8",
    "~a2 c4 c6",
    "~a2 c4 c7",
    "a3 c4 c7",
    "a3 c5 c7",
    "a3 c7 ~c8",
    "c4 c5 c7",
    "c4 c6 c7",
    "c4 c7 ~c8",
    "a0 a3 c7 ~c8",
    "a0 c4 c7 ~c8",
    "a1 a3 c7 ~c8",
    "a1 c4 c7 ~c8",
    "~a2 a3 c4 c6",
    "~a2 a3 c4 c7",
    "~a2 a3 c5 c6",
    "~a2 a3 c5 c7",
    "~a2 c4 c5 c6",
    "~a2 c4 c5 c7",
    "a3 c4 c6 c7",
    "a3 c4 c7 ~c8",
    "a3 c5 c6 c7",
    "a3 c5 c7 ~c8",
    "c4 c5 c6 c7",
    "c4 c5 c7 ~c8",
    "c4 c6 c7 ~c8",
    "a3 c4 c6 c7 ~c8",
    "a3 c5 c6 c7 ~c8",
    "c4 c5 c6 c7 ~c8"
  ],
  "schema": 1
}
"""

SCATTERED_MIN = """\
~a0
~a1
b
~b
c8
a2 ~a2
a2 c7
~a2 a3
~a2 c4
a3 ~a3
a3 c7
~a3 c4
c4 ~c4
c4 ~c5
c4 c7
c5 ~c5
c6 ~c6
~c6 c7
c7 ~c7
"""

SCATTERED_PROOF = """\
1. a2 c7 ~c8 [input]
2. a1 ~a2 a3 [input]
3. ~a3 c4 [input]
4. a1 ~a2 c4 [res 2 3 on a3]
5. a1 c4 c7 ~c8 [res 1 4 on a2]
"""

SCATTERED_WEAKENED = {
    "none": (1, "not provable under weakening mode 'none'\n"),
    "awbw": (
        0,
        """\
1. a0 ~a1 [input]
2. ~a0 [input]
3. ~a1 [res 1 2 on a0]
~a1 c7 [weakening from ~a1]
""",
    ),
    "cw": (
        0,
        """\
1. b [input]
2. ~b [input]
3. [] [res 1 2 on b]
~a1 c7 [weakening from []]
""",
    ),
}


def test_scattered_component_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "scattered.clauses"
    path.write_text(SCATTERED_TEXT)
    path = str(path)
    assert run(capsys, "closure", path) == (0, SCATTERED_CLOSURE, "")
    assert run(capsys, "closure", path, "--json") == (0, SCATTERED_CLOSURE_JSON, "")
    assert run(capsys, "min", path) == (0, SCATTERED_MIN, "")
    for mode, weakened in SCATTERED_WEAKENED.items():
        proved = run(capsys, "prove", "a1 c4 c7 ~c8", path, "--weakening", mode)
        assert proved == (0, SCATTERED_PROOF, "")
        code, out = weakened
        assert run(capsys, "prove", "~a1 c7", path, "--weakening", mode) == (code, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["entails", "a", "lewis.clauses", "--classical"],
        ["prove", "a", "lewis.clauses", "--weakening", "cw"],
        ["prove", "a b", "lewis.clauses", "--weakening", "awbw", "--json"],
        ["entails", "~b c", "delta.gnf", "--semantic"],
        ["entails", "c", "delta.gnf", "--json", "--max-atoms", "0"],
        ["relevant", "b ~b", "lewis.clauses", "--json"],
    ],
)
def test_clause_commands_take_the_input_after_their_flags(capsys, argv):
    # The clause and the input are both positionals; the input may come
    # after the flags as well as before them, with the same answer.
    command, goal, name, *flags = argv
    demo = str(DEMO_DATA / name)
    before = run(capsys, command, goal, demo, *flags)
    after = run(capsys, command, goal, *flags, demo)
    assert after == before and before[0] in (0, 1) and before[1]


def test_clause_commands_read_stdin_after_their_flags(capsys, monkeypatch, lewis_file):
    expected = run(capsys, "prove", "b", lewis_file, "--weakening", "cw")
    for dash in (["-"], []):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(LEWIS_TEXT.encode())))
        assert run(capsys, "prove", "b", "--weakening", "cw", *dash) == expected


@pytest.mark.parametrize(
    "argv, left",
    [
        (["entails", "a", "--classical", "{f}", "{f}"], "{f} {f}"),
        (["entails", "a", "{f}", "--classical", "{f}"], "{f}"),
        (["entails", "a", "-", "--classical", "{f}"], "{f}"),
        (["prove", "a", "--weakening", "cw", "--bogus", "{f}"], "--bogus {f}"),
        (["paradox", "{f}", "{f}"], "{f}"),
    ],
)
def test_leftover_arguments_are_still_refused(capsys, lewis_file, argv, left):
    code, out, err = run(capsys, *(a.format(f=lewis_file) for a in argv))
    assert code == 2 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {left.format(f=lewis_file)}\n")


# Each listing's engine, brute-force oracle and line format over the
# public lists: how the listing commands wrote their output before they
# wrote text lines from masks.
LISTING_TWINS = {
    "kernels": (kl.enumerate_kernels, kl.brute_kernels, cli._fmt_set),
    "semikernels": (kl.enumerate_semikernels, kl.brute_semikernels, cli._fmt_set),
    "models": (kl.models, kl.brute_models, cli._fmt_partition3),
}


def run_quietly(*argv):
    """``main`` with its output captured, for use under hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def json_twin(out):
    """The --json stdout ``out`` as the json package writes what it reads
    back from it: ``out`` itself, when the writer matches json."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def assert_listings_match_the_lists(path, graph):
    for command, (engine, brute, fmt) in LISTING_TWINS.items():
        for flags, found in (([], engine(graph)), (["--oracle"], brute(graph))):
            text = "".join(fmt(v) + "\n" for v in found)
            assert run_quietly(command, path, *flags) == (0, text, ""), (command, flags)
            code, out, err = run_quietly(command, path, *flags, "--json")
            assert (code, out, err) == (0, to_json(found, command) + "\n", ""), (command, flags)
            assert out == json_twin(out)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_DATA.iterdir()))
def test_listings_print_the_demos_as_the_lists_do(name):
    path = str(DEMO_DATA / name)
    graph = parse_document((DEMO_DATA / name).read_text()).payload
    if isinstance(graph, kl.Digraph):
        assert_listings_match_the_lists(path, graph)
    elif isinstance(graph, kl.GnfTheory):
        assert_listings_match_the_lists(path, kl.theory_to_graph(graph))
    else:
        for command in LISTING_TWINS:
            for flags in ([], ["--oracle"], ["--json"]):
                code, out, err = run_quietly(command, path, *flags)
                assert (code, out) == (2, "") and "bare clause set" in err


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
def test_listings_print_graphs_as_the_lists_do(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("listing") / "graph.edges"
    path.write_text(format_graph(graph))
    assert_listings_match_the_lists(str(path), graph)


# Runs ``kernelogic semikernels - <flags>`` on the 20-atom out-star and
# prints its exit code, stdout lines, stdout sha256 and own ru_maxrss.
OUT_STAR_SCRIPT = """
import hashlib, os, subprocess, sys
child = subprocess.Popen(
    [sys.executable, "-m", "kernelogic", "semikernels", "-", *sys.argv[1:]],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
)
child.stdin.write("".join(f"hub -> l{i:02d}\\n" for i in range(1, 20)).encode())
child.stdin.close()
lines, digest = 0, hashlib.sha256()
for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
    lines += chunk.count(b"\\n")
    digest.update(chunk)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), lines, digest.hexdigest(), usage.ru_maxrss)
"""

# The out-star's listings as the list-building CLI printed them.
OUT_STAR_SHA256 = {
    "text": "a5fb762ffbbba2942568601bc5096e9b21bc6fb4274e700bef76daaa79a976fb",
    "--json": "34a02b437ed634338c4f5f04664f164a2a5aa278d3b056c9a938bc9599541458",
}


def run_out_star(*flags):
    """Exit code, stdout lines, stdout sha256 and own ru_maxrss in kB of
    ``semikernels`` on the out-star. A fresh helper spawns the command,
    so that the command's ru_maxrss starts from the helper's small
    high-water mark and not from this test process's."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", OUT_STAR_SCRIPT, *flags], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, lines, sha, maxrss_kb = proc.stdout.split()
    return int(code), int(lines), sha, int(maxrss_kb)


def test_semikernels_of_the_out_star_print_without_the_sets():
    # 2**19 semikernels: the list of their frozensets alone took the
    # process past 400 MB.
    code, lines, sha, maxrss_kb = run_out_star()
    assert (code, lines, sha) == (0, 524_288, OUT_STAR_SHA256["text"])
    assert maxrss_kb < 150 * 1024


def test_semikernels_of_the_out_star_write_json_without_the_sets():
    # Built as one document from the list, the JSON took the process
    # past 900 MB.
    code, lines, sha, maxrss_kb = run_out_star("--json")
    assert (code, lines, sha) == (0, 6_029_317, OUT_STAR_SHA256["--json"])
    assert maxrss_kb < 150 * 1024


def test_a_reader_closing_the_pipe_in_the_middle_of_json_keeps_the_exit_code():
    proc = subprocess.Popen(
        [sys.executable, "-m", "kernelogic", "semikernels", "-", "--json"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdin.write("".join(f"hub -> l{i:02d}\n" for i in range(1, 20)).encode())
    proc.stdin.close()
    head = [proc.stdout.readline() for _ in range(5)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert head == [b"{\n", b'  "command": "semikernels",\n', b'  "result": [\n', b"    [],\n", b"    [\n"]
    assert proc.wait() == 0 and err == b""


def run_json_recorded(*argv):
    """``run_quietly`` with ``--json``, and the command names that the
    command handed the JSON writer."""
    seen = []

    def record(result, command):
        seen.append(command)
        return json_chunks(result, command)

    with mock.patch.object(cli, "json_chunks", record):
        return (*run_quietly(*argv, "--json"), seen)


def assert_json_output_is_json_dumps(path, goal, width):
    """Every command's --json stdout on ``path``, with and without
    --oracle, is one envelope of that command, written as json.dumps
    writes what json.loads reads back from it."""
    calls = [[command] for command in ("models", "kernels", "semikernels", "paradox")]
    calls += [["subdiscourse"], ["min"], ["relevant", goal], ["entails", goal]]
    calls.append(["entails", goal, "--semantic"])
    if width <= 10:
        calls.append(["entails", goal, "--classical"])
    if width <= 7:  # a wider closure may take seconds, or pass the cap
        calls += [["closure"], ["min", "--max-atoms", "0"], ["prove", goal]]
        calls.append(["prove", goal, "--weakening", "awbw"])
    for argv in calls:
        for flags in ([], ["--oracle"]):
            code, out, err, seen = run_json_recorded(argv[0], *argv[1:], path, *flags)
            if code in (0, 1):
                [command] = seen
                assert (command, out, err) == (argv[0], json_twin(out), ""), argv
            else:  # bare clause sets have no models: refused before any output
                assert (code, out, seen) == (2, "", []) and "bare clause set" in err, argv


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_DATA.iterdir()))
def test_json_output_of_the_demos_is_json_dumps(name):
    path = DEMO_DATA / name
    _, theory = load_demo(path)
    assert_json_output_is_json_dumps(str(path), DEMO_GOALS[name], len(theory.universe))


@settings(max_examples=25, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
def test_json_output_of_graphs_is_json_dumps(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("json") / "graph.edges"
    path.write_text(format_graph(graph))
    goal = f"{graph.vertices[0]} ~{graph.vertices[-1]}"
    assert_json_output_is_json_dumps(str(path), goal, len(graph))


def test_check_random_json_is_json_dumps():
    code, out, err, [command] = run_json_recorded("check-random", "--count", "3")
    assert (code, command, out, err) == (0, "check-random", json_twin(out), "")
