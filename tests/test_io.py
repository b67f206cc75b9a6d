"""Parsers, serializers, round-trips, JSON schema."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import io_text as io

from conftest import clause, clauses

DELTA_TEXT = """\
# the six statement discourse
a' : a
a  : a'
b  : a c
c  : d
d  : e
e  : c
"""


def test_parse_theory_delta(our_theory):
    assert io.parse_theory(DELTA_TEXT) == our_theory


def test_parse_theory_forms():
    assert io.parse_theory("s :") == kl.GnfTheory({"s": set()})
    t = io.parse_theory("a : a b\nb :\n")
    assert t == kl.GnfTheory({"a": {"a", "b"}, "b": set()})


def test_parse_theory_errors():
    with pytest.raises(kl.ParseError, match="expected"):
        io.parse_theory("a b c\n")
    with pytest.raises(kl.ParseError, match="duplicate definition of 'a'"):
        io.parse_theory("a : b\nb :\na :\n")
    with pytest.raises(kl.ParseError, match="loose atom 'b'"):
        io.parse_theory("a : b\n")
    with pytest.raises(kl.ParseError, match="one atom"):
        io.parse_theory("a b : c\n")
    err = None
    try:
        io.parse_theory("a :\nx; : y\n")
    except kl.ParseError as exc:
        err = exc
    assert err is not None and err.line == 2 and err.column >= 1


def test_parse_error_columns_point_at_the_token():
    cases = [
        (lambda: io.parse_theory("a : b\n"), 1, 5),
        (lambda: io.parse_theory("a :\nb : a\nc : d a\n"), 3, 5),
        (lambda: io.parse_theory("a : a\na : a\n"), 2, 1),
        (lambda: io.parse_theory("  a b : c\n"), 1, 7),
        (lambda: io.parse_clause("~a ~"), 1, 4),
        (lambda: io.parse_clause_set("a\nb b$\n"), 2, 3),
        (lambda: io.parse_edges("b -> b$\n"), 1, 6),
    ]
    for parse, line, column in cases:
        with pytest.raises(kl.ParseError) as info:
            parse()
        assert (info.value.line, info.value.column) == (line, column)


# Characters that str.splitlines breaks at but that end no line.
NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


@pytest.mark.parametrize("char", NOT_NEWLINES)
def test_lines_end_at_newlines_only(char):
    with pytest.raises(kl.ParseError) as info:
        io.parse_document(f"a :{char}b$ : a\n")
    assert (info.value.line, info.value.column) == (1, 5)


def test_crlf_lines_keep_their_numbers():
    text = "a : b\r\nb :\r\n"
    assert io.parse_document(text).payload == io.parse_document(text.replace("\r", "")).payload
    with pytest.raises(kl.ParseError) as info:
        io.parse_document(text + "c : d$\r\n")
    assert (info.value.line, info.value.column) == (3, 5)


def test_parse_clause_locates_errors_by_line():
    with pytest.raises(kl.ParseError) as info:
        io.parse_clause("a\nb$")
    assert (info.value.line, info.value.column) == (2, 1)
    with pytest.raises(kl.ParseError) as info:
        io.parse_clause("a ~b\n\n  c ~$ d")
    assert (info.value.line, info.value.column) == (3, 5)


def test_parse_theory_complete_loose():
    t = io.parse_theory("a : b\n", complete_loose=True)
    assert t == kl.GnfTheory({"a": {"b"}, "b": {"b'"}, "b'": {"b"}})


def test_parse_edges():
    g = io.parse_edges("a -> b\nb -> a\nvertex z\n# comment\n")
    assert g == kl.Digraph(["a", "b", "z"], [("a", "b"), ("b", "a")])
    with pytest.raises(kl.ParseError, match="expected"):
        io.parse_edges("a => b\n")


def test_parse_clause():
    assert io.parse_clause("a ~b") == clause("a ~b")
    assert io.parse_clause("[]") == kl.Clause()
    assert io.parse_clause("~b ~b a") == clause("a ~b")
    with pytest.raises(kl.ParseError):
        io.parse_clause("a [] b")
    with pytest.raises(kl.ParseError):
        io.parse_clause("~~a")
    # Text with no token is no clause; the empty one is spelled "[]".
    for blank in ("", "  ", "\n\t"):
        with pytest.raises(kl.ParseError, match=r"spelled '\[\]'"):
            io.parse_clause(blank)


def test_parse_clause_set():
    t = io.parse_clause_set("a ~b\n[]\n# note\ns\n")
    assert t.clauses == clauses("a ~b", "[]", "s")
    assert t.universe == ("a", "b", "s")
    with pytest.raises(kl.ParseError) as info:
        io.parse_clause_set("a\nb $\n")
    assert info.value.line == 2


def test_detect_kind():
    assert io.detect_kind(DELTA_TEXT) == io.GNF_THEORY
    assert io.detect_kind("a -> b\n") == io.EDGE_LIST
    assert io.detect_kind("vertex a\n") == io.EDGE_LIST
    assert io.detect_kind("a ~b\n") == io.CLAUSE_SET
    assert io.detect_kind("") == io.CLAUSE_SET
    # A line holding ":" is GNF even when its atom is named vertex.
    assert io.detect_kind("vertex : a\na :\n") == io.GNF_THEORY
    assert io.detect_kind("vertex :\n") == io.GNF_THEORY


def test_parse_document_kinds():
    doc = io.parse_document(DELTA_TEXT)
    assert doc.kind == io.GNF_THEORY and isinstance(doc.payload, kl.GnfTheory)
    doc = io.parse_document("a -> b")
    assert doc.kind == io.EDGE_LIST and isinstance(doc.payload, kl.Digraph)
    doc = io.parse_document("a ~b")
    assert doc.kind == io.CLAUSE_SET and isinstance(doc.payload, kl.ClausalTheory)
    forced = io.parse_document("a", kind=io.CLAUSE_SET)
    assert forced.payload.clauses == clauses("a")
    with pytest.raises(kl.ParseError, match="unknown input kind 'csv'"):
        io.parse_document("a", kind="csv")


def test_every_kind_of_document_hashes():
    theory = kl.GnfTheory({"a": ["b"], "b": []})
    twin = kl.GnfTheory({"b": set(), "a": {"b"}})
    assert theory == twin and hash(theory) == hash(twin)
    assert theory != kl.GnfTheory({"a": [], "b": []})
    for text in (DELTA_TEXT, "a -> b", "a ~b"):
        doc = io.parse_document(text)
        assert hash(doc) == hash(io.parse_document(text))
    doc = io.InputDocument(io.GNF_THEORY, theory)
    assert hash(doc) == hash(io.InputDocument(io.GNF_THEORY, twin))


ATOM_NAMES = st.sampled_from(["a", "a'", "b", "c", "d_2"])


@given(st.dictionaries(ATOM_NAMES, st.sets(ATOM_NAMES, max_size=3), max_size=5))
def test_theory_roundtrip(raw):
    theory = kl.complete_loose_atoms(raw)
    assert io.parse_theory(io.format_theory(theory)) == theory


@given(
    st.sets(ATOM_NAMES, min_size=1),
    st.sets(st.tuples(ATOM_NAMES, ATOM_NAMES), max_size=8),
)
def test_graph_roundtrip(verts, edges):
    g = kl.Digraph(verts | {v for e in edges for v in e}, edges)
    assert io.parse_edges(io.format_graph(g)) == g


@given(st.frozensets(st.builds(kl.Literal, ATOM_NAMES, st.booleans()), max_size=5))
def test_clause_roundtrip(lits):
    c = kl.Clause(lits)
    assert io.parse_clause(str(c)) == c


@given(
    st.frozensets(
        st.builds(
            kl.Clause,
            st.frozensets(st.builds(kl.Literal, ATOM_NAMES, st.booleans()), max_size=4),
        ),
        max_size=6,
    )
)
def test_clause_set_roundtrip(cs):
    t = kl.ClausalTheory(cs)
    assert io.parse_clause_set(io.format_clause_set(t)) == t


# Lines shaped like those of every format, from atoms, markers and
# stray characters that no format accepts.
FUZZ_WORDS = st.lists(
    st.sampled_from(["a", "b", "a'", "x_1", "~a", "~", "[]", "$", "é", "a:b", ""]),
    max_size=3,
)
FUZZ_LINES = st.builds(
    lambda left, mark, right, gap: gap.join([*left, mark, *right]),
    FUZZ_WORDS,
    st.sampled_from([":", "->", "vertex", "#", ""]),
    FUZZ_WORDS,
    st.sampled_from([" ", "  ", "\t", "\xa0"]),
)
FUZZ_TEXTS = st.lists(FUZZ_LINES, max_size=4).map("\n".join)


@given(FUZZ_TEXTS)
def test_parse_document_fails_only_with_a_located_parse_error(text):
    lines = text.splitlines()
    for kind in (None, io.GNF_THEORY, io.EDGE_LIST, io.CLAUSE_SET):
        try:
            io.parse_document(text, kind=kind)
        except kl.ParseError as exc:
            assert 1 <= exc.line <= len(lines), (kind, str(exc))
            assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1, (kind, str(exc))


def test_to_json_models(our_graph):
    doc = json.loads(io.to_json(kl.models(our_graph), "models"))
    assert doc["schema"] == 1
    assert doc["command"] == "models"
    assert doc["result"] == [
        {"true": ["a"], "false": ["a'", "b"], "paradox": ["c", "d", "e"]}
    ]


def test_to_json_verdict(our_graph):
    verdict = kl.entails_semantic(our_graph, clause("a'"))
    doc = json.loads(io.to_json(verdict, "entails"))
    assert doc["result"]["holds"] is False
    assert doc["result"]["via"]["kind"] == "countermodel"
    assert doc["result"]["via"]["countermodel"]["false"] == ["a'", "b"]

    good = kl.entails_semantic(our_graph, clause("~b c"))
    doc = json.loads(io.to_json(good, "entails"))
    assert doc["result"]["via"] == {"kind": "healthy-witness", "witness": "~b"}


def test_to_json_closure_and_report(our_cth, our_graph, our_closure):
    doc = json.loads(io.to_json(our_closure, "closure"))
    strings = doc["result"]
    assert strings[0] == "[]"
    assert "~b" in strings
    assert len(strings) == len(our_closure.derived)
    sizes = [len(s.split()) for s in strings if s != "[]"]
    assert sizes == sorted(sizes)

    report = kl.consistent_subtheory(our_cth, our_graph, closure=our_closure)
    doc = json.loads(io.to_json(report, "subdiscourse"))
    assert doc["result"]["paradox"] == ["c", "d", "e"]
    assert doc["result"]["border"] == ["b"]
    assert "~b" in doc["result"]["theory"]


# JSON values for the writer's twin, from its domain: plain strings
# (printable ASCII with no quote or backslash, as atom names and clause
# texts are), ints, bools, None, arrays and objects with plain keys.
PLAIN = st.one_of(
    st.text(st.sampled_from("ab_'~[] 0"), max_size=6),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), PLAIN),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(PLAIN, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(PLAIN, inner, max_size=4),
    ),
    max_leaves=20,
)


def envelope(result):
    return json.dumps({"schema": 1, "command": "c", "result": result}, indent=2, sort_keys=True)


@given(JSON_VALUES)
def test_the_json_writer_writes_what_json_dumps_writes(value):
    assert io.to_json(value, "c") == envelope(value)
    if isinstance(value, (list, tuple)):  # an iterator streams as its array
        assert io.to_json(iter(value), "c") == envelope(value)


# Strings json escapes (quotes, backslashes, control characters, DEL,
# non-ASCII, a lone surrogate) among strings it writes as they stand.
STRINGS = st.one_of(
    st.text(st.sampled_from('a"\\\x00\x1f\n\t\x7f\x80é \U0001f600\ud800 ~'), max_size=6),
    PLAIN,
    st.text(max_size=4),
)


@given(STRINGS)
def test_the_json_writer_writes_a_string_exactly_when_json_leaves_it_unescaped(text):
    for value in (text, [text], ["a", text], {text: None}):
        if json.dumps(text) == '"' + text + '"':
            assert io.to_json(value, "c") == envelope(value)
        else:
            with pytest.raises(TypeError, match="not JSON serializable as a plain string"):
                io.to_json(value, "c")


# The object's own repr holds its address, which changes from run to run.
@pytest.mark.parametrize(
    "value",
    [{1, 2}, [b"a"], pytest.param({"a": object()}, id="{'a': <object>}")],
    ids=repr,
)
def test_the_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        io.to_json(value)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        [float("inf")],
        {1: "a"},
        frozenset({frozenset("a")}),
        kl.Partition2(frozenset("a"), frozenset()),
    ],
    ids=repr,
)
def test_the_json_writer_refuses_what_the_package_never_writes(value):
    # json writes each of these (sets as sorted arrays); the package never
    # hands one to the writer.
    json.dumps(value, default=sorted)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        io.to_json(value)


def test_unordered_sets_order_by_their_json_text():
    # Clauses do not order among themselves: a set is written in the
    # order of its elements' JSON text, which for atom names is their
    # own order.
    found = clauses("b", "~a", "a ~b", "[]", "a")
    texts = sorted((str(c) for c in found), key=json.dumps)
    assert texts != sorted(texts)  # '"a ~b"' < '"a"', though "a" < "a ~b"
    assert io.to_json(found) == io.to_json(texts)
    atoms = frozenset({"b", "a'", "a", "a_1", "A", "a0"})
    assert sorted(atoms, key=json.dumps) == sorted(atoms)
    assert io.to_json(atoms) == io.to_json(sorted(atoms))


def test_a_closure_listing_skips_the_plainness_check(our_closure, monkeypatch):
    # Clause texts are built from universe names, " ", "~" and "[]", so
    # the writer checks the names, not the joined listing; any other
    # array of strings is still checked.
    texts = our_closure.clause_texts()
    checked = []
    real = io._plain_strings
    monkeypatch.setattr(io, "_plain_strings", lambda value: checked.append(value) or real(value))
    assert io.to_json(our_closure, "c") == envelope(texts)
    assert texts not in checked
    assert io.to_json(texts, "c") == envelope(texts)
    assert texts in checked
    empty = kl.saturate(kl.ClausalTheory(frozenset(), ()))
    assert io.to_json(empty, "c") == envelope([])
