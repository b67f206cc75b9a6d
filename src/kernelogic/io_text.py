"""Text formats: GNF theories, edge lists, clause sets, and JSON output.

Grammar summary. A GNF theory is one formula per line, ``x : y1 y2``,
meaning ``x`` holds exactly when every ``yi`` fails; ``x :`` defines a
sink. An edge list is ``a -> b`` per line plus ``vertex x`` for
isolated vertices. A clause set is one clause per line: whitespace
separated literals with ``~`` marking negation, and ``[]`` on its own
line for the empty clause. ``#`` starts a comment everywhere. Parsing
and serialization round-trip for all three kinds.

JSON output is the bytes of ``json.dumps(envelope, indent=2,
sort_keys=True)``, written in one pass without the json package over
what the package emits: plain strings (printable ASCII with no ``"``
or backslash, which json writes as they stand), ints, bools, None,
arrays (lists, tuples, iterators), objects with plain keys, and the
package's own values, each turned into one of those as the writer
reaches it. Floats, strings that json would escape and sets of
non-strings raise ``TypeError``.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator, Optional, Union

from .clauses import ClausalTheory, Clause, Literal, clause_sort_key
from .errors import ParseError
from .graphs import Digraph, GnfTheory, complete_loose_atoms, is_valid_atom
from .kernels import Partition3
from .records import Record

SCHEMA_VERSION = 1

GNF_THEORY = "gnf-theory"
EDGE_LIST = "edge-list"
CLAUSE_SET = "clause-set"


class InputDocument(Record):
    """A parsed input file: what kind it was and the value it denotes."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload: Union[GnfTheory, Digraph, ClausalTheory]):
        super().__init__(kind, payload)


def _content_lines(text: str):
    # Lines end at "\n" alone, as wc -l counts them; str.splitlines
    # would also break at form feeds, "\x1c"-"\x1e", "\x85" and more.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").split("#", 1)[0]
        if line.strip():
            yield lineno, line


_TOKEN = re.compile(r"\S+")


def _tokens(line: str, start: int = 0) -> list[tuple[int, str]]:
    """The whitespace-separated tokens of ``line[start:]`` with their 1-based columns."""
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line, start)]


def _atom(lineno: int, column: int, token: str) -> str:
    if not is_valid_atom(token):
        raise ParseError(f"invalid atom {token!r}", lineno, column)
    return token


def parse_theory(text: str, *, complete_loose: bool = False) -> GnfTheory:
    """Parse a GNF theory, rejecting duplicate definitions and loose atoms.

    With ``complete_loose`` every loose atom is closed off with a fresh
    twin instead of being rejected.
    """
    table: dict[str, list[str]] = {}
    uses: list[tuple[int, int, str]] = []
    for lineno, line in _content_lines(text):
        colon = line.find(":")
        if colon < 0:
            raise ParseError("expected 'atom : atoms...'", lineno, len(line.rstrip()) + 1)
        head = _tokens(line[:colon])
        if len(head) != 1:
            raise ParseError("exactly one atom must stand left of ':'", lineno, colon + 1)
        atom = _atom(lineno, *head[0])
        if atom in table:
            raise ParseError(f"duplicate definition of {atom!r}", lineno, head[0][0])
        right = _tokens(line, colon + 1)
        table[atom] = [_atom(lineno, *token) for token in right]
        uses += [(lineno, *token) for token in right]
    if complete_loose:
        return complete_loose_atoms(table)
    for lineno, column, other in uses:
        if other not in table:
            raise ParseError(
                f"loose atom {other!r} (define it or pass the completion flag)",
                lineno,
                column,
            )
    return GnfTheory(table)


def parse_edges(text: str) -> Digraph:
    """Parse an edge list: ``a -> b`` lines and ``vertex x`` declarations."""
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, line in _content_lines(text):
        tokens = _tokens(line)
        words = [word for _, word in tokens]
        if len(words) == 2 and words[0] == "vertex":
            vertices.add(_atom(lineno, *tokens[1]))
        elif len(words) == 3 and words[1] == "->":
            src = _atom(lineno, *tokens[0])
            dst = _atom(lineno, *tokens[2])
            vertices.update((src, dst))
            edges.append((src, dst))
        else:
            raise ParseError("expected 'a -> b' or 'vertex x'", lineno, tokens[0][0])
    return Digraph(vertices, edges)


def parse_clause(text: str) -> Clause:
    """Parse one clause: ``~``-prefixed literals, or ``[]`` for empty.

    Errors give the line and column of the offending token within
    ``text``. Text with no token is refused: the empty clause is
    spelled ``[]``.
    """
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("no clause given; the empty clause is spelled '[]'")
    if [word for _, word in tokens] == ["[]"]:
        return Clause()
    literals = []
    for column, token in tokens:
        negated = token.startswith("~")
        name = token[1:] if negated else token
        if not is_valid_atom(name):
            offset = column - 1
            line_start = text.rfind("\n", 0, offset) + 1
            raise ParseError(
                f"invalid literal {token!r}",
                text.count("\n", 0, offset) + 1,
                offset - line_start + 1,
            )
        literals.append(Literal(name, negated))
    return Clause(literals)


def parse_clause_set(text: str) -> ClausalTheory:
    """Parse a clause set, one clause per line."""
    clauses = []
    for lineno, line in _content_lines(text):
        try:
            clauses.append(parse_clause(line))
        except ParseError as exc:
            raise ParseError(exc.args[0], lineno, exc.column) from None
    return ClausalTheory(frozenset(clauses))


def detect_kind(text: str) -> str:
    """Sniff the input format; clause sets are the fallback."""
    for _, line in _content_lines(text):
        if ":" in line:
            return GNF_THEORY
        tokens = line.split()
        if "->" in tokens or tokens[0] == "vertex":
            return EDGE_LIST
    return CLAUSE_SET


def parse_document(
    text: str,
    kind: Optional[str] = None,
    complete_loose: bool = False,
) -> InputDocument:
    kind = kind or detect_kind(text)
    if kind == GNF_THEORY:
        payload: Union[GnfTheory, Digraph, ClausalTheory] = parse_theory(
            text, complete_loose=complete_loose
        )
    elif kind == EDGE_LIST:
        payload = parse_edges(text)
    elif kind == CLAUSE_SET:
        payload = parse_clause_set(text)
    else:
        raise ParseError(f"unknown input kind {kind!r}")
    return InputDocument(kind=kind, payload=payload)


def format_theory(theory: GnfTheory) -> str:
    lines = []
    for atom in theory.atoms():
        rhs = " ".join(sorted(theory.negated(atom)))
        lines.append(f"{atom} : {rhs}".rstrip())
    return "\n".join(lines) + "\n"


def format_graph(graph: Digraph) -> str:
    lines = []
    touched = {v for edge in graph.edges for v in edge}
    for v in graph.vertices:
        if v not in touched:
            lines.append(f"vertex {v}")
    for src, dst in sorted(graph.edges):
        lines.append(f"{src} -> {dst}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_clause_set(theory: ClausalTheory) -> str:
    return "\n".join(sorted_clause_strings(theory.clauses)) + "\n"


def sorted_clause_strings(clauses) -> list[str]:
    return [str(c) for c in sorted(clauses, key=clause_sort_key)]


def _instance_of(value, module: str, name: str) -> bool:
    """``isinstance(value, <module>.<name>)`` for a class of a package
    module, without loading that module: until it is loaded, no value
    of its classes exists."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(value, getattr(loaded, name))


# The JSON writer (see the module docstring for its domain). ``_chunks``
# walks a value once, and ``_node`` converts each package value one level
# as the walk reaches it. Its refusals are unreachable from the CLI: atom
# names match ``[A-Za-z0-9_']+``, and every text the package writes is
# built from them and fixed labels.

_AS_IS = frozenset({str, int, bool, type(None), list, tuple, dict})
_LITERALS = {True: "true", False: "false", None: "null"}


def _plain(text: str) -> bool:
    """Whether ``text`` is printable ASCII with no ``"`` or backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _string(text) -> str:
    """``text`` in quotes, as json writes a plain string; anything else
    raises TypeError."""
    if type(text) is str and _plain(text):
        return '"' + text + '"'
    raise TypeError(f"{text!r} is not JSON serializable as a plain string")


def _node(value):
    """``value`` one level into the writer's domain. A package value
    becomes the object, array or string it is written as, a set the
    array of its elements in the order of their JSON text (for atom
    names, their own order); a str, int, bool, None, list, tuple, dict
    or iterator returns as it is."""
    kind = type(value)
    if kind in _AS_IS:
        return value
    if kind is Partition3:
        # Atom names: a plain sort gives the set order, without a key.
        return {
            "true": sorted(value.true_set),
            "false": sorted(value.false_set),
            "paradox": sorted(value.paradox_set),
        }
    if kind is Clause:
        return str(value)
    if kind is frozenset or kind is set:
        return sorted(map(_node, value), key=_string)
    if _instance_of(value, "resolution", "Closure"):
        texts = value.clause_texts()
        # A clause text is built from universe names, " ", "~" and "[]"
        # alone, so plain names make every text plain.
        if texts and all(map(_plain, value.universe)):
            return _PlainTexts(texts)
        return texts
    if _instance_of(value, "semantics", "SubdiscourseReport"):
        return {
            "paradox": value.paradox_atoms,
            "healthy": value.healthy_atoms,
            "border": value.border,
            "theory": sorted_clause_strings(value.theory.clauses),
        }
    if _instance_of(value, "semantics", "EntailmentVerdict"):
        via = {"kind": value.kind, "witness": value.witness, "countermodel": value.countermodel}
        return {"holds": value.holds, "via": {k: v for k, v in via.items() if v is not None}}
    if hasattr(value, "__next__"):
        return value
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


class _PlainTexts(list):
    """A nonempty list of strings already known to be plain."""


def _plain_strings(value) -> bool:
    """Whether ``value`` is a nonempty list or tuple of plain strings."""
    if not (type(value) in (list, tuple) and value and type(value[0]) is str):
        return False
    try:
        return _plain("".join(value))
    except TypeError:  # an element past the first is no string
        return False


def _chunks(value, indent: str = "\n") -> Iterator[str]:
    """The JSON text of the array or object ``value`` one piece at a
    time; ``indent`` starts the line of its closing bracket. Each item
    goes through ``_node`` as it is reached, and a scalar is written in
    line. An iterator is written as the array of its items as they
    come, so that a listing streams."""
    inner = indent + "  "
    if type(value) is _PlainTexts or _plain_strings(value):
        # One join writes the array: closures and atom sets.
        yield "[" + inner + '"'
        yield ('",' + inner + '"').join(value)
        yield '"' + indent + "]"
        return
    if type(value) is dict:
        items = ((_string(k) + ": ", v) for k, v in sorted(value.items()))
        brackets = "{}"
    else:
        items = (("", v) for v in value)
        brackets = "[]"
    sep = brackets[0] + inner
    for prefix, item in items:
        item = _node(item)
        kind = type(item)
        if kind is str:
            yield sep + prefix + _string(item)
        elif kind is int:
            yield sep + prefix + repr(item)
        elif kind is bool or item is None:
            yield sep + prefix + _LITERALS[item]
        else:
            yield sep + prefix
            yield from _chunks(item, inner)
        sep = "," + inner
    yield brackets if sep[0] != "," else indent + brackets[1]


def json_chunks(result, command: str = "result") -> Iterator[str]:
    """The versioned envelope of a command result, one piece at a time:
    together the bytes of ``json.dumps(envelope, indent=2,
    sort_keys=True)`` with the package's values written as ``_node``
    converts them. A result given as an iterator is written as the
    array of its items while it is consumed."""
    return _chunks({"schema": SCHEMA_VERSION, "command": command, "result": result})


def to_json(result, command: str = "result") -> str:
    """Serialize a command result in the stable, versioned envelope."""
    return "".join(json_chunks(result, command))
