"""Text formats: GNF theories, edge lists, clause sets, and JSON output.

Grammar summary. A GNF theory is one formula per line, ``x : y1 y2``,
meaning ``x`` holds exactly when every ``yi`` fails; ``x :`` defines a
sink. An edge list is ``a -> b`` per line plus ``vertex x`` for
isolated vertices. A clause set is one clause per line: whitespace
separated literals with ``~`` marking negation, and ``[]`` on its own
line for the empty clause. ``#`` starts a comment everywhere. Parsing
and serialization round-trip for all three kinds.
"""

from __future__ import annotations

import re
import sys
from typing import Iterator, Optional, Union

from .clauses import ClausalTheory, Clause, Literal, clause_sort_key
from .errors import ParseError
from .graphs import Digraph, GnfTheory, complete_loose_atoms, is_valid_atom
from .kernels import Partition2, Partition3
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


def format_clause(clause: Clause) -> str:
    return str(clause)


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


def to_jsonable(value):
    """Convert package values into JSON-ready structures.

    Atom sets become sorted arrays; partitions become objects with
    ``true``/``false`` (and ``paradox``) keys; clauses become their text
    form.
    """
    if isinstance(value, Partition3):
        return {
            "true": sorted(value.true_set),
            "false": sorted(value.false_set),
            "paradox": sorted(value.paradox_set),
        }
    if isinstance(value, Partition2):
        return {"true": sorted(value.true_set), "false": sorted(value.false_set)}
    if isinstance(value, Clause):
        return str(value)
    if _instance_of(value, "resolution", "Closure"):
        return value.clause_texts()
    if _instance_of(value, "semantics", "SubdiscourseReport"):
        return {
            "paradox": sorted(value.paradox_atoms),
            "healthy": sorted(value.healthy_atoms),
            "border": sorted(value.border),
            "theory": sorted_clause_strings(value.theory.clauses),
        }
    if _instance_of(value, "semantics", "EntailmentVerdict"):
        via: dict = {"kind": value.kind}
        if value.witness is not None:
            via["witness"] = str(value.witness)
        if value.countermodel is not None:
            via["countermodel"] = to_jsonable(value.countermodel)
        return {"holds": value.holds, "via": via}
    if isinstance(value, (frozenset, set)):
        # Elements that order among themselves (atom names) keep that
        # order; the others (clauses, partitions) order by their JSON
        # text. Either way each element is converted, a lone one too.
        try:
            ordered = sorted(value)
        except TypeError:
            items = [to_jsonable(v) for v in value]
            if all(isinstance(v, str) for v in items):
                return sorted(items, key=_string)
            import json

            return sorted(items, key=json.dumps)
        return [to_jsonable(v) for v in ordered]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    return value


# The JSON writer. It writes what ``json.dumps(value, indent=2,
# sort_keys=True)`` writes, in pieces, without the json package: given an
# indent, json encodes in pure Python. On the 64,802 clause texts of an
# 8-atom closure json took 26.6 ms and this writer 10.2 ms (shared 2-CPU
# Linux VM), most of it in one isprintable() over their join.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(text: str) -> bool:
    """Whether ``text`` is printable ASCII with no ``"`` or backslash:
    json writes it in quotes as it stands. Atom names and clause texts
    always are."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _string(text: str) -> str:
    """``text`` quoted and escaped as json's ``encode_basestring_ascii`` does."""
    if _plain(text):
        return '"' + text + '"'
    try:
        from _json import encode_basestring_ascii
    except ImportError:  # an interpreter without json's C accelerator
        from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(text)


def _scalar(value) -> Optional[str]:
    """The JSON text of a string, number, bool or None; None for an
    object or an array (a dict, list, tuple or iterator)."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, (dict, list, tuple)) or hasattr(value, "__next__"):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _plain_strings(value) -> bool:
    """Whether ``value`` is a nonempty list or tuple of plain strings."""
    if not (isinstance(value, (list, tuple)) and value and isinstance(value[0], str)):
        return False
    try:
        return _plain("".join(value))
    except TypeError:  # an element past the first is no string
        return False


def _chunks(value, indent: str = "\n") -> Iterator[str]:
    """The JSON text of ``value`` one piece at a time; ``indent`` starts
    the line of its closing bracket. An iterator is written as the array
    of its items as they come, so that a listing streams. Keys must be
    strings."""
    text = _scalar(value)
    if text is not None:
        yield text
        return
    inner = indent + "  "
    if _plain_strings(value):
        # One join writes the array: closures and atom sets.
        yield "[" + inner + '"'
        yield ('",' + inner + '"').join(value)
        yield '"' + indent + "]"
        return
    if isinstance(value, dict):
        items = ((_string(k) + ": ", v) for k, v in sorted(value.items()))
        brackets = "{}"
    else:
        items = (("", v) for v in value)
        brackets = "[]"
    sep = brackets[0] + inner
    for prefix, item in items:
        text = _scalar(item)
        if text is None:
            yield sep + prefix
            yield from _chunks(item, inner)
        else:
            yield sep + prefix + text
        sep = "," + inner
    yield brackets if sep[0] != "," else indent + brackets[1]


def json_chunks(result, command: str = "result") -> Iterator[str]:
    """The versioned envelope of a command result, one piece at a time:
    together the bytes of ``json.dumps(envelope, indent=2,
    sort_keys=True)``. A result given as an iterator of JSON-ready items
    is written as their array while it is consumed."""
    document = {"schema": SCHEMA_VERSION, "command": command, "result": to_jsonable(result)}
    return _chunks(document)


def to_json(result, command: str = "result") -> str:
    """Serialize a command result in the stable, versioned envelope."""
    return "".join(json_chunks(result, command))
