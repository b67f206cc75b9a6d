"""Directed graphs and theories in graph normal form (GNF).

An atom is a plain string built from letters, digits, underscores and
apostrophes. A GNF theory assigns to every atom the set of atoms it
negates (an empty set means the atom asserts itself outright); a
digraph carries exactly the same information as edges from each atom to
the atoms it negates. ``theory_to_graph`` and ``graph_to_theory`` are
mutually inverse, so the two presentations are interchangeable.

Every value here is immutable after construction and every operation is
a pure function. Internally a graph interns its vertices into dense bit
positions (lexicographic order), because the enumeration and closure
algorithms built on top of this module live and die by fast set
operations; the public API only ever speaks atom names.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import ValidationError
from .records import Record

_ATOM_RE = re.compile(r"[A-Za-z0-9_']+\Z")


def is_valid_atom(name: str) -> bool:
    """True if ``name`` is a legal atom (letters, digits, ``_``, ``'``)."""
    return isinstance(name, str) and bool(_ATOM_RE.match(name))


def _check_atom(name: str) -> str:
    if not is_valid_atom(name):
        raise ValidationError(f"invalid atom name {name!r}")
    return name


def _check_atoms(names: Iterable[str]) -> None:
    """Refuse the least invalid name of ``names``, whatever their order."""
    if bad := [name for name in names if not is_valid_atom(name)]:
        _check_atom(min(bad, key=str))


class Universe:
    """A fixed, lexicographically ordered set of atoms with bit positions.

    ``mask_of`` turns names into an integer bitmask; bit ``i`` stands for
    ``names[i]``; of several unknown names it refuses the least, whatever
    their order. ``names_of`` is the one conversion back: it splits each
    mask into byte pieces and joins the names of each piece, looking each
    piece up once per call, so a listing converts all its masks in one
    call. ``atoms_of`` and ``sorted_atoms_of`` read one mask bit by bit,
    which costs less than a memo that one mask never reuses.
    """

    __slots__ = ("names", "full_mask", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        _check_atoms(self.names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.full_mask = (1 << len(self.names)) - 1

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Universe({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown atom {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        index, mask = self._index, 0
        try:
            for name in names:
                mask |= 1 << index[name]
        except KeyError:
            # A collection is read again; an iterator goes on past ``name``.
            self.index(min([name, *(n for n in names if n not in index)], key=str))
        return mask

    def names_of(self, masks: Iterable[int]) -> Iterator[tuple[str, ...]]:
        """The names of each mask in turn, sorted.

        A mask is cut into byte pieces, each kept in place (``mask & 255
        << shift``), so that a piece's value says both which byte it is
        and which bits it holds. The names of each piece are found once
        per call and remembered only until the call ends, since the
        masks of a listing share few distinct pieces. A new piece is
        read bit by bit in line, since a generator per piece made
        one-mask calls markedly slower.
        """
        names = self.names
        memo: dict[int, tuple[str, ...]] = {}
        for mask in masks:
            found: tuple[str, ...] = ()
            shift = 0
            while mask:
                piece = mask & 255 << shift
                if piece:
                    mask ^= piece
                    part = memo.get(piece)
                    if part is None:
                        part, rest = (), piece
                        while rest:
                            low = rest & -rest
                            part += (names[low.bit_length() - 1],)
                            rest ^= low
                        memo[piece] = part
                    found += part
                shift += 8
            yield found

    def atoms_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.sorted_atoms_of(mask))

    def sorted_atoms_of(self, mask: int) -> tuple[str, ...]:
        names, found = self.names, []
        while mask:
            low = mask & -mask
            found.append(names[low.bit_length() - 1])
            mask ^= low
        return tuple(found)


def bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Digraph:
    """A finite directed graph over named atoms.

    Loops are permitted; edges have set semantics (no parallel
    duplicates). Vertices are kept in lexicographic order and all
    derived iteration is deterministic.
    """

    __slots__ = ("universe", "vertices", "edges", "_succ", "_pred")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.universe = Universe(vertices)
        self.vertices: tuple[str, ...] = self.universe.names
        n = len(self.vertices)
        succ = [0] * n
        pred = [0] * n
        edge_set = set()
        index = self.universe._index
        try:
            for src, dst in edges:
                i, j = index[src], index[dst]
                succ[i] |= 1 << j
                pred[j] |= 1 << i
                edge_set.add((src, dst))
        except KeyError:
            self.universe.mask_of([src, dst, *(a for edge in edges for a in edge)])  # raises
        self.edges: frozenset[tuple[str, str]] = frozenset(edge_set)
        self._succ = succ
        self._pred = pred

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        es = sorted(self.edges)
        return f"Digraph(vertices={list(self.vertices)!r}, edges={es!r})"

    def __len__(self) -> int:
        return len(self.vertices)

    def successors(self, atom: str) -> frozenset[str]:
        return self.universe.atoms_of(self._succ[self.universe.index(atom)])

    def predecessors(self, atom: str) -> frozenset[str]:
        return self.universe.atoms_of(self._pred[self.universe.index(atom)])

    # Mask-level helpers used throughout the package. ``mask`` arguments
    # are bitmasks over ``self.universe``.

    def out_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self._succ[i]
        return out

    def in_mask(self, mask: int) -> int:
        into = 0
        for i in bits(mask):
            into |= self._pred[i]
        return into

    def in_closed_mask(self, mask: int) -> int:
        return mask | self.in_mask(mask)

    def inverse_closed(self, mask: int) -> bool:
        """True if the in-closure of ``mask`` has no predecessors outside it."""
        dom = self.in_closed_mask(mask)
        return self.in_mask(dom) & ~dom == 0


class GnfTheory:
    """A well-formed GNF theory: every mentioned atom is defined once.

    ``formulas`` maps each atom to the (frozen) set of atoms under its
    negated conjunction; an empty set is a sink formula asserting the
    atom. Construction rejects loose atoms, i.e. atoms that occur on a
    right-hand side without a definition of their own.
    """

    __slots__ = ("formulas",)

    def __init__(self, formulas: Mapping[str, Iterable[str]]):
        table: dict[str, frozenset[str]] = {}
        for atom in sorted(formulas):
            _check_atom(atom)
            table[atom] = frozenset(formulas[atom])
            _check_atoms(table[atom])
        for atom, rhs in table.items():
            for other in sorted(rhs):
                if other not in table:
                    raise ValidationError(
                        f"loose atom {other!r}: it occurs in the formula for "
                        f"{atom!r} but has no formula of its own"
                    )
        self.formulas: dict[str, frozenset[str]] = table

    def atoms(self) -> tuple[str, ...]:
        return tuple(self.formulas)

    def negated(self, atom: str) -> frozenset[str]:
        try:
            return self.formulas[atom]
        except KeyError:
            raise ValidationError(f"unknown atom {atom!r}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GnfTheory) and self.formulas == other.formulas

    def __hash__(self) -> int:
        return hash(frozenset(self.formulas.items()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{atom}: {sorted(rhs)}" for atom, rhs in self.formulas.items()
        )
        return f"GnfTheory({{{parts}}})"


def theory_to_graph(theory: GnfTheory) -> Digraph:
    """The graph of a theory: an edge from each atom to each atom it negates."""
    edges = [
        (atom, other)
        for atom, rhs in theory.formulas.items()
        for other in sorted(rhs)
    ]
    return Digraph(theory.atoms(), edges)


def graph_to_theory(graph: Digraph) -> GnfTheory:
    """The theory of a graph; inverse of :func:`theory_to_graph`."""
    return GnfTheory(dict(zip(graph.vertices, graph.universe.names_of(graph._succ))))


class Neighborhood(Record):
    """One-step neighborhoods of a vertex set.

    ``out`` collects successors, ``in_`` predecessors, and ``in_closed``
    is the set itself together with its predecessors.
    """

    __slots__ = ("out", "in_", "in_closed")

    def __init__(self, out: frozenset[str], in_: frozenset[str], in_closed: frozenset[str]):
        super().__init__(out, in_, in_closed)


def neighborhoods(graph: Digraph, atoms: Iterable[str]) -> Neighborhood:
    mask = graph.universe.mask_of(atoms)
    fields = (graph.out_mask(mask), graph.in_mask(mask), graph.in_closed_mask(mask))
    return Neighborhood(*map(frozenset, graph.universe.names_of(fields)))


def reachable(graph: Digraph, atoms: Iterable[str], direction: str = "forward") -> frozenset[str]:
    """Reflexive-transitive closure of the edge relation from ``atoms``.

    ``direction`` is ``"forward"`` (follow edges) or ``"backward"``
    (follow reversed edges). Always a superset of ``atoms`` and a
    fixpoint of one more neighborhood step.
    """
    if direction not in ("forward", "backward"):
        raise ValidationError(f"direction must be 'forward' or 'backward', got {direction!r}")
    step = graph.out_mask if direction == "forward" else graph.in_mask
    mask = graph.universe.mask_of(atoms)
    while True:
        grown = mask | step(mask)
        if grown == mask:
            return graph.universe.atoms_of(mask)
        mask = grown


def is_inverse_closed(graph: Digraph, atoms: Iterable[str]) -> bool:
    """True if the in-closure of ``atoms`` has no predecessors outside itself."""
    return graph.inverse_closed(graph.universe.mask_of(atoms))


def induced_subgraph(graph: Digraph, atoms: Iterable[str]) -> Digraph:
    """The subgraph on ``atoms`` keeping exactly the edges inside it."""
    keep = frozenset(atoms)
    graph.universe.mask_of(keep)  # refuses an unknown atom
    edges = [(s, d) for (s, d) in graph.edges if s in keep and d in keep]
    return Digraph(keep, edges)


def flood_fill(links: "list[int]") -> list[int]:
    """The connected components of atoms ``0 .. len(links) - 1`` as
    bitmasks, where ``links[i]`` is the mask of the atoms linked to atom
    ``i``; components come ordered by their lowest bit."""
    seen = 0
    components = []
    for start in range(len(links)):
        if seen >> start & 1:
            continue
        comp = frontier = 1 << start
        while frontier:
            reach = 0
            for i in bits(frontier):
                reach |= links[i]
            frontier = reach & ~comp
            comp |= frontier
        seen |= comp
        components.append(comp)
    return components


@lru_cache(maxsize=512)
def component_masks(graph: Digraph) -> tuple[int, ...]:
    """The weakly connected components as bitmasks over the universe.

    Edge directions are forgotten; components come ordered by their
    lowest bit. Memoised per graph, as the model route asks for them on
    every question.
    """
    return tuple(flood_fill([s | p for s, p in zip(graph._succ, graph._pred)]))


def underlying_components(graph: Digraph) -> list[frozenset[str]]:
    """Connected components after forgetting edge directions.

    Returned in deterministic order, by smallest member atom.
    """
    return list(map(frozenset, graph.universe.names_of(component_masks(graph))))


def complete_loose_atoms(formulas: Mapping[str, Iterable[str]]) -> GnfTheory:
    """Close a raw theory by pairing every loose atom with a fresh twin.

    Each loose atom ``b`` gets a fresh atom ``b'`` (apostrophes are
    appended until the name is unused) and the two formulas ``b: b'``
    and ``b': b``, after which the result is well-formed. A theory that
    is already well-formed comes back unchanged.
    """
    table: dict[str, frozenset[str]] = {}
    for atom in sorted(formulas):
        _check_atom(atom)
        table[atom] = frozenset(formulas[atom])
        _check_atoms(table[atom])
    taken = set(table)
    for rhs in table.values():
        taken |= rhs
    loose = sorted(a for a in taken if a not in table)
    for atom in loose:
        twin = atom + "'"
        while twin in taken:
            twin += "'"
        taken.add(twin)
        table[atom] = frozenset({twin})
        table[twin] = frozenset({atom})
    return GnfTheory(table)
