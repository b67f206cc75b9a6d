"""Clause algebra: literals, clauses, clause sets, and the graph translation.

Clauses are finite sets of literals, so ``~x ~x`` collapses to ``~x``
and a clause may legitimately contain both ``x`` and ``~x`` (the
resolution axioms do). The empty clause is a first-class value and
prints as ``[]``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import ValidationError
from .graphs import Digraph, Universe, _check_atoms
from .records import Record


class Literal(NamedTuple):
    """An atom or its negation. Orders by atom, positive before negative."""

    atom: str
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def __str__(self) -> str:
        return "~" + self.atom if self.negated else self.atom


class Clause(Record):
    """A clause as a canonical, immutable set of literals."""

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[Literal] = frozenset()):
        if not isinstance(literals, frozenset):
            literals = frozenset(literals)
        _check_atoms(lit.atom for lit in literals)
        super().__init__(literals)

    @classmethod
    def _unchecked(cls, literals: Iterable[Literal]) -> "Clause":
        """A clause of literals whose atoms are already known valid."""
        clause = object.__new__(cls)
        Record.__init__(clause, frozenset(literals))
        return clause

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def atoms(self) -> frozenset[str]:
        return frozenset(lit.atom for lit in self.literals)

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals))

    def issubset(self, other: "Clause") -> bool:
        return self.literals <= other.literals

    def difference(self, other: "Clause") -> "Clause":
        return Clause(self.literals - other.literals)

    def union(self, other: "Clause") -> "Clause":
        return Clause(self.literals | other.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.sorted_literals())

    def __contains__(self, lit: object) -> bool:
        return lit in self.literals

    def __str__(self) -> str:
        if not self.literals:
            return "[]"
        return " ".join(str(lit) for lit in self.sorted_literals())

    def __repr__(self) -> str:
        return f"Clause({str(self)!r})"


def intern_clause(clause: Clause, universe: Universe) -> tuple[int, int]:
    """A clause as (positive, negative) atom bitmasks over ``universe``.

    Of several unknown atoms the least is reported, so that every run
    names the same one whatever the order of the literal set.
    """
    pos = neg = 0
    try:
        for lit in clause.literals:
            bit = 1 << universe.index(lit.atom)
            if lit.negated:
                neg |= bit
            else:
                pos |= bit
    except ValidationError:
        universe.mask_of(clause.atoms())  # refuses the least unknown atom
        raise
    return pos, neg


def clause_of_masks(pos: int, neg: int, universe: Universe) -> Clause:
    """The clause of (positive, negative) atom bitmasks over ``universe``;
    the inverse of ``intern_clause``."""
    pos_names, neg_names = universe.names_of((pos, neg))
    lits = [Literal(a) for a in pos_names]
    lits += [Literal(a, True) for a in neg_names]
    # The names come from the validated universe.
    return Clause._unchecked(lits)


def clause_sort_key(clause: Clause) -> tuple:
    """Deterministic clause order: by size, then by sorted literals."""
    lits = clause.sorted_literals()
    return (len(lits), lits)


class ClausalTheory(Record):
    """A finite clause set over an explicitly fixed atom universe.

    The universe defaults to the atoms that occur in the clauses but may
    be wider; resolution axioms later quantify over all of it. It is
    kept as a sorted tuple of atom names.
    """

    __slots__ = ("clauses", "universe")

    def __init__(self, clauses: Iterable[Clause], universe: Iterable[str] = ()):
        if not isinstance(clauses, frozenset):
            clauses = frozenset(clauses)
        occurring = {atom for cl in clauses for atom in cl.atoms()}
        if universe:
            names = tuple(sorted(set(universe)))
            missing = occurring - set(names)
            if missing:
                raise ValidationError(
                    f"universe is missing occurring atoms: {sorted(missing)}"
                )
        else:
            names = tuple(sorted(occurring))
        _check_atoms(names)
        super().__init__(clauses, names)

    def atoms(self) -> tuple[str, ...]:
        return self.universe

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(sorted(self.clauses, key=clause_sort_key))

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self)
        return f"ClausalTheory([{body}], universe={list(self.universe)!r})"


def clausal_theory(graph: Digraph) -> ClausalTheory:
    """The clause form of a graph.

    Every vertex ``x`` contributes one all-positive clause over ``x``
    and its successors, and one binary negative clause ``~x ~y`` per
    successor ``y``. Set semantics deduplicates: the positive clause of
    a loop vertex mentions it once and the negative clause of a loop is
    the unit ``~x``.
    """
    # The names come from the graph's validated universe.
    built: list[Clause] = []
    for x, succ in zip(graph.vertices, graph.universe.names_of(graph._succ)):
        built.append(Clause._unchecked(Literal(y) for y in {x, *succ}))
        for y in succ:
            built.append(Clause._unchecked((Literal(x, True), Literal(y, True))))
    return ClausalTheory(frozenset(built), graph.vertices)


def complement_units(clause: Clause) -> frozenset[Clause]:
    """One unit clause per literal of ``clause``, with polarity flipped."""
    return frozenset(Clause((lit.complement(),)) for lit in clause.literals)


def remove_atoms(theory: ClausalTheory, atoms: Iterable[str]) -> ClausalTheory:
    """Delete every literal over ``atoms`` from every clause.

    Clauses that lose all their literals disappear entirely (including
    an input empty clause), and the universe shrinks accordingly.
    """
    drop = frozenset(atoms)
    kept = set()
    for clause in theory.clauses:
        reduced = frozenset(l for l in clause.literals if l.atom not in drop)
        if reduced:
            kept.add(Clause._unchecked(reduced))
    universe = tuple(a for a in theory.universe if a not in drop)
    return ClausalTheory(frozenset(kept), universe)
