"""Model-side consequence: satisfaction and entailment.

Satisfaction of a clause by a three-way partition has three routes: a
positive literal lands in the true part, a negative literal lands in
the false part, or the whole clause lives inside a nonempty unsettled
part. With an empty unsettled part this is exactly classical clause
satisfaction.

Paraconsistent entailment has two implementations on purpose, one per
side of the soundness and completeness theorem. The decision procedure
in :mod:`kernelogic.resolution` works straight off the saturated
closure; :class:`kernelogic.kernels.ModelSide` decides it from the
models one component at a time, without listing them. It answers the
CLI on graph inputs, and :func:`entails_semantic` builds its witnesses
and countermodels from the same queries. :func:`classical_entails` is
the two-valued relation, by truth tables.

The consistent part of a discourse (:func:`subdiscourse_report`) and
its two-valued models (:func:`core_models`) need only the paradoxical
atoms, from whichever side found them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .clauses import ClausalTheory, Clause, intern_clause, remove_atoms
from .errors import ResourceLimitError, ValidationError
from .graphs import Digraph, Universe, induced_subgraph, neighborhoods
from .kernels import (
    DEFAULT_MAX_ATOMS,
    Partition2,
    Partition3,
    _partition_from_mask,
    enumerate_kernels,
    model_side,
)
from .records import Record


def satisfies(partition: Partition3, clause: Clause) -> bool:
    """Clause satisfaction by a three-way partition.

    The empty clause is satisfied exactly when the unsettled part is
    nonempty.
    """
    atoms = partition.atoms()
    foreign = clause.atoms() - atoms
    if foreign:
        raise ValidationError(f"clause atoms outside the partition: {sorted(foreign)}")
    for lit in clause.literals:
        if lit.negated:
            if lit.atom in partition.false_set:
                return True
        elif lit.atom in partition.true_set:
            return True
    return bool(partition.paradox_set) and clause.atoms() <= partition.paradox_set


class EntailmentVerdict(Record):
    """Outcome of a semantic entailment check, with its reason.

    ``kind`` is ``"healthy-witness"`` (some subclause over settled atoms
    holds in every model, carried in ``witness``), ``"all-paradox"``
    (every atom of the clause is unsettled in every model), or
    ``"countermodel"`` (a model falsifying the clause, carried in
    ``countermodel``).
    """

    __slots__ = ("holds", "kind", "witness", "countermodel")

    def __init__(
        self,
        holds: bool,
        kind: str,
        witness: Optional[Clause] = None,
        countermodel: Optional[Partition3] = None,
    ):
        super().__init__(holds, kind, witness, countermodel)


def entails_semantic(
    graph: Digraph,
    clause: Clause,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    *,
    model_list: Optional[list[Partition3]] = None,
) -> EntailmentVerdict:
    """Entailment over the models, per weakly connected component of at
    most ``max_atoms`` atoms, with its reason. ``model_list`` is accepted
    and ignored: the per-component search is already cached per graph.
    """
    side = model_side(graph, max_atoms)
    if side is None:
        raise ResourceLimitError(f"a component exceeds the enumeration cap of {max_atoms} atoms")
    found = side.countermodel(clause)
    if found is not None:
        model = _partition_from_mask(graph, found)
        return EntailmentVerdict(False, "countermodel", countermodel=model)
    unsettled = side.paradox_atoms()
    if unsettled and clause.atoms() <= unsettled:
        return EntailmentVerdict(True, "all-paradox")
    healthy_lits = [l for l in clause.sorted_literals() if l.atom not in unsettled]
    for size in range(1, len(healthy_lits) + 1):
        for combo in combinations(healthy_lits, size):
            candidate = Clause(combo)
            if side.entails(candidate):
                return EntailmentVerdict(True, "healthy-witness", witness=candidate)
    raise AssertionError(
        "entailed clause with no healthy witness; completeness is broken"
    )


def classical_entails(
    theory: ClausalTheory, clause: Clause, max_atoms: int = DEFAULT_MAX_ATOMS
) -> bool:
    """Two-valued entailment by truth tables over the whole universe."""
    u = Universe(theory.universe)
    goal_pos, goal_neg = intern_clause(clause, u)
    n = len(u)
    if n > max_atoms:
        raise ResourceLimitError(f"universe has {n} atoms, truth-table cap is {max_atoms}")

    theory_masks = [intern_clause(cl, u) for cl in theory.clauses]
    for assignment in range(1 << n):
        if all(p & assignment or q & ~assignment for p, q in theory_masks):
            if not (goal_pos & assignment or goal_neg & ~assignment):
                return False
    return True


class SubdiscourseReport(Record):
    """The consistent part of a theory, and where it touches the rest.

    ``theory`` is the input with every literal over a paradoxical atom
    deleted. ``border`` is only populated for graph-derived theories:
    the healthy vertices with an edge into the paradoxical region.
    """

    __slots__ = ("paradox_atoms", "healthy_atoms", "theory", "border")

    def __init__(
        self,
        paradox_atoms: frozenset[str],
        healthy_atoms: frozenset[str],
        theory: ClausalTheory,
        border: frozenset[str],
    ):
        super().__init__(paradox_atoms, healthy_atoms, theory, border)


def subdiscourse_report(
    theory: ClausalTheory, graph: Optional[Digraph], bad: frozenset[str]
) -> SubdiscourseReport:
    """The report of ``theory`` whose provably paradoxical atoms are
    ``bad``, from the closure or from the models of ``graph``; the
    graph, when given, must induce the theory."""
    healthy = frozenset(theory.universe) - bad
    border: frozenset[str] = frozenset()
    if graph is not None:
        # The healthy atoms with a successor outside the healthy ones.
        names = graph.universe
        kept = names.mask_of(healthy)
        border = names.atoms_of(graph.in_mask(names.full_mask & ~kept) & kept)
    return SubdiscourseReport(
        paradox_atoms=bad,
        healthy_atoms=healthy,
        theory=remove_atoms(theory, bad),
        border=border,
    )


def core_models(
    report: SubdiscourseReport, graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS
) -> list[Partition2]:
    """Two-valued models of the consistent subtheory.

    These are the kernels of the healthy induced subgraph whose false
    part covers every border vertex, each paired with that false part.
    """
    healthy = induced_subgraph(graph, report.healthy_atoms)
    out = []
    for kernel in enumerate_kernels(healthy, max_atoms):
        false_part = neighborhoods(healthy, kernel).in_
        if report.border <= false_part:
            out.append(Partition2(kernel, false_part))
    return out

