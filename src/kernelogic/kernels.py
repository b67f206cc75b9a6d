"""Kernels, semikernels, and the partitions they induce.

A kernel is an independent set that absorbs its complement; it plays
the role of a two-valued model of the graph's theory. A semikernel
relaxes absorption to its own neighborhood, leaving a third, unsettled
region. The models of a graph are the inverse-closed semikernels whose
settled region is maximal; they exist for every graph because the empty
set always qualifies.

All three properties are local to the weakly connected components: a
set is a kernel, a semikernel or an inverse-closed semikernel exactly
when its trace on every component is one. Enumeration therefore runs
per component, as one walk that grows the independent sets and hands
out the semikernels among them, and the whole graph's lists are the
products of the components' lists, sorted by subset rank. Models need
no pairwise comparison: any inverse-closed semikernel can be grown to
settle the domain of any other (``extend_partition``), so every one
settles atoms inside one maximal domain, and the walk keeps the widest
domain it has met with the sets that settle exactly it: the models.

Each graph caches one value, its ``ModelSide``: per component, the
models and the one domain they settle, and nothing else. A kernel is
an inverse-closed semikernel that settles every atom, and the maximal
domain is unique, so the kernels are the models when no atom is
paradoxical, and there are none otherwise. Semikernels are walked
again whenever they are listed, since only that listing reads them.

Each listing is first a list of masks in subset rank, from one
function per listing that the package alone uses (``kernel_masks``,
``semikernel_masks``, and ``model_masks`` for the models' true sets).
The public lists turn those masks into names in one
``Universe.names_of`` pass, which looks up each byte piece of a mask
once per call; a model's three fields go through the same pass
(``partition_names``). The command line writes each text line and JSON
item from a mask's names as they come, the brute-force oracle's too
(``--oracle``), building neither the sets nor their list.

Direct resolution is sound and complete for this semantics, so the
models also answer the closure's questions (``ModelSide``, which
computes its paradox mask once): the atoms every model leaves unsettled
are the provably paradoxical atoms, a clause holds in every model
exactly when the closure entails it, and the minimal derivable clauses
are the minimal transversals of the literal sets the models make true,
found by MMCS.

Kernel problems are NP-hard in general, so a configurable atom cap
(default 20) keeps calls honest. The listings count the whole graph,
however it splits into components; ``model_side`` answers every other
model-side question without a product and counts each component. This
package targets desk scale and chooses exactness over volume.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .clauses import Clause, clause_of_masks, intern_clause
from .errors import ResourceLimitError, ValidationError
from .graphs import Digraph, bits, component_masks, reachable
from .records import Record

DEFAULT_MAX_ATOMS = 20

# The closure's caps and weakening modes live here, beside the model
# side's cap, so that the command line can build its parser without
# loading the resolution engine that reads them.
DEFAULT_MAX_CLAUSES = 1_000_000

# Widest component that saturates on its clause lattice, whose arrays
# hold 4**n cells: the lattice's only width rule.
LATTICE_MAX_ATOMS = 11

WEAKENING_MODES = ("none", "awbw", "cw")


class Partition3(Record):
    """A three-way split of a graph's atoms: true, false, unsettled."""

    __slots__ = ("true_set", "false_set", "paradox_set")

    def __init__(
        self, true_set: frozenset[str], false_set: frozenset[str], paradox_set: frozenset[str]
    ):
        super().__init__(true_set, false_set, paradox_set)

    def atoms(self) -> frozenset[str]:
        return self.true_set | self.false_set | self.paradox_set

    def boolean_domain(self) -> frozenset[str]:
        return self.true_set | self.false_set


class Partition2(NamedTuple):
    """A two-valued model: true atoms and false atoms."""

    true_set: frozenset[str]
    false_set: frozenset[str]


class SubsetReport(Record):
    """What a vertex subset is: the five checks bundled."""

    __slots__ = ("independent", "kernel", "semikernel", "inverse_closed", "psk")

    def __init__(
        self, independent: bool, kernel: bool, semikernel: bool, inverse_closed: bool, psk: bool
    ):
        super().__init__(independent, kernel, semikernel, inverse_closed, psk)


def _is_independent(graph: Digraph, mask: int) -> bool:
    return graph.out_mask(mask) & mask == 0


def _is_semikernel(graph: Digraph, mask: int) -> bool:
    out = graph.out_mask(mask)
    into = graph.in_mask(mask)
    return out & ~into == 0 and into & mask == 0


def _is_kernel(graph: Digraph, mask: int) -> bool:
    rest = graph.universe.full_mask & ~mask
    return _is_independent(graph, mask) and graph.in_mask(mask) == rest


def classify_subset(graph: Digraph, atoms: Iterable[str]) -> SubsetReport:
    """Classify a vertex subset in one pass."""
    mask = graph.universe.mask_of(atoms)
    independent = _is_independent(graph, mask)
    semikernel = independent and _is_semikernel(graph, mask)
    closed = graph.inverse_closed(mask)
    return SubsetReport(
        independent=independent,
        kernel=_is_kernel(graph, mask),
        semikernel=semikernel,
        inverse_closed=closed,
        psk=semikernel and closed,
    )


def partition_of(graph: Digraph, atoms: Iterable[str]) -> Partition3:
    """The three-way partition induced by an independent set.

    True atoms are the set itself, false atoms its predecessors, and
    everything else is unsettled.
    """
    atoms = frozenset(atoms)
    mask = graph.universe.mask_of(atoms)
    if not _is_independent(graph, mask):
        raise ValidationError(f"set {sorted(atoms)} is not independent")
    return _partition_from_mask(graph, mask)


def _partition_from_mask(graph: Digraph, mask: int) -> Partition3:
    return Partition3(*map(frozenset, next(partition_names(graph, (mask,)))))


def partition_names(graph: Digraph, masks: Iterable[int]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """The sorted true, false and unsettled atoms of the partition of
    each independent set in ``masks``, all converted in one pass."""
    full = graph.universe.full_mask

    def fields() -> Iterator[int]:
        for mask in masks:
            false_mask = graph.in_mask(mask)
            yield mask
            yield false_mask
            yield full & ~(mask | false_mask)

    names = graph.universe.names_of(fields())
    return zip(names, names, names)


def check_cap(atoms: int, max_atoms: int) -> None:
    """Refuse a graph of ``atoms`` atoms to the whole-graph listings."""
    if atoms > max_atoms:
        raise ResourceLimitError(f"graph has {atoms} atoms, enumeration cap is {max_atoms}")


def _semikernels(graph: Digraph, comp: int) -> Iterator[int]:
    """The semikernels inside ``comp``, each packed into one int of four
    ``len(graph)``-bit fields: the set, its successors, its predecessors
    and their predecessors.

    Independent sets are grown one vertex at a time: a vertex joins
    exactly the sets built so far that it does not touch (a looped
    vertex joins none), and every field of the grown set is the OR of
    the set's field and the vertex's, so one OR of packed ints grows all
    four. An independent set is a semikernel when its predecessors
    cover its successors.
    """
    w = len(graph.vertices)
    full = graph.universe.full_mask
    packed = [0]
    for i in bits(comp):
        bit = 1 << i
        succ, pred = graph._succ[i], graph._pred[i]
        if succ & bit == 0:
            touch = succ | pred
            grown = bit | succ << w | pred << 2 * w | graph.in_mask(pred) << 3 * w
            packed += [p | grown for p in packed if p & touch == 0]
    return (p for p in packed if p >> w & ~(p >> 2 * w) & full == 0)


def _product(per_component: Iterable[Sequence[int]]) -> list[int]:
    """The sets whose trace on every component is one of that
    component's sets, sorted as integers, that is by subset rank."""
    combined = [0]
    for masks in per_component:
        combined = [a | b for a in combined for b in masks]
    return sorted(combined)


def kernel_masks(graph: Digraph, max_atoms: int) -> list[int]:
    """The kernels' masks by subset rank: the models when they settle
    every atom, and none otherwise."""
    check_cap(len(graph.vertices), max_atoms)
    side = _model_side(graph)
    return [] if side.paradox_mask else _product(ms for ms, _ in side.components)


def semikernel_masks(graph: Digraph, max_atoms: int) -> list[int]:
    """The semikernels' masks by subset rank, the empty set first."""
    check_cap(len(graph.vertices), max_atoms)
    full = graph.universe.full_mask
    return _product(
        [p & full for p in _semikernels(graph, comp)] for comp in component_masks(graph)
    )


def model_masks(graph: Digraph, max_atoms: int) -> list[int]:
    """The masks of the models' true sets by subset rank."""
    check_cap(len(graph.vertices), max_atoms)
    return _product(ms for ms, _ in _model_side(graph).components)


def enumerate_kernels(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[frozenset[str]]:
    """All kernels, ordered by subset rank over the sorted vertices: the
    models when they settle every atom, and none otherwise."""
    return list(map(frozenset, graph.universe.names_of(kernel_masks(graph, max_atoms))))


def enumerate_semikernels(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[frozenset[str]]:
    """All semikernels, including the empty set, ordered by subset rank."""
    return list(map(frozenset, graph.universe.names_of(semikernel_masks(graph, max_atoms))))


def models(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[Partition3]:
    """All models of the graph: partitions of the inverse-closed
    semikernels whose settled domain is maximal.

    All inverse-closed semikernels settle atoms inside one maximal
    domain, the union of their domains, so the models are those that
    settle exactly it; each weakly connected component picks its own.
    The list is never empty and is ordered by subset rank of the true
    atoms; ties with an equal domain are all kept.
    """
    return [
        Partition3(frozenset(t), frozenset(f), frozenset(p))
        for t, f, p in partition_names(graph, model_masks(graph, max_atoms))
    ]


class ModelSide(NamedTuple):
    """What a graph's models decide, one weakly connected component at
    a time, without forming their product.

    By the soundness and completeness of direct resolution, the atoms
    every model leaves unsettled are the provably paradoxical atoms
    (``paradoxical_atoms``), ``entails`` is paraconsistent entailment
    (``entails_para``), and ``relevant`` and ``minimal_clauses`` answer
    as ``is_relevant`` and ``min_clauses``.
    """

    graph: Digraph
    # Per weakly connected component, its models' true sets as bitmasks
    # over the universe and the one domain they settle.
    components: tuple[tuple[tuple[int, ...], int], ...]
    paradox_mask: int  # the atoms no component's domain settles

    def paradox_atoms(self) -> frozenset[str]:
        """The atoms that every model leaves unsettled."""
        return self.graph.universe.atoms_of(self.paradox_mask)

    def countermodel(self, clause: Clause) -> Optional[int]:
        """The true atoms of the least model by subset rank that fails
        ``clause``, or None when every model satisfies it.

        A model is one model per component, each settling exactly its
        component's domain, so it fails the clause when no component's
        trace makes a literal true, unless the paradox set holds every
        atom of the clause. Component bits are disjoint, so the least
        failing model is the OR of the components' least failing ones.
        """
        return self._countermodel(*intern_clause(clause, self.graph.universe))

    def _countermodel(self, pos: int, neg: int) -> Optional[int]:
        bad = self.paradox_mask
        if bad and not (pos | neg) & ~bad:
            return None
        found = 0
        for models, domain in self.components:
            failing = [t for t in models if t & pos == 0 and neg & domain & ~t == 0]
            if not failing:
                return None
            found |= min(failing)
        return found

    def entails(self, clause: Clause) -> bool:
        """Whether every model satisfies ``clause``."""
        return self.countermodel(clause) is None

    def relevant(self, clause: Clause) -> bool:
        """Whether ``clause`` is entailed and no nonempty proper
        subclause is (``is_relevant``).

        A nonempty clause is entailed exactly when it has a nonempty
        derivable subclause, so entailment only grows with the clause:
        the clause is relevant when it is entailed and no clause short
        of one of its literals is.
        """
        if clause.is_empty:
            raise ValidationError("relevance is undefined for the empty clause")
        pos, neg = intern_clause(clause, self.graph.universe)
        if self._countermodel(pos, neg) is not None:
            return False
        shorter = [(pos & ~(1 << i), neg) for i in bits(pos)]
        shorter += [(pos, neg & ~(1 << i)) for i in bits(neg)]
        return all(self._countermodel(p, q) is not None for p, q in shorter if p or q)

    def minimal_clauses(self, max_clauses: int) -> frozenset[Clause]:
        """The entailed nonempty clauses with no entailed nonempty
        proper subclause, which are the minimal derivable clauses
        (``min_clauses``); more than ``max_clauses`` of them raise
        ``ResourceLimitError`` as soon as they are found.

        The units ``x`` and ``~x`` of each paradoxical atom are
        entailed, so no larger minimal clause holds a paradoxical
        atom. A clause over settled atoms is entailed when every model
        makes one of its literals true, and a model fails it exactly
        when each component's trace fails its part, so a minimal clause
        lies in one component. There, a model ``T`` makes true the
        literals ``x`` for ``x`` in ``T`` and ``~x`` for its
        predecessors, and the minimal clauses are the minimal
        transversals of these literal sets over the component's models.
        """
        u = self.graph.universe
        w = len(u)
        bad = self.paradox_mask
        found = [(1 << i, 0) for i in bits(bad)] + [(0, 1 << i) for i in bits(bad)]
        for models, domain in self.components:
            # One literal bit per atom and sign: x at bit i, ~x at bit w + i.
            edges = [t | (domain & ~t) << w for t in models]
            hits = _minimal_transversals(edges)
            # Search no further than one clause past the cap.
            while len(found) <= max_clauses and (hit := next(hits, None)) is not None:
                found.append((hit & u.full_mask, hit >> w))
        if len(found) > max_clauses:
            raise ResourceLimitError(f"minimal clauses exceeded {max_clauses}")
        return frozenset(clause_of_masks(pos, neg, u) for pos, neg in found)


def _minimal_transversals(edges: list[int]) -> Iterator[int]:
    """The minimal transversals of the hypergraph ``edges`` (vertex
    bitmasks), lazily, each once.

    This is MMCS (Murakami and Uno, "Efficient algorithms for dualizing
    large-scale hypergraphs", Discrete Applied Mathematics 2014). A
    branch grows a set ``hit`` that misses the edges ``uncov``; every
    vertex of ``hit`` keeps a critical edge, one that no other vertex
    of ``hit`` meets, or the branch is cut, since growing ``hit`` only
    takes critical edges away; ``crit`` holds the mask of each vertex's
    critical edges, and only whether it is empty matters. A branch hits
    the uncovered edge with the fewest candidates by each of them in
    turn, and the branch of the k-th leaves the later ones out, so no
    transversal comes twice.
    """
    occurs: dict[int, int] = {}  # vertex -> mask of the edges holding it
    for k, edge in enumerate(edges):
        for v in bits(edge):
            occurs[v] = occurs.get(v, 0) | 1 << k

    def grow(hit: int, crit: list[int], uncov: int, cand: int) -> Iterator[int]:
        if not uncov:
            yield hit
            return
        fewest = min((edges[k] & cand for k in bits(uncov)), key=int.bit_count)
        cand &= ~fewest
        for v in bits(fewest):
            meets = occurs[v]
            kept = [e & ~meets for e in crit]
            if all(kept):
                kept.append(uncov & meets)
                yield from grow(hit | 1 << v, kept, uncov & ~meets, cand)
            cand |= 1 << v

    everything = 0
    for edge in edges:
        everything |= edge
    return grow(0, [], (1 << len(edges)) - 1, everything)


def model_side(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> Optional[ModelSide]:
    """The model side of ``graph``, or None when one of its weakly
    connected components has more than ``max_atoms`` atoms.

    The sizes are checked before any search; the whole graph may be
    wider than the cap.
    """
    if any(comp.bit_count() > max_atoms for comp in component_masks(graph)):
        return None
    return _model_side(graph)


@lru_cache(maxsize=512)
def _model_side(graph: Digraph) -> ModelSide:
    """The model side of ``graph``, by one walk over each component's
    semikernels."""
    w = len(graph.vertices)
    full = graph.universe.full_mask
    components, settled = [], 0
    for comp in component_masks(graph):
        chosen, domain = [], 0
        for p in _semikernels(graph, comp):
            m, into, far = p & full, p >> 2 * w & full, p >> 3 * w
            # A semikernel is inverse-closed when the predecessors of its
            # predecessors stay inside its domain.
            dom = m | into
            if far & ~dom:
                continue
            # Every inverse-closed semikernel's domain lies inside the one
            # maximal domain (extend_partition grows any other): a domain
            # adding atoms replaces the one kept, and once met it stays.
            if dom & ~domain:
                domain, chosen = dom, [m]
            elif dom == domain:
                chosen.append(m)
        components.append((tuple(chosen), domain))
        settled |= domain
    return ModelSide(graph, tuple(components), full & ~settled)


def sk_intersect_reach(graph: Digraph, s: Iterable[str], t: Iterable[str]) -> frozenset[str]:
    """Shrink a semikernel ``s`` to the part reachable from ``t`` within it.

    Requires ``t`` to be a subset of the semikernel ``s``; the result is
    again a semikernel.
    """
    u = graph.universe
    s_mask = u.mask_of(s)
    t_mask = u.mask_of(t)
    if t_mask & ~s_mask:
        raise ValidationError("t must be a subset of s")
    if not _is_semikernel(graph, s_mask):
        raise ValidationError("s is not a semikernel")
    result = s_mask & u.mask_of(reachable(graph, u.atoms_of(t_mask)))
    if not _is_semikernel(graph, result):
        raise AssertionError("combinator broke the semikernel property")
    return u.atoms_of(result)


def sk_union(graph: Digraph, s: Iterable[str], t: Iterable[str]) -> frozenset[str]:
    """Union of two semikernels, valid when ``s`` has no predecessor in ``t``.

    The result is again a semikernel.
    """
    u = graph.universe
    s_mask = u.mask_of(s)
    t_mask = u.mask_of(t)
    if not _is_semikernel(graph, s_mask):
        raise ValidationError("s is not a semikernel")
    if not _is_semikernel(graph, t_mask):
        raise ValidationError("t is not a semikernel")
    if graph.in_mask(s_mask) & t_mask:
        raise ValidationError("predecessors of s overlap t")
    result = s_mask | t_mask
    if not _is_semikernel(graph, result):
        raise AssertionError("combinator broke the semikernel property")
    return u.atoms_of(result)


def _require_partition(graph: Digraph, p: Partition3, name: str) -> tuple[int, int, int]:
    u = graph.universe
    t, f, d = map(u.mask_of, (p.true_set, p.false_set, p.paradox_set))
    if t & f or t & d or f & d or (t | f | d) != u.full_mask:
        raise ValidationError(f"{name} is not a partition of the graph's atoms")
    return t, f, d


def _is_psk_partition(graph: Digraph, t: int, f: int) -> bool:
    return f == graph.in_mask(t) and _is_semikernel(graph, t) and graph.inverse_closed(t)


def extend_partition(graph: Digraph, alpha: Partition3, beta: Partition3) -> Partition3:
    """Grow ``alpha``'s settled domain using true atoms of ``beta``.

    Both arguments must be partitions of inverse-closed semikernels, and
    ``beta`` must settle at least one atom that ``alpha`` leaves
    unsettled. The result settles strictly more than ``alpha``.
    """
    u = graph.universe
    a_true, a_false, _ = _require_partition(graph, alpha, "alpha")
    b_true, b_false, _ = _require_partition(graph, beta, "beta")
    a_dom = a_true | a_false
    if (b_true | b_false) & ~a_dom == 0:
        raise ValidationError(
            "no overlap: beta settles nothing outside alpha's boolean domain"
        )
    if not _is_psk_partition(graph, a_true, a_false):
        raise ValidationError("alpha is not an inverse-closed semikernel partition")
    if not _is_psk_partition(graph, b_true, b_false):
        raise ValidationError("beta is not an inverse-closed semikernel partition")
    grown = a_true | (b_true & ~a_dom)
    if not (_is_semikernel(graph, grown) and graph.inverse_closed(grown)):
        raise AssertionError("combined set is not an inverse-closed semikernel")
    new_dom = graph.in_closed_mask(grown)
    if a_dom & ~new_dom or a_dom == new_dom:
        raise AssertionError("combined partition does not strictly extend alpha")
    return _partition_from_mask(graph, grown)
