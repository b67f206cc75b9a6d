"""Direct resolution: exact clause closures and what they decide.

The calculus has one axiom per universe atom, ``x ~x``, and the single
resolution rule. Saturation computes the least clause set containing
the inputs and axioms and closed under resolution. Crucially there is
no subsumption deletion and no tautology elimination: weakening is not
admissible in this logic, so exact membership in the closure IS the
derivability relation and pruning would change the meaning, not just
the performance.

Two clauses that share no atom never resolve, so the closure is the
union of the closures of the connected components of the clause
hypergraph (atoms linked when they share a clause; an atom in no clause
is a component holding only its axiom). Saturation closes each
component on its own sub-universe and merges the results into one
closure; the empty clause, common to all components, keeps the earliest
round at which any of them derives it.

Closures of paradoxical theories tend to fill large parts of the clause
lattice, which makes clause-pair scanning hopeless. A component of at
most ``LATTICE_MAX_ATOMS`` atoms therefore runs as a fixpoint over the
full lattice of its clauses, encoded as bit indices. One round takes a
single zeta transform of the derived clauses; for every pivot atom the
transforms of the clauses holding the positive and the negative pivot
are differences of two of its cells, and their pointwise product is
the pivot's union convolution in transform space. The products of all
pivots are added up, and one Moebius inversion of the sum yields, for
every clause, the number of resolvable pairs producing it: the
clauses with a positive count are the round's resolvents. Rounds
repeat until nothing new appears; the round number of each clause is
kept so that proofs can later be rebuilt by searching strictly earlier
rounds for a parent pair. Only components too wide for lattice arrays
use a classic worklist loop that records parents eagerly.

On top of the closure this module derives the provably paradoxical
atoms (both the atom and its negation derivable), the consistent
subtheory obtained by deleting all literals over them, the classical
models of that subtheory, the paraconsistent entailment decision, and
three weakening variants of provability. Entailment, weakening and
their witnesses all ask the closure for the derived subclauses of a
clause (``Closure.subclauses``) and differ only in which of them count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Optional

import numpy as np

from .clauses import (
    ClausalTheory,
    Clause,
    Literal,
    clausal_theory,
    clause_sort_key,
    complement_units,
    intern_clause,
    remove_atoms,
)
from .errors import ResourceLimitError, ValidationError
from .graphs import Digraph, Universe, bits, induced_subgraph, neighborhoods
from .kernels import DEFAULT_MAX_ATOMS, Partition2, enumerate_kernels

DEFAULT_MAX_CLAUSES = 1_000_000

# Widest universe for which 4**n lattice arrays are still cheap.
LATTICE_MAX_ATOMS = 11

# The lattice round's accumulator for pair counts.
_PAIR_COUNT = np.int64


def _check_lattice_width(n: int) -> None:
    """Refuse lattice widths whose pair counts overflow the accumulator.

    A clause holding a given pivot literal is one of at most 4**n / 2
    clauses over n atoms, so the zeta transform of one pivot's side
    counts at most that many and the pointwise product of two sides
    reaches 16**n / 4. A round adds the products of all n pivots, up to
    n * 16**n / 4; the Moebius inversion's partial values are partial
    zeta sums of non-negative counts and never exceed that sum. int64
    holds it up to n = 15.
    """
    if n * 16**n // 4 > np.iinfo(_PAIR_COUNT).max:
        raise ResourceLimitError(
            f"a {n}-atom clause lattice overflows its "
            f"{np.dtype(_PAIR_COUNT)} pair counts"
        )


_check_lattice_width(LATTICE_MAX_ATOMS)

_INPUT = "input"
_AXIOM = "axiom"
_RESOLVENT = "resolvent"


class Closure:
    """The full set of derivable clauses for one theory.

    ``derived``, ``origin`` and ``parents`` are name-level views built
    on demand; the mask-level internals stay available to the other
    operations in this module. Closures are immutable once returned.
    """

    def __init__(
        self,
        universe: Universe,
        entries: "dict[tuple[int, int], tuple[str, int]]",
        parents: "dict[tuple[int, int], Optional[tuple]]",
    ):
        self._u = universe
        self._entries = entries  # masks -> (origin, round number)
        self._parents_m = parents  # masks -> (pos parent, neg parent, atom index)
        self.universe: tuple[str, ...] = universe.names

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, clause: Clause) -> bool:
        return self.clause_masks(clause) in self._entries

    def clause_masks(self, clause: Clause) -> tuple[int, int]:
        """Intern a clause over this closure's universe."""
        return intern_clause(clause, self._u)

    def clause_of(self, masks: tuple[int, int]) -> Clause:
        pos, neg = masks
        lits = [Literal(a) for a in self._u.sorted_atoms_of(pos)]
        lits += [Literal(a, True) for a in self._u.sorted_atoms_of(neg)]
        return Clause(lits)

    def iter_masks(self):
        return iter(self._entries)

    def subclauses(self, pos: int, neg: int):
        """The derived subclauses of the clause ``(pos, neg)``, lazily, in entry order."""
        return ((p, q) for p, q in self._entries if not (p & ~pos or q & ~neg))

    @cached_property
    def paradox_mask(self) -> int:
        """The atoms whose positive and negative units are both derived."""
        mask = 0
        for i in range(len(self._u)):
            bit = 1 << i
            if (bit, 0) in self._entries and (0, bit) in self._entries:
                mask |= bit
        return mask

    def in_clause_order(self, masks) -> list[tuple[int, int]]:
        """Clause masks sorted as their clauses sort under ``clause_sort_key``."""
        masks = list(masks)
        order, _ = _clause_order(masks, len(self._u))
        return [masks[i] for i in order.tolist()]

    def clause_texts(self) -> list[str]:
        """The text of every derived clause, in ``clause_sort_key`` order.

        Equal to ``[str(c) for c in sorted(self.derived, key=clause_sort_key)]``
        without building a single Clause: each text is joined from
        per-atom pieces, looked up for four atoms at a time.
        """
        masks = list(self._entries)
        order, codes = _clause_order(masks, len(self._u))
        codes = codes[order]
        text = np.full(len(masks), "", dtype=object)
        names = self.universe
        for lo in range(0, len(names), 4):
            group = names[lo : lo + 4]
            # table[((c0 * 4 + c1) * 4 + c2) * 4 + c3] joins the pieces
            # of codes c0..c3 of the group's atoms.
            table = [""]
            for a in reversed(group):
                table = [
                    piece + rest
                    for piece in (f"{a} ~{a} ", f"{a} ", f"~{a} ", "")
                    for rest in table
                ]
            index = np.zeros(len(masks), dtype=np.int64)
            for j in range(lo, lo + len(group)):
                index = index * 4 + codes[:, j]
            text += np.array(table, dtype=object)[index]
        return [t[:-1] or "[]" for t in text.tolist()]

    @cached_property
    def derived(self) -> frozenset[Clause]:
        return frozenset(self.clause_of(m) for m in self._entries)

    @cached_property
    def origin(self) -> dict[Clause, str]:
        return {self.clause_of(m): kind for m, (kind, _) in self._entries.items()}

    @property
    def parents(self) -> dict[Clause, Optional[tuple[Clause, Clause, str]]]:
        """One recorded or reconstructed resolution step per clause.

        Building the whole map forces a parent search for every
        resolvent; intended for modest closures.
        """
        out = {}
        for m in self._entries:
            par = self.parents_of_masks(m)
            if par is None:
                out[self.clause_of(m)] = None
            else:
                p, q, i = par
                out[self.clause_of(m)] = (
                    self.clause_of(p),
                    self.clause_of(q),
                    self._u.names[i],
                )
        return out

    def parents_of_masks(self, m: tuple[int, int]) -> Optional[tuple]:
        if m in self._parents_m:
            return self._parents_m[m]
        kind, rnd = self._entries[m]
        if kind != _RESOLVENT:
            self._parents_m[m] = None
            return None
        found = self._search_parents(m, rnd)
        self._parents_m[m] = found
        return found

    def _search_parents(self, m: tuple[int, int], rnd: int) -> tuple:
        # A clause first seen in round r has a parent pair strictly
        # earlier, so restricting the scan keeps the links acyclic.
        pos, neg = m
        # Each parent lies on the clause's literals plus one pivot
        # literal, so one scan of the closure keeps every candidate for
        # every pivot, in entry order.
        near = [
            (p, q)
            for (p, q), (_, lay) in self._entries.items()
            if lay < rnd and ((p & ~pos) | (q & ~neg)).bit_count() <= 1
        ]
        for i in range(len(self._u)):
            bit = 1 << i
            pos_side = []
            neg_side = []
            for p, q in near:
                if p & bit and (p & ~bit) & ~pos == 0 and q & ~neg == 0:
                    pos_side.append((p, q))
                if q & bit and (q & ~bit) & ~neg == 0 and p & ~pos == 0:
                    neg_side.append((p, q))
            for pp, pn in pos_side:
                if neg & bit and not pn & bit:
                    # A negated pivot in the result can only survive
                    # through the positive-side parent.
                    continue
                need_pos = pos & ~(pp & ~bit)
                need_neg = (neg & ~pn) | bit
                direct = (need_pos, need_neg)
                hit = self._entries.get(direct)
                if hit is not None and hit[1] < rnd:
                    return ((pp, pn), direct, i)
            for pp, pn in pos_side:
                rp, rn = pp & ~bit, pn
                for qp, qn in neg_side:
                    if (rp | qp) == pos and (rn | (qn & ~bit)) == neg:
                        return ((pp, pn), (qp, qn), i)
        raise AssertionError("resolvent without a parent pair; layering is broken")


def _clause_order(
    masks: "list[tuple[int, int]]", n: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The ``clause_sort_key`` order of clause masks over ``n`` atoms.

    Returns the sorting permutation and, unpermuted, one literal code
    per clause and atom: 0 for both ``x ~x``, 1 for ``x``, 2 for ``~x``
    and 3 for neither. Universe names are sorted, so literals order by
    atom index with the positive one first, and of two clauses of one
    size the lowest atom where they differ decides. Sorting by size,
    then by the codes of atoms 0, 1, ... is therefore the key's order,
    for any number of atoms.
    """
    width = 2 * n // 8 + 1
    raw = b"".join([(p | q << n).to_bytes(width, "little") for p, q in masks])
    lits = np.unpackbits(
        np.frombuffer(raw, np.uint8).reshape(-1, width), axis=1, bitorder="little"
    )
    codes = 3 - 2 * lits[:, :n] - lits[:, n : 2 * n]
    size = lits.sum(axis=1, dtype=np.int64)
    return np.lexsort((*codes[:, ::-1].T, size)), codes


def _seed_entries(theory: ClausalTheory, u: Universe):
    entries: dict[tuple[int, int], tuple[str, int]] = {}
    for clause in sorted(theory.clauses, key=clause_sort_key):
        entries.setdefault(intern_clause(clause, u), (_INPUT, 0))
    for i in range(len(u)):
        bit = 1 << i
        entries.setdefault((bit, bit), (_AXIOM, 0))
    return entries


def _subset_transform(values: np.ndarray, nbits: int, sign: int) -> np.ndarray:
    """Zeta (``sign`` 1) or Moebius (``sign`` -1) transform, in place.

    The zeta transform sums each cell over the subsets of its index;
    the Moebius transform inverts it.
    """
    step = np.add if sign > 0 else np.subtract
    size = values.shape[0]
    for b in range(nbits):
        pair = values.reshape(size >> (b + 1), 2, 1 << b)
        step(pair[:, 1, :], pair[:, 0, :], out=pair[:, 1, :])
    return values


def _saturate_lattice(theory: ClausalTheory, u: Universe, max_clauses: int) -> Closure:
    n = len(u)
    _check_lattice_width(n)
    size = 1 << (2 * n)
    entries = _seed_entries(theory, u)
    derived = np.zeros(size, dtype=bool)
    for (pos, neg) in entries:
        derived[pos | (neg << n)] = True
    low = (1 << n) - 1

    rnd = 0
    while True:
        rnd += 1
        # zd[S] counts the derived clauses inside S. For the pivot bits
        # p and q of atom i, the zeta transform of the derived clauses
        # holding p, with p dropped, is zd[S | p] - zd[S & ~p]: it does
        # not depend on bit p of S, and likewise for q.
        zd = _subset_transform(derived.astype(_PAIR_COUNT), 2 * n, 1)
        pairs = np.zeros(size, dtype=_PAIR_COUNT)
        for i in range(n):
            # Axes 1 and 3 are the bits n + i (~x_i) and i (x_i).
            cells = zd.reshape(1 << (n - i - 1), 2, 1 << (n - 1), 2, 1 << i)
            with_pos = cells[:, :, :, 1, :] - cells[:, :, :, 0, :]
            with_neg = cells[:, 1, :, :, :] - cells[:, 0, :, :, :]
            total = pairs.reshape(cells.shape)
            total += with_pos[:, :, :, None, :] * with_neg[:, None, :, :, :]
        # Each pivot's union product counts resolvable pairs and is
        # never negative, so one inversion of the sum has the union of
        # their supports.
        resolvents = _subset_transform(pairs, 2 * n, -1) > 0
        fresh = np.nonzero(resolvents & ~derived)[0]
        if fresh.size == 0:
            break
        if len(entries) + fresh.size > max_clauses:
            raise ResourceLimitError(f"closure exceeded {max_clauses} clauses")
        derived[fresh] = True
        entries.update(
            zip(
                zip((fresh & low).tolist(), (fresh >> n).tolist()),
                repeat((_RESOLVENT, rnd)),
            )
        )

    return Closure(u, entries, {})


def _saturate_pairwise(theory: ClausalTheory, u: Universe, max_clauses: int) -> Closure:
    n = len(u)
    entries = _seed_entries(theory, u)
    parents: dict[tuple[int, int], Optional[tuple]] = {m: None for m in entries}
    rounds = {m: 0 for m in entries}
    queue = deque(entries)
    pos_occ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    neg_occ: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    while queue:
        c = queue.popleft()
        cpos, cneg = c
        for i in bits(cpos):
            bit = 1 << i
            for d in neg_occ[i]:
                r = ((cpos & ~bit) | d[0], cneg | (d[1] & ~bit))
                if r not in entries:
                    if len(entries) >= max_clauses:
                        raise ResourceLimitError(
                            f"closure exceeded {max_clauses} clauses"
                        )
                    entries[r] = (_RESOLVENT, max(rounds[c], rounds[d]) + 1)
                    rounds[r] = entries[r][1]
                    parents[r] = (c, d, i)
                    queue.append(r)
        for i in bits(cneg):
            bit = 1 << i
            for d in pos_occ[i]:
                r = ((d[0] & ~bit) | cpos, d[1] | (cneg & ~bit))
                if r not in entries:
                    if len(entries) >= max_clauses:
                        raise ResourceLimitError(
                            f"closure exceeded {max_clauses} clauses"
                        )
                    entries[r] = (_RESOLVENT, max(rounds[c], rounds[d]) + 1)
                    rounds[r] = entries[r][1]
                    parents[r] = (d, c, i)
                    queue.append(r)
        for i in bits(cpos):
            pos_occ[i].append(c)
        for i in bits(cneg):
            neg_occ[i].append(c)

    return Closure(u, entries, parents)


def _components(theory: ClausalTheory, u: Universe) -> list[tuple[int, list[Clause]]]:
    """The connected components of the clause hypergraph, as atom masks.

    Each component comes with its clauses; atoms in no clause are
    components of their own, and the empty clause belongs to none.
    Components are ordered by their lowest atom.
    """
    groups: list[tuple[int, list[Clause]]] = []
    for clause in theory.clauses:
        pos, neg = intern_clause(clause, u)
        mask = pos | neg
        if not mask:
            continue
        members = [clause]
        apart = []
        for gmask, gclauses in groups:
            if gmask & mask:
                mask |= gmask
                members += gclauses
            else:
                apart.append((gmask, gclauses))
        groups = apart + [(mask, members)]
    covered = 0
    for mask, _ in groups:
        covered |= mask
    groups += [(1 << i, []) for i in bits(u.full_mask & ~covered)]
    groups.sort(key=lambda group: group[0] & -group[0])
    return groups


def saturate(theory: ClausalTheory, max_clauses: int = DEFAULT_MAX_CLAUSES) -> Closure:
    """Close a theory under resolution, with axioms for every universe atom.

    Each connected component is saturated on its own: on the clause
    lattice up to ``LATTICE_MAX_ATOMS`` atoms, by the worklist loop
    beyond. Raises :class:`ResourceLimitError` once the whole closure,
    all components together, would exceed ``max_clauses`` clauses.
    """
    u = Universe(theory.universe)
    empty = (0, 0)
    entries: dict[tuple[int, int], tuple[str, int]] = {}
    parents: dict[tuple[int, int], Optional[tuple]] = {}
    if Clause() in theory.clauses:
        entries[empty] = (_INPUT, 0)
    for comp, clauses in _components(theory, u):
        names = u.sorted_atoms_of(comp)
        local = Universe(names)
        # The empty clause is shared: a component may derive it again
        # without growing the union.
        budget = max_clauses - len(entries) + (empty in entries)
        saturator = (
            _saturate_lattice if len(local) <= LATTICE_MAX_ATOMS else _saturate_pairwise
        )
        try:
            part = saturator(ClausalTheory(frozenset(clauses), names), local, budget)
        except ResourceLimitError:
            raise ResourceLimitError(f"closure exceeded {max_clauses} clauses") from None
        entries, parents = _merge(entries, parents, part, list(bits(comp)))
    # As in each saturator, a closure that resolves nothing is not refused.
    if len(entries) > max_clauses and any(
        kind == _RESOLVENT for kind, _ in entries.values()
    ):
        raise ResourceLimitError(f"closure exceeded {max_clauses} clauses")
    return Closure(u, entries, parents)


def _merge(
    entries: "dict[tuple[int, int], tuple[str, int]]",
    parents: "dict[tuple[int, int], Optional[tuple]]",
    part: Closure,
    atom_index: list[int],
) -> "tuple[dict, dict]":
    """Add a component closure, consumed, to the global entries and parents.

    ``atom_index[i]`` is the global position of the component's atom
    ``i``. Local entry order and round numbers carry over unchanged. A
    clause already present (only ever the empty clause) keeps the
    earlier of its two rounds, with that round's parents. Returns the
    merged entries and parents.
    """
    if atom_index == list(range(len(atom_index))):
        # The component holds the lowest atoms: local bits are global.
        lifted, links = part._entries, part._parents_m
    else:
        halves = {half for m in part._entries for half in m}
        spread = {h: sum(1 << atom_index[i] for i in bits(h)) for h in halves}

        def lift(m: tuple[int, int]) -> tuple[int, int]:
            return spread[m[0]], spread[m[1]]

        lifted = {lift(m): value for m, value in part._entries.items()}
        links = {}
        for m, par in part._parents_m.items():
            if par is not None:
                left, right, i = par
                links[lift(m)] = (lift(left), lift(right), atom_index[i])
    if not entries:
        return lifted, links
    empty = (0, 0)
    seen, mine = entries.get(empty), lifted.get(empty)
    if seen is not None and mine is not None:
        if seen[1] <= mine[1]:
            del lifted[empty]
            links.pop(empty, None)
        else:
            parents.pop(empty, None)
    entries.update(lifted)
    parents.update(links)
    return entries, parents


def derives(closure: Closure, clause: Clause) -> bool:
    """Exact membership of the canonical clause in the closure."""
    return clause in closure


def witness_subclause(closure: Closure, clause: Clause) -> Optional[Clause]:
    """A derivable subclause of ``clause``, or None.

    Prefers the smallest nonempty derivable subclause (ties broken by
    literal order); falls back to the empty clause when that is the only
    derivable subclause.
    """
    ranked = closure.in_clause_order(closure.subclauses(*closure.clause_masks(clause)))
    if not ranked:
        return None
    # The empty clause sorts first; it is the witness only when alone.
    if ranked[0] == (0, 0) and len(ranked) > 1:
        return closure.clause_of(ranked[1])
    return closure.clause_of(ranked[0])


def paradoxical_atoms(closure: Closure) -> frozenset[str]:
    """Atoms whose positive and negative units are both derivable."""
    mask = closure.paradox_mask
    empty = closure._entries.get((0, 0))
    # Two complementary units resolve to the empty clause, and an empty
    # clause that was RESOLVED (not handed in as input) came from such a
    # pair; an input empty clause carries no atom information.
    if mask and empty is None:
        raise AssertionError("paradoxical atoms without a derivable empty clause")
    if empty is not None and empty[0] != _INPUT and not mask:
        raise AssertionError("derived empty clause without a paradoxical atom")
    return closure._u.atoms_of(mask)


@dataclass(frozen=True)
class SubdiscourseReport:
    """The consistent part of a theory, and where it touches the rest.

    ``theory`` is the input with every literal over a paradoxical atom
    deleted. ``border`` is only populated for graph-derived theories:
    the healthy vertices with an edge into the paradoxical region.
    """

    paradox_atoms: frozenset[str]
    healthy_atoms: frozenset[str]
    theory: ClausalTheory
    border: frozenset[str]


def _closure_for(
    theory: ClausalTheory, closure: Optional[Closure], max_clauses: int
) -> Closure:
    if closure is None:
        return saturate(theory, max_clauses)
    if closure.universe != theory.universe:
        raise ValidationError("closure universe does not match the theory")
    return closure


def consistent_subtheory(
    theory: ClausalTheory,
    graph: Optional[Digraph] = None,
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> SubdiscourseReport:
    """Split a theory into its paradoxical atoms and consistent remainder."""
    if graph is not None and clausal_theory(graph) != theory:
        raise ValidationError("graph does not induce the given theory")
    closure = _closure_for(theory, closure, max_clauses)
    bad = paradoxical_atoms(closure)
    healthy = frozenset(theory.universe) - bad
    border: frozenset[str] = frozenset()
    if graph is not None:
        border = frozenset(
            x for x in healthy if graph.successors(x) - healthy
        )
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


def entails_para(
    theory: ClausalTheory,
    clause: Clause,
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> bool:
    """Paraconsistent entailment, decided directly from the closure.

    Holds when either every atom of the clause is provably paradoxical
    (and at least one paradoxical atom exists; the empty clause passes
    exactly then), or some nonempty derivable subclause lives entirely
    on healthy atoms.
    """
    closure = _closure_for(theory, closure, max_clauses)
    pos, neg = closure.clause_masks(clause)
    bad = closure.paradox_mask
    if bad and not (pos | neg) & ~bad:
        return True
    return any(p or q for p, q in closure.subclauses(pos & ~bad, neg & ~bad))


WEAKENING_MODES = ("none", "awbw", "cw")


def provable_weakened(
    theory: ClausalTheory,
    clause: Clause,
    mode: str = "none",
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> bool:
    """Provability under a choice of weakening discipline.

    ``none`` is bare derivability; the other modes also weaken from a
    derivable subclause and differ in which may be the premise. ``cw``
    takes any (the empty clause included), which recovers classical
    consequence together with its explosion. ``awbw`` takes one that
    keeps a healthy atom, and accepts a nonempty clause over paradoxical
    atoms alone; that blocks deriving arbitrary clauses from a
    contradiction and coincides with paraconsistent entailment.
    """
    if mode not in WEAKENING_MODES:
        raise ValidationError(f"unknown weakening mode {mode!r}")
    closure = _closure_for(theory, closure, max_clauses)
    pos, neg = closure.clause_masks(clause)
    if (pos, neg) in closure._entries:
        return True
    if mode == "awbw" and (pos | neg) and not (pos | neg) & ~closure.paradox_mask:
        return True
    return any(_weakening_premises(closure, pos, neg, mode))


def _weakening_premises(closure: Closure, pos: int, neg: int, mode: str):
    """The derived subclauses of ``(pos, neg)`` that ``mode`` weakens from."""
    if mode == "none":
        return iter(())
    found = closure.subclauses(pos, neg)
    if mode == "cw":
        return found
    healthy = ~closure.paradox_mask
    return ((p, q) for p, q in found if (p | q) & healthy)


def weakening_witness(closure: Closure, clause: Clause, mode: str) -> Optional[Clause]:
    """The least premise, in ``clause_sort_key`` order, that ``mode`` may
    weaken ``clause`` from; None when there is none (a clause provable
    under ``awbw`` then has only provably paradoxical atoms)."""
    premises = _weakening_premises(closure, *closure.clause_masks(clause), mode)
    ranked = closure.in_clause_order(premises)
    return closure.clause_of(ranked[0]) if ranked else None


def closure_with_assumptions(
    theory: ClausalTheory, clause: Clause, max_clauses: int = DEFAULT_MAX_CLAUSES
) -> Closure:
    """Saturate the theory extended with the complement units of ``clause``.

    Denying a clause this way never changes the universe, and with the
    empty clause it degenerates to plain saturation.
    """
    missing = clause.atoms() - set(theory.universe)
    if missing:
        raise ValidationError(f"clause atoms outside the universe: {sorted(missing)}")
    extended = ClausalTheory(theory.clauses | complement_units(clause), theory.universe)
    return saturate(extended, max_clauses)


@dataclass(frozen=True)
class ProofStep:
    """One line of a proof: a clause and how it was obtained."""

    index: int
    clause: Clause
    rule: str  # "input", "axiom" or "res"
    premises: Optional[tuple[int, int]] = None
    atom: Optional[str] = None

    def __str__(self) -> str:
        if self.rule == "res":
            i, j = self.premises
            return f"{self.index}. {self.clause} [res {i} {j} on {self.atom}]"
        return f"{self.index}. {self.clause} [{self.rule}]"


@dataclass(frozen=True)
class Proof:
    """A replayable derivation ending at ``conclusion``.

    Premises of every resolution step appear earlier in ``steps``.
    """

    conclusion: Clause
    steps: tuple[ProofStep, ...]

    def to_text(self) -> str:
        return "\n".join(str(step) for step in self.steps)

    def __str__(self) -> str:
        return self.to_text()


def proof_of(closure: Closure, clause: Clause) -> Proof:
    """Reconstruct one derivation of ``clause`` from the parent links."""
    target = closure.clause_masks(clause)
    if target not in closure._entries:
        raise ValidationError(f"clause {clause} is not derivable")

    # Iterative post-order walk; proofs can be deep enough to overflow
    # the interpreter stack if done recursively.
    position: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    parentage: dict[tuple[int, int], Optional[tuple]] = {}
    stack: list[tuple[tuple[int, int], bool]] = [(target, False)]
    while stack:
        m, expanded = stack.pop()
        if m in position:
            continue
        if m not in parentage:
            parentage[m] = closure.parents_of_masks(m)
        par = parentage[m]
        if expanded or par is None:
            position[m] = len(order) + 1
            order.append(m)
            continue
        stack.append((m, True))
        stack.append((par[1], False))
        stack.append((par[0], False))

    steps = []
    for idx, m in enumerate(order, start=1):
        kind, _ = closure._entries[m]
        par = parentage[m]
        if par is None:
            steps.append(ProofStep(idx, closure.clause_of(m), kind))
        else:
            p, q, i = par
            steps.append(
                ProofStep(
                    idx,
                    closure.clause_of(m),
                    "res",
                    premises=(position[p], position[q]),
                    atom=closure.universe[i],
                )
            )
    return Proof(conclusion=closure.clause_of(target), steps=tuple(steps))
