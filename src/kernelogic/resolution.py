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
component in its own lattice cells ``pos | neg << n`` over its ``n``
atoms, and a ``Closure`` keeps the component closures side by side:
every question about a nonempty clause goes to the component that
holds its atoms, and the component answers in cells. Its ``_AtomMap``
is the only bridge between those cells and clause masks over the
whole universe, which are built only where a caller asks for them.
The empty clause, common to all components, takes the earliest round at
which any of them derives it.

A lattice component's closure depends only on its width, its inputs
and its seeds in its own atom indices, and a closure never changes
once built. Saturation therefore shares the part of any live closure
that holds an identical component, through a table of weak references
that keeps no part alive on its own. Denying a clause adds one-atom
units, which never join components: while the base closure is alive,
``closure_with_assumptions`` saturates again only the components that
hold the denied clause's atoms.

Closures of paradoxical theories tend to fill large parts of the clause
lattice, which makes clause-pair scanning hopeless. A component of 4
to ``LATTICE_MAX_ATOMS`` atoms therefore runs as a fixpoint over the
full lattice of its clauses, encoded as bit indices. One round takes a
single zeta transform of the derived clauses; for every pivot atom the
transforms of the clauses holding the positive and the negative pivot
are differences of two of its cells, and their pointwise product is
the pivot's union convolution in transform space. The products of all
pivots are added up, and one Moebius inversion of the sum yields, for
every clause, the number of resolvable pairs producing it: the
clauses with a nonzero count are the round's resolvents. A round
counts modulo the narrowest machine word that holds
``n * 9**(n - 1)``, the most pairs a cell of an n-atom lattice has,
which is exact: uint32 up to 10 atoms, uint64 at 11. On lattices of 7
atoms or more the first rounds are sparse instead: while a round's
semi-naive pairs, those holding a clause new in the round before,
number at most two per cell, it ORs just those pairs' cells,
which is exact since every pair of older clauses was resolved in the
round before; from the first round with more pairs, every round is
dense. Rounds repeat until nothing new appears, or stop at once when
every cell is derived, since a full lattice leaves nothing to find. A
pass along one of the low cell bits meets its cells in short contiguous
runs, so on lattices of 6 atoms or more it runs as strided slices, one
offset below the bit at a time, each a long run. The component's
closure is then one byte per lattice cell, the round in which that
clause was derived (a reserved value marks clauses never derived; a
closure needing that many rounds is refused), plus the order of its
round-0 clauses. A component too wide for lattice arrays, or too small
to repay loading numpy (at most 3 atoms), runs the same rounds
semi-naively over a dict of clauses: a round resolves only the pairs
holding a clause new in the round before, on a wide component once
their count fits the budget. Both paths refuse a component when a round
adds a clause past its budget. Either way a component keeps each
clause's origin and round in one entry order (seeds, then each round by
cell), and one parent search rebuilds proofs, the same on both paths:
it reads each pivot's parents off one list of earlier entries inside a
resolvent plus at most one literal.

The minimal derived clauses, those with no derived nonempty proper
subclause, come from the same arrays: the zeta transform of a
component's derived cells counts the derived clauses inside each cell,
and a derived cell is minimal when that count is one, plus one when
the empty clause is derived.

On top of the closure this module derives the provably paradoxical
atoms (both the atom and its negation derivable), the consistent
subtheory obtained by deleting all literals over them (reported by
:func:`kernelogic.semantics.subdiscourse_report`, which reads no
closure), the paraconsistent entailment decision, relevance
(:func:`is_relevant`), the minimal clauses (:func:`min_clauses`), the
check that resolution couples exactly the atoms of each component
(:func:`component_claim_check`), and three weakening variants of
provability. Entailment, relevance, weakening and their witnesses all
ask the closure for the derived subclauses of a clause
(``Closure.subclauses``) and differ only in which of them count.
"""

from __future__ import annotations

import weakref
from functools import cache, cached_property
from itertools import groupby, islice
from typing import TYPE_CHECKING, Optional

from .clauses import (
    ClausalTheory,
    Clause,
    clausal_theory,
    clause_of_masks,
    clause_sort_key,
    complement_units,
    intern_clause,
)
from .errors import ResourceLimitError, ValidationError
from .graphs import Digraph, Universe, bits, component_masks, flood_fill
from .kernels import DEFAULT_MAX_CLAUSES, LATTICE_MAX_ATOMS, WEAKENING_MODES
from .records import Record
from .semantics import SubdiscourseReport, subdiscourse_report

# numpy is imported inside the functions that build or read clause
# lattices: graph-only work never loads it, nor does any answer from a
# closure with no lattice part, its listing included.
if TYPE_CHECKING:
    import numpy as np

_INPUT = "input"
_AXIOM = "axiom"
_RESOLVENT = "resolvent"

# The round number of a lattice cell whose clause is not derived, the
# largest uint8; a round that would reach it is refused, never wrapped.
_NOT_DERIVED = 255

# A wide component's semi-naive rounds may resolve at most this many
# clause pairs per clause of its budget.
_PAIRS_PER_CLAUSE = 16


class _OverCap(ResourceLimitError):
    """A component's closure ran past the clause budget it was given."""


class _AtomMap:
    """Where a component's atoms sit in the universe, and the one bridge
    between universe clause masks and the component's lattice cells.

    ``atoms`` are their universe indices, increasing, and ``span`` their
    universe mask; bit ``j`` of a component's own masks is ``atoms[j]``.
    ``local`` maps a universe mask's bits on the component to its own
    indices and ``lift`` maps back, both by one shift per run of
    consecutive atoms (a component of consecutive atoms is one run).
    ``cell`` turns a clause's universe masks into the cell
    ``pos | neg << n`` of the component's ``n`` atoms, and ``masks``
    turns a cell back.
    """

    __slots__ = ("atoms", "span", "_runs")

    def __init__(self, atoms: "tuple[int, ...]"):
        self.atoms = atoms
        self.span = sum(1 << g for g in atoms)
        # Each run of consecutive atoms as (own index, universe index, width mask).
        self._runs = []
        for j, g in enumerate(atoms):
            if j and g == atoms[j - 1] + 1:
                j0, g0, width = self._runs[-1]
                self._runs[-1] = (j0, g0, width << 1 | 1)
            else:
                self._runs.append((j, g, 1))

    def local(self, mask: int) -> int:
        out = 0
        for j, g, width in self._runs:
            out |= (mask >> g & width) << j
        return out

    def lift(self, mask: int) -> int:
        out = 0
        for j, g, width in self._runs:
            out |= (mask >> j & width) << g
        return out

    def cell(self, pos: int, neg: int) -> int:
        """The cell of the clause ``(pos, neg)``, its bits off the component dropped."""
        return self.local(pos) | self.local(neg) << len(self.atoms)

    def masks(self, cell: int, lift=None) -> tuple[int, int]:
        """The universe masks of the clause at ``cell``; ``lift`` stands in
        for ``self.lift``, such as a caller's cache of it."""
        lift = lift or self.lift
        n = len(self.atoms)
        return lift(cell & ~(-1 << n)), lift(cell >> n)


def _subcells(cell: int) -> np.ndarray:
    """Every cell whose bits lie inside ``cell``, in increasing order."""
    import numpy as np
    subs = np.zeros(1, dtype=np.int64)
    for b in bits(cell):
        subs = np.concatenate((subs, subs | (1 << b)))
    return subs


# A component's closure is a part, returned straight by its saturator.
# Both kinds of part answer the same questions, in the component's cells
# ``pos | neg << n``: ``entry``, ``items``, ``subclauses`` (nonempty
# ones), ``ordered`` (the nonempty ones in ``clause_sort_key`` order,
# with the runs of one size and lowest atom), ``minimal``, and
# ``candidates`` (``_parent_step``'s one list of possible parents), plus
# ``count`` and ``resolves``. Only ``Closure`` and ``_components`` speak
# universe masks, and the component's ``_AtomMap`` is their only bridge
# to its cells.


class _LatticePart:
    """One component's closure as a round number per clause-lattice cell.

    Cell ``pos | neg << n`` holds the round in which clause
    ``(pos, neg)`` was derived, or ``_NOT_DERIVED``. Round 0 holds the
    seeds: inputs, then axioms, in the order ``seeds`` keeps. Entry
    order is the seeds, then each round in cell order.
    """

    def __init__(self, n: int, rounds: np.ndarray, seeds: "tuple[int, ...]", inputs: int):
        import numpy as np
        self.n = n
        # Closures share parts (``_shared_lattice``), so a part never changes.
        rounds.flags.writeable = False
        self.rounds = rounds
        self.seeds = tuple(seeds)
        self.inputs = inputs  # the first ``inputs`` seeds are input clauses
        self._seed_pos = {cell: k for k, cell in enumerate(seeds)}
        self.count = int(np.count_nonzero(rounds != _NOT_DERIVED))
        self.resolves = self.count > len(seeds)

    def entry(self, cell: int) -> Optional[tuple[str, int]]:
        rnd = int(self.rounds[cell])
        if rnd == _NOT_DERIVED:
            return None
        if rnd == 0:
            return (_INPUT if self._seed_pos[cell] < self.inputs else _AXIOM), 0
        return _RESOLVENT, rnd

    def _in_entry_order(self, cells: np.ndarray) -> np.ndarray:
        """The derived ``cells``, sorted into entry order."""
        rounds = self.rounds[cells]
        key = rounds.astype("int64") << (2 * self.n) | cells
        seeds = rounds == 0
        key[seeds] = [self._seed_pos[c] for c in cells[seeds].tolist()]
        return cells[key.argsort(kind="stable")]

    def items(self):
        import numpy as np
        cells = self._in_entry_order(np.flatnonzero(self.rounds != _NOT_DERIVED))
        # Entry order puts the seeds first, and inputs first among them.
        kinds = [_INPUT] * self.inputs + [_AXIOM] * (len(self.seeds) - self.inputs)
        kinds += [_RESOLVENT] * (len(cells) - len(kinds))
        return zip(cells.tolist(), zip(kinds, self.rounds[cells].tolist()))

    def subclauses(self, cell: int) -> "list[int]":
        subs = _subcells(cell)[1:]
        return subs[self.rounds[subs] != _NOT_DERIVED].tolist()

    def ordered(self) -> "tuple[np.ndarray, list[tuple[int, int, int]]]":
        import numpy as np
        runs = [(s, k, c[self.rounds[c] != _NOT_DERIVED]) for s, k, c in _lattice_order(self.n)]
        return np.concatenate([c for *_, c in runs]), [(s, k, len(c)) for s, k, c in runs]

    def minimal(self) -> "list[int]":
        import numpy as np
        # z[S] counts the derived clauses inside S; S is minimal when
        # they are S itself and, if derived, the empty clause. Cell 0
        # never qualifies: z[0] is its own bit.
        derived = self.rounds != _NOT_DERIVED
        z = _subset_transform(derived.astype(np.int32), 2 * self.n, 1)
        return np.flatnonzero(derived & (z == 1 + derived[0])).tolist()

    def candidates(self, cell: int, rnd: int) -> "list[int]":
        import numpy as np
        # The subcells of ``cell`` and of ``cell`` plus one outside literal, in one gather.
        extra = [0] + [1 << b for b in range(2 * self.n) if not cell >> b & 1]
        cells = (_subcells(cell) | np.array(extra)[:, None]).ravel()
        return self._in_entry_order(cells[self.rounds[cells] < rnd]).tolist()


class _PairwisePart:
    """One component's closure as a dict from cell ``pos | neg << n`` to
    origin and round, in the lattice's entry order: the seeds, then each
    round in cell order."""

    def __init__(self, n: int, entries: "dict[int, tuple[str, int]]"):
        self.n = n
        self.entries = entries
        self.count = len(entries)
        self.resolves = any(kind == _RESOLVENT for kind, _ in entries.values())

    def entry(self, cell: int) -> Optional[tuple[str, int]]:
        return self.entries.get(cell)

    def items(self):
        return self.entries.items()

    def subclauses(self, cell: int):
        return (c for c in self.entries if c and not c & ~cell)

    def ordered(self) -> "tuple[list[int], list[tuple[int, int, int]]]":
        keyed = sorted((_literal_key(c, self.n), c) for c in self.entries if c)
        # A clause's first literal is one of its lowest atom.
        runs = groupby((size, lits[0] >> 1) for (size, lits), _ in keyed)
        return [c for _, c in keyed], [(*key, len(list(run))) for key, run in runs]

    def minimal(self) -> "list[int]":
        minimal: list[int] = []
        for cell in sorted((c for c in self.entries if c), key=int.bit_count):
            # Any derivable proper subclause contains a minimal one of
            # strictly smaller size, so checking the antichain so far is enough.
            if not any(m & ~cell == 0 for m in minimal):
                minimal.append(cell)
        return minimal

    def candidates(self, cell: int, rnd: int) -> "list[int]":
        # One pass over the entries before round ``rnd``, which come first.
        found = []
        for c, (_, r) in self.entries.items():
            if r >= rnd:
                break
            if not (extra := c & ~cell) & (extra - 1):
                found.append(c)
        return found


def _parent_step(part, cell: int, rnd: int) -> tuple:
    """The parents' cells (positive pivot first) and pivot of the clause
    at ``cell`` of ``part``, first seen in round ``rnd``.

    Parents come from strictly earlier rounds, which keeps proofs
    acyclic. Of the part's earlier cells inside the clause plus at most
    one literal, in entry order (``candidates``), each may be a parent
    on the literal it adds, else on each of its own; a pivot filters
    them when the search reaches it. Per pivot, a positive parent whose
    direct partner was derived earlier wins, else the first pair.
    """
    n = part.n
    cands = part.candidates(cell, rnd)
    for i in range(n):
        pbit, nbit = 1 << i, 1 << (n + i)
        pos_side = [c for c in cands if c & pbit and not c & ~cell & ~pbit]
        neg_side = [c for c in cands if c & nbit and not c & ~cell & ~nbit]
        for c in pos_side:
            if cell & nbit and not c & nbit:
                # A negated pivot in the result can only survive
                # through the positive-side parent.
                continue
            direct = (cell & ~(c & ~pbit)) | nbit
            if (found := part.entry(direct)) and found[1] < rnd:
                return c, direct, i
        for c in pos_side:
            rest = c & ~pbit
            for d in neg_side:
                if rest | (d & ~nbit) == cell:
                    return c, d, i
    raise AssertionError("resolvent without a parent pair; layering is broken")


class Closure:
    """The full set of derivable clauses for one theory.

    A closure is the union of its components' closures (``parts``: the
    universe indices of each component's atoms, and its part) and
    holds each clause only in the part of its atoms, as a cell; one
    ``_AtomMap`` per part maps clause masks over the universe to the
    part's cells and back.
    The empty clause, shared by all, takes the earliest round any part
    derives it at, round 0 when it is an input. ``derived``, ``origin``
    and ``parents`` are name-level views built on demand. Closures are
    immutable once returned, and closures of the same lattice component
    share its part.
    """

    def __init__(
        self,
        universe: Universe,
        parts: "list[tuple[tuple[int, ...], _LatticePart | _PairwisePart]]",
        empty_input: bool = False,
    ):
        self._u = universe
        self._parts = [(_AtomMap(atoms), part) for atoms, part in parts]
        self._owner = [None] * len(universe)  # atom -> part index
        for k, (atoms, _) in enumerate(parts):
            for g in atoms:
                self._owner[g] = k
        # The origin and round of the empty clause. No part seeds it, so
        # it is an input exactly when its origin is.
        self._empty: Optional[tuple[str, int]] = (_INPUT, 0) if empty_input else None
        size = 0
        for _, part in parts:
            own = part.entry(0)
            size += part.count - (own is not None)
            if own is not None and (self._empty is None or own[1] < self._empty[1]):
                self._empty = own
        self._size = size + (self._empty is not None)
        self.universe: tuple[str, ...] = universe.names

    def __len__(self) -> int:
        return self._size

    def __contains__(self, clause: Clause) -> bool:
        return self._entry(self.clause_masks(clause)) is not None

    def _part_of(self, pos: int, neg: int):
        """The atom map and part holding the nonempty clause ``(pos, neg)``,
        and its cell there; None when its atoms span several components."""
        mask = pos | neg
        amap, part = self._parts[self._owner[(mask & -mask).bit_length() - 1]]
        if mask & ~amap.span:
            return None
        return amap, part, amap.cell(pos, neg)

    def _entry(self, m: tuple[int, int]) -> Optional[tuple[str, int]]:
        """The origin and round of a derived clause, else None."""
        if m == (0, 0):
            return self._empty
        found = self._part_of(*m)
        return None if found is None else found[1].entry(found[2])

    def clause_masks(self, clause: Clause) -> tuple[int, int]:
        """Intern a clause over this closure's universe."""
        return intern_clause(clause, self._u)

    def clause_of(self, masks: tuple[int, int]) -> Clause:
        return clause_of_masks(*masks, self._u)

    def entries(self):
        """Every derived clause as ``(masks, (origin, round))``, in entry order.

        Entry order is the parts in turn, each in its own entry order,
        and the empty clause where it first appears (first of all when
        it is an input).
        """
        empty_seen = self._empty == (_INPUT, 0)
        if empty_seen:
            yield (0, 0), self._empty
        for amap, part in self._parts:
            lift = cache(amap.lift)  # a part's halves repeat across its entries
            for cell, value in part.items():
                if cell:
                    yield amap.masks(cell, lift), value
                elif not empty_seen:
                    empty_seen = True
                    yield (0, 0), self._empty

    def iter_masks(self):
        return (m for m, _ in self.entries())

    def subclauses(self, pos: int, neg: int):
        """The derived subclauses of the clause ``(pos, neg)``, lazily: the
        empty clause first when derived, then those of each component
        the clause touches."""
        if self._empty is not None:
            yield (0, 0)
        for k in sorted({self._owner[g] for g in bits(pos | neg)}):
            amap, part = self._parts[k]
            yield from map(amap.masks, part.subclauses(amap.cell(pos, neg)))

    def _units(self, g: int) -> "tuple[Optional[tuple[str, int]], ...]":
        """The origin and round of the two units of atom ``g``, or None."""
        amap, part = self._parts[self._owner[g]]
        return part.entry(amap.cell(1 << g, 0)), part.entry(amap.cell(0, 1 << g))

    @cached_property
    def paradox_mask(self) -> int:
        """The atoms whose positive and negative units are both derived."""
        return sum(1 << g for g in range(len(self._u)) if None not in self._units(g))

    def minimal_clauses(self) -> frozenset[Clause]:
        """The derived clauses with no derived nonempty proper subclause,
        the empty clause excluded.

        A proper subclause of a nonempty clause lies in the clause's own
        component, so each part answers for itself: a lattice part with
        one zeta transform of its derived cells, a pairwise part by an
        antichain scan of its entries.
        """
        return frozenset(
            self.clause_of(amap.masks(cell))
            for amap, part in self._parts
            for cell in part.minimal()
        )

    def clause_texts(self) -> list[str]:
        """The text of every derived clause, in ``clause_sort_key`` order.

        Equal to ``[str(c) for c in sorted(self.derived, key=clause_sort_key)]``
        without building a Clause: each part hands over its derived
        cells in that order, in runs of one size and lowest atom
        (``ordered``), a lattice part from the order of its whole lattice
        (``_lattice_order``) and a pairwise part by a Python sort. Of two
        clauses of one size the one with the lower lowest atom comes
        first, and each atom belongs to one part, so the runs of all
        parts merge by one sort on size and lowest atom.
        """
        streams, runs = [], []
        for amap, part in self._parts:
            cells, counts = part.ordered()
            runs += [(size, amap.atoms[low], len(streams), count) for size, low, count in counts]
            names = [self.universe[g] for g in amap.atoms]
            streams.append(iter(_cell_texts(cells, part.n, names)))
        texts = ["[]"] if self._empty is not None else []
        for *_, k, count in sorted(runs):
            texts += islice(streams[k], count)
        return texts

    @cached_property
    def derived(self) -> frozenset[Clause]:
        return frozenset(self.clause_of(m) for m in self.iter_masks())

    @cached_property
    def origin(self) -> dict[Clause, str]:
        return {self.clause_of(m): kind for m, (kind, _) in self.entries()}

    @property
    def parents(self) -> dict[Clause, Optional[tuple[Clause, Clause, str]]]:
        """One reconstructed resolution step per clause.

        Building the whole map forces a parent search for every
        resolvent; intended for modest closures.
        """
        out = {}
        for m, (kind, rnd) in self.entries():
            step = None
            if kind == _RESOLVENT:
                p, q, i = self._search_parents(m, rnd)
                step = (self.clause_of(p), self.clause_of(q), self._u.names[i])
            out[self.clause_of(m)] = step
        return out

    def _search_parents(self, m: tuple[int, int], rnd: int) -> tuple:
        """The parent step of the resolvent ``m`` of round ``rnd``."""
        if m == (0, 0):
            # A resolved empty clause comes from two complementary
            # units; take the first atom, over every component, whose
            # units both precede it.
            for g in range(len(self._u)):
                if all(e is not None and e[1] < rnd for e in self._units(g)):
                    return (1 << g, 0), (0, 1 << g), g
            raise AssertionError("resolvent without a parent pair; layering is broken")
        amap, part, cell = self._part_of(*m)
        left, right, i = _parent_step(part, cell, rnd)
        return amap.masks(left), amap.masks(right), amap.atoms[i]


def _lattice_order(n: int) -> "list[tuple[int, int, np.ndarray]]":
    """Every nonempty cell of an ``n``-atom lattice in ``clause_sort_key``
    order, in runs ``(size, lowest atom, cells)``.

    Of two clauses of one size, the one holding a literal of the lowest
    atom where they differ comes first, ``x`` before ``~x``. So the
    cells of size ``s`` over atoms ``k..`` are both literals of ``k``
    with ``s - 2`` of atoms ``k+1..``, then ``x_k`` with ``s - 1``, then
    ``~x_k`` with ``s - 1`` (the run of lowest atom ``k``), then the
    cells of size ``s`` over atoms ``k+1..``.
    """
    import numpy as np
    none = np.zeros(0, dtype=np.int64)
    tails = [np.zeros(1, dtype=np.int64)]  # tails[s]: size s over atoms k..
    runs = []
    for k in reversed(range(n)):
        pos, neg = 1 << k, 1 << (n + k)
        tail = [none, none, *tails, none, none]  # tail[s + 2] is tails[s]
        heads = [
            np.concatenate((tail[s] | (pos | neg), tail[s + 1] | pos, tail[s + 1] | neg))
            for s in range(len(tails) + 2)
        ]
        runs += [(s, k, head) for s, head in enumerate(heads) if s]
        if k:
            tails = [np.concatenate((head, tail[s + 2])) for s, head in enumerate(heads)]
    return sorted(runs, key=lambda run: run[:2])


def _literal_key(cell: int, n: int) -> "tuple[int, list[int]]":
    """``clause_sort_key`` of the clause at ``cell`` over ``n`` atoms: its
    size, then its literals in order, ``x_j`` as ``2j`` and ``~x_j`` as
    ``2j + 1``."""
    lits = [2 * j for j in bits(cell & ~(-1 << n))] + [2 * j + 1 for j in bits(cell >> n)]
    return len(lits), sorted(lits)


def _group_table(names: "list[str]") -> "list[str]":
    """The texts of the clauses over up to four atoms ``names``, at
    ``pos | neg << 4`` for the bits of their positive and negative
    literals; entry ``code | 256`` adds a space to a nonempty text, for
    a clause with a literal of a later atom."""
    found = [(0, "")]
    for j, a in reversed(list(enumerate(names))):
        found = [
            (code | c, f"{piece} {text}" if piece and text else piece or text)
            for code, piece in ((0, ""), (1 << j, a), (16 << j, f"~{a}"), (17 << j, f"{a} ~{a}"))
            for c, text in found
        ]
    table = [""] * 512
    for code, text in found:
        table[code], table[code | 256] = text, text and text + " "
    return table


def _cell_codes(cells, n: int, lo: int):
    """The ``_group_table`` entry of atoms ``lo`` to ``lo + 3`` of each
    cell over ``n`` atoms, for one Python int or an int64 array."""
    group = ~(-1 << min(4, n - lo))
    later = ~(-1 << n) & (-1 << (lo + 4))
    later |= later << n
    return (cells >> lo & group) | (cells >> (n + lo) & group) << 4 | ((cells & later) != 0) << 8


# Lattice cells are read this many at a time: the partial texts of one
# block are freed before the next block's are made, so that a listing's
# peak stays near the size of its texts.
_TEXT_BLOCK = 1 << 16


def _cell_texts(cells, n: int, names: "list[str]") -> "list[str]":
    """The text of each clause cell over ``n`` atoms ``names``: a list of
    Python ints is read without numpy, an int64 array by blocks."""
    tables = [(lo, _group_table(names[lo : lo + 4])) for lo in range(0, n, 4)]
    if isinstance(cells, list):
        return ["".join([table[_cell_codes(c, n, lo)] for lo, table in tables]) for c in cells]
    import numpy as np
    tables = [(lo, np.array(table, dtype=object)) for lo, table in tables]
    texts = []
    for start in range(0, len(cells), _TEXT_BLOCK):
        block = cells[start : start + _TEXT_BLOCK]
        text = tables[0][1][_cell_codes(block, n, 0)]
        for lo, table in tables[1:]:
            text += table[_cell_codes(block, n, lo)]
        texts += text.tolist()
    return texts


# A pass along cell bit ``b`` meets its cells in contiguous runs of
# ``2**b``, and over runs shorter than ``_MIN_RUN`` numpy spends the
# pass mostly on per-run overhead. On a lattice of at least
# ``_STRIDED_MIN_CELLS`` cells such a pass therefore takes the offsets
# below bit ``b`` one at a time, each an in-place strided slice of one
# long run; on smaller lattices the extra slices cost more than they save.
_MIN_RUN = 8
_STRIDED_MIN_CELLS = 4**6


def _short_runs(run: int, size: int) -> bool:
    """Whether a pass over ``size`` cells in runs of ``run`` goes by offsets."""
    return run < _MIN_RUN and size >= _STRIDED_MIN_CELLS


def _subset_transform(values: np.ndarray, nbits: int, sign: int) -> np.ndarray:
    """Zeta (``sign`` 1) or Moebius (``sign`` -1) transform, in place.

    The zeta transform sums each cell over the subsets of its index;
    the Moebius transform inverts it.
    """
    import numpy as np
    step = np.add if sign > 0 else np.subtract
    size = values.shape[0]
    for b in range(nbits):
        # Axis 1 is bit b; axis 2 is the offset below it.
        pair = values.reshape(size >> (b + 1), 2, 1 << b)
        for o in range(1 << b) if _short_runs(1 << b, size) else (slice(None),):
            step(pair[:, 1, o], pair[:, 0, o], out=pair[:, 1, o])
    return values


def _pair_counts(derived: np.ndarray, n: int) -> np.ndarray:
    """The zeta transform of the resolvable pairs of derived clauses,
    summed over the pivots of an ``n``-atom lattice, modulo the
    narrowest machine word that holds n * 9**(n - 1). That is exact once
    inverted: every step is a ring operation, and the parents at one
    pivot split each other literal of their resolvent three ways, so a
    cell has at most n * 9**(n - 1) pairs."""
    import numpy as np
    dtype = np.uint32 if n * 9 ** (n - 1) < 2**32 else np.uint64
    # zd[S] counts the derived clauses inside S. For the pivot bits p
    # and q of atom i, the zeta transform of the derived clauses holding
    # p, with p dropped, is zd[S | p] - zd[S & ~p]: it does not depend
    # on bit p of S, and likewise for q.
    zd = _subset_transform(derived.astype(dtype), 2 * n, 1)
    pairs = np.zeros(derived.shape[0], dtype=dtype)
    for i in range(n):
        # Axes 1 and 3 are the bits n + i (~x_i) and i (x_i); axis 4 is
        # the offset below bit i.
        cells = zd.reshape(1 << (n - i - 1), 2, 1 << (n - 1), 2, 1 << i)
        _add_pivot(cells, pairs.reshape(cells.shape))
    return pairs


def _add_pivot(cells: np.ndarray, total: np.ndarray) -> None:
    """Add one pivot's union product, read off the zeta transform
    ``cells`` as shaped in ``_pair_counts``, to ``total``.

    Over short runs it takes one offset and one value of the positive
    pivot bit at a time, so that every operand runs along the bits
    between the pivot's two. The temporaries go on return, before the
    next pivot allocates its own, which keeps the peak memory of wide
    lattices down.
    """
    if not _short_runs(cells.shape[4], cells.size):
        with_pos = cells[:, :, :, 1, :] - cells[:, :, :, 0, :]
        with_neg = cells[:, 1, :, :, :] - cells[:, 0, :, :, :]
        total += with_pos[:, :, :, None, :] * with_neg[:, None, :, :, :]
        return
    for o in range(cells.shape[4]):
        with_pos = cells[:, :, :, 1, o] - cells[:, :, :, 0, o]
        for x in (0, 1):
            run = total[:, :, :, x, o]
            run += with_pos * (cells[:, 1, :, x, o] - cells[:, 0, :, x, o])[:, None, :]


# A lattice of at least ``_SPARSE_MIN_CELLS`` cells runs a round over
# its clause pairs while the round's semi-naive pairs number at most
# ``_SPARSE_PAIRS_PER_CELL`` per cell; from the first round with more,
# every round is dense. On smaller lattices a dense round costs less.
_SPARSE_MIN_CELLS = 4**7
_SPARSE_PAIRS_PER_CELL = 2


def _semi_naive_pairs(old: np.ndarray, new: np.ndarray, n: int) -> int:
    """The pairs a sparse round resolves: per pivot, the new clauses
    holding it positively against every clause holding it negatively,
    and the old positive ones against the new negative ones."""
    import numpy as np
    old_has, new_has = (
        [int(np.count_nonzero(c & (1 << b))) for b in range(2 * n)] for c in (old, new)
    )
    return sum(
        new_has[i] * (old_has[n + i] + new_has[n + i]) + old_has[i] * new_has[n + i]
        for i in range(n)
    )


def _sparse_resolvents(old: np.ndarray, new: np.ndarray, n: int) -> np.ndarray:
    """The cells of an ``n``-atom lattice that resolve from a pair of
    the clause cells ``old`` and ``new`` holding at least one of ``new``,
    as a boolean mask; one pivot and side's pairs at a time."""
    import numpy as np
    hit = np.zeros(1 << (2 * n), dtype=bool)
    for i in range(n):
        pbit, nbit = 1 << i, 1 << (n + i)
        old_pos, new_pos = (c[(c & pbit) != 0] & ~pbit for c in (old, new))
        old_neg, new_neg = (c[(c & nbit) != 0] & ~nbit for c in (old, new))
        for left, right in ((new_pos, old_neg), (new_pos, new_neg), (old_pos, new_neg)):
            hit[np.bitwise_or.outer(left, right)] = True
    return hit


def _saturate_lattice(
    n: int, seeds: "tuple[int, ...]", inputs: int, max_clauses: int
) -> _LatticePart:
    """The closure of an ``n``-atom component from its round-0 cells
    ``seeds``, the first ``inputs`` of them input clauses.

    A round derives the resolvents of derived pairs that are not yet
    derived. A pair of two clauses derived before the last round was
    resolved in it, so only pairs holding a clause new in the last round
    can give a fresh one. On a lattice of at least ``_SPARSE_MIN_CELLS``
    cells, while those pairs number at most ``_SPARSE_PAIRS_PER_CELL``
    per cell, a sparse round resolves just them, one OR of cells per
    pair (``_sparse_resolvents``); from the first round with more, the
    dense round counts the pairs of every cell, for good.
    """
    import numpy as np
    if n > LATTICE_MAX_ATOMS:
        raise ResourceLimitError(f"a {n}-atom component is wider than the clause lattice")
    rounds = np.full(1 << (2 * n), _NOT_DERIVED, dtype=np.uint8)
    # ``new`` holds the cells derived in the last round, at first the
    # seeds (distinct by construction), and ``old`` the cells before;
    # only sparse rounds read them, so a dense round drops them.
    new = np.array(seeds, dtype=np.int64)
    old = new[:0]
    rounds[new] = 0
    sparse = rounds.size >= _SPARSE_MIN_CELLS
    count = len(seeds)
    rnd = 0
    # A full lattice leaves no clause to derive: no empty round confirms it.
    while count < rounds.size:
        rnd += 1
        sparse = sparse and _semi_naive_pairs(old, new, n) <= _SPARSE_PAIRS_PER_CELL * rounds.size
        underived = rounds == _NOT_DERIVED
        if sparse:
            fresh = _sparse_resolvents(old, new, n)
        else:
            old = new = None
            # Each pivot's union product counts resolvable pairs and is
            # never negative, so one inversion of the sum has the union
            # of their supports.
            fresh = _subset_transform(_pair_counts(~underived, n), 2 * n, -1) != 0
        fresh &= underived
        found = int(np.count_nonzero(fresh))
        if not found:
            break
        if rnd >= _NOT_DERIVED:
            raise ResourceLimitError(
                f"closure needs more than {_NOT_DERIVED - 1} resolution rounds"
            )
        count += found
        if count > max_clauses:
            raise _OverCap(f"closure exceeded {max_clauses} clauses")
        rounds[fresh] = rnd
        if sparse:
            old, new = np.concatenate((old, new)), np.flatnonzero(fresh)
    return _LatticePart(n, rounds, seeds, inputs)


def _saturate_pairwise(
    n: int, seeds: "tuple[int, ...]", inputs: int, max_clauses: int
) -> _PairwisePart:
    """The lattice's rounds and refusals, semi-naively over a dict of
    clause cells, plus a pair bound on components wider than a lattice."""
    entries = {c: (_INPUT if k < inputs else _AXIOM, 0) for k, c in enumerate(seeds)}
    # holding[b] lists the clauses holding literal bit b (x_i at i, ~x_i
    # at n + i) in entry order.
    holding: list[list[int]] = [[] for _ in range(2 * n)]
    rnd = 0
    new = list(entries)
    while new:
        old = [len(h) for h in holding]
        for c in new:
            for b in bits(c):
                holding[b].append(c)
        # The rounds up to this one resolve every pair of known clauses once.
        pairs = sum(len(holding[i]) * len(holding[n + i]) for i in range(n))
        if n > LATTICE_MAX_ATOMS and pairs > _PAIRS_PER_CLAUSE * max_clauses:
            raise ResourceLimitError(
                f"closure of a {n}-atom component would resolve more than "
                f"{_PAIRS_PER_CLAUSE * max_clauses} clause pairs"
            )
        rnd += 1
        found: set[int] = set()
        for i in range(n):
            pbit, nbit = 1 << i, 1 << (n + i)
            with_pos, with_neg = holding[i], [d & ~nbit for d in holding[n + i]]
            # New x_i against every ~x_i, old x_i against new ~x_i.
            for left, right in (
                (with_pos[old[i] :], with_neg),
                (with_pos[: old[i]], with_neg[old[n + i] :]),
            ):
                for c in left:
                    rest = c & ~pbit
                    found.update([r for d in right if (r := rest | d) not in entries])
                    if found and len(entries) + len(found) > max_clauses:
                        raise _OverCap(f"closure exceeded {max_clauses} clauses")
        new = sorted(found)
        entries.update((c, (_RESOLVENT, rnd)) for c in new)
    return _PairwisePart(n, entries)


# The lattice parts of live closures, by the width, input count and
# seeds that determine them. An entry goes when its part is freed; two
# calls that miss at once both saturate, and either part is right.
_live_parts: "weakref.WeakValueDictionary[tuple, _LatticePart]" = weakref.WeakValueDictionary()


def _shared_lattice(
    n: int, seeds: "tuple[int, ...]", inputs: int, max_clauses: int
) -> _LatticePart:
    """``_saturate_lattice``, or the part a live closure already holds for
    the same component.

    A shared part is refused exactly where saturating it again would be:
    its rounds only add clauses, so some round passes the budget when
    the final count does and any round added one.
    """
    key = (n, inputs, seeds)
    part = _live_parts.get(key)
    if part is None:
        part = _live_parts[key] = _saturate_lattice(n, seeds, inputs, max_clauses)
    elif part.resolves and part.count > max_clauses:
        raise _OverCap(f"closure exceeded {max_clauses} clauses")
    return part


def _components(
    theory: ClausalTheory, u: Universe
) -> "list[tuple[tuple[int, ...], tuple[int, ...], int]]":
    """The connected components of the clause hypergraph, with their seeds.

    Each component comes as the universe indices of its atoms, its
    round-0 cells ``pos | neg << n`` in its own indices (its input
    clauses in ``clause_sort_key`` order, then the axioms that are not
    inputs) and its number of inputs. Atoms in no clause are components
    of their own, and the empty clause belongs to none. Components are
    ordered by their lowest atom.
    """
    masks = [intern_clause(c, u) for c in sorted(theory.clauses, key=clause_sort_key)]
    adjacent = [0] * len(u)
    for pos, neg in masks:
        for i in bits(pos | neg):
            adjacent[i] |= pos | neg
    maps = [_AtomMap(tuple(bits(comp))) for comp in flood_fill(adjacent)]
    owner = {g: k for k, amap in enumerate(maps) for g in amap.atoms}
    seeds: list[list[int]] = [[] for _ in maps]
    for pos, neg in masks:
        if pos | neg:
            # A clause lies in the component of its lowest atom.
            k = owner[((pos | neg) & -(pos | neg)).bit_length() - 1]
            seeds[k].append(maps[k].cell(pos, neg))
    groups = []
    for amap, cells in zip(maps, seeds):
        inputs = set(cells)
        axioms = [c for c in (amap.cell(1 << g, 1 << g) for g in amap.atoms) if c not in inputs]
        groups.append((amap.atoms, tuple(cells + axioms), len(cells)))
    return groups


def saturate(theory: ClausalTheory, max_clauses: int = DEFAULT_MAX_CLAUSES) -> Closure:
    """Close a theory under resolution, with axioms for every universe atom.

    Each connected component is saturated on its own, from its seeds
    in its own atom indices, straight into a part: on the clause
    lattice from 4 to ``LATTICE_MAX_ATOMS`` atoms, so numpy loads only
    for such a component, and by semi-naive rounds over clause pairs
    otherwise. A lattice component that a live closure already holds
    takes that closure's part. Raises :class:`ResourceLimitError` once
    the whole closure, all components together, would exceed
    ``max_clauses`` clauses, unless it resolves nothing, or a component
    wider than ``LATTICE_MAX_ATOMS`` would resolve more than
    ``_PAIRS_PER_CLAUSE`` clause pairs per clause of the budget left.
    """
    u = Universe(theory.universe)
    nonempty = 0  # the nonempty clauses of the parts so far
    parts = []
    for atoms, seeds, inputs in _components(theory, u):
        n = len(atoms)
        # A component of at most 3 atoms has at most 64 cells, whose
        # pairs cost less than loading numpy for its lattice.
        saturator = _shared_lattice if 3 < n <= LATTICE_MAX_ATOMS else _saturate_pairwise
        # The empty clause is shared, so a part may count it again
        # without growing the union.
        try:
            part = saturator(n, seeds, inputs, max_clauses - nonempty)
        except _OverCap:
            raise ResourceLimitError(f"closure exceeded {max_clauses} clauses") from None
        nonempty += part.count - (part.entry(0) is not None)
        parts.append((atoms, part))
    closure = Closure(u, parts, Clause() in theory.clauses)
    # As in each saturator, a closure that resolves nothing is not refused.
    if len(closure) > max_clauses and any(part.resolves for _, part in parts):
        raise ResourceLimitError(f"closure exceeded {max_clauses} clauses")
    return closure


def derives(closure: Closure, clause: Clause) -> bool:
    """Exact membership of the canonical clause in the closure."""
    return clause in closure


def witness_subclause(closure: Closure, clause: Clause) -> Optional[Clause]:
    """A derivable subclause of ``clause``, or None.

    Prefers the smallest nonempty derivable subclause (ties broken by
    literal order); falls back to the empty clause when that is the only
    derivable subclause.
    """
    found = [closure.clause_of(m) for m in closure.subclauses(*closure.clause_masks(clause))]
    nonempty = [c for c in found if not c.is_empty]
    return min(nonempty or found, key=clause_sort_key, default=None)


def paradoxical_atoms(closure: Closure) -> frozenset[str]:
    """Atoms whose positive and negative units are both derivable."""
    mask = closure.paradox_mask
    empty = closure._empty
    # Two complementary units resolve to the empty clause, and an empty
    # clause that was RESOLVED (not handed in as input) came from such a
    # pair; an input empty clause carries no atom information.
    if mask and empty is None:
        raise AssertionError("paradoxical atoms without a derivable empty clause")
    if empty is not None and empty[0] != _INPUT and not mask:
        raise AssertionError("derived empty clause without a paradoxical atom")
    return closure._u.atoms_of(mask)


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
    return subdiscourse_report(theory, graph, paradoxical_atoms(closure))


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


def is_relevant(
    theory: ClausalTheory,
    clause: Clause,
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> bool:
    """Entailed, with no entailed nonempty proper subclause.

    A relevant clause says nothing that one of its proper parts already
    says; the empty clause is outside the definition. These are exactly
    the derivable clauses with no derivable nonempty proper subclause:
    an entailed clause has a nonempty derivable subclause, and a
    nonempty derivable clause is entailed (resolving with the units of
    paradoxical atoms deletes their literals).
    """
    if clause.is_empty:
        raise ValidationError("relevance is undefined for the empty clause")
    closure = _closure_for(theory, closure, max_clauses)
    if clause not in closure:
        return False
    masks = closure.clause_masks(clause)
    return all(m in ((0, 0), masks) for m in closure.subclauses(*masks))


def min_clauses(
    theory: ClausalTheory,
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> frozenset[Clause]:
    """Derivable clauses with no nonempty derivable proper subclause.

    The empty clause is excluded; these are exactly the relevant
    clauses of the theory. The closure finds them per component: on a
    clause lattice, a clause is minimal when the zeta transform of the
    derived clauses counts, inside it, only itself and the empty clause
    if that is derived.
    """
    return _closure_for(theory, closure, max_clauses).minimal_clauses()


def component_claim_check(
    graph: Digraph,
    *,
    closure: Optional[Closure] = None,
    max_clauses: int = DEFAULT_MAX_CLAUSES,
) -> bool:
    """Check that resolution couples exactly the atoms that hang together.

    True when, for every atom, the union of the derivable clauses of the
    graph's clause form that hold it is exactly its component of the
    underlying undirected graph.
    """
    theory = clausal_theory(graph)
    closure = _closure_for(theory, closure, max_clauses)
    cooccur = [0] * len(graph.universe)
    for p, q in closure.iter_masks():
        for i in bits(p | q):
            cooccur[i] |= p | q
    return all(cooccur[i] == cm for cm in component_masks(graph) for i in bits(cm))


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
    contradiction. It coincides with paraconsistent entailment except on
    the empty clause of a theory with an input ``[]`` and no provably
    paradoxical atom, which is derived, so provable, but not entailed.
    """
    closure = _closure_for(theory, closure, max_clauses)
    pos, neg = closure.clause_masks(clause)
    premises = _weakening_premises(closure, pos, neg, mode)
    if closure._entry((pos, neg)) is not None:
        return True
    if mode == "awbw" and (pos | neg) and not (pos | neg) & ~closure.paradox_mask:
        return True
    return any(premises)


def _weakening_premises(closure: Closure, pos: int, neg: int, mode: str):
    """The derived subclauses of ``(pos, neg)`` that ``mode`` weakens from."""
    if mode not in WEAKENING_MODES:
        raise ValidationError(f"unknown weakening mode {mode!r}")
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
    return min(map(closure.clause_of, premises), key=clause_sort_key, default=None)


def closure_with_assumptions(
    theory: ClausalTheory, clause: Clause, max_clauses: int = DEFAULT_MAX_CLAUSES
) -> Closure:
    """Saturate the theory extended with the complement units of ``clause``.

    Denying a clause this way never changes the universe, and with the
    empty clause it degenerates to plain saturation. The denial units
    never join components, so while a closure of ``theory`` is alive
    only the components holding the clause's atoms are saturated again;
    the others share that closure's parts.
    """
    intern_clause(clause, Universe(theory.universe))
    extended = ClausalTheory(theory.clauses | complement_units(clause), theory.universe)
    return saturate(extended, max_clauses)


class ProofStep(Record):
    """One line of a proof: a clause and how it was obtained.

    ``rule`` is ``"input"``, ``"axiom"`` or ``"res"``; a resolution step
    also names its two ``premises`` by index and the ``atom`` resolved on.
    """

    __slots__ = ("index", "clause", "rule", "premises", "atom")

    def __init__(
        self,
        index: int,
        clause: Clause,
        rule: str,
        premises: Optional[tuple[int, int]] = None,
        atom: Optional[str] = None,
    ):
        super().__init__(index, clause, rule, premises, atom)

    def __str__(self) -> str:
        if self.rule == "res":
            i, j = self.premises
            return f"{self.index}. {self.clause} [res {i} {j} on {self.atom}]"
        return f"{self.index}. {self.clause} [{self.rule}]"


class Proof(Record):
    """A replayable derivation ending at ``conclusion``.

    Premises of every resolution step appear earlier in ``steps``.
    """

    __slots__ = ("conclusion", "steps")

    def __init__(self, conclusion: Clause, steps: tuple[ProofStep, ...]):
        super().__init__(conclusion, steps)

    def to_text(self) -> str:
        return "\n".join(str(step) for step in self.steps)

    def __str__(self) -> str:
        return self.to_text()


def proof_of(closure: Closure, clause: Clause) -> Proof:
    """Reconstruct one derivation of ``clause`` by the parent search."""
    target = closure.clause_masks(clause)
    if closure._entry(target) is None:
        raise ValidationError(f"clause {clause} is not derivable")

    # Iterative post-order walk, which writes each step once its premises
    # hold positions; proofs can be deep enough to overflow the
    # interpreter stack if done recursively. A resolvent goes back on
    # the stack with the parent step found for it, so it is searched once.
    position: dict[tuple[int, int], int] = {}
    steps: list[ProofStep] = []
    stack: list[tuple[tuple[int, int], Optional[tuple]]] = [(target, None)]
    while stack:
        m, par = stack.pop()
        if m in position:
            continue
        idx = len(steps) + 1
        if par is not None:
            p, q, i = par
            premises = (position[p], position[q])
            steps.append(ProofStep(idx, closure.clause_of(m), "res", premises, closure.universe[i]))
        else:
            kind, rnd = closure._entry(m)
            if kind == _RESOLVENT:
                par = closure._search_parents(m, rnd)
                stack += [(m, par), (par[1], None), (par[0], None)]
                continue
            steps.append(ProofStep(idx, closure.clause_of(m), kind))
        position[m] = idx
    return Proof(conclusion=closure.clause_of(target), steps=tuple(steps))
