"""Brute-force reference implementations and a reproducible graph source.

Everything here recomputes results from first principles, scanning the
raw edge set per subset instead of reusing the engine's interned
machinery. The point is to disagree loudly if the optimized paths ever
drift, so these stay naive on purpose and are capped at small sizes.

The pseudorandom generator is SplitMix64, implemented locally so that a
``RandomGraphSpec`` pins down the same graph on every platform and in
every implementation language: the stream is seeded with the spec's
seed, one draw is made per ordered vertex pair (loops included) in
row-major order of the sorted vertex names, and the pair becomes an
edge when ``draw >> 11`` times 2**-53 is below the edge probability.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .clauses import ClausalTheory, Clause, Literal
from .errors import ResourceLimitError
from .graphs import Digraph
from .kernels import DEFAULT_MAX_ATOMS, Partition3
from .records import Record

BRUTE_MAX_ATOMS = 16
BRUTE_CLOSURE_MAX_ATOMS = 6
_MASK64 = (1 << 64) - 1


class RandomGraphSpec(Record):
    """A reproducible random digraph: size, edge probability, seed."""

    __slots__ = ("n", "edge_prob", "seed")

    def __init__(self, n: int, edge_prob: float, seed: int):
        super().__init__(n, edge_prob, seed)


def splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream for ``seed``, yielding 64-bit values."""
    x = seed & _MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_unit(stream: Iterator[int]) -> float:
    """Next draw mapped into [0, 1) with 53 bits of precision."""
    return (next(stream) >> 11) * 2.0**-53


def random_digraph(spec: RandomGraphSpec) -> Digraph:
    """Materialize the digraph a spec describes. Same spec, same graph."""
    width = len(str(max(spec.n - 1, 0)))
    names = [f"v{i:0{width}d}" for i in range(spec.n)]
    stream = splitmix64(spec.seed)
    edges = []
    for src in names:
        for dst in names:
            if random_unit(stream) < spec.edge_prob:
                edges.append((src, dst))
    return Digraph(names, edges)


def check_brute_cap(atoms: int) -> None:
    """Refuse a graph of ``atoms`` atoms to the brute-force listings."""
    if atoms > BRUTE_MAX_ATOMS:
        raise ResourceLimitError(
            f"brute-force path is capped at {BRUTE_MAX_ATOMS} atoms"
        )


def _subsets(graph: Digraph) -> Iterator[frozenset[str]]:
    vs = graph.vertices
    for rank in range(1 << len(vs)):
        yield frozenset(vs[i] for i in range(len(vs)) if rank >> i & 1)


def brute_semikernels(graph: Digraph) -> list[frozenset[str]]:
    """All semikernels by testing every subset against the definition."""
    check_brute_cap(len(graph.vertices))
    found = []
    for s in _subsets(graph):
        out = {y for (x, y) in graph.edges if x in s}
        into = {x for (x, y) in graph.edges if y in s}
        if out <= into and not (into & s):
            found.append(s)
    return found


def brute_kernels(graph: Digraph) -> list[frozenset[str]]:
    """All kernels: independent subsets absorbing their complement."""
    check_brute_cap(len(graph.vertices))
    found = []
    rest_needs_edge = set(graph.vertices)
    for s in _subsets(graph):
        if any(x in s and y in s for (x, y) in graph.edges):
            continue
        absorbed = {x for (x, y) in graph.edges if y in s}
        if absorbed == rest_needs_edge - s:
            found.append(s)
    return found


def brute_models(graph: Digraph) -> list[Partition3]:
    """All models: inverse-closed semikernels with maximal settled domain."""
    check_brute_cap(len(graph.vertices))
    closed = []
    for s in brute_semikernels(graph):
        into = {x for (x, y) in graph.edges if y in s}
        domain = s | into
        preds_of_domain = {x for (x, y) in graph.edges if y in domain}
        if preds_of_domain <= domain:
            closed.append((s, into, domain))
    kept = []
    everything = set(graph.vertices)
    for s, into, domain in closed:
        if any(domain < other for (_, _, other) in closed):
            continue
        kept.append(
            Partition3(frozenset(s), frozenset(into), frozenset(everything - domain))
        )
    return kept


def truth_table_models(
    theory: ClausalTheory, max_atoms: int = DEFAULT_MAX_ATOMS
) -> list[dict[str, bool]]:
    """Every total two-valued assignment satisfying the whole theory."""
    atoms = theory.universe
    if len(atoms) > max_atoms:
        raise ResourceLimitError(
            f"universe has {len(atoms)} atoms, truth-table cap is {max_atoms}"
        )
    found = []
    for values in product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, values))
        ok = True
        for clause in theory.clauses:
            if not any(
                assignment[l.atom] != l.negated for l in clause.literals
            ):
                ok = False
                break
        if ok:
            found.append(assignment)
    return found


def brute_closure(theory: ClausalTheory) -> frozenset[Clause]:
    """The resolution closure by a naive fixpoint over clause sets.

    Starts from the input clauses and one axiom ``x ~x`` per universe
    atom. Each round resolves, on every pivot, every pair of known
    clauses of which at least one is new since the round before, until
    a round adds nothing; no subsumption, no tautology deletion.
    """
    if len(theory.universe) > BRUTE_CLOSURE_MAX_ATOMS:
        raise ResourceLimitError(
            f"brute-force closure is capped at {BRUTE_CLOSURE_MAX_ATOMS} atoms"
        )
    known = {c.literals for c in theory.clauses}
    known |= {frozenset({Literal(a), Literal(a, True)}) for a in theory.universe}
    # Pairs of clauses known before the last round were resolved then.
    fresh = set(known)
    while fresh:
        found = set()
        for left in fresh:
            for lit in left:
                other = lit.complement()
                rest = left - {lit}
                for right in known:
                    if other in right:
                        found.add(rest | (right - {other}))
        fresh = found - known
        known |= fresh
    return frozenset(Clause(c) for c in known)
