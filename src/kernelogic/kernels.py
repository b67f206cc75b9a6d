"""Kernels, semikernels, and the partitions they induce.

A kernel is an independent set that absorbs its complement; it plays
the role of a two-valued model of the graph's theory. A semikernel
relaxes absorption to its own neighborhood, leaving a third, unsettled
region. The models of a graph are the inverse-closed semikernels whose
settled region is maximal; they exist for every graph because the empty
set always qualifies.

Enumeration is plain subset search with early pruning on independence.
Kernel problems are NP-hard in general, so a configurable atom cap
(default 20) keeps calls honest; this package targets desk scale and
chooses exactness over volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, ValidationError
from .graphs import Digraph

DEFAULT_MAX_ATOMS = 20


@dataclass(frozen=True)
class Partition3:
    """A three-way split of a graph's atoms: true, false, unsettled."""

    true_set: frozenset[str]
    false_set: frozenset[str]
    paradox_set: frozenset[str]

    def atoms(self) -> frozenset[str]:
        return self.true_set | self.false_set | self.paradox_set

    def boolean_domain(self) -> frozenset[str]:
        return self.true_set | self.false_set


class Partition2(NamedTuple):
    """A two-valued model: true atoms and false atoms."""

    true_set: frozenset[str]
    false_set: frozenset[str]


@dataclass(frozen=True)
class SubsetReport:
    """What a vertex subset is: the five checks bundled."""

    independent: bool
    kernel: bool
    semikernel: bool
    inverse_closed: bool
    psk: bool


def _is_independent(graph: Digraph, mask: int) -> bool:
    return graph.out_mask(mask) & mask == 0


def _is_semikernel(graph: Digraph, mask: int) -> bool:
    out = graph.out_mask(mask)
    into = graph.in_mask(mask)
    return out & ~into == 0 and into & mask == 0


def _is_kernel(graph: Digraph, mask: int) -> bool:
    rest = graph.universe.full_mask & ~mask
    return _is_independent(graph, mask) and graph.in_mask(mask) == rest


def _is_closed(graph: Digraph, mask: int) -> bool:
    dom = graph.in_closed_mask(mask)
    return graph.in_mask(dom) & ~dom == 0


def classify_subset(graph: Digraph, atoms: Iterable[str]) -> SubsetReport:
    """Classify a vertex subset in one pass."""
    mask = graph.universe.mask_of(atoms)
    independent = _is_independent(graph, mask)
    semikernel = independent and _is_semikernel(graph, mask)
    closed = _is_closed(graph, mask)
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
    mask = graph.universe.mask_of(atoms)
    if not _is_independent(graph, mask):
        raise ValidationError(f"set {sorted(frozenset(atoms))} is not independent")
    return _partition_from_mask(graph, mask)


def _partition_from_mask(graph: Digraph, mask: int) -> Partition3:
    u = graph.universe
    false_mask = graph.in_mask(mask)
    rest = u.full_mask & ~(mask | false_mask)
    return Partition3(u.atoms_of(mask), u.atoms_of(false_mask), u.atoms_of(rest))


def _check_cap(graph: Digraph, max_atoms: int) -> None:
    if len(graph.vertices) > max_atoms:
        raise ResourceLimitError(
            f"graph has {len(graph.vertices)} atoms, enumeration cap is {max_atoms}"
        )


@lru_cache(maxsize=512)
def _independent_masks(graph: Digraph) -> tuple[int, ...]:
    # Depth-first over vertex indices; a branch dies as soon as the next
    # vertex touches the set built so far. Output sorted by subset rank.
    n = len(graph.vertices)
    succ = graph._succ
    pred = graph._pred
    found: list[int] = []

    def extend(i: int, mask: int) -> None:
        if i == n:
            found.append(mask)
            return
        extend(i + 1, mask)
        bit = 1 << i
        if succ[i] & bit == 0 and (succ[i] | pred[i]) & mask == 0:
            extend(i + 1, mask | bit)

    extend(0, 0)
    return tuple(sorted(found))


@lru_cache(maxsize=512)
def _semikernel_masks(graph: Digraph) -> tuple[int, ...]:
    return tuple(
        m for m in _independent_masks(graph) if _is_semikernel(graph, m)
    )


def enumerate_kernels(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[frozenset[str]]:
    """All kernels, ordered by subset rank over the sorted vertices."""
    _check_cap(graph, max_atoms)
    u = graph.universe
    return [
        u.atoms_of(m) for m in _independent_masks(graph) if _is_kernel(graph, m)
    ]


def enumerate_semikernels(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[frozenset[str]]:
    """All semikernels, including the empty set, ordered by subset rank."""
    _check_cap(graph, max_atoms)
    u = graph.universe
    return [u.atoms_of(m) for m in _semikernel_masks(graph)]


@lru_cache(maxsize=512)
def _model_masks(graph: Digraph) -> tuple[int, ...]:
    closed = [m for m in _semikernel_masks(graph) if _is_closed(graph, m)]
    domains = {m: graph.in_closed_mask(m) for m in closed}
    kept = []
    for m in closed:
        dom = domains[m]
        if not any(dom != d and dom & ~d == 0 for d in domains.values()):
            kept.append(m)
    return tuple(kept)


def models(graph: Digraph, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[Partition3]:
    """All models of the graph: partitions of the inverse-closed
    semikernels whose settled domain is maximal.

    The list is never empty; ties with an equal domain are all kept.
    """
    _check_cap(graph, max_atoms)
    return [_partition_from_mask(graph, m) for m in _model_masks(graph)]


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
    reach = t_mask
    while True:
        grown = reach | graph.out_mask(reach)
        if grown == reach:
            break
        reach = grown
    result = s_mask & reach
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
    t = u.mask_of(p.true_set)
    f = u.mask_of(p.false_set)
    d = u.mask_of(p.paradox_set)
    if t & f or t & d or f & d or (t | f | d) != u.full_mask:
        raise ValidationError(f"{name} is not a partition of the graph's atoms")
    return t, f, d


def _is_psk_partition(graph: Digraph, t: int, f: int) -> bool:
    return (
        f == graph.in_mask(t)
        and _is_semikernel(graph, t)
        and _is_closed(graph, t)
    )


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
    if not (_is_semikernel(graph, grown) and _is_closed(graph, grown)):
        raise AssertionError("combined set is not an inverse-closed semikernel")
    new_dom = graph.in_closed_mask(grown)
    if a_dom & ~new_dom or a_dom == new_dom:
        raise AssertionError("combined partition does not strictly extend alpha")
    return _partition_from_mask(graph, grown)
