"""Seeded input generation for the benchmark.

The benchmark draws every discourse from its own SplitMix64 stream, so a
change to ``kernelogic.oracle`` cannot change a workload. A discourse is
a plain list of atom names and directed edges; the program under test
only ever sees it as GNF, edge-list or clause text.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator (Steele, Lea and Flood 2014)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def unit(self) -> float:
        """A draw in [0, 1) with 53 bits of precision."""
        return (self.next() >> 11) * 2.0**-53

    def below(self, k: int) -> int:
        return self.next() % k

    def choice(self, items):
        return items[self.below(len(items))]


@dataclass(frozen=True)
class Discourse:
    """A digraph discourse: atom names (sorted) and edges ``(src, dst)``."""

    names: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def key(self) -> tuple:
        """Identity of the graph the program builds from this discourse."""
        return (self.names, frozenset(self.edges))

    def successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {v: [] for v in self.names}
        for src, dst in self.edges:
            succ[src].append(dst)
        return succ

    def gnf_text(self) -> str:
        succ = self.successors()
        return "".join(f"{v} : {' '.join(sorted(succ[v]))}".rstrip() + "\n" for v in self.names)

    def edges_text(self) -> str:
        touched = {v for edge in self.edges for v in edge}
        lines = [f"vertex {v}" for v in self.names if v not in touched]
        lines += [f"{src} -> {dst}" for src, dst in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def clause_lines(self) -> list[str]:
        """The clause form, written out from the raw edges."""
        succ = self.successors()
        lines = []
        for v in self.names:
            lines.append(" ".join(sorted(set(succ[v]) | {v})))
            lines += [f"~{v} ~{w}" if v != w else f"~{v}" for w in sorted(succ[v])]
        return lines

    def clauses_text(self) -> str:
        return "\n".join(self.clause_lines()) + "\n"

    def text(self, fmt: str) -> str:
        return {"gnf": self.gnf_text, "edges": self.edges_text, "clauses": self.clauses_text}[fmt]()


def atom_names(prefix: str, n: int) -> list[str]:
    width = len(str(max(n - 1, 0)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def random_edges(rng: SplitMix64, names, p: float) -> list[tuple[str, str]]:
    """One draw per ordered pair, loops included."""
    return [(s, d) for s in names for d in names if rng.unit() < p]


def random_discourse(rng: SplitMix64, n: int, p: float, prefix: str = "a") -> Discourse:
    names = atom_names(prefix, n)
    return Discourse(tuple(names), tuple(random_edges(rng, names, p)))


def union(parts) -> Discourse:
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    for part in parts:
        names += part.names
        edges += part.edges
    return Discourse(tuple(sorted(names)), tuple(edges))


def two_cycles(k: int, liars: int, prefix: str = "c") -> Discourse:
    """``k`` disjoint 2-cycles; the first ``liars`` of them get a loop on one end."""
    names = atom_names(prefix, 2 * k)
    edges = []
    for i in range(k):
        a, b = names[2 * i], names[2 * i + 1]
        edges += [(a, b), (b, a)]
        if i < liars:
            edges.append((a, a))
    return Discourse(tuple(names), tuple(edges))


def odd_cycles(lengths, prefix: str = "o") -> Discourse:
    """Disjoint directed cycles of the given lengths."""
    names = atom_names(prefix, sum(lengths))
    edges = []
    start = 0
    for length in lengths:
        ring = names[start:start + length]
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        start += length
    return Discourse(tuple(names), tuple(edges))
