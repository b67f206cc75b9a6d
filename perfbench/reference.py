"""The benchmark's own reference answers, computed from the raw edges.

Nothing here imports ``kernelogic``: the checks must not move when the
code under test moves. Sets of atoms are bitmasks over the discourse's
sorted names; a clause is a pair ``(pos, neg)`` of such masks and a
three-way model is a triple ``(true, false, unsettled)``.

Graphs wider than ``BRUTE_MAX_ATOMS`` are never enumerated whole. They
are split into weakly connected components, each component is searched
by brute force, and the whole answer follows because kernels,
semikernels and models of a disjoint union are products of those of
its components.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from gen import Discourse

BRUTE_MAX_ATOMS = 16


def bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class EdgeOracle:
    """Brute-force kernel semantics of one discourse."""

    def __init__(self, discourse: Discourse):
        self.names = discourse.names
        self.index = {v: i for i, v in enumerate(self.names)}
        self.n = len(self.names)
        self.full = (1 << self.n) - 1
        self.succ = [0] * self.n
        self.pred = [0] * self.n
        for src, dst in discourse.edges:
            i, j = self.index[src], self.index[dst]
            self.succ[i] |= 1 << j
            self.pred[j] |= 1 << i
        self._parts = None

    # --- masks and names -------------------------------------------------

    def mask(self, atoms) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def atoms(self, mask: int) -> frozenset[str]:
        return frozenset(self.names[i] for i in bit_list(mask))

    def clause(self, literals) -> tuple[int, int]:
        """``(pos, neg)`` masks of literal strings such as ``a`` or ``~b``."""
        pos = neg = 0
        for lit in literals:
            if lit.startswith("~"):
                neg |= 1 << self.index[lit[1:]]
            else:
                pos |= 1 << self.index[lit]
        return pos, neg

    def out(self, mask: int) -> int:
        m = 0
        for i in bit_list(mask):
            m |= self.succ[i]
        return m

    def into(self, mask: int) -> int:
        m = 0
        for i in bit_list(mask):
            m |= self.pred[i]
        return m

    # --- the definitions ---------------------------------------------------

    def is_independent(self, m: int) -> bool:
        return self.out(m) & m == 0

    def is_semikernel(self, m: int) -> bool:
        return self.is_independent(m) and self.out(m) & ~self.into(m) == 0

    def is_kernel(self, m: int) -> bool:
        return self.is_independent(m) and self.into(m) == self.full & ~m

    def is_inverse_closed(self, m: int) -> bool:
        dom = m | self.into(m)
        return self.into(dom) & ~dom == 0

    def components(self) -> list[int]:
        seen = 0
        comps = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            while True:
                grown = comp | self.out(comp) | self.into(comp)
                if grown == comp:
                    break
                comp = grown
            seen |= comp
            comps.append(comp)
        return comps

    def brute(self, within: int) -> dict:
        """Kernels, semikernels and models inside one vertex set ``within``."""
        idx = bit_list(within)
        if len(idx) > BRUTE_MAX_ATOMS:
            raise ValueError(f"component of {len(idx)} atoms is past the brute-force cap")
        kernels, semis, closed = [], [], []
        independent = 0
        for rank in range(1 << len(idx)):
            m = 0
            for k, i in enumerate(idx):
                if rank >> k & 1:
                    m |= 1 << i
            if not self.is_independent(m):
                continue
            independent += 1
            if not self.is_semikernel(m):
                continue
            semis.append(m)
            into = self.into(m)
            if into == within & ~m:
                kernels.append(m)
            if self.is_inverse_closed(m):
                closed.append((m, m | into))
        best = max(closed, key=lambda item: item[1].bit_count())[1]
        if any(dom & ~best for _, dom in closed):
            raise AssertionError("closed semikernels without one largest settled domain")
        models = [m for m, dom in closed if dom == best]
        return {"kernels": kernels, "semikernels": semis, "models": models, "domain": best,
                "independent": independent, "closed": len(closed)}

    def parts(self) -> list[dict]:
        if self._parts is None:
            self._parts = [self.brute(c) | {"atoms": c} for c in self.components()]
        return self._parts

    # --- whole-graph answers -----------------------------------------------

    def counts(self) -> dict:
        parts = self.parts()
        out = {key: prod(len(p[key]) for p in parts) for key in ("kernels", "semikernels", "models")}
        out.update({key: prod(p[key] for p in parts) for key in ("independent", "closed")})
        return out

    def domain(self) -> int:
        """The settled domain that every model shares."""
        d = 0
        for p in self.parts():
            d |= p["domain"]
        return d

    def paradox(self) -> int:
        return self.full & ~self.domain()

    def has_kernel(self) -> bool:
        return all(p["kernels"] for p in self.parts())

    def all_models(self) -> list[tuple[int, int, int]]:
        """Every model as (true, false, unsettled); only for modest counts."""
        unsettled = self.paradox()
        combos = [0]
        for p in self.parts():
            combos = [c | m for c in combos for m in p["models"]]
        return [(t, self.into(t), unsettled) for t in combos]

    # --- consequence -------------------------------------------------------

    def entails_para(self, pos: int, neg: int) -> bool:
        """Every model satisfies the clause (three-valued satisfaction)."""
        unsettled = self.paradox()
        if unsettled and (pos | neg) & ~unsettled == 0:
            return True
        for p in self.parts():
            cpos, cneg = pos & p["atoms"], neg & p["atoms"]
            if (cpos or cneg) and all(cpos & t or cneg & self.into(t) for t in p["models"]):
                return True
        return False

    def entails_classical(self, pos: int, neg: int) -> bool:
        """Every kernel (two-valued model) satisfies the clause."""
        if not self.has_kernel():
            return True
        for p in self.parts():
            cpos, cneg = pos & p["atoms"], neg & p["atoms"]
            if (cpos or cneg) and all(cpos & k or cneg & ~k for k in p["kernels"]):
                return True
        return False

    def is_relevant(self, pos: int, neg: int) -> bool:
        if not self.entails_para(pos, neg):
            return False
        lits = [(1 << i, 0) for i in bit_list(pos)] + [(0, 1 << i) for i in bit_list(neg)]
        for size in range(1, len(lits)):
            for combo in combinations(lits, size):
                if self.entails_para(sum(c[0] for c in combo), sum(c[1] for c in combo)):
                    return False
        return True

    def minimal_clauses(self) -> set[tuple[int, int]]:
        """All relevant clauses, by scanning every clause; small universes only."""
        if self.n > 7:
            raise ValueError("minimal clause scan is for universes of at most 7 atoms")
        entailed = set()
        for pos in range(self.full + 1):
            for neg in range(self.full + 1):
                if (pos or neg) and self.entails_para(pos, neg):
                    entailed.add((pos, neg))
        return {
            (p, q) for p, q in entailed
            if not any((sp, sq) != (p, q) and sp & ~p == 0 and sq & ~q == 0 for sp, sq in entailed)
        }

    def satisfies(self, model: tuple[int, int, int], pos: int, neg: int) -> bool:
        t, f, d = model
        return bool(pos & t or neg & f or (d and (pos | neg) & ~d == 0))


def parse_discourse(text: str):
    """Read a GNF theory or edge list; ``None`` for a clause set."""
    names: set[str] = set()
    edges: list[tuple[str, str]] = []
    kind = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if "->" in tokens or tokens[0] == "vertex":
            kind = "edges"
            if tokens[0] == "vertex":
                names.add(tokens[1])
            else:
                names.update((tokens[0], tokens[2]))
                edges.append((tokens[0], tokens[2]))
        elif ":" in line:
            kind = "gnf"
            head, _, rhs = line.partition(":")
            names.add(head.strip())
            edges += [(head.strip(), other) for other in rhs.split()]
        else:
            return None
    return Discourse(tuple(sorted(names)), tuple(edges)) if kind else None


def clause_form(oracle: EdgeOracle) -> set[tuple[int, int]]:
    """Input clauses of the graph's clause form, as masks."""
    out = set()
    for i in range(oracle.n):
        out.add((oracle.succ[i] | 1 << i, 0))
        out.update((0, 1 << i | 1 << j) for j in bit_list(oracle.succ[i]))
    return out


def clause_masks(oracle: EdgeOracle, text: str) -> tuple[int, int]:
    tokens = text.split()
    return (0, 0) if tokens == ["[]"] else oracle.clause(tokens)


def replay_proof(oracle: EdgeOracle, inputs: set, steps) -> tuple[int, int]:
    """Replay proof steps ``(clause_text, rule, premises, atom)`` by resolution.

    Returns the last clause. Raises ``ValueError`` on the first step
    that does not follow from earlier ones.
    """
    seen: list[tuple[int, int]] = []
    for number, (text, rule, premises, atom) in enumerate(steps, start=1):
        c = clause_masks(oracle, text)
        if rule == "input":
            ok = c in inputs
        elif rule == "axiom":
            ok = c[0] == c[1] and c[0].bit_count() == 1
        elif rule == "res":
            i, j = premises
            if not (1 <= i < number and 1 <= j < number):
                raise ValueError(f"step {number}: premises {i},{j} are not earlier steps")
            (p1, n1), (p2, n2) = seen[i - 1], seen[j - 1]
            bit = 1 << oracle.index[atom]
            ok = bool(p1 & bit and n2 & bit) and c == ((p1 & ~bit) | p2, n1 | (n2 & ~bit))
        else:
            ok = False
        if not ok:
            raise ValueError(f"step {number} ({text} [{rule}]) does not replay")
        seen.append(c)
    if not seen:
        raise ValueError("empty proof")
    return seen[-1]
