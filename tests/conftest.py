"""Shared fixtures: worked-example graphs, the randomized corpus, and the
acceptance-criterion reporter."""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

import kernelogic as kl

# The Python processes that tests start import this checkout's package,
# as the tests themselves do through pytest's ``pythonpath``.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

# Fixed corpus: 300 graphs, sizes 3..7, three densities, pinned seeds.
CORPUS_BASE_SEED = 101000
CORPUS_SIZE = 300


def corpus_specs() -> list[kl.RandomGraphSpec]:
    specs = []
    for i in range(CORPUS_SIZE):
        n = 3 + i % 5
        p = (0.15, 0.3, 0.5)[(i // 5) % 3]
        specs.append(kl.RandomGraphSpec(n=n, edge_prob=p, seed=CORPUS_BASE_SEED + i))
    return specs


def entails_by_listing(
    graph: kl.Digraph, c: kl.Clause, mods: list[kl.Partition3]
) -> kl.EntailmentVerdict:
    """The entailment verdict by a scan of the listed models ``mods``:
    the twin of ``entails_semantic``, which answers per component from
    ``model_side`` without listing them."""
    for m in mods:
        if not kl.satisfies(m, c):
            return kl.EntailmentVerdict(False, "countermodel", countermodel=m)
    unsettled = mods[0].paradox_set
    if unsettled and c.atoms() <= unsettled:
        return kl.EntailmentVerdict(True, "all-paradox")
    healthy_lits = [l for l in c.sorted_literals() if l.atom not in unsettled]
    for size in range(1, len(healthy_lits) + 1):
        for combo in combinations(healthy_lits, size):
            candidate = kl.Clause(combo)
            if all(kl.satisfies(m, candidate) for m in mods):
                return kl.EntailmentVerdict(True, "healthy-witness", witness=candidate)
    raise AssertionError(
        "entailed clause with no healthy witness; completeness is broken"
    )


def clause(text: str) -> kl.Clause:
    from kernelogic.io_text import parse_clause

    return parse_clause(text)


def clauses(*texts: str) -> frozenset[kl.Clause]:
    return frozenset(clause(t) for t in texts)


@pytest.fixture(scope="session")
def our_theory() -> kl.GnfTheory:
    # The six-statement liar discourse used as the running example.
    return kl.GnfTheory(
        {
            "a'": {"a"},
            "a": {"a'"},
            "b": {"a", "c"},
            "c": {"d"},
            "d": {"e"},
            "e": {"c"},
        }
    )


@pytest.fixture(scope="session")
def our_graph(our_theory) -> kl.Digraph:
    return kl.theory_to_graph(our_theory)


@pytest.fixture(scope="session")
def our_cth(our_graph) -> kl.ClausalTheory:
    return kl.clausal_theory(our_graph)


@pytest.fixture(scope="session")
def our_closure(our_cth) -> kl.Closure:
    return kl.saturate(our_cth)


@pytest.fixture(scope="session")
def f1_graph() -> kl.Digraph:
    # "This statement is false and the sun is not a star."
    return kl.theory_to_graph(kl.GnfTheory({"f": {"f", "s"}, "s": set()}))


@pytest.fixture(scope="session")
def f2_graph() -> kl.Digraph:
    # The contingent liar: false only because the sun is a star.
    return kl.theory_to_graph(kl.GnfTheory({"f": {"f", "y"}, "y": {"s"}, "s": set()}))


@pytest.fixture(scope="session")
def gamma2() -> kl.ClausalTheory:
    # The contingent liar's clause set as usually listed; the clause
    # form of the graph adds the subsumed ~f ~y on top of these.
    return kl.ClausalTheory(clauses("~f", "f y", "y s", "~y ~s", "s"))


@pytest.fixture(scope="session")
def loop_chain_graph() -> kl.Digraph:
    # Loop at a, a -> b, b <-> c; dropping the loop frees a second model.
    return kl.Digraph(
        ["a", "b", "c"], [("a", "a"), ("a", "b"), ("b", "c"), ("c", "b")]
    )


@pytest.fixture(scope="session")
def corpus() -> list[tuple[kl.RandomGraphSpec, kl.Digraph]]:
    return [(spec, kl.random_digraph(spec)) for spec in corpus_specs()]


class CorpusEntry:
    """Per-graph artifacts shared by the acceptance criteria."""

    def __init__(self, spec: kl.RandomGraphSpec, graph: kl.Digraph):
        self.spec = spec
        self.graph = graph
        self.theory = kl.clausal_theory(graph)
        self.closure = kl.saturate(self.theory)
        self.paradox = kl.paradoxical_atoms(self.closure)
        self.models = kl.models(graph)
        self.kernels = kl.enumerate_kernels(graph)
        self.semikernels = kl.enumerate_semikernels(graph)
        self.report = kl.consistent_subtheory(
            self.theory, graph, closure=self.closure
        )
        self.core_closure = kl.saturate(self.report.theory)


@pytest.fixture(scope="session")
def corpus_data(corpus) -> list[CorpusEntry]:
    return [CorpusEntry(spec, graph) for spec, graph in corpus]


# ---------------------------------------------------------------------------
# Acceptance reporting: one line per criterion in the terminal summary.

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(label: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"{status}  {label}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
