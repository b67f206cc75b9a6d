"""Acceptance gate: worked examples reproduced exactly, plus the
randomized corpus properties. One reported line per criterion."""

import functools
import time

import numpy as np

import kernelogic as kl
from kernelogic import Clause, Literal, Partition3
from kernelogic.cli import main as cli_main
from kernelogic.oracle import splitmix64

from conftest import clause, clauses, entails_by_listing, record_criterion
from test_resolution import rand_clause, rand_theory


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(label, False)
                raise
            record_criterion(label, True)

        return wrapper

    return decorate


@criterion("1 liar discourse end to end")
def test_c1_liar_discourse_end_to_end():
    started = time.perf_counter()
    theory = kl.GnfTheory(
        {
            "a'": {"a"},
            "a": {"a'"},
            "b": {"a", "c"},
            "c": {"d"},
            "d": {"e"},
            "e": {"c"},
        }
    )
    graph = kl.theory_to_graph(theory)
    cth = kl.clausal_theory(graph)
    closure = kl.saturate(cth)

    assert kl.paradoxical_atoms(closure) == {"c", "d", "e"}

    report = kl.consistent_subtheory(cth, graph, closure=closure)
    assert report.theory.clauses == clauses("a a'", "~a ~a'", "a b", "~a ~b", "~b")
    assert report.border == {"b"}

    assert kl.models(graph) == [
        Partition3(
            frozenset({"a"}), frozenset({"a'", "b"}), frozenset({"c", "d", "e"})
        )
    ]

    units = {c for c in closure.derived if len(c) == 1}
    assert units == clauses("a", "~a'", "~b", "c", "~c", "d", "~d", "e", "~e")

    assert time.perf_counter() - started < 1.0


@criterion("2 contingent liar fixtures")
def test_c2_fixtures(f1_graph, f2_graph, gamma2):
    assert kl.enumerate_kernels(f1_graph) == [frozenset({"s"})]

    nonempty = [s for s in kl.enumerate_semikernels(f2_graph) if s]
    assert nonempty == [frozenset({"s"})]

    assert kl.models(f2_graph) == [
        Partition3(frozenset(), frozenset(), frozenset({"f", "y", "s"}))
    ]

    closure = kl.saturate(gamma2)
    assert kl.derives(closure, Clause())
    for text in ("f", "~f", "y", "~y", "s", "~s"):
        assert kl.derives(closure, clause(text))


@criterion("3 oracle equivalence over 300 graphs")
def test_c3_oracle_equivalence(corpus):
    started = time.perf_counter()
    for _, graph in corpus:
        assert kl.enumerate_kernels(graph) == kl.brute_kernels(graph)
        assert kl.enumerate_semikernels(graph) == kl.brute_semikernels(graph)
        assert kl.models(graph) == kl.brute_models(graph)
        engine_classical = sorted(
            tuple(sorted(k)) for k in kl.enumerate_kernels(graph)
        )
        oracle_classical = sorted(
            tuple(sorted(a for a, v in row.items() if v))
            for row in kl.truth_table_models(kl.clausal_theory(graph))
        )
        assert engine_classical == oracle_classical
    assert time.perf_counter() - started < 120.0


@criterion("4 models settle one shared domain")
def test_c4_shared_boolean_domain(corpus_data):
    for entry in corpus_data:
        domains = {m.boolean_domain() for m in entry.models}
        assert len(domains) == 1, entry.spec


@criterion("5 model paradox part equals provably paradoxical atoms")
def test_c5_paradox_agreement(corpus_data):
    for entry in corpus_data:
        for m in entry.models:
            assert m.paradox_set == entry.paradox, entry.spec


@criterion("6 core kernel models extend to the full models")
def test_c6_core_models_match(corpus_data):
    for entry in corpus_data:
        extended = [
            Partition3(t, f, entry.paradox)
            for (t, f) in kl.core_models(entry.report, entry.graph)
        ]
        key = lambda p: tuple(sorted(p.true_set))
        assert sorted(extended, key=key) == sorted(entry.models, key=key), entry.spec


@criterion("7 entailment routes coincide on random clauses")
def test_c7_entailment_routes(corpus_data):
    stream = splitmix64(515151)
    for entry in corpus_data:
        names = entry.theory.universe
        for _ in range(50):
            c = rand_clause(stream, names)
            direct = kl.entails_para(entry.theory, c, closure=entry.closure)
            semantic = entails_by_listing(entry.graph, c, entry.models).holds
            weakened = kl.provable_weakened(
                entry.theory, c, "awbw", closure=entry.closure
            )
            assert direct == semantic == weakened, (entry.spec, str(c))


@criterion("8 consistent graphs behave classically")
def test_c8_consistent_specialization(corpus_data):
    stream = splitmix64(626262)
    consistent = [e for e in corpus_data if not e.paradox]
    assert consistent
    for entry in consistent:
        assert entry.models == [
            kl.partition_of(entry.graph, k) for k in entry.kernels
        ]
        for _ in range(20):
            c = rand_clause(stream, entry.theory.universe)
            assert kl.entails_para(
                entry.theory, c, closure=entry.closure
            ) == kl.classical_entails(entry.theory, c), (entry.spec, str(c))


def _fact1_instances(corpus_data):
    stream = splitmix64(737373)
    shrunk = grown = 0
    while shrunk < 500 or grown < 500:
        entry = corpus_data[next(stream) % len(corpus_data)]
        sks = entry.semikernels
        if shrunk < 500:
            s = sks[next(stream) % len(sks)]
            members = sorted(s)
            t = frozenset(m for m in members if next(stream) % 2)
            result = kl.sk_intersect_reach(entry.graph, s, t)
            assert kl.classify_subset(entry.graph, result).semikernel
            shrunk += 1
        if grown < 500:
            s = sks[next(stream) % len(sks)]
            t = sks[next(stream) % len(sks)]
            if not (kl.neighborhoods(entry.graph, s).in_ & t):
                result = kl.sk_union(entry.graph, s, t)
                assert kl.classify_subset(entry.graph, result).semikernel
                grown += 1


def _facts3_random_theories():
    stream = splitmix64(848484)
    for _ in range(60):
        t = rand_theory(stream)
        closure = kl.saturate(t)
        empty_derivable = kl.derives(closure, Clause())
        assert empty_derivable == (not kl.truth_table_models(t))
        if Clause() not in t.clauses:
            assert empty_derivable == bool(kl.paradoxical_atoms(closure))
    # The assumption-closure identity.
    from test_resolution import _submasks

    checked = 0
    while checked < 40:
        t = rand_theory(stream)
        a = rand_clause(stream, t.universe)
        base = kl.saturate(t)
        n = len(t.universe)
        lhs = set(kl.closure_with_assumptions(t, a).iter_masks())
        apos, aneg = base.clause_masks(a)
        rhs = set(base.iter_masks())
        for lit in a.literals:
            rhs.add(base.clause_masks(Clause([lit.complement()])))
        low = (1 << n) - 1
        for (p, q) in base.iter_masks():
            for sub in _submasks(apos | (aneg << n)):
                rhs.add((p & ~(sub & low), q & ~(sub >> n)))
        assert lhs == rhs
        checked += 1


def _fact4_step_soundness():
    stream = splitmix64(959595)
    names = ("p", "q", "r", "s", "t")
    checked = 0
    while checked < 1000:
        buckets = ([], [], [])
        for a in names:
            buckets[next(stream) % 3].append(a)
        part = Partition3(*(frozenset(b) for b in buckets))
        pivot = names[next(stream) % len(names)]
        assert kl.satisfies(part, Clause([Literal(pivot), Literal(pivot, True)]))
        left = Clause(rand_clause(stream, names).literals | {Literal(pivot)})
        right = Clause(rand_clause(stream, names).literals | {Literal(pivot, True)})
        if kl.satisfies(part, left) and kl.satisfies(part, right):
            conclusion = Clause(
                (left.literals - {Literal(pivot)})
                | (right.literals - {Literal(pivot, True)})
            )
            assert kl.satisfies(part, conclusion)
            checked += 1


def _fact6_suite(corpus_data):
    for entry in corpus_data:
        bad = entry.paradox
        assert kl.neighborhoods(entry.graph, bad).out <= bad, entry.spec  # Fact 5
        healthy = entry.report.healthy_atoms
        if not healthy:
            continue
        core = entry.core_closure
        for m in core.iter_masks():
            assert kl.derives(entry.closure, core.clause_of(m))
        assert not kl.derives(core, Clause())
        for x in healthy:
            for text in (x, f"~{x}"):
                assert kl.derives(core, clause(text)) == kl.derives(
                    entry.closure, clause(text)
                )
        assert any(not kl.derives(core, clause(f"~{x}")) for x in healthy)
        for x in healthy:
            if not kl.derives(core, clause(f"~{x}")):
                assert kl.neighborhoods(entry.graph, {x}).out <= healthy


def _literal_removal_lemma():
    stream = splitmix64(161616)
    for _ in range(30):
        t = rand_theory(stream)
        drop = frozenset(a for a in t.universe if next(stream) % 3 == 0)
        pruned = kl.remove_atoms(t, drop)
        pruned_closure = kl.saturate(pruned)
        pruned_masks = list(pruned_closure.iter_masks())
        base = kl.saturate(t)
        for m in base.iter_masks():
            reduced = Clause(
                l for l in base.clause_of(m).literals if l.atom not in drop
            )
            if not reduced.literals:
                continue
            rp, rq = pruned_closure.clause_masks(reduced)
            assert any(p & ~rp == 0 and q & ~rq == 0 for (p, q) in pruned_masks)


def _extension_lemma(corpus_data):
    combined = 0
    for entry in corpus_data:
        if len(entry.graph.vertices) > 5:
            continue
        psks = [
            kl.partition_of(entry.graph, s)
            for s in entry.semikernels
            if kl.classify_subset(entry.graph, s).psk
        ]
        for alpha in psks:
            for beta in psks:
                if not (beta.boolean_domain() - alpha.boolean_domain()):
                    continue
                gamma = kl.extend_partition(entry.graph, alpha, beta)
                assert kl.classify_subset(entry.graph, gamma.true_set).psk
                assert alpha.boolean_domain() < gamma.boolean_domain()
                combined += 1
    assert combined >= 200


@criterion("9 facts suite")
def test_c9_facts(corpus_data):
    _fact1_instances(corpus_data)
    _facts3_random_theories()
    _fact4_step_soundness()
    _fact6_suite(corpus_data)
    _literal_removal_lemma()
    _extension_lemma(corpus_data)


@criterion("10 explosion stays blocked under restricted weakening")
def test_c10_lewis_blockade(tmp_path, capsys):
    path = tmp_path / "lewis.clauses"
    path.write_text("a\n~a\nb ~b\n")
    assert cli_main(["prove", "b", str(path), "--weakening", "cw"]) == 0
    assert cli_main(["prove", "b", str(path), "--weakening", "awbw"]) == 1
    capsys.readouterr()


def _relevant_clause_lattice(entry) -> set[tuple[int, int]]:
    """Evaluate the entailment decision rule over every clause at once.

    A clause is an index over 2n literal bits. Entailment of a nonempty
    clause holds when all its atoms are provably paradoxical (and some
    atom is), or some derivable, healthy, nonempty subclause exists;
    relevance additionally forbids entailed proper nonempty subclauses.
    """
    closure = entry.closure
    n = len(closure.universe)
    size = 1 << (2 * n)
    bad_mask = 0
    for i, name in enumerate(closure.universe):
        if name in entry.paradox:
            bad_mask |= 1 << i
    bad_lits = bad_mask | (bad_mask << n)

    entailed = np.zeros(size, dtype=bool)
    for (p, q) in closure.iter_masks():
        if (p | q) and not ((p | q) & bad_mask):
            entailed[p | (q << n)] = True
    for b in range(2 * n):
        block = 1 << b
        view = entailed.reshape(size >> (b + 1), 2, block)
        view[:, 1, :] |= view[:, 0, :]
    if bad_mask:
        idx = np.arange(size)
        entailed |= (idx != 0) & ((idx & ~bad_lits) == 0)

    has_entailed_sub = entailed.copy()
    for b in range(2 * n):
        block = 1 << b
        view = has_entailed_sub.reshape(size >> (b + 1), 2, block)
        view[:, 1, :] |= view[:, 0, :]
    proper = np.zeros(size, dtype=bool)
    for b in range(2 * n):
        block = 1 << b
        pview = proper.reshape(size >> (b + 1), 2, block)
        hview = has_entailed_sub.reshape(size >> (b + 1), 2, block)
        pview[:, 1, :] |= hview[:, 0, :]

    relevant = entailed & ~proper
    low = (1 << n) - 1
    return {(int(i) & low, int(i) >> n) for i in np.nonzero(relevant)[0]}


@criterion("11 minimal clauses are the relevant ones")
def test_c11_relevance(corpus_data):
    stream = splitmix64(272727)
    for entry in corpus_data:
        minimal = kl.min_clauses(entry.theory, closure=entry.closure)
        minimal_masks = {entry.closure.clause_masks(c) for c in minimal}

        relevant_masks = _relevant_clause_lattice(entry)
        assert relevant_masks == minimal_masks, entry.spec

        # The displayed split: healthy minimal clauses of the pruned
        # theory plus both units of every paradoxical atom.
        expected = {
            entry.closure.clause_masks(c)
            for c in kl.min_clauses(entry.report.theory, closure=entry.core_closure)
        }
        for x in entry.paradox:
            expected.add(entry.closure.clause_masks(clause(x)))
            expected.add(entry.closure.clause_masks(clause(f"~{x}")))
        assert minimal_masks == expected, entry.spec

        # Spot-check the one-clause decision path against the sweep.
        names = entry.theory.universe
        probes = list(minimal)[:5]
        for _ in range(10):
            c = rand_clause(stream, names)
            if not c.is_empty:
                probes.append(c)
        for c in probes:
            assert kl.is_relevant(entry.theory, c, closure=entry.closure) == (
                entry.closure.clause_masks(c) in relevant_masks
            ), (entry.spec, str(c))

        assert kl.component_claim_check(entry.graph, closure=entry.closure)
