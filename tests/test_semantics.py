"""Satisfaction, the two entailment routes, relevance, minimal clauses."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import Clause, Literal, Partition3
from kernelogic.graphs import bits, component_masks
from kernelogic.kernels import DEFAULT_MAX_ATOMS, model_side
from kernelogic.oracle import splitmix64
from kernelogic.semantics import subdiscourse_report

from conftest import clause, clauses, entails_by_listing
from test_kernels import component_unions, small_graphs
from test_resolution import rand_clause, rand_graphs, rand_theory

OUR_MODEL = Partition3(
    frozenset({"a"}), frozenset({"a'", "b"}), frozenset({"c", "d", "e"})
)


def test_satisfies_examples():
    assert kl.satisfies(OUR_MODEL, clause("a c"))
    assert kl.satisfies(OUR_MODEL, clause("c ~d"))
    assert not kl.satisfies(OUR_MODEL, clause("a' c"))
    nothing = Partition3(frozenset(), frozenset(), frozenset())
    assert not kl.satisfies(nothing, Clause())
    with pytest.raises(kl.ValidationError, match="outside the partition"):
        kl.satisfies(nothing, clause("a"))


def test_satisfies_empty_clause_needs_paradox():
    assert kl.satisfies(OUR_MODEL, Clause())
    settled = Partition3(frozenset({"a"}), frozenset({"b"}), frozenset())
    assert not kl.satisfies(settled, Clause())


def test_satisfies_reduces_to_classical():
    # With nothing unsettled the rule is plain clause evaluation.
    stream = splitmix64(99)
    names = ("p", "q", "r", "s")
    for _ in range(1000):
        true_set = frozenset(a for a in names if next(stream) % 2)
        part = Partition3(true_set, frozenset(names) - true_set, frozenset())
        c = rand_clause(stream, names)
        classical = any(
            (l.atom in true_set) != l.negated for l in c.literals
        )
        assert kl.satisfies(part, c) == classical


def test_entails_semantic_examples(our_graph, f2_graph):
    assert kl.entails_semantic(our_graph, clause("~b")).holds

    verdict = kl.entails_semantic(our_graph, clause("a'"))
    assert not verdict.holds
    assert verdict.kind == "countermodel"
    assert verdict.countermodel == OUR_MODEL

    stream = splitmix64(321)
    for _ in range(30):
        c = rand_clause(stream, ("f", "y", "s"))
        v = kl.entails_semantic(f2_graph, c)
        assert v.holds and v.kind == "all-paradox"


def test_entails_semantic_witness(our_graph):
    verdict = kl.entails_semantic(our_graph, clause("~b c"))
    assert verdict.holds
    assert verdict.kind == "healthy-witness"
    assert verdict.witness == clause("~b")


def test_nothing_follows_from_saying_nothing():
    empty = kl.Digraph([])
    assert not kl.entails_semantic(empty, Clause()).holds
    assert kl.models(empty) == [
        Partition3(frozenset(), frozenset(), frozenset())
    ]


def test_classical_entails():
    liar_plus = kl.ClausalTheory(clauses("x", "~x", "s"))
    assert kl.classical_entails(liar_plus, clause("~s"))

    loop_chain = kl.Digraph(
        ["a", "b", "c"], [("a", "a"), ("a", "b"), ("b", "c"), ("c", "b")]
    )
    assert kl.classical_entails(kl.clausal_theory(loop_chain), clause("b"))

    empty_over_a = kl.ClausalTheory(frozenset(), ("a",))
    assert kl.classical_entails(empty_over_a, clause("a ~a"))
    assert not kl.classical_entails(empty_over_a, clause("a"))
    with pytest.raises(kl.ValidationError):
        kl.classical_entails(empty_over_a, clause("zz"))
    # An unknown atom is refused before the truth-table cap.
    with pytest.raises(kl.ValidationError, match="unknown atom 'zz'"):
        kl.classical_entails(empty_over_a, clause("zz"), max_atoms=0)


def test_classical_entails_matches_witness_subclause():
    stream = splitmix64(404)
    for _ in range(40):
        t = rand_theory(stream)
        closure = kl.saturate(t)
        for _ in range(10):
            c = rand_clause(stream, t.universe)
            assert kl.classical_entails(t, c) == (
                kl.witness_subclause(closure, c) is not None
            )


def test_is_relevant(our_cth, our_closure):
    assert kl.is_relevant(our_cth, clause("~b"), closure=our_closure)
    assert not kl.is_relevant(our_cth, clause("a ~b"), closure=our_closure)
    assert kl.is_relevant(our_cth, clause("c"), closure=our_closure)
    with pytest.raises(kl.ValidationError, match="empty clause"):
        kl.is_relevant(our_cth, Clause(), closure=our_closure)


def naive_is_relevant(theory, c, closure):
    """Relevance by its definition, one entailment decision per subclause."""
    if not kl.entails_para(theory, c, closure=closure):
        return False
    lits = c.sorted_literals()
    return not any(
        kl.entails_para(theory, Clause(combo), closure=closure)
        for size in range(1, len(lits))
        for combo in combinations(lits, size)
    )


def test_is_relevant_matches_its_definition():
    stream = splitmix64(8080)
    seen = set()
    for _ in range(60):
        t = rand_theory(stream)
        closure = kl.saturate(t)
        for _ in range(15):
            c = rand_clause(stream, t.universe, max_len=4)
            if c.is_empty:
                continue
            answer = kl.is_relevant(t, c, closure=closure)
            assert answer == naive_is_relevant(t, c, closure), (t, str(c))
            seen.add(answer)
    assert seen == {True, False}


def test_wide_relevant_clause_is_decided_at_once():
    # The clause has 2**20 - 2 nonempty proper subclauses; deciding
    # relevance reads the 21-clause closure once instead of asking
    # about each of them.
    names = tuple(f"x{i:02d}" for i in range(20))
    wide = Clause(Literal(a, i % 2 == 1) for i, a in enumerate(names))
    t = kl.ClausalTheory(frozenset({wide}), names)
    closure = kl.saturate(t)
    assert len(closure) == 21
    start = time.perf_counter()
    assert kl.is_relevant(t, wide, closure=closure)
    assert time.perf_counter() - start < 2.0


def test_min_clauses_loop_chain(loop_chain_graph):
    t = kl.clausal_theory(loop_chain_graph)
    assert kl.min_clauses(t) == clauses("~a", "b", "~c")


def test_min_clauses_our_graph(our_cth, our_closure):
    found = kl.min_clauses(our_cth, closure=our_closure)
    assert clauses("a", "~a'", "~b", "c", "~c", "d", "~d", "e", "~e") <= found
    assert Clause() not in found


def test_min_clauses_empty_theory():
    t = kl.ClausalTheory(frozenset(), ("a",))
    assert kl.min_clauses(t) == clauses("a ~a")


def test_min_equals_relevant_exhaustively():
    # Full sweep over every clause of the universe on small graphs.
    for g in rand_graphs(12, sizes=(2, 3), base=5511):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        names = t.universe
        space = [Literal(a, s) for a in names for s in (False, True)]
        relevant = set()
        for rank in range(1, 1 << len(space)):
            c = Clause(space[i] for i in range(len(space)) if rank >> i & 1)
            if kl.is_relevant(t, c, closure=closure):
                relevant.add(c)
        assert relevant == set(kl.min_clauses(t, closure=closure))


def test_min_two_part_characterization():
    # Minimal derivable clauses split into the healthy minimal clauses
    # of the pruned theory plus both units of every paradoxical atom.
    for g in rand_graphs(20, sizes=(3, 4, 5), base=6611):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        report = kl.consistent_subtheory(t, g, closure=closure)
        expected = set(kl.min_clauses(report.theory))
        for x in report.paradox_atoms:
            expected.add(clause(x))
            expected.add(clause(f"~{x}"))
        assert set(kl.min_clauses(t, closure=closure)) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_graphs(), component_unions()), st.data())
def test_the_border_matches_the_per_atom_scan(graph, data):
    # The border is found on masks; its twin asks each healthy atom for
    # its successors outside the healthy ones, as the report did before.
    theory = kl.clausal_theory(graph)
    drawn = data.draw(st.frozensets(st.sampled_from(graph.vertices)))
    for bad in (model_side(graph, DEFAULT_MAX_ATOMS).paradox_atoms(), drawn):
        healthy = frozenset(theory.universe) - bad
        border = frozenset(x for x in healthy if graph.successors(x) - healthy)
        assert subdiscourse_report(theory, graph, bad).border == border


def test_relevance_symmetry():
    # A relevant clause with both parts nonempty ties truth values in
    # both directions: models exist that make every complement of one
    # part true, and each of them verifies the other part.
    for g in rand_graphs(16, sizes=(3, 4), base=7711):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        mods = kl.models(g)
        for c in kl.min_clauses(t, closure=closure):
            lits = c.sorted_literals()
            if len(lits) < 2:
                continue
            for split in range(1, (1 << len(lits)) - 1):
                a_side = [lits[i] for i in range(len(lits)) if split >> i & 1]
                b_side = [lits[i] for i in range(len(lits)) if not split >> i & 1]
                picked = [
                    m
                    for m in mods
                    if all(
                        kl.satisfies(m, Clause([l.complement()])) for l in a_side
                    )
                ]
                assert picked, (c, a_side)
                for m in picked:
                    assert kl.satisfies(m, Clause(b_side))


def test_component_claim_check(our_graph):
    split = kl.Digraph(
        ["a", "b", "b2", "c", "c2", "d"],
        [
            ("a", "c"),
            ("c", "c2"),
            ("c2", "c"),
            ("d", "b"),
            ("b", "b2"),
            ("b2", "b"),
        ],
    )
    assert kl.component_claim_check(split)
    closure = kl.saturate(kl.clausal_theory(split))
    comp_of = {v: i for i, comp in enumerate(kl.underlying_components(split)) for v in comp}
    for c in closure.derived:
        assert len({comp_of[a] for a in c.atoms()}) <= 1

    assert kl.component_claim_check(our_graph)
    assert kl.component_claim_check(kl.Digraph(["s"]))


def two_condition_claim(graph, closure):
    """The component claim as two conditions: the twin of
    ``component_claim_check``, which states it as one equality."""
    comp_masks = component_masks(graph)
    comp_of = {i: cm for cm in comp_masks for i in bits(cm)}
    cooccur = [0] * len(graph.universe)
    for p, q in closure.iter_masks():
        atoms_mask = p | q
        if not atoms_mask:
            continue
        first = (atoms_mask & -atoms_mask).bit_length() - 1
        if atoms_mask & ~comp_of[first]:
            return False
        for i in bits(atoms_mask):
            cooccur[i] |= atoms_mask
    return all(not cm & ~cooccur[i] for cm in comp_masks for i in bits(cm))


def test_component_claim_check_matches_the_two_conditions():
    stream = splitmix64(1919)
    answers = []
    for g in rand_graphs(40, sizes=(1, 2, 3, 4, 5, 6), base=1919):
        own = kl.saturate(kl.clausal_theory(g))
        assert kl.component_claim_check(g, closure=own) is True
        assert two_condition_claim(g, own) is True
        names = g.vertices
        for _ in range(3):
            width = 1 + next(stream) % 5
            cls = frozenset(rand_clause(stream, names) for _ in range(width))
            other = kl.saturate(kl.ClausalTheory(cls, names))
            answer = kl.component_claim_check(g, closure=other)
            assert answer == two_condition_claim(g, other), (g, cls)
            answers.append(answer)
    assert True in answers and False in answers


def test_component_claim_check_false_cases():
    # A clause across two components couples atoms that do not hang together.
    edgeless = kl.Digraph(["a", "b"])
    across = kl.saturate(kl.ClausalTheory(clauses("a b"), ("a", "b")))
    assert not kl.component_claim_check(edgeless, closure=across)
    # Two atoms of one component that no derivable clause holds together.
    edge = kl.Digraph(["a", "b"], [("a", "b")])
    apart = kl.saturate(kl.ClausalTheory(frozenset(), ("a", "b")))
    assert not kl.component_claim_check(edge, closure=apart)


def test_inconsistency_agreement():
    # The three views of inconsistency coincide: no kernel, derivable
    # empty clause, semantically entailed empty clause.
    for g in rand_graphs(25, base=8811):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        derivable = kl.derives(closure, Clause())
        assert derivable == (not kl.truth_table_models(t))
        assert derivable == kl.entails_semantic(g, Clause()).holds


def test_consistent_graphs_specialize_classically():
    stream = splitmix64(606)
    for g in rand_graphs(25, base=9911):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        if kl.paradoxical_atoms(closure):
            continue
        kernels = kl.enumerate_kernels(g)
        assert kl.models(g) == [kl.partition_of(g, k) for k in kernels]
        for m in kl.models(g):
            assert m.paradox_set == frozenset()
        for _ in range(20):
            c = rand_clause(stream, t.universe)
            assert kl.entails_para(t, c, closure=closure) == kl.classical_entails(t, c)


def test_entailment_routes_agree():
    stream = splitmix64(707)
    for g in rand_graphs(20, base=1221):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        mods = kl.models(g)
        for _ in range(20):
            c = rand_clause(stream, t.universe)
            direct = kl.entails_para(t, c, closure=closure)
            verdict = entails_by_listing(g, c, mods)
            assert direct == verdict.holds
            assert kl.entails_semantic(g, c) == verdict
            assert direct == kl.provable_weakened(t, c, "awbw", closure=closure)
