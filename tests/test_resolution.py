"""Saturation, the consistent subtheory, entailment, weakening, proofs."""

import bisect
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import Clause, Literal, cli, resolution
from kernelogic.clauses import intern_clause
from kernelogic.graphs import component_masks
from kernelogic.oracle import splitmix64

from conftest import clause, clauses
from test_kernels import component_unions, small_graphs

DEMO_DATA = Path(__file__).parent.parent / "demos" / "data"


def rand_graphs(count, sizes=(3, 4, 5, 6), probs=(0.15, 0.3, 0.5), base=2029):
    for i in range(count):
        spec = kl.RandomGraphSpec(
            n=sizes[i % len(sizes)], edge_prob=probs[i % len(probs)], seed=base + i
        )
        yield kl.random_digraph(spec)


def rand_theory(stream, atoms="pqrst", max_atoms=5, max_clauses=8, max_len=3):
    n = 2 + next(stream) % (max_atoms - 1)
    names = tuple(atoms[:n])
    width = 1 + next(stream) % max_clauses
    cls = set()
    for _ in range(width):
        lits = []
        for _ in range(next(stream) % (max_len + 1)):
            lits.append(Literal(names[next(stream) % n], next(stream) % 2 == 1))
        cls.add(Clause(lits))
    return kl.ClausalTheory(frozenset(cls), names)


def rand_clause(stream, names, max_len=3):
    lits = []
    for _ in range(next(stream) % (max_len + 1)):
        lits.append(Literal(names[next(stream) % len(names)], next(stream) % 2 == 1))
    return Clause(lits)


def check_replay(proof: kl.Proof, theory: kl.ClausalTheory):
    """Re-derive every step; premises must appear strictly earlier."""
    at = {}
    for step in proof.steps:
        if step.rule == "input":
            assert step.clause in theory.clauses
        elif step.rule == "axiom":
            (a,) = step.clause.atoms()
            assert step.clause == Clause([Literal(a), Literal(a, True)])
        else:
            i, j = step.premises
            assert i < step.index and j < step.index
            p, q = at[i], at[j]
            assert Literal(step.atom) in p and Literal(step.atom, True) in q
            resolvent = Clause(
                (p.literals - {Literal(step.atom)})
                | (q.literals - {Literal(step.atom, True)})
            )
            assert resolvent == step.clause
        at[step.index] = step.clause
    assert proof.steps[-1].clause == proof.conclusion


def whole_closure(saturator, t, max_clauses=resolution.DEFAULT_MAX_CLAUSES):
    """``t`` closed by ``saturator`` as one component over its whole
    universe: its seeds are every input, ``[]`` included, in
    ``clause_sort_key`` order, then the axioms that are not inputs."""
    u = kl.Universe(t.universe)
    n = len(u)
    ordered = sorted(t.clauses, key=kl.clause_sort_key)
    cells = [p | q << n for p, q in (intern_clause(c, u) for c in ordered)]
    axioms = [1 << i | 1 << (n + i) for i in range(n)]
    seeds = cells + [c for c in axioms if c not in cells]
    part = saturator(n, seeds, len(cells), max_clauses)
    return kl.Closure(u, [(tuple(range(n)), part)])


def lattice_alone(n, seeds, inputs, max_clauses):
    """``_saturate_lattice`` of one component: its part, or its refusal
    raised."""
    (part,) = resolution._saturate_lattice(n, [(seeds, inputs)], max_clauses)
    if isinstance(part, kl.ResourceLimitError):
        raise part
    return part


def lattice_saturate(t, max_clauses=resolution.DEFAULT_MAX_CLAUSES):
    """``saturate`` with every component of at most 3 atoms closed on its
    clause lattice instead of pairwise; the other components take their
    usual route."""
    pairwise = resolution._saturate_pairwise

    def route(n, *args):
        return (lattice_alone if n <= 3 else pairwise)(n, *args)

    with mock.patch.object(resolution, "_saturate_pairwise", route):
        return kl.saturate(t, max_clauses)


def test_closure_units_of_our_graph(our_closure):
    units = {c for c in our_closure.derived if len(c) == 1}
    assert units == clauses("a", "~a'", "~b", "c", "~c", "d", "~d", "e", "~e")
    assert Clause() in our_closure.derived


def test_closure_gamma2(gamma2):
    closure = kl.saturate(gamma2)
    assert kl.derives(closure, Clause())
    for unit in ("f", "~f", "y", "~y", "s", "~s"):
        assert kl.derives(closure, clause(unit))


def test_disconnected_liar_does_not_touch_s():
    t = kl.ClausalTheory(clauses("x", "~x", "s"))
    closure = kl.saturate(t)
    assert kl.derives(closure, Clause())
    assert not kl.derives(closure, clause("~s"))


def test_derives(our_closure):
    assert kl.derives(our_closure, clause("~b"))
    assert not kl.derives(our_closure, clause("b"))
    assert not kl.derives(our_closure, clause("a'"))
    assert not kl.derives(our_closure, clause("~a"))
    assert kl.derives(our_closure, clause("a ~a"))
    with pytest.raises(kl.ValidationError, match="unknown atom"):
        kl.derives(our_closure, clause("zz"))


def test_witness_subclause(our_closure):
    assert kl.witness_subclause(our_closure, clause("a b")) == clause("a")

    liar = kl.saturate(kl.ClausalTheory(clauses("x", "~x", "s")))
    assert kl.witness_subclause(liar, clause("~s")) == Clause()

    single = kl.saturate(kl.ClausalTheory(clauses("a b")))
    assert kl.witness_subclause(single, clause("a b")) == clause("a b")
    assert kl.witness_subclause(single, clause("b")) is None

    # Ties on size break lexicographically.
    units = kl.saturate(kl.ClausalTheory(clauses("a", "b")))
    assert kl.witness_subclause(units, clause("a b")) == clause("a")
    assert kl.witness_subclause(units, clause("~a b")) == clause("b")

    # Over no atoms at all, only an input [] can witness [].
    for texts, witness in (((), None), (("[]",), Clause())):
        nothing = kl.saturate(kl.ClausalTheory(clauses(*texts)))
        assert kl.witness_subclause(nothing, Clause()) == witness


def test_paradoxical_atoms(our_closure, gamma2):
    assert kl.paradoxical_atoms(our_closure) == {"c", "d", "e"}
    consistent = kl.saturate(kl.ClausalTheory(clauses("a", "a ~b")))
    assert kl.paradoxical_atoms(consistent) == frozenset()
    assert kl.paradoxical_atoms(kl.saturate(gamma2)) == {"f", "y", "s"}


def test_consistent_subtheory_table(our_cth, our_graph, our_closure):
    report = kl.consistent_subtheory(our_cth, our_graph, closure=our_closure)
    assert report.paradox_atoms == {"c", "d", "e"}
    assert report.healthy_atoms == {"a", "a'", "b"}
    assert report.theory.clauses == clauses("a a'", "~a ~a'", "a b", "~a ~b", "~b")
    assert report.border == {"b"}


def test_consistent_subtheory_consistent_case():
    t = kl.ClausalTheory(clauses("a", "a ~b"))
    report = kl.consistent_subtheory(t)
    assert report.paradox_atoms == frozenset()
    assert report.theory == t
    assert report.border == frozenset()


def test_consistent_subtheory_fully_paradoxical(f2_graph, gamma2):
    t = kl.clausal_theory(f2_graph)
    report = kl.consistent_subtheory(t, f2_graph)
    assert report.paradox_atoms == {"f", "y", "s"}
    assert report.healthy_atoms == frozenset()
    assert report.theory.clauses == frozenset()
    assert report.border == frozenset()
    # The hand-listed clause set reaches the same split without a graph.
    bare = kl.consistent_subtheory(gamma2)
    assert bare.paradox_atoms == {"f", "y", "s"}
    assert bare.theory.clauses == frozenset()


def test_consistent_subtheory_rejects_mismatched_graph(f2_graph, gamma2):
    with pytest.raises(kl.ValidationError, match="does not induce"):
        kl.consistent_subtheory(gamma2, f2_graph)


def test_core_models(our_cth, our_graph, our_closure, f2_graph):
    report = kl.consistent_subtheory(our_cth, our_graph, closure=our_closure)
    assert kl.core_models(report, our_graph) == [
        kl.Partition2(frozenset({"a"}), frozenset({"a'", "b"}))
    ]
    f2_report = kl.consistent_subtheory(kl.clausal_theory(f2_graph), f2_graph)
    assert kl.core_models(f2_report, f2_graph) == [
        kl.Partition2(frozenset(), frozenset())
    ]


def test_core_models_consistent_graphs():
    for g in rand_graphs(25):
        t = kl.clausal_theory(g)
        report = kl.consistent_subtheory(t, g)
        if report.paradox_atoms:
            continue
        assert report.border == frozenset()
        expected = [
            kl.Partition2(k, kl.neighborhoods(g, k).in_)
            for k in kl.enumerate_kernels(g)
        ]
        assert kl.core_models(report, g) == expected


def test_entails_para(our_cth, our_closure):
    assert kl.entails_para(our_cth, clause("~b"), closure=our_closure)
    other = kl.saturate(kl.ClausalTheory(clauses("a"), ("a", "b")))
    with pytest.raises(kl.ValidationError, match="closure universe does not match"):
        kl.entails_para(our_cth, clause("~b"), closure=other)
    assert kl.entails_para(our_cth, clause("c ~d e"), closure=our_closure)
    assert not kl.entails_para(our_cth, clause("a' c"), closure=our_closure)


def test_provable_weakened_lewis():
    lewis = kl.ClausalTheory(clauses("a", "~a", "b ~b"))
    assert kl.provable_weakened(lewis, clause("b"), "cw")
    assert not kl.provable_weakened(lewis, clause("b"), "awbw")
    assert kl.provable_weakened(lewis, clause("a"), "none")
    with pytest.raises(kl.ValidationError, match="weakening"):
        kl.provable_weakened(lewis, clause("b"), "dw")


def test_an_unknown_weakening_mode_is_refused_by_both_weakening_questions():
    theory = kl.ClausalTheory(clauses("a", "~a", "b"))
    closure = kl.saturate(theory)
    for goal in (clause("a b"), clause("a")):
        with pytest.raises(kl.ValidationError, match="^unknown weakening mode 'bogus'$"):
            kl.provable_weakened(theory, goal, "bogus", closure=closure)
        with pytest.raises(kl.ValidationError, match="^unknown weakening mode 'bogus'$"):
            resolution.weakening_witness(closure, goal, "bogus")


def test_weakening_modes_agree_when_consistent():
    stream = splitmix64(555)
    for g in rand_graphs(20, base=3100):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        if kl.paradoxical_atoms(closure):
            continue
        for _ in range(25):
            c = rand_clause(stream, t.universe)
            assert kl.provable_weakened(t, c, "awbw", closure=closure) == (
                kl.provable_weakened(t, c, "cw", closure=closure)
            )


def test_closure_with_assumptions():
    t = kl.ClausalTheory(clauses("a b"))
    extended = kl.closure_with_assumptions(t, clause("b"))
    for expect in ("a b", "~b", "a"):
        assert kl.derives(extended, clause(expect))

    unchanged = kl.closure_with_assumptions(t, Clause())
    assert set(unchanged.iter_masks()) == set(kl.saturate(t).iter_masks())

    with pytest.raises(kl.ValidationError, match="unknown atom 'zz'"):
        kl.closure_with_assumptions(t, clause("zz"))


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_assumption_closure_identity():
    # RES of theory plus denial units equals RES of the theory, plus the
    # units, plus every derivable clause with assumption literals erased.
    stream = splitmix64(9000)
    checked = 0
    while checked < 60:
        t = rand_theory(stream)
        a = rand_clause(stream, t.universe)
        base = kl.saturate(t)
        n = len(t.universe)
        lhs = set(kl.closure_with_assumptions(t, a).iter_masks())
        apos, aneg = base.clause_masks(a)
        rhs = set(base.iter_masks())
        for lit in a.literals:
            rhs.add(base.clause_masks(Clause([lit.complement()])))
        combined = apos | (aneg << n)
        low = (1 << n) - 1
        for (p, q) in base.iter_masks():
            for sub in _submasks(combined):
                bpos, bneg = sub & low, sub >> n
                rhs.add((p & ~bpos, q & ~bneg))
        assert lhs == rhs
        checked += 1


def test_deduction_theorem_relevant_form():
    stream = splitmix64(424242)
    used = 0
    while used < 40:
        t = rand_theory(stream)
        base = kl.saturate(t)
        names = t.universe
        x = names[next(stream) % len(names)]
        y = names[next(stream) % len(names)]
        if kl.derives(base, clause(y)):
            continue
        with_x = kl.closure_with_assumptions(t, clause(f"~{x}"))
        if not kl.derives(with_x, clause(y)):
            continue
        assert kl.derives(base, clause(f"~{x} {y}"))
        used += 1


def test_closure_public_views(f2_graph):
    t = kl.clausal_theory(f2_graph)
    closure = kl.saturate(t)
    origin = closure.origin
    for c in t.clauses:
        assert origin[c] == "input"
    axiom = clause("s ~s")
    assert origin[axiom] == "axiom"
    assert origin[clause("~y")] == "resolvent"

    parents = closure.parents
    assert set(parents) == closure.derived
    assert parents[axiom] is None
    for child, link in parents.items():
        if link is None:
            assert origin[child] in ("input", "axiom")
            continue
        left, right, atom = link
        assert Literal(atom) in left and Literal(atom, True) in right
        resolvent = Clause(
            (left.literals - {Literal(atom)})
            | (right.literals - {Literal(atom, True)})
        )
        assert resolvent == child


def test_proof_of_axiom_is_a_leaf(our_closure):
    proof = kl.proof_of(our_closure, clause("b ~b"))
    assert len(proof.steps) == 1
    assert proof.steps[0].rule == "axiom"


def test_quoted_resolution_chain_exists():
    # b a c against ~b ~a and then ~b ~c resolves down to b ~b.
    first = Clause(
        (clause("b a c").literals - {Literal("a")})
        | (clause("~b ~a").literals - {Literal("a", True)})
    )
    assert first == clause("b c ~b")
    second = Clause(
        (first.literals - {Literal("c")})
        | (clause("~b ~c").literals - {Literal("c", True)})
    )
    assert second == clause("b ~b")


def test_proof_of_replays(our_cth, our_closure):
    for target in ("~b", "a", "~a'", "c", "~c", "[]"):
        proof = kl.proof_of(our_closure, clause(target))
        check_replay(proof, our_cth)
    inp = kl.proof_of(our_closure, clause("a a'"))
    assert len(inp.steps) == 1 and inp.steps[0].rule == "input"
    with pytest.raises(kl.ValidationError, match="not derivable"):
        kl.proof_of(our_closure, clause("b"))


def test_proof_text_format(our_closure):
    text = kl.proof_of(our_closure, clause("~b")).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("1. ")
    assert any("[input]" in line for line in lines)
    assert "[res " in lines[-1] and lines[-1].endswith("on c]")
    # Stable across repeated reconstruction.
    assert text == kl.proof_of(our_closure, clause("~b")).to_text()


def test_proofs_replay_on_random_graphs():
    for g in rand_graphs(10, sizes=(3, 4, 5), base=6600):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        theory_clauses = sorted(closure.derived, key=kl.clause_sort_key)
        for target in theory_clauses[:25]:
            check_replay(kl.proof_of(closure, target), t)


def test_paradox_set_is_forward_closed():
    # Every successor of a provably paradoxical atom is paradoxical.
    for g in rand_graphs(30, base=7700):
        bad = kl.paradoxical_atoms(kl.saturate(kl.clausal_theory(g)))
        assert kl.neighborhoods(g, bad).out <= bad


def test_empty_clause_iff_no_kernel():
    for g in rand_graphs(30, base=8800):
        closure = kl.saturate(kl.clausal_theory(g))
        assert kl.derives(closure, Clause()) == (kl.enumerate_kernels(g) == [])


def test_empty_clause_iff_no_classical_model_arbitrary_theories():
    stream = splitmix64(1023)
    for _ in range(40):
        t = rand_theory(stream)
        closure = kl.saturate(t)
        assert kl.derives(closure, Clause()) == (not kl.truth_table_models(t))
        if Clause() not in t.clauses:
            # With an input empty clause nothing forces unit proofs; the
            # equivalence is about genuinely resolved contradictions.
            assert kl.derives(closure, Clause()) == bool(
                kl.paradoxical_atoms(closure)
            )


def test_consistent_subtheory_facts():
    # The pruned theory proves nothing new about healthy atoms, cannot
    # derive the empty clause, and leaves some healthy atom deniable.
    for g in rand_graphs(30, base=9900):
        t = kl.clausal_theory(g)
        closure = kl.saturate(t)
        report = kl.consistent_subtheory(t, g, closure=closure)
        if not report.healthy_atoms:
            continue
        core_closure = kl.saturate(report.theory)
        for m in core_closure.iter_masks():
            assert kl.derives(closure, core_closure.clause_of(m))
        assert not kl.derives(core_closure, Clause())
        for x in report.healthy_atoms:
            for text in (x, f"~{x}"):
                assert kl.derives(core_closure, clause(text)) == kl.derives(
                    closure, clause(text)
                )
        assert any(
            not kl.derives(core_closure, clause(f"~{x}"))
            for x in report.healthy_atoms
        )
        for x in report.healthy_atoms:
            if not kl.derives(core_closure, clause(f"~{x}")):
                assert kl.neighborhoods(g, {x}).out <= report.healthy_atoms


def test_pruned_theory_is_bordered_subgraph_theory():
    for g in rand_graphs(30, base=1100):
        t = kl.clausal_theory(g)
        report = kl.consistent_subtheory(t, g)
        sub = kl.induced_subgraph(g, report.healthy_atoms)
        expected = kl.clausal_theory(sub).clauses | {
            Clause([Literal(x, True)]) for x in report.border
        }
        assert report.theory.clauses == expected


def test_literal_removal_lemma():
    # Erasing atoms from the theory keeps a trace of every derivable
    # clause that is not entirely erased.
    stream = splitmix64(77)
    for _ in range(30):
        t = rand_theory(stream)
        names = t.universe
        drop = frozenset(a for a in names if next(stream) % 3 == 0)
        pruned = kl.remove_atoms(t, drop)
        pruned_closure = kl.saturate(pruned)
        pruned_masks = set(pruned_closure.iter_masks())
        base = kl.saturate(t)
        for m in base.iter_masks():
            reduced = Clause(
                l for l in base.clause_of(m).literals if l.atom not in drop
            )
            if not reduced.literals:
                continue  # entirely erased clauses are outside the claim
            assert any(
                p & ~pm == 0 and q & ~qm == 0
                for (p, q) in pruned_masks
                for pm, qm in [pruned_closure.clause_masks(reduced)]
            )


def test_derived_clauses_hold_in_closed_semikernel_partitions():
    # Everything the calculus derives from a graph's clause form is
    # satisfied by every inverse-closed semikernel partition, maximal
    # or not.
    for g in rand_graphs(40, sizes=(3, 4, 5), base=3344):
        closure = kl.saturate(kl.clausal_theory(g))
        parts = [
            kl.partition_of(g, s)
            for s in kl.enumerate_semikernels(g)
            if kl.classify_subset(g, s).psk
        ]
        assert parts
        for c in closure.derived:
            for part in parts:
                assert kl.satisfies(part, c), (g, str(c), part)


def test_resolution_step_soundness():
    # Any three-way partition satisfying both premises of a resolution
    # step satisfies the conclusion; axioms always hold.
    stream = splitmix64(2718)
    names = ("p", "q", "r", "s")
    for _ in range(300):
        buckets = ([], [], [])
        for a in names:
            buckets[next(stream) % 3].append(a)
        part = kl.Partition3(*(frozenset(b) for b in buckets))
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


def test_saturate_cap():
    t = kl.ClausalTheory(clauses("a b c", "~a ~b", "~b ~c", "~a ~c"))
    with pytest.raises(kl.ResourceLimitError):
        kl.saturate(t, max_clauses=5)


@pytest.mark.parametrize(
    "texts",
    [
        # Two liars: each closure holds its units, its axiom and [].
        ("x", "~x", "y", "~y"),
        # A consistent component after a paradoxical one.
        ("x", "~x", "y ~z", "z"),
        # An input [] belongs to no component and is counted once too.
        ("[]", "x", "~x", "y", "~y"),
    ],
)
def test_saturate_cap_counts_the_whole_union(texts):
    t = kl.ClausalTheory(clauses(*texts))
    size = len(kl.saturate(t))
    assert size == len(kl.brute_closure(t))
    assert len(kl.saturate(t, max_clauses=size)) == size
    with pytest.raises(kl.ResourceLimitError, match=f"exceeded {size - 1} clauses"):
        kl.saturate(t, max_clauses=size - 1)


def test_paradoxical_atoms_checks_the_empty_clause():
    # Entries are keyed by cell pos | neg << 1: x is 1, ~x is 2.
    u = kl.Universe(["x"])
    units = {1: ("input", 0), 2: ("input", 0), 3: ("axiom", 0)}
    with pytest.raises(AssertionError, match="without a derivable empty clause"):
        kl.paradoxical_atoms(kl.Closure(u, [((0,), resolution._PairwisePart(1, units))]))
    lone = {0: ("resolvent", 1), 3: ("axiom", 0)}
    with pytest.raises(AssertionError, match="without a paradoxical atom"):
        kl.paradoxical_atoms(kl.Closure(u, [((0,), resolution._PairwisePart(1, lone))]))


def test_wide_universe_uses_pairwise_path(monkeypatch):
    # An implication chain w00 -> w01 -> ... -> w12 is one connected
    # component wider than the lattice path takes.
    n = 13
    atoms = [f"w{i:02d}" for i in range(n)]
    texts = ["w00"] + [f"~{a} {b}" for a, b in zip(atoms, atoms[1:])]
    t = kl.ClausalTheory(clauses(*texts))
    widths = []
    real = resolution._saturate_pairwise

    def spy(n, seeds, inputs, max_clauses):
        widths.append(n)
        return real(n, seeds, inputs, max_clauses)

    monkeypatch.setattr(resolution, "_saturate_pairwise", spy)
    closure = kl.saturate(t)
    assert widths == [n]
    assert kl.derives(closure, clause("w12"))
    assert kl.derives(closure, clause("~w03 w09"))
    assert not kl.derives(closure, clause("~w09 w03"))
    # Every "~wi wj" with i < j, every unit wj, and every axiom.
    assert len(closure) == n * (n - 1) // 2 + n + n
    proof = kl.proof_of(closure, clause("w12"))
    check_replay(proof, t)


def test_wide_clause_cap_boundary():
    # The 13-atom chain closes to 104 clauses on the pairwise path.
    t = kl.ClausalTheory(clauses("w00", *(f"~{x} {y}" for x, y in zip(CHAIN, CHAIN[1:]))))
    closure = kl.saturate(t, max_clauses=104)
    assert len(closure) == 104
    for c in closure.derived:
        check_replay(kl.proof_of(closure, c), t)
    with pytest.raises(kl.ResourceLimitError, match="exceeded 103 clauses"):
        kl.saturate(t, max_clauses=103)


@pytest.mark.parametrize("atoms", ["abc", "abcd", "abcdefghijkl"])
def test_a_closure_of_its_seeds_alone_is_not_refused(atoms):
    # One clause over every atom resolves nothing: its input and axioms
    # pass the cap of 2, on a pairwise part of 3 atoms, a lattice of 4
    # and a pairwise part of 12 alike.
    t = kl.ClausalTheory(clauses(" ".join(atoms)))
    assert len(kl.saturate(t, max_clauses=2)) == len(atoms) + 1


def test_a_forty_atom_chain_answers_from_cells_past_64_bits():
    # w00 -> w01 -> ... -> w39 is one pairwise component whose cells
    # pos | neg << 40 run to bit 79, past one machine word.
    n = 40
    atoms = [f"w{i:02d}" for i in range(n)]
    t = kl.ClausalTheory(clauses("w00", *(f"~{x} {y}" for x, y in zip(atoms, atoms[1:]))))
    closure = kl.saturate(t)
    ((_, part),) = closure._parts
    assert isinstance(part, resolution._PairwisePart) and part.n == n
    assert max(part.entries).bit_length() == 2 * n
    assert len(closure) == n * (n - 1) // 2 + n + n == 860
    check_listing(closure)
    assert kl.min_clauses(t, closure=closure) == frozenset(clause(a) for a in atoms)
    check_replay(kl.proof_of(closure, clause("w39")), t)
    # Text-table codes of Python-int cells, against one bit at a time.
    cells = sorted(part.entries)
    for lo in range(0, n, 4):
        codes = [resolution._cell_codes(c, n, lo) for c in cells]
        assert codes == [group_codes_twin(c, n, lo) for c in cells]


def group_codes_twin(cell, n, lo):
    """``_cell_codes`` bit by bit: the literals of atoms ``lo`` to
    ``lo + 3``, positive ones in bits 0-3 and negative ones in bits 4-7,
    and bit 8 set when a later atom has a literal."""
    group = range(lo, min(lo + 4, n))
    pos = sum((cell >> j & 1) << (j - lo) for j in group)
    neg = sum((cell >> (n + j) & 1) << (j - lo) for j in group)
    later = any(cell >> j & 1 or cell >> (n + j) & 1 for j in range(lo + 4, n))
    return pos | neg << 4 | later << 8


@pytest.mark.parametrize("n", range(1, resolution.LATTICE_MAX_ATOMS + 1))
def test_cell_codes_of_lattice_arrays_match_python_ints(n):
    # Lattice parts hand over int64 arrays of cells, pairwise parts
    # lists of Python ints; both give one text-table code per group of
    # four atoms, bit by bit.
    if n == 8:
        cells = np.arange(1 << 2 * n, dtype=np.int64)  # a full lattice
    else:
        stream = splitmix64(n)
        cells = np.array(sorted({next(stream) % (1 << 2 * n) for _ in range(300)}))
    for some in (cells, cells[::3]):
        for lo in range(0, n, 4):
            codes = resolution._cell_codes(some, n, lo)
            assert codes.shape == some.shape
            assert codes.tolist() == [resolution._cell_codes(c, n, lo) for c in some.tolist()]
            assert codes.tolist() == [group_codes_twin(c, n, lo) for c in some.tolist()]


def literal_codes(cells, n):
    """One literal code per lattice cell and atom: 0 for both ``x ~x``,
    1 for ``x``, 2 for ``~x`` and 3 for neither."""
    raw = np.ascontiguousarray(cells, dtype="<i8").view(np.uint8).reshape(-1, 8)
    lits = np.unpackbits(raw, axis=1, count=2 * n, bitorder="little")
    return 3 - 2 * lits[:, :n] - lits[:, n:]


def lexsort_order(cells, n):
    """The twin of ``_lattice_order``: ``cells`` sorted by size, then by
    the literal codes of atoms 0, 1, ..., which is ``clause_sort_key``
    order since literals order by atom, the positive one first."""
    codes = literal_codes(cells, n)
    size = (codes < 3).sum(axis=1) + (codes == 0).sum(axis=1)
    return cells[np.lexsort((*codes[:, ::-1].T, size))]


@pytest.mark.parametrize("n", range(1, 10))
def test_lattice_order_is_the_lexsort_order(n):
    blocks = resolution._lattice_order(n)
    order = np.concatenate([cells for *_, cells in blocks])
    assert order.tolist() == lexsort_order(np.arange(1, 4**n), n).tolist()
    # Each block holds the cells of its size and lowest atom, and the
    # blocks come by size, then lowest atom.
    assert [(s, k) for s, k, _ in blocks] == sorted({(s, k) for s, k, _ in blocks})
    for size, low, cells in blocks:
        masks = [c & ~(-1 << n) | c >> n for c in cells.tolist()]
        assert {c.bit_count() for c in cells.tolist()} == {size}
        assert {(m & -m).bit_length() - 1 for m in masks} == {low}


def test_a_full_lattice_lists_in_clause_order():
    # Every cell of an 8-atom lattice derived: the axioms in round 0 and
    # every other cell, [] included, in round 1.
    n = 8
    u = kl.Universe(f"a{i}" for i in range(n))
    seeds = tuple(1 << i | 1 << (n + i) for i in range(n))
    rounds = np.ones(4**n, dtype=np.uint8)
    rounds[list(seeds)] = 0
    closure = kl.Closure(u, [(tuple(range(n)), resolution._LatticePart(n, rounds, seeds, 0))])
    assert len(closure) == 4**n
    texts = closure.clause_texts()
    assert texts == naive_listing(closure)
    assert texts[:3] == ["[]", "a0", "~a0"] and texts[-1] == " ".join(
        f"a{i} ~a{i}" for i in range(n)
    )


def test_wide_rounds_are_refused_by_their_pair_count():
    # A consistent connected 12-atom graph's clause form does not close
    # at desk scale; its fourth round alone would form billions of
    # pairs. The pair count refuses it before that round starts.
    t = kl.clausal_theory(kl.random_digraph(kl.RandomGraphSpec(12, 0.2, 0)))
    with pytest.raises(kl.ResourceLimitError, match="more than 16000000 clause pairs"):
        kl.saturate(t)
    # The pair budget follows the clause cap.
    with pytest.raises(kl.ResourceLimitError, match="more than 160000 clause pairs"):
        kl.saturate(t, max_clauses=10_000)


def test_components_are_flood_filled_from_the_clauses():
    # Each component's seeds are cells in its own atom indices: its
    # inputs in clause order, then the axioms that are not inputs.
    t = kl.ClausalTheory(
        clauses("[]", "d ~b", "e", "~e a", "f", "f ~f"), tuple("abcdefg")
    )
    names = t.universe
    groups = []
    for atoms, seeds, inputs in resolution._components(t, kl.Universe(names)):
        own = [names[g] for g in atoms]
        texts = [
            str(
                Clause(
                    Literal(a, neg)
                    for neg in (False, True)
                    for j, a in enumerate(own)
                    if c >> (j + len(own) * neg) & 1
                )
            )
            for c in seeds
        ]
        groups.append(("".join(own), texts, inputs))
    assert groups == [
        ("ae", ["e", "a ~e", "a ~a", "e ~e"], 2),
        ("bd", ["~b d", "b ~b", "d ~d"], 1),
        ("c", ["c ~c"], 0),
        ("f", ["f", "f ~f"], 2),
        ("g", ["g ~g"], 0),
    ]


@pytest.mark.parametrize("liar", ["a", "z"])
def test_empty_clause_takes_the_earliest_round(liar):
    # The wide chain derives [] late on the pairwise path; the liar
    # derives it in round 1, and its proof is the one kept whether its
    # component is merged before the chain or after it.
    atoms = [f"w{i:02d}" for i in range(13)]
    texts = ["w00", "~w12", liar, f"~{liar}"]
    texts += [f"~{a} {b}" for a, b in zip(atoms, atoms[1:])]
    t = kl.ClausalTheory(clauses(*texts))
    closure = kl.saturate(t)
    assert closure.origin[Clause()] == "resolvent"
    assert dict(closure.entries())[(0, 0)][1] == 1
    assert kl.proof_of(closure, Clause()).to_text() == (
        f"1. {liar} [input]\n2. ~{liar} [input]\n3. [] [res 1 2 on {liar}]"
    )
    check_replay(kl.proof_of(closure, clause("w12")), t)


def split_theory(stream, groups=("abc", "de", "fg"), max_clauses=4, max_len=3):
    """A random clause set whose clauses each stay inside one atom group."""
    cls = set()
    for group in groups:
        for _ in range(next(stream) % (max_clauses + 1)):
            lits = []
            for _ in range(next(stream) % (max_len + 1)):
                atom = group[next(stream) % len(group)]
                lits.append(Literal(atom, next(stream) % 2 == 1))
            cls.add(Clause(lits))
    return kl.ClausalTheory(frozenset(cls), tuple("".join(groups)))


def test_split_matches_whole_lattice():
    # Per-component saturation keeps the whole-universe lattice closure:
    # same clauses, origins and rounds, and the same proof text.
    stream = splitmix64(5151)
    for _ in range(40):
        t = split_theory(stream)
        whole = whole_closure(lattice_alone, t)
        closure = kl.saturate(t)
        assert dict(closure.entries()) == dict(whole.entries())
        for c in sorted(whole.derived, key=kl.clause_sort_key):
            assert kl.proof_of(closure, c).to_text() == kl.proof_of(whole, c).to_text()


@st.composite
def component_theories(draw):
    """Clause sets over up to three atom groups of at most three atoms."""
    names = iter("pqrstu")
    groups = []
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        group = [a for _, a in zip(range(size), names)]
        if group:
            groups.append(group)
    literals = [
        st.builds(Literal, st.sampled_from(group), st.booleans()) for group in groups
    ]
    cls = set()
    for lits in literals:
        for chosen in draw(st.lists(st.frozensets(lits, max_size=3), max_size=4)):
            cls.add(Clause(chosen))
    if draw(st.booleans()) and draw(st.booleans()):
        cls.add(Clause())
    return kl.ClausalTheory(frozenset(cls), tuple(a for g in groups for a in g))


@given(component_theories())
def test_saturation_paths_match_brute_closure(t):
    expected = kl.brute_closure(t)
    for closure in (
        whole_closure(lattice_alone, t),
        whole_closure(resolution._saturate_pairwise, t),
        kl.saturate(t),
    ):
        assert closure.derived == expected
        assert len(closure) == len(expected)


def layered_closure(theory):
    """Origin and round of every clause of the closure, by a naive fixpoint.

    Inputs and axioms are round 0; round r holds every resolvent of two
    clauses of rounds below r that no earlier round holds.
    """
    entries = {c.literals: ("input", 0) for c in theory.clauses}
    for a in theory.universe:
        entries.setdefault(frozenset({Literal(a), Literal(a, True)}), ("axiom", 0))
    rnd = 0
    while True:
        rnd += 1
        known = list(entries)
        found = {
            (left - {lit}) | (right - {lit.complement()})
            for left in known
            for right in known
            for lit in left
            if lit.complement() in right
        }
        fresh = found - entries.keys()
        if not fresh:
            return {Clause(c): value for c, value in entries.items()}
        entries.update((c, ("resolvent", rnd)) for c in fresh)


def rounds_by_clause(closure):
    return {closure.clause_of(m): value for m, value in closure.entries()}


@given(component_theories())
def test_lattice_rounds_match_layered_fixpoint(t):
    # Proofs search strictly earlier rounds for parents, so the round of
    # every clause must be exact, not only the clause set.
    expected = layered_closure(t)
    assert rounds_by_clause(whole_closure(lattice_alone, t)) == expected
    assert rounds_by_clause(whole_closure(resolution._saturate_pairwise, t)) == expected
    assert rounds_by_clause(kl.saturate(t)) == expected


@given(component_theories())
def test_pairwise_path_matches_the_lattice_entry_for_entry(t):
    # Both paths enter seeds, then each round by cell, and proofs come
    # from one parent search over that order: the whole-universe
    # closures agree on ordered entries and on every proof text.
    lattice = whole_closure(lattice_alone, t)
    pairwise = whole_closure(resolution._saturate_pairwise, t)
    assert list(pairwise.entries()) == list(lattice.entries())
    for c in sorted(lattice.derived, key=kl.clause_sort_key):
        assert kl.proof_of(pairwise, c).to_text() == kl.proof_of(lattice, c).to_text()


def listing_or_refusal(saturator, t, max_clauses):
    try:
        return saturator(t, max_clauses).clause_texts()
    except kl.ResourceLimitError as exc:
        return str(exc)


def check_tiny_components(t):
    """Hold ``saturate`` to ``lattice_saturate`` on ``t``: each part of at
    most 3 atoms, the listing, the proofs of those parts' clauses and of
    ``[]``, and the listing or refusal under every cap up to one past the
    closure's size. The number of such parts."""
    closure, twin = kl.saturate(t), lattice_saturate(t)
    goals = [Clause()] if Clause() in twin else []
    tiny = 0
    for (amap, part), (_, lattice) in zip(closure._parts, twin._parts):
        if part.n > 3:
            continue
        tiny += 1
        assert isinstance(part, resolution._PairwisePart)
        assert isinstance(lattice, resolution._LatticePart)
        assert list(part.items()) == list(lattice.items())
        cells, runs = lattice.ordered()
        assert part.ordered() == (cells.tolist(), [run for run in runs if run[2]])
        assert sorted(part.minimal()) == lattice.minimal()
        goals += [closure.clause_of(amap.masks(cell)) for cell, _ in part.items() if cell]
    assert closure.clause_texts() == twin.clause_texts()
    for goal in goals:
        assert kl.proof_of(closure, goal).to_text() == kl.proof_of(twin, goal).to_text()
    for k in range(len(twin) + 2):
        assert listing_or_refusal(kl.saturate, t, k) == listing_or_refusal(lattice_saturate, t, k)
    return tiny


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
def test_tiny_components_close_pairwise_as_on_their_lattice(graph):
    # Components of 4-5 atoms stay on their lattices beside the tiny ones.
    assume(max(map(int.bit_count, component_masks(graph))) <= 5)
    check_tiny_components(kl.clausal_theory(graph))


@pytest.mark.parametrize(
    "name, tiny",
    [("delta.gnf", 0), ("f1.gnf", 1), ("f2.gnf", 1), ("lewis.clauses", 2), ("loop_chain.edges", 1)],
)
def test_tiny_components_of_the_demos_close_as_on_their_lattice(name, tiny):
    # delta.gnf is one 6-atom component; the other demos have no wider one.
    args = cli.build_parser().parse_args(["closure", str(DEMO_DATA / name)])
    _, theory = cli._load(args)
    assert check_tiny_components(theory) == tiny


def test_saturate_matches_naive_twins_on_the_corpus(corpus):
    # The pair fixpoint of brute_closure takes seconds on a dense 5-atom
    # closure and about a minute on a 6-atom one, and the all-pairs
    # layered fixpoint is slower still, so the corpus check stops at 4
    # atoms, and at 3 for rounds.
    checked = 0
    for spec, graph in corpus:
        if spec.n > 4:
            continue
        t = kl.clausal_theory(graph)
        closure = kl.saturate(t)
        assert closure.derived == kl.brute_closure(t), spec
        if spec.n == 3:
            assert rounds_by_clause(closure) == layered_closure(t), spec
        checked += 1
    assert checked == 120


def test_brute_closure_cap():
    wide = kl.ClausalTheory(frozenset(), tuple("abcdefg"))
    with pytest.raises(kl.ResourceLimitError, match="capped"):
        kl.brute_closure(wide)


def naive_listing(closure):
    return [str(c) for c in sorted(closure.derived, key=kl.clause_sort_key)]


def least_in_clause_order(found):
    return min(found, key=kl.clause_sort_key, default=None)


def check_listing(closure):
    expected = naive_listing(closure)
    assert closure.clause_texts() == expected
    # Witness twins: the least derived subclause of the goal that each
    # ranking accepts. The goals are the unions of clauses next to each
    # other in clause order, and the empty clause.
    derived = sorted(closure.derived, key=kl.clause_sort_key)
    bad = kl.paradoxical_atoms(closure)
    goals = [c.union(d) for c, d in zip(derived, derived[1:] + derived[:1])] + [Clause()]
    for goal in goals:
        below = [c for c in derived if c.issubset(goal)]
        nonempty = [c for c in below if not c.is_empty]
        assert kl.witness_subclause(closure, goal) == least_in_clause_order(nonempty or below)
        accepted = {"none": [], "cw": below, "awbw": [c for c in below if c.atoms() - bad]}
        for mode, premises in accepted.items():
            witness = resolution.weakening_witness(closure, goal, mode)
            assert witness == least_in_clause_order(premises), (goal, mode)


@given(component_theories(), st.integers(0, 2))
def test_clause_texts_match_sorted_clauses(t, loose):
    # "v" and "w" sort after every clause atom and occur in no clause.
    t = kl.ClausalTheory(t.clauses, t.universe + ("v", "w")[:loose])
    check_listing(kl.saturate(t))


WIDE_ATOMS = tuple(f"x{i:02d}" for i in range(40))


@given(
    st.lists(
        st.frozensets(
            st.builds(Literal, st.sampled_from(WIDE_ATOMS), st.booleans()),
            min_size=1,
            max_size=2,
        ),
        max_size=5,
    )
)
def test_clause_texts_match_sorted_clauses_on_a_wide_universe(lits):
    # Forty atoms: the clause order must not depend on masks fitting a
    # machine word.
    t = kl.ClausalTheory(frozenset(Clause(c) for c in lits), WIDE_ATOMS)
    check_listing(kl.saturate(t))


LEAVES = [f"d{i:02d}" for i in range(1, 12)]


@pytest.mark.parametrize(
    "texts, universe, paths, expected",
    [
        # Parts {a, c} and {b, d} interleave in the universe.
        (
            ("a ~c", "~b d", "c"),
            (),
            ["_LatticePart"] * 2,
            ["a", "c", "a ~a", "a ~c", "b ~b", "~b d", "c ~c", "d ~d"],
        ),
        (
            ("a ~c", "~b d", "c", "[]"),
            (),
            ["_LatticePart"] * 2,
            ["[]", "a", "c", "a ~a", "a ~c", "b ~b", "~b d", "c ~c", "d ~d"],
        ),
        # Loose atoms before, between and after the clause atoms.
        (
            ("b ~d", "~b"),
            ("a", "b", "c", "d", "e"),
            ["_LatticePart"] * 4,
            ["~b", "~d", "a ~a", "b ~b", "b ~d", "c ~c", "d ~d", "e ~e"],
        ),
        # A lattice part {a, c} beside a 12-atom pairwise star on b: the
        # units of both merge by their atoms.
        (
            ("a", "~a c", "~b", *(f"b {d}" for d in LEAVES)),
            (),
            ["_LatticePart", "_PairwisePart"],
            ["a", "~b", "c", *LEAVES, "a ~a", "~a c", "b ~b"]
            + [f"b {d}" for d in LEAVES]
            + ["c ~c"]
            + [f"{d} ~{d}" for d in LEAVES],
        ),
    ],
)
def test_pinned_listings_merge_their_parts(texts, universe, paths, expected):
    # ``paths`` are the parts with each component of at most 3 atoms on
    # its lattice; saturate closes those components pairwise instead,
    # and both closures list alike.
    t = kl.ClausalTheory(clauses(*texts), universe)
    closure = lattice_saturate(t)
    assert [type(part).__name__ for _, part in closure._parts] == paths
    assert closure.clause_texts() == naive_listing(closure) == expected
    assert kl.saturate(t).clause_texts() == expected


def test_witness_subclause_is_least_in_clause_order(our_cth, our_closure):
    stream = splitmix64(77)
    names = our_cth.universe
    for _ in range(60):
        goal = rand_clause(stream, names, max_len=5)
        below = [c for c in our_closure.derived if c.issubset(goal)]
        nonempty = [c for c in below if c.literals]
        expected = min(nonempty or below, key=kl.clause_sort_key, default=None)
        assert kl.witness_subclause(our_closure, goal) == expected


def test_weakening_witness_is_the_least_accepted_premise(corpus):
    # The twin scans every derived clause: the witness is the least
    # subclause of the goal, by clause_sort_key, that the mode may weaken
    # from; "awbw" takes only one that keeps a healthy atom.
    stream = splitmix64(91)
    cases = set()
    for spec, graph in corpus[::13]:
        closure = kl.saturate(kl.clausal_theory(graph))
        bad = kl.paradoxical_atoms(closure)
        derived = [closure.clause_of(m) for m in closure.iter_masks()]
        goals = [rand_clause(stream, closure.universe, max_len=5) for _ in range(8)]
        goals.append(Clause(Literal(a, next(stream) % 2 == 1) for a in bad))
        for goal in goals:
            below = sorted((c for c in derived if c.issubset(goal)), key=kl.clause_sort_key)
            accepted = {"none": [], "cw": below, "awbw": [c for c in below if c.atoms() - bad]}
            for mode, premises in accepted.items():
                witness = resolution.weakening_witness(closure, goal, mode)
                assert witness == (premises[0] if premises else None), (spec, goal, mode)
                if mode == "cw" and witness == Clause():
                    cases.add("cw from a derived []")
                if mode == "awbw" and witness is None and goal.atoms() and goal.atoms() <= bad:
                    cases.add("awbw on paradoxical atoms alone")
    assert cases == {"cw from a derived []", "awbw on paradoxical atoms alone"}


def test_proof_of_searches_each_resolvent_once(monkeypatch, our_cth):
    searched = []
    real = kl.Closure._search_parents

    def spy(self, m, rnd):
        searched.append(m)
        return real(self, m, rnd)

    monkeypatch.setattr(kl.Closure, "_search_parents", spy)
    lattice = kl.saturate(our_cth)
    # The 13-atom chain w00 -> ... -> w12 is one pairwise component.
    chain = kl.ClausalTheory(clauses("w00", *(f"~{x} {y}" for x, y in zip(CHAIN, CHAIN[1:]))))
    pairwise = kl.saturate(chain)
    for closure, kind in ((lattice, resolution._LatticePart), (pairwise, resolution._PairwisePart)):
        assert {type(part) for _, part in closure._parts} == {kind}
        for goal in sorted(closure.derived, key=kl.clause_sort_key)[::11]:
            searched.clear()
            proof = kl.proof_of(closure, goal)
            resolved = [closure.clause_masks(s.clause) for s in proof.steps if s.rule == "res"]
            assert sorted(searched) == sorted(resolved) and len(set(searched)) == len(searched)


def pivot_twin(items, n, cell, rnd):
    """Per literal bit b, the entries of a part before round ``rnd`` that
    hold b and lie inside ``cell | b``, in entry order: the parents on b
    that the parent search may pick. ``items`` is ``part.items()`` as
    an array of cells and one of rounds."""
    cells, rounds = items
    earlier = cells[rounds < rnd]
    return [
        earlier[(earlier >> b & 1 == 1) & (earlier & ~(cell | 1 << b) == 0)].tolist()
        for b in range(2 * n)
    ]


def by_pivot(part, cell, rnd):
    """``part.candidates(cell, rnd)`` per literal bit b, as ``_parent_step``
    reads them: each adds at most one literal to the clause, and serves
    the literal it adds, else each of its own."""
    found = part.candidates(cell, rnd)
    assert all((c & ~cell).bit_count() <= 1 for c in found)
    return [
        [c for c in found if c >> b & 1 and not c & ~(cell | 1 << b)] for b in range(2 * part.n)
    ]


def check_candidates(closure, kind, stride=1):
    """Hold the candidates of every ``stride``-th resolvent of each part to
    the twin; the number of resolvents checked."""
    checked = 0
    for _, part in closure._parts:
        assert isinstance(part, kind)
        entries = list(part.items())
        # Python-int cells of a part past 31 atoms do not fit int64.
        cells = np.array([c for c, _ in entries], dtype=np.int64 if part.n < 32 else object)
        items = cells, np.array([r for _, (_, r) in entries])
        resolvents = [(c, r) for c, (origin, r) in entries if origin == "resolvent"]
        for cell, rnd in resolvents[::stride]:
            assert by_pivot(part, cell, rnd) == pivot_twin(items, part.n, cell, rnd), (cell, rnd)
            checked += 1
    return checked


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
def test_parent_candidates_match_the_per_pivot_twin(graph):
    # Lattice parts, then the same components forced onto pairwise parts.
    assume(max(map(int.bit_count, component_masks(graph))) <= 5)
    theory = kl.clausal_theory(graph)
    check_candidates(lattice_saturate(theory), resolution._LatticePart)
    with mock.patch.object(resolution, "LATTICE_MAX_ATOMS", 0):
        check_candidates(kl.saturate(theory), resolution._PairwisePart)


@pytest.mark.parametrize("n, stride", [(13, 1), (40, 1)])
def test_parent_candidates_of_chains_match_the_per_pivot_twin(n, stride):
    atoms = [f"w{i:02d}" for i in range(n)]
    t = kl.ClausalTheory(clauses("w00", *(f"~{x} {y}" for x, y in zip(atoms, atoms[1:]))))
    assert check_candidates(kl.saturate(t), resolution._PairwisePart, stride) > 0


@pytest.mark.parametrize("n", [12, 16])
def test_lattice_width_is_bounded_by_lattice_max_atoms(n):
    # Refused before a single 4**n-cell array is allocated.
    assert n > resolution.LATTICE_MAX_ATOMS
    t = kl.ClausalTheory(frozenset(), tuple(f"y{i:02d}" for i in range(n)))
    tracemalloc.start()
    try:
        with pytest.raises(kl.ResourceLimitError, match="wider than"):
            whole_closure(lattice_alone, t, 10)
        assert tracemalloc.get_traced_memory()[1] < 4**n
    finally:
        tracemalloc.stop()


def antichain_min_clauses(closure):
    """The minimal derived clauses by the naive scan: in size order, keep
    each nonempty clause with no kept subclause."""
    sized = sorted(
        ((p.bit_count() + q.bit_count(), (p, q)) for p, q in closure.iter_masks() if p or q),
        key=lambda item: item[0],
    )
    minimal = []
    for _, (p, q) in sized:
        if not any(mp & ~p == 0 and mq & ~q == 0 for mp, mq in minimal):
            minimal.append((p, q))
    return frozenset(closure.clause_of(m) for m in minimal)


@given(component_theories())
def test_min_clauses_match_antichain_scan(t):
    for closure in (kl.saturate(t), whole_closure(resolution._saturate_pairwise, t)):
        assert kl.min_clauses(t, closure=closure) == antichain_min_clauses(closure)


def test_min_clauses_match_antichain_scan_on_the_corpus(corpus):
    checked = 0
    for spec, graph in corpus:
        if spec.n > 6:
            continue
        t = kl.clausal_theory(graph)
        closure = kl.saturate(t)
        assert kl.min_clauses(t, closure=closure) == antichain_min_clauses(closure), spec
        checked += 1
    assert checked == 240


CHAIN = [f"w{i:02d}" for i in range(13)]
MIXED_TEXTS = (
    ["w00", "~w12", "a", "~a", "b ~c", "~b c", "c d", "~d", "d ~g", "e ~f", "f"]
    + [f"~{x} {y}" for x, y in zip(CHAIN, CHAIN[1:])]
)


@pytest.mark.parametrize("empty", [False, True])
def test_mixed_lattice_and_pairwise_closure(empty, monkeypatch):
    # The 13-atom chain and the components of at most 3 atoms run on the
    # pairwise rounds; the 4-atom component {b, c, d, g} runs on its
    # lattice. Each nonempty clause is proved in its own component
    # exactly as when that component is saturated alone.
    t = kl.ClausalTheory(clauses(*MIXED_TEXTS, *(["[]"] if empty else [])))
    paths = []
    lattice, pairwise = resolution._saturate_lattice, resolution._saturate_pairwise

    def spy_lattice(n, rows, max_clauses):
        paths.extend(("_saturate_lattice", n) for _ in rows)
        return lattice(n, rows, max_clauses)

    def spy_pairwise(n, seeds, inputs, max_clauses):
        paths.append(("_saturate_pairwise", n))
        return pairwise(n, seeds, inputs, max_clauses)

    monkeypatch.setattr(resolution, "_saturate_lattice", spy_lattice)
    monkeypatch.setattr(resolution, "_saturate_pairwise", spy_pairwise)
    # A live closure elsewhere may hold the liar's part; without the
    # table every component is saturated here.
    resolution._live_parts.clear()
    closure = kl.saturate(t)
    assert ("_saturate_pairwise", 13) in paths and ("_saturate_lattice", 4) in paths
    monkeypatch.undo()

    assert kl.min_clauses(t, closure=closure) == antichain_min_clauses(closure)
    assert closure.clause_texts() == naive_listing(closure)
    groups = [set(CHAIN), {"a"}, {"b", "c", "d", "g"}, {"e", "f"}]
    alone = {}
    for group in groups:
        part = frozenset(c for c in t.clauses if c.atoms() and c.atoms() <= group)
        alone[frozenset(group)] = kl.saturate(kl.ClausalTheory(part, tuple(group)))
    for c in sorted(closure.derived, key=kl.clause_sort_key):
        proof = kl.proof_of(closure, c)
        check_replay(proof, t)
        if c.literals:
            (group,) = [g for g in alone if c.atoms() <= g]
            assert proof.to_text() == kl.proof_of(alone[group], c).to_text(), str(c)
    expected = "1. [] [input]" if empty else "1. a [input]\n2. ~a [input]\n3. [] [res 1 2 on a]"
    assert kl.proof_of(closure, Clause()).to_text() == expected


@st.composite
def atom_maps(draw):
    """A universe width up to 80 and a component's sorted atom indices in
    it, a consecutive run or scattered anywhere."""
    width = draw(st.integers(1, 80))
    if draw(st.booleans()):
        lo = draw(st.integers(0, width - 1))
        atoms = tuple(range(lo, draw(st.integers(lo + 1, width))))
    else:
        atoms = tuple(sorted(draw(st.sets(st.integers(0, width - 1), min_size=1))))
    return width, atoms


@given(atom_maps(), st.data())
def test_atom_map_matches_a_per_atom_twin(drawn, data):
    # Masks over up to 80 atoms cross byte and 64-bit word boundaries.
    width, atoms = drawn
    amap = resolution._AtomMap(atoms)
    index = {g: j for j, g in enumerate(atoms)}
    universe_mask = data.draw(st.integers(0, (1 << width) - 1))
    own_mask = data.draw(st.integers(0, (1 << len(atoms)) - 1))
    local = lift = span = 0
    for g in range(width):
        if g in index:
            span |= 1 << g
            local |= (universe_mask >> g & 1) << index[g]
            lift |= (own_mask >> index[g] & 1) << g
    assert amap.span == span
    assert amap.local(universe_mask) == local
    assert amap.lift(own_mask) == lift
    assert amap.lift(amap.local(universe_mask)) == universe_mask & span
    assert amap.local(amap.lift(own_mask)) == own_mask
    # One shift per maximal run of consecutive atoms.
    assert len(amap._runs) == 1 + sum(b != a + 1 for a, b in zip(atoms, atoms[1:]))
    # Cells are the bridge's other side: pos | neg << n over the
    # component's n atoms, bits off the component dropped.
    other_mask = data.draw(st.integers(0, (1 << width) - 1))
    cell = data.draw(st.integers(0, (1 << 2 * len(atoms)) - 1))
    assert amap.cell(universe_mask, other_mask) == local | amap.local(other_mask) << len(atoms)
    assert amap.masks(amap.cell(universe_mask, other_mask)) == (
        universe_mask & span,
        other_mask & span,
    )
    assert amap.cell(*amap.masks(cell)) == cell


def test_membership_in_interleaved_components():
    # Components whose atoms are scattered over three bytes of a 20-atom
    # universe map run by run, consecutive atoms as one run;
    # both must give the closure's own clauses.
    names = tuple(f"a{i:02d}" for i in range(20))
    groups = [(0, 7, 9, 17), (1, 2, 3), (4, 10, 15, 19), (5, 16)]
    stream = splitmix64(2024)
    cls = set()
    for group in groups:
        for _ in range(5):
            atoms = [names[g] for g in group if next(stream) % 2]
            cls.add(Clause(Literal(a, next(stream) % 3 == 0) for a in atoms))
    closure = kl.saturate(kl.ClausalTheory(frozenset(cls), names))
    runs = {amap.atoms: len(amap._runs) for amap, _ in closure._parts}
    assert runs[(1, 2, 3)] == 1 and runs[(0, 7, 9, 17)] == 4
    derived = closure.derived
    for c in derived:
        assert c in closure
    masks = list(closure.iter_masks())
    for _ in range(300):
        group = groups[next(stream) % len(groups)] + (next(stream) % 20,)
        goal = Clause(
            Literal(names[g], neg)
            for g in group
            for neg in (False, True)
            if next(stream) % 3 == 0
        )
        assert kl.derives(closure, goal) == (goal in derived)
        pos, neg = closure.clause_masks(goal)
        expected = {(p, q) for p, q in masks if not (p & ~pos or q & ~neg)}
        assert set(closure.subclauses(pos, neg)) == expected


def test_lattice_rounds_stop_before_the_sentinel(monkeypatch):
    # Round numbers are one byte per cell; a closure needing the
    # sentinel's round is refused instead of wrapping, by either kind
    # of round.
    t = kl.ClausalTheory(clauses("a", "~a b", "~b c", "~c d", "~d e", "~e"))
    last = max(rnd for _, (_, rnd) in whole_closure(lattice_alone, t).entries())
    assert last >= 2
    calls = spy_rounds(monkeypatch)
    for kind in ("dense", "sparse"):
        force_rounds(monkeypatch, kind)
        calls.clear()
        monkeypatch.setattr(resolution, "_NOT_DERIVED", last + 1)
        assert rounds_by_clause(kl.saturate(t)) == layered_closure(t)
        monkeypatch.setattr(resolution, "_NOT_DERIVED", last)
        refusal = f"more than {last - 1} resolution rounds"
        for run in (lambda: whole_closure(lattice_alone, t), lambda: kl.saturate(t)):
            with pytest.raises(kl.ResourceLimitError, match=refusal):
                run()
        assert set(calls) == {kind}


# ---------------------------------------------------------------------------
# Lattice transforms and the lattice round loop, against plain twins:
# one reshaped pass per bit and pivot, and rounds that repeat until one
# derives nothing.


def plain_subset_transform(values, nbits, sign):
    """Zeta (``sign`` 1) or Moebius (``sign`` -1) transform in place,
    one pass per bit over runs of ``2**b`` cells."""
    step = np.add if sign > 0 else np.subtract
    size = values.shape[0]
    for b in range(nbits):
        pair = values.reshape(size >> (b + 1), 2, 1 << b)
        step(pair[:, 1, :], pair[:, 0, :], out=pair[:, 1, :])
    return values


def plain_pair_counts(derived, n):
    """The zeta transform of the resolvable pairs of ``derived``, one
    broadcast product per pivot."""
    zd = plain_subset_transform(derived.astype(np.int64), 2 * n, 1)
    pairs = np.zeros(derived.shape[0], dtype=np.int64)
    for i in range(n):
        cells = zd.reshape(1 << (n - i - 1), 2, 1 << (n - 1), 2, 1 << i)
        with_pos = cells[:, :, :, 1, :] - cells[:, :, :, 0, :]
        with_neg = cells[:, 1, :, :, :] - cells[:, 0, :, :, :]
        total = pairs.reshape(cells.shape)
        total += with_pos[:, :, :, None, :] * with_neg[:, None, :, :, :]
    return pairs


def plain_saturate_lattice(n, seeds, max_clauses, started):
    """The round number of every cell of an ``n``-atom lattice closure,
    with no stop at the full lattice: rounds repeat until one derives
    nothing. Appends the number of every round it starts to ``started``."""
    sentinel = resolution._NOT_DERIVED
    rounds = np.full(1 << (2 * n), sentinel, dtype=np.uint8)
    rounds[np.array(seeds, dtype=np.int64)] = 0
    derived = rounds == 0
    count = len(seeds)
    rnd = 0
    while True:
        rnd += 1
        started.append(rnd)
        fresh = plain_subset_transform(plain_pair_counts(derived, n), 2 * n, -1) > 0
        fresh &= ~derived
        new = int(np.count_nonzero(fresh))
        if not new:
            return rounds
        if rnd >= sentinel:
            raise kl.ResourceLimitError(f"closure needs more than {sentinel - 1} resolution rounds")
        count += new
        if count > max_clauses:
            raise kl.ResourceLimitError(f"closure exceeded {max_clauses} clauses")
        derived |= fresh
        rounds[fresh] = rnd


@pytest.mark.parametrize("n", range(1, 10))
@settings(deadline=None, max_examples=5)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_lattice_transforms_match_their_plain_twins(n, seed, density):
    # Widths 1-9 lie on both sides of the size from which passes over
    # short runs go by offsets; int32 is the dtype of minimal clauses,
    # uint32 and uint64 those of pair counts.
    assert 4**1 < resolution._STRIDED_MIN_CELLS <= 4**9
    rng = np.random.default_rng(seed)
    values = rng.integers(-1000, 1000, 4**n)
    for dtype in ("int32", "uint32", "int64", "uint64"):
        for sign in (1, -1):
            got = resolution._subset_transform(values.astype(dtype), 2 * n, sign)
            want = plain_subset_transform(values.astype(dtype), 2 * n, sign)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    derived = rng.random(4**n) < density
    got, want = resolution._pair_counts(derived, n), plain_pair_counts(derived, n)
    # The zeta-space sums wrap modulo 2**32; the counts a round reads,
    # once inverted, are exact.
    assert got.dtype == np.uint32 and np.array_equal(got, want.astype(np.uint32))
    inverted = resolution._subset_transform(got, 2 * n, -1).tolist()
    assert inverted == plain_subset_transform(want, 2 * n, -1).tolist()


def test_pair_counts_fit_the_narrowest_word_at_every_width():
    # Pair counts only grow with the derived clauses, so the full
    # lattice's counts bound those of every round: held to the int64 twin
    # there, the counts are exact at every lattice width. Their maximum
    # is the top cell's n * 9**(n - 1): below 2**32 up to 10 atoms, and
    # below 2**64 up to 19, past the widest lattice.
    assert 10 * 9**9 < 2**32 <= 11 * 9**10
    widest = resolution.LATTICE_MAX_ATOMS
    assert widest * 9 ** (widest - 1) < 2**64
    for n in range(1, widest + 1):
        full = np.ones(4**n, dtype=bool)
        counts = resolution._subset_transform(resolution._pair_counts(full, n), 2 * n, -1)
        assert counts.dtype == (np.uint32 if n <= 10 else np.uint64)
        want = plain_subset_transform(plain_pair_counts(full, n), 2 * n, -1)
        assert np.array_equal(counts.astype(np.int64), want)
        assert int(counts.max()) == int(counts[-1]) == n * 9 ** (n - 1)


def spy_rounds(monkeypatch):
    """Patch ``resolution``'s two kinds of lattice round to log each
    round they run, ``"sparse"`` or ``"dense"``, one entry per round."""
    calls = []
    sparse, dense = resolution._sparse_resolvents, resolution._pair_counts

    def spy_sparse(old, new, n):
        calls.append("sparse")
        return sparse(old, new, n)

    def spy_dense(derived, n):
        calls.append("dense")
        return dense(derived, n)

    monkeypatch.setattr(resolution, "_sparse_resolvents", spy_sparse)
    monkeypatch.setattr(resolution, "_pair_counts", spy_dense)
    return calls


def force_rounds(monkeypatch, kind):
    """Make every lattice round ``kind``, ``"sparse"`` or ``"dense"``.
    Sparse rounds below 6 atoms need the large-lattice size lowered,
    which also makes every transform pass go by offsets, exact either way."""
    if kind == "sparse":
        monkeypatch.setattr(resolution, "_STRIDED_MIN_CELLS", 1)
        monkeypatch.setattr(resolution, "_SPARSE_PAIRS_PER_CELL", math.inf)
    else:
        monkeypatch.setattr(resolution, "_SPARSE_PAIRS_PER_CELL", -1)


def plain_pairs(cells, n):
    """The resolvable pairs among the clause ``cells`` of an ``n``-atom lattice."""
    return sum(
        int(np.count_nonzero(cells & 1 << i)) * int(np.count_nonzero(cells & 1 << (n + i)))
        for i in range(n)
    )


def plain_round_pairs(rounds, rnd, n):
    """The pairs round ``rnd`` resolves semi-naively in a closure with
    these ``rounds``: those among the clauses derived before it, less
    those among the clauses derived before the round before it."""
    return plain_pairs(np.flatnonzero(rounds < rnd), n) - plain_pairs(
        np.flatnonzero(rounds < rnd - 1), n
    )


@pytest.mark.parametrize(
    "spec, full",
    [
        # Paradoxical: each closure is the full lattice.
        (kl.RandomGraphSpec(6, 0.35, 2), True),
        (kl.RandomGraphSpec(7, 0.35, 0), True),
        (kl.RandomGraphSpec(8, 0.35, 0), True),
        (kl.RandomGraphSpec(9, 0.35, 2), True),
        # Consistent: no closure derives [], so none is full.
        (kl.RandomGraphSpec(6, 0.35, 0), False),
        (kl.RandomGraphSpec(7, 0.35, 5), False),
        (kl.RandomGraphSpec(8, 0.35, 1), False),
        (kl.RandomGraphSpec(9, 0.35, 0), False),
        # The widest lattices that count pairs in uint32, against the
        # plain loop's int64; the consistent one closes to 1,047,552 clauses.
        (kl.RandomGraphSpec(10, 0.3, 2), True),
        (kl.RandomGraphSpec(10, 0.3, 1), False),
    ],
)
def test_lattice_rounds_match_the_plain_round_loop(spec, full, monkeypatch):
    # Connected clause forms of random digraphs. A full lattice stops
    # after the round that fills it; any other closure after the first
    # round that derives nothing, as the plain loop does. The cap lies
    # above every n-atom closure.
    t = kl.clausal_theory(kl.random_digraph(spec))
    ((atoms, seeds, inputs),) = resolution._components(t, kl.Universe(t.universe))
    n = len(atoms)
    calls = spy_rounds(monkeypatch)
    part = lattice_alone(n, seeds, inputs, 4**n + 1)
    started = []
    twin = plain_saturate_lattice(n, seeds, 4**n + 1, started)
    assert np.array_equal(part.rounds, twin)
    assert (part.count == 4**n) == full == (twin[0] != resolution._NOT_DERIVED)
    last = int(twin[twin != resolution._NOT_DERIVED].max())
    assert len(started) == last + 1
    assert len(calls) == (last if full else last + 1)
    # Sparse rounds come first, and only dense ones follow them: from
    # 6 atoms the first rounds are sparse, below it none is.
    sparse = calls.count("sparse")
    assert calls == ["sparse"] * sparse + ["dense"] * (len(calls) - sparse)
    assert (sparse > 0) == (n >= 6)
    if n >= 6:
        # The default path against dense rounds only, round for round.
        ran = len(calls)
        calls.clear()
        force_rounds(monkeypatch, "dense")
        dense = lattice_alone(n, seeds, inputs, 4**n + 1)
        assert np.array_equal(dense.rounds, part.rounds)
        assert calls == ["dense"] * ran


# A connected 7-atom clause set whose semi-naive pairs per lattice cell
# are 0.0, 0.03, 0.81, 15.1, 5.1 and 0.04 in its six rounds: it leaves
# sparse rounds in round 4 and stays dense in round 6, though that
# round's pairs are few again.
SWITCH_TEXTS = (
    "a d ~g", "a ~c ~f", "a ~d f", "a ~e ~f", "b d", "c ~d ~g",
    "g", "~a", "~a ~c", "~c ~e g", "~d e f",
)


def test_a_lattice_leaves_sparse_rounds_for_good(monkeypatch):
    t = kl.ClausalTheory(clauses(*SWITCH_TEXTS))
    ((atoms, seeds, inputs),) = resolution._components(t, kl.Universe(t.universe))
    n = len(atoms)
    assert 4**n > resolution._STRIDED_MIN_CELLS and resolution._SPARSE_PAIRS_PER_CELL == 2
    calls = spy_rounds(monkeypatch)
    part = lattice_alone(n, seeds, inputs, 4**n + 1)
    twin = plain_saturate_lattice(n, seeds, 4**n + 1, [])
    assert np.array_equal(part.rounds, twin)
    pairs = [plain_round_pairs(twin, rnd, n) for rnd in range(1, 7)]
    assert [k <= 2 * 4**n for k in pairs] == [True, True, True, False, False, True]
    assert calls == ["sparse"] * 3 + ["dense"] * 3
    # The switch counts the pairs from the cells of the round before and
    # of those before it.
    for rnd, want in enumerate(pairs, 1):
        old, new = np.flatnonzero(twin < rnd - 1), np.flatnonzero(twin == rnd - 1)
        assert resolution._semi_naive_pairs(old, new, n) == want


def check_sparse_rounds(t, widths):
    """Hold every component of ``t`` whose width is in ``widths``,
    saturated by sparse rounds only, to the plain round loop. The number
    of such components."""
    checked = 0
    with pytest.MonkeyPatch.context() as mp:
        force_rounds(mp, "sparse")
        calls = spy_rounds(mp)
        for atoms, seeds, inputs in resolution._components(t, kl.Universe(t.universe)):
            n = len(atoms)
            if n not in widths:
                continue
            calls.clear()
            part = lattice_alone(n, seeds, inputs, 4**n + 1)
            started = []
            assert np.array_equal(part.rounds, plain_saturate_lattice(n, seeds, 4**n + 1, started))
            assert calls == ["sparse"] * len(calls) and len(calls) >= len(started) - 1
            checked += 1
    return checked


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
def test_sparse_rounds_match_the_plain_round_loop(graph):
    assume(any(4 <= n <= 5 for n in map(int.bit_count, component_masks(graph))))
    assert check_sparse_rounds(kl.clausal_theory(graph), (4, 5))


@pytest.mark.parametrize(
    "name, parts",
    [("delta.gnf", 1), ("f1.gnf", 1), ("f2.gnf", 1), ("lewis.clauses", 2), ("loop_chain.edges", 1)],
)
def test_sparse_rounds_of_the_demos_match_the_plain_round_loop(name, parts):
    # Only delta.gnf has a lattice component (6 atoms), so the demos'
    # 1-3-atom components are closed on their lattices too.
    args = cli.build_parser().parse_args(["closure", str(DEMO_DATA / name)])
    _, theory = cli._load(args)
    assert check_sparse_rounds(theory, range(1, resolution.LATTICE_MAX_ATOMS + 1)) == parts


def test_a_sparse_round_at_its_bound_peaks_below_a_dense_round(monkeypatch):
    # Seeds over a 9-atom lattice, negative only in atoms 0 and 1, so
    # that two pivots hold every pair, drawn until one more would pass
    # the bound: round 1 runs sparse with its pairs at the bound. Both
    # runs are refused after round 1, so each peak is one round's.
    n, size = 9, 4**9
    cells = np.random.default_rng(9).permutation(size)
    cells = cells[cells >> (n + 2) == 0]
    bound = resolution._SPARSE_PAIRS_PER_CELL * size
    k = bisect.bisect_right(range(len(cells)), bound, key=lambda k: plain_pairs(cells[:k], n)) - 1
    assert plain_pairs(cells[:k], n) <= bound < plain_pairs(cells[: k + 1], n)
    seeds = tuple(cells[:k].tolist())
    calls = spy_rounds(monkeypatch)
    peaks = {}
    for kind in ("sparse", "dense"):
        if kind == "dense":
            force_rounds(monkeypatch, "dense")
        calls.clear()
        tracemalloc.start()
        try:
            with pytest.raises(kl.ResourceLimitError, match=f"exceeded {k} clauses"):
                lattice_alone(n, seeds, k, k)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [kind]
    assert peaks["sparse"] <= peaks["dense"]


# A connected 3-atom clause set whose closure fills the lattice in round 4.
FULL_TEXTS = ("a b c", "~a", "~b", "~c", "~a ~b", "~a ~c", "~b ~c")


def test_a_full_lattice_is_refused_where_the_plain_loop_refuses_it(monkeypatch):
    # The stop at the full lattice skips only the round that would
    # derive nothing: the round sentinel and every clause cap accept
    # and refuse the closure as the plain loop does, in the same round,
    # whichever kind of round the lattice runs.
    t = kl.ClausalTheory(clauses(*FULL_TEXTS))
    ((atoms, seeds, inputs),) = resolution._components(t, kl.Universe(t.universe))
    n = len(atoms)
    sentinel = resolution._NOT_DERIVED
    twin = plain_saturate_lattice(n, seeds, resolution.DEFAULT_MAX_CLAUSES, [])
    assert sentinel not in twin
    last = int(twin.max())
    assert last == 4
    calls = spy_rounds(monkeypatch)

    def trial(kind, sentinel, cap):
        """The rounds or refusal of both loops, and the rounds each started."""
        monkeypatch.setattr(resolution, "_NOT_DERIVED", sentinel)
        calls.clear()
        started = []
        outcomes = []
        for run in (
            lambda: lattice_alone(n, seeds, inputs, cap).rounds,
            lambda: plain_saturate_lattice(n, seeds, cap, started),
        ):
            try:
                outcomes.append(run().tolist())
            except kl.ResourceLimitError as exc:
                outcomes.append(str(exc))
        assert calls == [kind] * len(calls)
        return outcomes, len(calls), len(started)

    for kind in ("dense", "sparse"):
        force_rounds(monkeypatch, kind)
        (new, old), ran, twin_ran = trial(kind, last + 1, 4**n)
        assert new == old == twin.tolist() and (ran, twin_ran) == (last, last + 1)
        (new, old), ran, twin_ran = trial(kind, last, 4**n)
        assert new == old == f"closure needs more than {last - 1} resolution rounds"
        assert ran == twin_ran == last
        for cap in range(len(seeds), 4**n):
            (new, old), ran, twin_ran = trial(kind, sentinel, cap)
            assert new == f"closure exceeded {cap} clauses" == old
            assert ran == twin_ran
        # The last cap refused is one short of the full lattice, in its last round.
        assert ran == last


DELTA_PROOF_OF_A = """\
1. a b c [input]
2. d e [input]
3. ~c ~e [input]
4. ~c d [res 2 3 on e]
5. ~c ~d [input]
6. ~c [res 4 5 on d]
7. a b [res 1 6 on c]
8. c d [input]
9. c e [input]
10. ~d ~e [input]
11. c ~d [res 9 10 on e]
12. c [res 8 11 on d]
13. ~b ~c [input]
14. ~b [res 12 13 on c]
15. a [res 7 14 on b]"""


def test_lattice_proof_text_is_pinned(our_cth, our_closure):
    # Parent candidates are tried in entry order: inputs, axioms, then
    # each round by cell index. Another order proves the same clause
    # with other text.
    proof = kl.proof_of(our_closure, clause("a"))
    assert proof.to_text() == DELTA_PROOF_OF_A
    check_replay(proof, our_cth)


@pytest.mark.parametrize("liar", ["a", "z"])
def test_empty_clause_round_ties_go_to_the_first_component(liar):
    # The liar's lattice and the wide chain's pairwise rounds (w00 and
    # ~w00 are inputs) both derive [] in round 1. Its proof takes the
    # first atom, over every component, whose units precede [].
    texts = [liar, f"~{liar}", "~w00"] + [f"~{x} {y}" for x, y in zip(CHAIN, CHAIN[1:])]
    t = kl.ClausalTheory(clauses(*texts, "w00"))
    first = "a" if liar == "a" else "w00"
    assert kl.proof_of(kl.saturate(t), Clause()).to_text() == (
        f"1. {first} [input]\n2. ~{first} [input]\n3. [] [res 1 2 on {first}]"
    )


# ---------------------------------------------------------------------------
# Lattice parts shared between live closures. The twin saturates every
# component afresh, with no table of live parts at all.


def cold(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_shared_lattice", lattice_alone)
        return run()


def test_lattice_parts_are_read_only():
    closure = kl.saturate(kl.ClausalTheory(clauses("a", "~a b", "~b c", "~c d")))
    ((_, part),) = closure._parts
    assert isinstance(part.seeds, tuple)
    with pytest.raises(ValueError, match="read-only"):
        part.rounds[0] = 1


def renamed(texts, suffix):
    return [" ".join(f"{lit}{suffix}" for lit in text.split()) for text in texts]


TRIANGLE = ("a b c", "~a ~b", "~b ~c", "~a ~c")
SQUARE = ("a b c d", "~a ~b", "~b ~c", "~c ~d", "~a ~d")


def test_assumptions_resaturate_only_the_touched_components(monkeypatch):
    # Four copies of one 4-atom component, their atoms interleaved in the
    # universe (a0 a1 a2 a3 b0 ...). The base closure saturates one copy
    # and shares its part with the other three; denying a clause over
    # copies 1 and 2 saturates those two again and shares the rest.
    t = kl.ClausalTheory(clauses(*(c for k in range(4) for c in renamed(SQUARE, k))))
    widths = []
    real = resolution._saturate_lattice

    def spy(n, rows, max_clauses):
        widths.extend(n for _ in rows)
        return real(n, rows, max_clauses)

    monkeypatch.setattr(resolution, "_saturate_lattice", spy)
    resolution._live_parts.clear()
    base = kl.saturate(t)
    assert widths == [4]
    assumed = kl.closure_with_assumptions(t, clause("a1 ~b2"))
    assert widths == [4, 4, 4]
    shared = [mine is theirs for (_, mine), (_, theirs) in zip(assumed._parts, base._parts)]
    assert shared == [True, False, False, True]
    monkeypatch.undo()
    twin = cold(lambda: kl.closure_with_assumptions(t, clause("a1 ~b2")))
    assert list(assumed.entries()) == list(twin.entries())


@st.composite
def denied_theories(draw):
    """A theory and a clause of 1-3 literals to deny: random clauses over
    1-10 atoms, or a union of 3-5 components, each a copy of one of two
    random clause sets under its own names, interleaved in the universe."""
    if draw(st.booleans()):
        names = tuple("abcdefghij"[: draw(st.integers(1, 10))])
        lits = st.builds(Literal, st.sampled_from(names), st.booleans())
        cls = {Clause(c) for c in draw(st.lists(st.frozensets(lits, max_size=3), max_size=6))}
    else:
        local = st.builds(Literal, st.sampled_from("abc"), st.booleans())
        shapes = [
            draw(st.lists(st.frozensets(local, min_size=1, max_size=3), min_size=1, max_size=4))
            for _ in range(2)
        ]
        cls = set()
        for k in range(draw(st.integers(3, 5))):
            for c in draw(st.sampled_from(shapes)):
                cls.add(Clause(Literal(f"{lit.atom}{k}", lit.negated) for lit in c))
        names = tuple(sorted({a for c in cls for a in c.atoms()}))
    if draw(st.integers(0, 3)) == 0:
        cls.add(Clause())
    lits = st.builds(Literal, st.sampled_from(names), st.booleans())
    denied = Clause(draw(st.frozensets(lits, min_size=1, max_size=3)))
    return kl.ClausalTheory(frozenset(cls), names), denied


@given(denied_theories())
def test_assumptions_with_a_live_base_closure_match_the_cold_path(drawn):
    t, denied = drawn
    base = kl.saturate(t)
    warm = kl.closure_with_assumptions(t, denied)
    twin = cold(lambda: kl.closure_with_assumptions(t, denied))
    assert list(warm.entries()) == list(twin.entries())
    assert len(warm) == len(twin)
    assert warm.paradox_mask == twin.paradox_mask
    for m in twin.iter_masks():
        c = twin.clause_of(m)
        assert kl.proof_of(warm, c).to_text() == kl.proof_of(twin, c).to_text()
    assert len(base) <= len(twin)


# A 13-atom implication chain, refused on its pair bound at small caps,
# ahead of a 4-atom square that saturates on its lattice.
CHAIN_SQUARE = (
    "a00",
    *(f"~a{i:02d} a{i + 1:02d}" for i in range(12)),
    *("z1 z2 z3 z4", "~z1 ~z2", "~z2 ~z3", "~z3 ~z4", "~z1 ~z4"),
)


@pytest.mark.parametrize(
    "texts",
    [
        TRIANGLE + ("x", "~x", "y ~z"),
        # Nothing resolves: no cap refuses such a closure.
        ("y ~z", "w"),
        ("[]", "x", "~x", "y", "~y"),
        # A 4-atom component takes a lattice part, which can be shared.
        SQUARE + ("x", "~x", "y ~z"),
        CHAIN_SQUARE,
    ],
)
def test_a_shared_part_is_refused_as_a_cold_one(tmp_path, capsys, texts):
    # Under every cap, saturate tries the same components with a live
    # base closure as without, refuses the same one and says the same.
    t = kl.ClausalTheory(clauses(*texts))
    shared = resolution._shared_lattice

    def trial(k, saturator):
        tried = []

        def spy(n, seeds, inputs, budget):
            tried.append(seeds)
            part = saturator(n, seeds, inputs, budget)
            tried.append(part.count)
            return part

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolution, "_shared_lattice", spy)
            try:
                return len(kl.saturate(t, max_clauses=k)), tried
            except kl.ResourceLimitError as exc:
                return str(exc), tried

    base = kl.saturate(t)
    caps = range(len(base) + 1)
    for k in caps:
        assert trial(k, shared) == trial(k, lattice_alone)
    assert trial(len(base), shared)[0] == len(base)

    path = tmp_path / "capped.clauses"
    path.write_text("\n".join(texts) + "\n")

    def cli_run(k):
        code = cli.main(["closure", str(path), "--max-clauses", str(k)])
        return (code, *capsys.readouterr())

    for k in caps:
        assert cli_run(k) == cold(lambda: cli_run(k))
    if any(part.resolves for _, part in base._parts):
        code, out, err = cli_run(len(base) - 1)
        assert code == 3 and out == "" and f"exceeded {len(base) - 1} clauses" in err


# ---------------------------------------------------------------------------
# Small lattices saturated together: one ``_saturate_lattice`` call per
# width, each component a row of one round array.


def check_batch_rows(t, max_clauses):
    """Hold each row of ``_saturate_lattice`` over the components of
    ``t`` of one width, all in one call, to that component saturated
    alone: the same rounds and seeds, or the same refusal. The rows."""
    widths = {}
    for atoms, seeds, inputs in resolution._components(t, kl.Universe(t.universe)):
        widths.setdefault(len(atoms), []).append((seeds, inputs))
    for n, rows in widths.items():
        for (seeds, inputs), got in zip(rows, resolution._saturate_lattice(n, rows, max_clauses)):
            try:
                want = lattice_alone(n, seeds, inputs, max_clauses)
            except kl.ResourceLimitError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))
            else:
                assert np.array_equal(got.rounds, want.rounds)
                assert (got.seeds, got.inputs, got.count) == (want.seeds, want.inputs, want.count)
    return [row for rows in widths.values() for row in rows]


@given(component_theories(), st.integers(0, 70))
def test_batch_rows_match_their_components_alone(t, cap):
    check_batch_rows(t, cap)


@st.composite
def repeated_unions(draw):
    """2-5 copies, each under its own names, of two random clause sets
    over 4 or 5 atoms, the first at least twice: components that repeat,
    among others."""
    local = st.builds(Literal, st.sampled_from("abcde"[: draw(st.integers(4, 5))]), st.booleans())
    shapes = [
        draw(st.lists(st.frozensets(local, min_size=1, max_size=4), min_size=1, max_size=6))
        for _ in range(2)
    ]
    cls = set()
    for k, pick in enumerate([0, 0] + draw(st.lists(st.integers(0, 1), max_size=3))):
        for c in shapes[pick]:
            cls.add(Clause(Literal(f"{lit.atom}{k}", lit.negated) for lit in c))
    return kl.ClausalTheory(frozenset(cls))


@settings(max_examples=40, deadline=None)
@given(repeated_unions(), st.integers(0, 4**5 + 1))
def test_batch_rows_of_repeated_components_match_them_alone(t, cap):
    rows = check_batch_rows(t, cap)
    assert len(set(rows)) < len(rows)


def spy_batches(monkeypatch):
    """Patch ``_saturate_lattice`` to log each call as its width and
    number of rows."""
    calls = []
    real = resolution._saturate_lattice

    def spy(n, rows, max_clauses):
        calls.append((n, len(rows)))
        return real(n, rows, max_clauses)

    monkeypatch.setattr(resolution, "_saturate_lattice", spy)
    return calls


PENTAGON = ("a b c d e", "~a ~b", "~b ~c", "~c ~d", "~d ~e", "~a ~e")
HEXAGON = ("a b c d e f", "~a ~b", "~b ~c", "~c ~d", "~d ~e", "~e ~f", "~a ~f")


def test_small_lattices_saturate_in_one_call_per_width(monkeypatch):
    # components-wide's shape, two 5-atom and six 4-atom components, all
    # distinct, plus two 6-atom ones, which saturate one per call.
    extras = [(), ("~a",), ("~b",), ("~a ~c",), ("b ~d",), ("c",)]
    texts = [c for k, extra in enumerate(extras) for c in renamed(SQUARE + extra, k)]
    texts += renamed(PENTAGON, "p") + renamed(PENTAGON + ("~e",), "q")
    texts += renamed(HEXAGON, "h") + renamed(HEXAGON + ("~a",), "i")
    t = kl.ClausalTheory(clauses(*texts))
    calls = spy_batches(monkeypatch)
    resolution._live_parts.clear()
    closure = kl.saturate(t)
    assert sorted(calls) == [(4, 6), (5, 2), (6, 1), (6, 1)]
    monkeypatch.undo()
    assert list(closure.entries()) == list(cold(lambda: kl.saturate(t)).entries())


def test_a_denial_over_two_copies_saturates_them_in_one_call(monkeypatch):
    # Two copies of one component are one row; denying a clause over
    # both makes them differ, and both saturate again in one call.
    t = kl.ClausalTheory(clauses(*(c for k in range(2) for c in renamed(SQUARE, k))))
    calls = spy_batches(monkeypatch)
    resolution._live_parts.clear()
    base = kl.saturate(t)
    assert calls == [(4, 1)]
    assumed = kl.closure_with_assumptions(t, clause("a0 ~b1"))
    assert calls == [(4, 1), (4, 2)]
    assert not any(mine is theirs for (_, mine), (_, theirs) in zip(assumed._parts, base._parts))
    monkeypatch.undo()
    twin = cold(lambda: kl.closure_with_assumptions(t, clause("a0 ~b1")))
    assert list(assumed.entries()) == list(twin.entries())


@pytest.mark.parametrize(
    "texts",
    [
        CHAIN_SQUARE,
        # A positive-only component resolves nothing, so its seeds alone
        # may pass the cap; the square beside it is refused.
        ("a b c d", *renamed(SQUARE, 1)),
    ],
)
def test_batched_saturation_refuses_as_the_sequential_twin(tmp_path, capsys, monkeypatch, texts):
    # With no live part, saturate runs the small lattices first, together
    # at the whole cap, and keeps no part a row refuses there. Under
    # every cap the library and the CLI answer and refuse as when each
    # component is saturated alone, in order, on its own budget.
    t = kl.ClausalTheory(clauses(*texts))
    path = tmp_path / "t.clauses"
    path.write_text("\n".join(texts) + "\n")

    def outcome(k):
        resolution._live_parts.clear()
        try:
            size = len(kl.saturate(t, max_clauses=k))
        except kl.ResourceLimitError as exc:
            size = str(exc)
        resolution._live_parts.clear()
        code = cli.main(["closure", str(path), "--max-clauses", str(k)])
        return (size, code, *capsys.readouterr())

    caps = range(len(kl.saturate(t)) + 1)
    calls = spy_batches(monkeypatch)
    batched = [outcome(k) for k in caps]
    # Each saturate runs one batch of its 4-atom components; a component
    # refused there is saturated alone again, on its budget.
    rows = [a for a, _, _ in resolution._components(t, kl.Universe(t.universe)) if len(a) == 4]
    assert calls[0] == (4, len(rows)) and set(calls) <= {(4, len(rows)), (4, 1)}
    assert batched == cold(lambda: [outcome(k) for k in caps])
    assert batched[-1][:2] == (len(caps) - 1, 0)
    if texts == CHAIN_SQUARE:
        for k in (1, 2):
            size, code, out, err = batched[k]
            refusal = f"closure of a 13-atom component would resolve more than {16 * k} clause pairs"
            assert (size, code, out) == (refusal, 3, "") and refusal in err
