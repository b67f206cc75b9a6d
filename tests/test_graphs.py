"""Graphs, GNF theories, and the operators between them."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import graphs

ATOMS = ["a", "a'", "b", "c", "d", "e", "f_1"]


def small_graphs():
    edges = st.lists(
        st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)), max_size=14
    )
    verts = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=7)
    return st.builds(
        lambda vs, es: kl.Digraph(
            set(vs) | {v for e in es for v in e}, es
        ),
        verts,
        edges,
    )


def test_theory_to_graph_delta(our_theory, our_graph):
    assert our_graph.vertices == ("a", "a'", "b", "c", "d", "e")
    assert our_graph.edges == frozenset(
        [
            ("a'", "a"),
            ("a", "a'"),
            ("b", "a"),
            ("b", "c"),
            ("c", "d"),
            ("d", "e"),
            ("e", "c"),
        ]
    )


def test_theory_to_graph_sink():
    g = kl.theory_to_graph(kl.GnfTheory({"s": set()}))
    assert g.vertices == ("s",)
    assert g.edges == frozenset()


def test_theory_to_graph_loop_f1(f1_graph):
    assert f1_graph.edges == frozenset([("f", "f"), ("f", "s")])


def test_loose_atom_rejected():
    with pytest.raises(kl.ValidationError, match="loose atom 'b'"):
        kl.GnfTheory({"a": {"b"}})


def test_graph_to_theory_roundtrip(our_theory, our_graph):
    assert kl.graph_to_theory(our_graph) == our_theory
    assert kl.graph_to_theory(kl.Digraph([])) == kl.GnfTheory({})
    assert kl.graph_to_theory(kl.Digraph(["x"], [("x", "x")])) == kl.GnfTheory(
        {"x": {"x"}}
    )


@given(small_graphs())
def test_roundtrip_both_ways(g):
    t = kl.graph_to_theory(g)
    assert kl.theory_to_graph(t) == g
    assert kl.graph_to_theory(kl.theory_to_graph(t)) == t


def test_names_of_matches_a_per_bit_conversion():
    # The byte-piece conversion against the plain per-bit one, across
    # byte boundaries and on universes of up to nine bytes.
    for n in (0, 1, 7, 8, 9, 16, 17, 24, 70):
        u = kl.Universe(f"a{i}" for i in range(n))
        masks = [0, u.full_mask]
        for boundary in range(8, n, 8):
            masks += [1 << (boundary - 1), 1 << boundary, 3 << (boundary - 1)]
        rng = random.Random(n)
        masks += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(60)]
        masks += [rng.getrandbits(n) for _ in range(60)]
        naive = [tuple(u.names[i] for i in graphs.bits(m)) for m in masks]
        assert list(u.names_of(masks)) == naive
        assert list(u.names_of(iter(masks + masks))) == naive + naive
        assert [u.sorted_atoms_of(m) for m in masks] == naive
        assert [u.atoms_of(m) for m in masks] == [frozenset(names) for names in naive]


def test_neighborhoods_examples(our_graph):
    nb = kl.neighborhoods(our_graph, {"a"})
    assert nb.out == {"a'"}
    assert nb.in_ == {"a'", "b"}
    assert nb.in_closed == {"a", "a'", "b"}

    empty = kl.neighborhoods(our_graph, set())
    assert empty.out == empty.in_ == empty.in_closed == frozenset()

    cde = kl.neighborhoods(our_graph, {"c", "d", "e"})
    assert cde.out == {"c", "d", "e"}
    assert cde.in_ == {"b", "c", "d", "e"}
    assert cde.in_closed == {"b", "c", "d", "e"}


def test_neighborhoods_unknown_atom(our_graph):
    with pytest.raises(kl.ValidationError, match="unknown atom"):
        kl.neighborhoods(our_graph, {"zz"})


def test_negated_unknown_atom(our_theory):
    assert our_theory.negated("a") == {"a'"}
    with pytest.raises(kl.ValidationError, match="unknown atom 'zz'"):
        our_theory.negated("zz")


def test_reachable_examples(our_graph):
    assert kl.reachable(our_graph, {"b"}) == {"a", "a'", "b", "c", "d", "e"}
    assert kl.reachable(our_graph, set()) == frozenset()
    assert kl.reachable(our_graph, {"a"}) == {"a", "a'"}
    assert kl.reachable(our_graph, {"c"}, "backward") == {"b", "c", "d", "e"}
    with pytest.raises(kl.ValidationError):
        kl.reachable(our_graph, {"a"}, "sideways")


@given(small_graphs(), st.data())
def test_reachable_is_a_fixpoint(g, data):
    seed = data.draw(st.sets(st.sampled_from(list(g.vertices))) if g.vertices else st.just(set()))
    for direction in ("forward", "backward"):
        reach = kl.reachable(g, seed, direction)
        assert seed <= reach
        nb = kl.neighborhoods(g, reach)
        step = nb.out if direction == "forward" else nb.in_
        assert step <= reach


def test_is_inverse_closed(our_graph):
    assert kl.is_inverse_closed(our_graph, {"a"})
    assert not kl.is_inverse_closed(our_graph, {"a'"})
    assert kl.is_inverse_closed(our_graph, set())


def test_induced_subgraph(our_graph):
    h = kl.induced_subgraph(our_graph, {"a'", "a", "b"})
    assert h.vertices == ("a", "a'", "b")
    assert h.edges == frozenset([("a", "a'"), ("a'", "a"), ("b", "a")])
    assert kl.induced_subgraph(our_graph, set()) == kl.Digraph([])
    cycle = kl.induced_subgraph(our_graph, {"c", "d", "e"})
    assert cycle.edges == frozenset([("c", "d"), ("d", "e"), ("e", "c")])


@given(small_graphs())
def test_induced_subgraph_of_everything(g):
    assert kl.induced_subgraph(g, g.vertices) == g


def test_underlying_components(our_graph):
    two = kl.Digraph(["a", "b", "c", "d"], [("a", "c"), ("d", "b")])
    assert kl.underlying_components(two) == [
        frozenset({"a", "c"}),
        frozenset({"b", "d"}),
    ]
    assert kl.underlying_components(our_graph) == [
        frozenset({"a", "a'", "b", "c", "d", "e"})
    ]
    assert kl.underlying_components(kl.Digraph([])) == []


@given(small_graphs())
def test_components_partition_and_connectivity(g):
    comps = kl.underlying_components(g)
    seen = set()
    for comp in comps:
        assert not (comp & seen)
        seen |= comp
    assert seen == set(g.vertices)

    # Brute undirected path search as the independent check.
    und = {v: set() for v in g.vertices}
    for s, d in g.edges:
        und[s].add(d)
        und[d].add(s)

    def connected(x, y):
        frontier, visited = {x}, {x}
        while frontier:
            nxt = set()
            for v in frontier:
                nxt |= und[v] - visited
            visited |= nxt
            frontier = nxt
        return y in visited

    lookup = {v: comp for comp in comps for v in comp}
    for x in g.vertices:
        for y in g.vertices:
            assert (lookup[x] is lookup[y]) == connected(x, y)


def test_complete_loose_atoms():
    done = kl.complete_loose_atoms({"a": {"b"}})
    assert done == kl.GnfTheory({"a": {"b"}, "b": {"b'"}, "b'": {"b"}})

    untouched = kl.complete_loose_atoms({"x": {"x"}})
    assert untouched == kl.GnfTheory({"x": {"x"}})

    both = kl.complete_loose_atoms({"a": {"b", "c"}})
    assert both == kl.GnfTheory(
        {"a": {"b", "c"}, "b": {"b'"}, "b'": {"b"}, "c": {"c'"}, "c'": {"c"}}
    )


def test_complete_loose_atoms_fresh_name_collisions():
    done = kl.complete_loose_atoms({"a": {"b", "b'"}})
    # b' is itself loose, so b pairs with b'' and b' with b'''.
    assert done.negated("b") == {"b''"}
    assert done.negated("b''") == {"b"}
    assert done.negated("b'") == {"b'''"}
    assert kl.theory_to_graph(done)  # well-formed


def test_atom_name_validation():
    assert kl.is_valid_atom("a'")
    assert kl.is_valid_atom("x_1")
    assert not kl.is_valid_atom("")
    assert not kl.is_valid_atom("a b")
    with pytest.raises(kl.ValidationError):
        kl.Digraph(["ok", "not ok"])
    with pytest.raises(kl.ValidationError):
        kl.GnfTheory({"-bad-": set()})


def test_digraph_rejects_foreign_edges():
    with pytest.raises(kl.ValidationError, match="unknown atom"):
        kl.Digraph(["a"], [("a", "b")])


# Calls handed several bad atoms, as sets, and the one error each
# gives: of several unknown or invalid atoms, always the least.
BAD_ATOM_CALLS = {
    "kl.classify_subset(g, PQRS)": "unknown atom 'p'",
    "kl.partition_of(g, PQRS)": "unknown atom 'p'",
    "kl.neighborhoods(g, PQRS)": "unknown atom 'p'",
    "kl.reachable(g, PQRS)": "unknown atom 'p'",
    "kl.is_inverse_closed(g, PQRS)": "unknown atom 'p'",
    "kl.sk_union(g, PQRS, {'a'})": "unknown atom 'p'",
    "kl.sk_intersect_reach(g, PQRS, PQRS)": "unknown atom 'p'",
    "kl.extend_partition(g, true_part(PQRS), true_part(()))": "unknown atom 'p'",
    "kl.induced_subgraph(g, PQRS)": "unknown atom 'p'",
    "kl.Digraph(['a'], {('a', 's'), ('r', 'a'), ('q', 'a'), ('a', 'p')})": "unknown atom 'p'",
    "kl.Clause(kl.Literal(a) for a in BAD)": "invalid atom name 'p q'",
    "kl.GnfTheory({'a': BAD})": "invalid atom name 'p q'",
    "kl.complete_loose_atoms({'a': BAD})": "invalid atom name 'p q'",
}

BAD_ATOM_SCRIPT = """
import kernelogic as kl
g = kl.Digraph(['a', 'b'], [('a', 'b')])
PQRS = {'p', 'q', 'r', 's'}
BAD = {'p q', 'r s', 't u', 'v w'}
def true_part(atoms):
    return kl.Partition3(frozenset(atoms), frozenset(), frozenset())
for call in CALLS:
    try:
        eval(call)
    except kl.ValidationError as exc:
        print(exc)
"""


def test_bad_atom_errors_do_not_depend_on_the_hash_seed():
    script = f"CALLS = {list(BAD_ATOM_CALLS)!r}\n{BAD_ATOM_SCRIPT}"
    expected = "".join(f"{message}\n" for message in BAD_ATOM_CALLS.values())
    for seed in ("1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected, seed
