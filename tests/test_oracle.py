"""The brute-force reference paths and the reproducible graph source."""

import pytest

import kernelogic as kl
from kernelogic import Partition3

from conftest import clauses


def test_brute_semikernels(our_graph, f2_graph):
    assert kl.brute_semikernels(our_graph) == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"a'"}),
    ]
    assert kl.brute_semikernels(f2_graph) == [frozenset(), frozenset({"s"})]
    cycle = kl.Digraph(["c", "d", "e"], [("c", "d"), ("d", "e"), ("e", "c")])
    assert kl.brute_semikernels(cycle) == [frozenset()]


def test_brute_kernels(f1_graph, our_graph):
    assert kl.brute_kernels(f1_graph) == [frozenset({"s"})]
    assert kl.brute_kernels(our_graph) == []


def test_brute_models(our_graph, f1_graph):
    assert kl.brute_models(our_graph) == [
        Partition3(
            frozenset({"a"}), frozenset({"a'", "b"}), frozenset({"c", "d", "e"})
        )
    ]
    assert kl.brute_models(f1_graph) == [
        Partition3(frozenset({"s"}), frozenset({"f"}), frozenset())
    ]
    assert kl.brute_models(kl.Digraph([])) == [
        Partition3(frozenset(), frozenset(), frozenset())
    ]


def test_brute_size_cap():
    big = kl.Digraph([f"v{i:02d}" for i in range(17)])
    with pytest.raises(kl.ResourceLimitError):
        kl.brute_semikernels(big)


def test_truth_table_models(f1_graph):
    contradictory = kl.ClausalTheory(clauses("x", "~x", "s"))
    assert kl.truth_table_models(contradictory) == []

    f1 = kl.truth_table_models(kl.clausal_theory(f1_graph))
    assert f1 == [{"f": False, "s": True}]

    empty_over_a = kl.ClausalTheory(frozenset(), ("a",))
    assert kl.truth_table_models(empty_over_a) == [{"a": False}, {"a": True}]

    wide = kl.ClausalTheory(frozenset(), tuple(f"v{i:02d}" for i in range(21)))
    with pytest.raises(kl.ResourceLimitError, match="21 atoms, truth-table cap is 20"):
        kl.truth_table_models(wide)
    with pytest.raises(kl.ResourceLimitError, match="cap is 1"):
        kl.truth_table_models(kl.clausal_theory(f1_graph), max_atoms=1)


def test_splitmix64_reference_values():
    # First outputs for seed 1234567, matching the published algorithm.
    stream = kl.splitmix64(1234567)
    assert [next(stream) for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_random_digraph_determinism():
    spec = kl.RandomGraphSpec(5, 0.3, 42)
    g = kl.random_digraph(spec)
    assert g.vertices == ("v0", "v1", "v2", "v3", "v4")
    assert sorted(g.edges) == [
        ("v0", "v1"),
        ("v0", "v2"),
        ("v0", "v4"),
        ("v1", "v1"),
        ("v2", "v0"),
        ("v3", "v0"),
        ("v3", "v1"),
        ("v3", "v3"),
        ("v4", "v1"),
        ("v4", "v4"),
    ]
    assert kl.random_digraph(spec) == g


def test_random_digraph_extremes():
    assert kl.random_digraph(kl.RandomGraphSpec(0, 0.5, 1)) == kl.Digraph([])
    full = kl.random_digraph(kl.RandomGraphSpec(3, 1.0, 7))
    assert len(full.edges) == 9  # all ordered pairs, loops included
    none = kl.random_digraph(kl.RandomGraphSpec(4, 0.0, 7))
    assert none.edges == frozenset()


def test_engine_matches_oracle_sample():
    for i in range(40):
        spec = kl.RandomGraphSpec(n=3 + i % 4, edge_prob=0.35, seed=900 + i)
        g = kl.random_digraph(spec)
        assert kl.enumerate_kernels(g) == kl.brute_kernels(g)
        assert kl.enumerate_semikernels(g) == kl.brute_semikernels(g)
        assert kl.models(g) == kl.brute_models(g)
