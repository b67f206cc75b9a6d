"""Kernel and semikernel classification, enumeration, and combination."""

import gc
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelogic as kl
from kernelogic import graphs, kernels
from kernelogic.resolution import subdiscourse_report

from conftest import entails_by_listing


def rand_graphs(count, sizes=(3, 4, 5, 6), probs=(0.15, 0.3, 0.5), base=4242):
    for i in range(count):
        spec = kl.RandomGraphSpec(
            n=sizes[i % len(sizes)], edge_prob=probs[i % len(probs)], seed=base + i
        )
        yield kl.random_digraph(spec)


def test_classify_subset_examples(our_graph, f1_graph):
    report = kl.classify_subset(our_graph, {"a"})
    assert report == kl.SubsetReport(
        independent=True, kernel=False, semikernel=True, inverse_closed=True, psk=True
    )
    other = kl.classify_subset(our_graph, {"a'"})
    assert other.semikernel and not other.inverse_closed and not other.psk
    assert kl.classify_subset(f1_graph, {"s"}).kernel
    with pytest.raises(kl.ValidationError):
        kl.classify_subset(our_graph, {"nope"})


def test_classify_agrees_with_oracle():
    for g in rand_graphs(30):
        sk = set(kl.brute_semikernels(g))
        kernels = set(kl.brute_kernels(g))
        for rank in range(1 << len(g.vertices)):
            s = frozenset(v for i, v in enumerate(g.vertices) if rank >> i & 1)
            report = kl.classify_subset(g, s)
            assert report.semikernel == (s in sk)
            assert report.kernel == (s in kernels)
            assert report.inverse_closed == kl.is_inverse_closed(g, s)
            assert report.psk == (report.semikernel and report.inverse_closed)
            if report.kernel:
                assert report.semikernel


def test_partition_of(our_graph, f1_graph):
    assert kl.partition_of(our_graph, {"a"}) == kl.Partition3(
        frozenset({"a"}), frozenset({"a'", "b"}), frozenset({"c", "d", "e"})
    )
    assert kl.partition_of(our_graph, set()) == kl.Partition3(
        frozenset(), frozenset(), frozenset(our_graph.vertices)
    )
    assert kl.partition_of(f1_graph, {"s"}) == kl.Partition3(
        frozenset({"s"}), frozenset({"f"}), frozenset()
    )
    with pytest.raises(kl.ValidationError, match="not independent"):
        kl.partition_of(our_graph, {"a", "a'"})
    # A one-shot iterable is read once and named in full.
    chain = kl.Digraph(["a", "b"], [("a", "b")])
    with pytest.raises(kl.ValidationError, match=r"set \['a', 'b'\] is not independent"):
        kl.partition_of(chain, iter(["a", "b"]))
    assert kl.partition_of(chain, iter(["b"])) == kl.partition_of(chain, ["b"])


def test_enumerate_kernels(our_graph, loop_chain_graph):
    assert kl.enumerate_kernels(our_graph) == []
    assert kl.enumerate_kernels(loop_chain_graph) == [frozenset({"b"})]
    no_loop = kl.Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")])
    assert kl.enumerate_kernels(no_loop) == [frozenset({"b"}), frozenset({"a", "c"})]


def test_enumerate_semikernels(our_graph, f2_graph):
    assert kl.enumerate_semikernels(our_graph) == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"a'"}),
    ]
    assert kl.enumerate_semikernels(f2_graph) == [frozenset(), frozenset({"s"})]
    assert kl.enumerate_semikernels(kl.Digraph([])) == [frozenset()]


def test_enumeration_cap():
    big = kl.Digraph([f"v{i:02d}" for i in range(21)])
    with pytest.raises(kl.ResourceLimitError):
        kl.enumerate_kernels(big)
    assert len(kl.enumerate_kernels(big, max_atoms=21)) == 1


def test_enumeration_cap_counts_the_whole_graph():
    # The edgeless graph splits into 21 one-atom components; the cap
    # still sees 21 atoms, and the one kernel comes at once.
    big = kl.Digraph([f"v{i:02d}" for i in range(21)])
    with pytest.raises(kl.ResourceLimitError):
        kl.models(big)
    with pytest.raises(kl.ResourceLimitError):
        kl.enumerate_semikernels(big)
    start = time.perf_counter()
    assert kl.enumerate_kernels(big, max_atoms=21) == [frozenset(big.vertices)]
    assert time.perf_counter() - start < 1.0


def two_cycles(k, liars=0):
    """``k`` disjoint 2-cycles; the first ``liars`` get a loop on one end."""
    names = [f"c{i:02d}" for i in range(2 * k)]
    edges = []
    for i in range(k):
        a, b = names[2 * i], names[2 * i + 1]
        edges += [(a, b), (b, a)] + [(a, a)] * (i < liars)
    return kl.Digraph(names, edges)


def odd_cycles(*lengths):
    """Disjoint directed cycles, their atoms interleaved in name order."""
    names, edges = [], []
    for k, length in enumerate(lengths):
        ring = [f"o{i:02d}_{k}" for i in range(length)]
        names += ring
        edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    return kl.Digraph(names, edges)


def test_models_of_ten_two_cycles_are_fast():
    g = two_cycles(10)
    start = time.perf_counter()
    found = kl.models(g)
    assert time.perf_counter() - start < 1.0
    assert len(found) == 1024
    assert all(not m.paradox_set and len(m.true_set) == 10 for m in found)


@st.composite
def component_unions(draw):
    """A disjoint union of 1-5 random components, self-loops included,
    at most 16 atoms; atom j of component k is named ``x{j}_{k}``, so
    the components interleave in name order."""
    names, edges = [], []
    for k in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, min(5, 16 - len(names))))
        atoms = [f"x{j}_{k}" for j in range(n)]
        pairs = st.tuples(st.sampled_from(atoms), st.sampled_from(atoms))
        # At least n - 1 edges: sparser components make so many
        # inverse-closed semikernels that the brute filter's pairwise
        # scan takes minutes.
        edges += draw(st.sets(pairs, min_size=n - 1, max_size=2 * n))
        names += atoms
        if len(names) == 16:
            break
    return kl.Digraph(names, edges)


@settings(max_examples=25, deadline=None)
@given(component_unions())
def test_per_component_search_matches_brute_force(g):
    assert kl.enumerate_kernels(g) == kl.brute_kernels(g)
    assert kl.enumerate_semikernels(g) == kl.brute_semikernels(g)
    assert kl.models(g) == kl.brute_models(g)


@st.composite
def small_graphs(draw):
    """A random graph of 1-10 atoms, self-loops included."""
    n = draw(st.sampled_from(range(1, 11)))
    p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    return kl.random_digraph(kl.RandomGraphSpec(n, p, draw(st.integers(0, 2**32))))


def two_pass_models(graph, comp):
    """A component's domain and chosen models by the two-pass rule the
    one-pass walk replaced: every inverse-closed semikernel's domain is
    kept, their union is the maximal domain, and the models are the sets
    that settle exactly it, in search order."""
    w = len(graph.vertices)
    full = graph.universe.full_mask
    closed = {}
    for p in kernels._semikernels(graph, comp):
        m, out, into, far = p & full, p >> w & full, p >> 2 * w & full, p >> 3 * w
        if out & ~into == 0 and far & ~(m | into) == 0:
            closed[m] = m | into
    domain = 0
    for dom in closed.values():
        domain |= dom
    return domain, tuple(m for m, dom in closed.items() if dom == domain)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_graphs(), component_unions()))
# {a, c} settles all four atoms before {d} settles its subdomain {a, d}.
@example(kl.Digraph(["a", "b", "c", "d"], [("a", "b"), ("a", "d"), ("b", "c"), ("d", "a")]))
def test_one_pass_models_match_the_two_pass_rule(g):
    found = [(domain, models) for models, domain in kernels._model_side(g).components]
    assert found == [two_pass_models(g, comp) for comp in graphs.component_masks(g)]


@st.composite
def wide_unions(draw):
    """A disjoint union of 1-5-atom components, self-loops included,
    of 21-34 atoms in all: wider than the default atom cap."""
    names, edges = [], []
    for k in range(34):
        atoms = [f"x{j}_{k}" for j in range(draw(st.integers(1, min(5, 34 - len(names)))))]
        pairs = st.tuples(st.sampled_from(atoms), st.sampled_from(atoms))
        edges += draw(st.sets(pairs, max_size=2 * len(atoms)))
        names += atoms
        if len(names) > 20 and (len(names) == 34 or draw(st.booleans())):
            break
    return kl.Digraph(names, edges)


def goal_clauses(g, data):
    literals = st.builds(kl.Literal, st.sampled_from(g.vertices), st.booleans())
    goals = [set()] + data.draw(st.lists(st.sets(literals, max_size=4), max_size=8))
    return list(map(kl.Clause, goals))


def check_model_side(g, data):
    side = kernels.model_side(g)
    theory = kl.clausal_theory(g)
    # A connected 10-atom closure may fill all 4**10 clause cells.
    closure = kl.saturate(theory, 4**10)
    assert side.paradox_atoms() == kl.paradoxical_atoms(closure)
    assert subdiscourse_report(theory, g, side.paradox_atoms()) == kl.consistent_subtheory(
        theory, g, closure=closure
    )
    assert side.minimal_clauses(len(closure)) == kl.min_clauses(theory, closure=closure)
    for goal in goal_clauses(g, data):
        assert side.entails(goal) == kl.entails_para(theory, goal, closure=closure)
        if not goal.is_empty:
            assert side.relevant(goal) == kl.is_relevant(theory, goal, closure=closure)


@settings(max_examples=25, deadline=None)
@given(small_graphs(), st.data())
def test_model_side_matches_the_closure(g, data):
    check_model_side(g, data)


@settings(max_examples=25, deadline=None)
@given(wide_unions(), st.data())
def test_model_side_matches_the_closure_on_wide_unions(g, data):
    check_model_side(g, data)


@settings(max_examples=25, deadline=None)
@given(st.one_of(small_graphs(), component_unions()), st.data())
def test_entails_semantic_matches_the_listing(g, data):
    mods = kl.models(g)
    for goal in goal_clauses(g, data):
        assert kl.entails_semantic(g, goal) == entails_by_listing(g, goal, mods), str(goal)


@settings(max_examples=25, deadline=None)
@given(wide_unions(), st.data())
def test_entails_semantic_on_wide_unions(g, data):
    theory = kl.clausal_theory(g)
    closure = kl.saturate(theory)
    bad = kl.paradoxical_atoms(closure)
    for goal in goal_clauses(g, data):
        verdict = kl.entails_semantic(g, goal)
        assert verdict.holds == kl.entails_para(theory, goal, closure=closure)
        if verdict.countermodel is not None:
            cm = verdict.countermodel
            assert cm.paradox_set == bad and kl.classify_subset(g, cm.true_set).psk
            assert kl.partition_of(g, cm.true_set) == cm
            assert not kl.satisfies(cm, goal)
        if verdict.witness is not None:
            assert verdict.witness.literals <= goal.literals
            assert not verdict.witness.atoms() & bad
            assert kl.entails_para(theory, verdict.witness, closure=closure)


@st.composite
def hypergraphs(draw):
    """Up to 7 edges over up to 7 vertices, as vertex bitmasks; the
    empty edge and repeated edges included."""
    return draw(st.lists(st.integers(0, 2**7 - 1), max_size=7))


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_minimal_transversals_match_a_subset_scan(edges):
    found = list(kernels._minimal_transversals(edges))
    hitting = [s for s in range(2**7) if all(s & e for e in edges)]
    minimal = {s for s in hitting if not any(h != s and h & ~s == 0 for h in hitting)}
    assert len(found) == len(set(found)) and set(found) == minimal


def test_minimal_clauses_count_against_the_cap():
    side = kernels.model_side(kl.Digraph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "c")]))
    # c is paradoxical; the 2-cycle's models {a} and {b} give a b, ~a ~b,
    # a ~a and b ~b.
    found = side.minimal_clauses(6)
    assert sorted(map(str, found)) == ["a b", "a ~a", "b ~b", "c", "~a ~b", "~c"]
    with pytest.raises(kl.ResourceLimitError, match="minimal clauses exceeded 5"):
        side.minimal_clauses(5)
    with pytest.raises(kl.ResourceLimitError, match="minimal clauses exceeded 1"):
        side.minimal_clauses(1)


def test_model_side_caps_each_component():
    assert kernels.model_side(two_cycles(10), max_atoms=2) is not None
    assert kernels.model_side(two_cycles(10), max_atoms=1) is None
    assert kernels.model_side(odd_cycles(5, 7), max_atoms=7) is not None
    assert kernels.model_side(odd_cycles(5, 7), max_atoms=6) is None


def test_model_side_flood_fills_a_graph_once(monkeypatch):
    # The per-component cap reads memoised component masks, and still
    # refuses a component over it before any search.
    g = odd_cycles(3, 5)
    graphs.component_masks.cache_clear()
    kernels._model_side.cache_clear()
    fills, searches = [], []
    real_fill, real_search = graphs.flood_fill, kernels._semikernels
    monkeypatch.setattr(graphs, "flood_fill", lambda links: fills.append(1) or real_fill(links))
    monkeypatch.setattr(
        kernels, "_semikernels", lambda *a: searches.append(1) or real_search(*a)
    )
    assert kernels.model_side(g, max_atoms=4) is None
    assert (fills, searches) == ([1], [])
    for _ in range(3):
        assert kernels.model_side(g, max_atoms=5) is not None
        assert kernels.model_side(g, max_atoms=4) is None
    assert (fills, searches) == ([1], [1, 1])


def test_cached_model_side_keeps_no_semikernels():
    # The out-star has 2**16 + 1 semikernels but one model; the cache
    # keeps the model side, not the sets its walk passed over.
    leaves = [f"l{i:02d}" for i in range(16)]
    g = kl.Digraph(["hub"] + leaves, [("hub", leaf) for leaf in leaves])
    kernels._model_side.cache_clear()
    tracemalloc.start()
    try:
        side = kernels.model_side(g)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert side.components == (((g.universe.mask_of(leaves),), g.universe.full_mask),)
    assert held < 1 << 20


def whole_graph_lists(graph):
    """Kernels, semikernels and models as masks, by one subset search
    over the whole graph and a pairwise maximality filter: the search
    the per-component one replaced."""
    n = len(graph.vertices)
    succ, pred = graph._succ, graph._pred
    found = []

    def extend(i, mask):
        if i == n:
            found.append(mask)
            return
        extend(i + 1, mask)
        bit = 1 << i
        if succ[i] & bit == 0 and (succ[i] | pred[i]) & mask == 0:
            extend(i + 1, mask | bit)

    extend(0, 0)
    independent = sorted(found)
    semi = [m for m in independent if kernels._is_semikernel(graph, m)]
    kern = [m for m in independent if kernels._is_kernel(graph, m)]
    closed = [m for m in semi if graph.inverse_closed(m)]
    domains = {m: graph.in_closed_mask(m) for m in closed}
    kept = []
    for m in closed:
        dom = domains[m]
        if not any(dom != d and dom & ~d == 0 for d in domains.values()):
            kept.append(m)
    return kern, semi, kept


WIDE_UNIONS = {
    "seven 2-cycles and a 3-cycle": kl.Digraph(
        two_cycles(7).vertices + ("t0", "t1", "t2"),
        sorted(two_cycles(7).edges) + [("t0", "t1"), ("t1", "t2"), ("t2", "t0")],
    ),
    "nine 2-cycles, five liars": two_cycles(9, liars=5),
    "odd cycles 5, 7, 7": odd_cycles(5, 7, 7),
    "odd cycles 3, 3, 5, 9": odd_cycles(3, 3, 5, 9),
    **{
        f"sparse {n} atoms, p {p}": kl.random_digraph(kl.RandomGraphSpec(n, p, 2))
        for n, p in ((17, 0.06), (19, 0.05), (20, 0.06))
    },
}


@pytest.mark.parametrize("name", sorted(WIDE_UNIONS))
def test_per_component_search_matches_whole_graph_twin(name):
    g = WIDE_UNIONS[name]
    assert 17 <= len(g.vertices) <= 20
    kern, semi, kept = whole_graph_lists(g)
    u = g.universe
    assert kl.enumerate_kernels(g) == [u.atoms_of(m) for m in kern]
    assert kl.enumerate_semikernels(g) == [u.atoms_of(m) for m in semi]
    assert kl.models(g) == [kernels._partition_from_mask(g, m) for m in kept]


def test_models_examples(our_graph, f1_graph, f2_graph):
    assert kl.models(our_graph) == [
        kl.Partition3(
            frozenset({"a"}), frozenset({"a'", "b"}), frozenset({"c", "d", "e"})
        )
    ]
    assert kl.models(f2_graph) == [
        kl.Partition3(frozenset(), frozenset(), frozenset({"f", "y", "s"}))
    ]
    assert kl.models(f1_graph) == [
        kl.Partition3(frozenset({"s"}), frozenset({"f"}), frozenset())
    ]


def test_models_never_empty():
    for g in rand_graphs(40):
        mods = kl.models(g)
        assert mods
        for m in mods:
            assert kl.classify_subset(g, m.true_set).psk


def test_models_share_boolean_domain():
    # Any two models settle exactly the same atoms.
    for g in rand_graphs(40, base=5050):
        domains = {m.boolean_domain() for m in kl.models(g)}
        assert len(domains) == 1


def test_semikernel_is_kernel_of_its_domain():
    for g in rand_graphs(30, base=6060):
        for s in kl.enumerate_semikernels(g):
            domain = kl.neighborhoods(g, s).in_closed
            sub = kl.induced_subgraph(g, domain)
            assert kl.classify_subset(sub, s).kernel


def test_partition_view_matches_set_view():
    # The two-condition pointwise reading of a semikernel partition.
    for g in rand_graphs(25, base=7070):
        for rank in range(1 << len(g.vertices)):
            s = frozenset(v for i, v in enumerate(g.vertices) if rank >> i & 1)
            if not kl.classify_subset(g, s).independent:
                continue
            p = kl.partition_of(g, s)
            ok_a = all(
                kl.neighborhoods(g, {x}).out <= p.false_set for x in p.true_set
            )
            ok_b = all(
                (x in p.false_set)
                == bool(kl.neighborhoods(g, {x}).out & p.true_set)
                for v in [None]
                for x in g.vertices
            )
            assert (ok_a and ok_b) == kl.classify_subset(g, s).semikernel


def test_sk_intersect_reach():
    path = kl.Digraph(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])
    assert kl.sk_intersect_reach(path, {"x", "z"}, {"z"}) == {"z"}
    assert kl.sk_intersect_reach(path, {"x", "z"}, {"x", "z"}) == {"x", "z"}
    assert kl.sk_intersect_reach(path, {"x", "z"}, set()) == frozenset()
    with pytest.raises(kl.ValidationError, match="subset"):
        kl.sk_intersect_reach(path, {"z"}, {"x"})
    with pytest.raises(kl.ValidationError, match="not a semikernel"):
        kl.sk_intersect_reach(path, {"w", "x"}, {"x"})


def test_sk_union():
    two = kl.Digraph(["u", "v", "p", "q"], [("u", "v"), ("p", "q")])
    assert kl.sk_union(two, {"v"}, {"q"}) == {"v", "q"}
    path = kl.Digraph(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])
    assert kl.sk_union(path, {"z"}, {"x", "z"}) == {"x", "z"}
    assert kl.sk_union(path, {"z"}, set()) == {"z"}
    cycle = kl.Digraph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(kl.ValidationError, match="overlap"):
        kl.sk_union(cycle, {"a"}, {"b"})
    with pytest.raises(kl.ValidationError, match="^t is not a semikernel"):
        kl.sk_union(path, {"x", "z"}, {"y"})
    with pytest.raises(kl.ValidationError, match="^s is not a semikernel"):
        kl.sk_union(path, {"y"}, {"x", "z"})


def test_combinators_random():
    from kernelogic.oracle import splitmix64

    stream = splitmix64(31337)
    produced = 0
    for g in rand_graphs(60, base=8080):
        sks = kl.enumerate_semikernels(g)
        for s in sks:
            members = sorted(s)
            t = frozenset(m for m in members if next(stream) % 2)
            assert kl.classify_subset(g, kl.sk_intersect_reach(g, s, t)).semikernel
            produced += 1
        for s in sks:
            for t in sks:
                if kl.neighborhoods(g, s).in_ & t:
                    continue
                assert kl.classify_subset(g, kl.sk_union(g, s, t)).semikernel
                produced += 1
    assert produced > 200


def test_extend_partition_examples(our_graph, f1_graph):
    alpha = kl.partition_of(our_graph, set())
    beta = kl.partition_of(our_graph, {"a"})
    assert kl.extend_partition(our_graph, alpha, beta) == beta

    # Overlap is checked before the partition shapes, so the rejected
    # pair reports the settled-domain problem.
    bad_beta = kl.partition_of(our_graph, {"a'"})
    with pytest.raises(kl.ValidationError, match="no overlap"):
        kl.extend_partition(our_graph, beta, bad_beta)
    with pytest.raises(kl.ValidationError, match="not an inverse-closed"):
        kl.extend_partition(our_graph, alpha, bad_beta)
    overlapping = kl.Partition3(
        beta.true_set, beta.false_set | beta.true_set, beta.paradox_set
    )
    with pytest.raises(kl.ValidationError, match="beta is not a partition"):
        kl.extend_partition(our_graph, alpha, overlapping)

    # Disjoint union of the F1 shape and a 3-cycle.
    g = kl.Digraph(
        ["f", "s", "x", "y", "z"],
        [("f", "f"), ("f", "s"), ("x", "y"), ("y", "z"), ("z", "x")],
    )
    alpha = kl.partition_of(g, set())
    beta = kl.partition_of(g, {"s"})
    assert kl.extend_partition(g, alpha, beta) == beta


def test_extend_partition_random():
    for g in rand_graphs(40, base=9090):
        psks = [
            kl.partition_of(g, s)
            for s in kl.enumerate_semikernels(g)
            if kl.classify_subset(g, s).psk
        ]
        for alpha in psks:
            for beta in psks:
                if not (beta.boolean_domain() - alpha.boolean_domain()):
                    continue
                gamma = kl.extend_partition(g, alpha, beta)
                assert kl.classify_subset(g, gamma.true_set).psk
                assert alpha.boolean_domain() < gamma.boolean_domain()


def failing_on(graph, atoms, check):
    """``check`` with its answer for one vertex set turned to False."""
    bad = graph.universe.mask_of(atoms)
    return lambda g, mask: mask != bad and check(g, mask)


def test_combinator_post_checks_raise(monkeypatch):
    # The post-checks are explicit raises, kept under python -O; they
    # fire when a result breaks the property its inputs were checked for.
    path = kl.Digraph(["w", "x", "y", "z"], [("w", "x"), ("x", "y"), ("y", "z")])
    real = kernels._is_semikernel
    monkeypatch.setattr(kernels, "_is_semikernel", failing_on(path, {"z"}, real))
    with pytest.raises(AssertionError, match="broke the semikernel"):
        kl.sk_intersect_reach(path, {"x", "z"}, {"z"})

    two = kl.Digraph(["u", "v", "p", "q"], [("u", "v"), ("p", "q")])
    monkeypatch.setattr(kernels, "_is_semikernel", failing_on(two, {"v", "q"}, real))
    with pytest.raises(AssertionError, match="broke the semikernel"):
        kl.sk_union(two, {"v"}, {"q"})


def test_extend_partition_post_checks_raise(monkeypatch):
    sinks = kl.Digraph(["a", "b"], [])
    alpha = kl.partition_of(sinks, {"a"})
    beta = kl.partition_of(sinks, {"b"})
    real = kl.Digraph.inverse_closed
    monkeypatch.setattr(kl.Digraph, "inverse_closed", failing_on(sinks, {"a", "b"}, real))
    with pytest.raises(AssertionError, match="not an inverse-closed semikernel"):
        kl.extend_partition(sinks, alpha, beta)

    # {z} is a semikernel whose settled domain {y, z} has the predecessor
    # x, so alpha is not inverse-closed; beta settles only x anew, as a
    # false atom, and the combined set adds nothing to alpha's.
    g = kl.Digraph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "y")])
    alpha = kl.partition_of(g, {"z"})
    beta = kl.partition_of(g, {"y"})
    with pytest.raises(kl.ValidationError, match="alpha is not an inverse-closed"):
        kl.extend_partition(g, alpha, beta)
    monkeypatch.setattr(kl.Digraph, "inverse_closed", lambda graph, mask: True)
    with pytest.raises(AssertionError, match="does not strictly extend"):
        kl.extend_partition(g, alpha, beta)
