"""Power graph construction and the exponent weight table."""

import tracemalloc

import pytest

from powergraphs import (
    APPair,
    SENTINEL,
    SimpleGraph,
    ap_contains,
    are_isomorphic,
    cyclic,
    dihedral,
    direct_product,
    exponent_set_window,
    generalized_product_graph,
    graphs_equal_labeled,
    has_universal_vertex,
    power_graph,
    power_graph_bundle,
    power_weights,
    quaternion8,
    symmetric,
)
from powergraphs.groupspec import parse_group_spec
from powergraphs.power import _subgroup_rows
from powergraphs.verify import family_groups
from helpers import adjacency, powers


def test_klein_power_graph_is_a_star():
    v4 = direct_product(cyclic(2), cyclic(2))
    graph = power_graph(v4)
    assert graph.edge_count == 3
    assert all(v4.identity in edge for edge in graph.edges())


def test_trivial_group():
    graph = power_graph(cyclic(1))
    assert graph.vertex_count == 1
    assert graph.edge_count == 0


def test_z6_adjacency():
    graph = power_graph(cyclic(6))
    assert graph.edge_count == 13
    adj = adjacency(graph)
    non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if not adj(u, v)]
    assert non_edges == [(2, 3), (3, 4)]


def test_weights_diagonal():
    for g in (cyclic(5), dihedral(4), quaternion8()):
        w = power_weights(g)
        for a in range(g.order):
            assert w[a].get(a, SENTINEL) == APPair(1, g.element_orders[a])


def test_weight_examples():
    assert power_weights(cyclic(4))[1].get(3, SENTINEL) == APPair(3, 4)
    w = power_weights(cyclic(6))
    assert w[2].get(3, SENTINEL) == SENTINEL
    assert w[2].get(4, SENTINEL) == APPair(2, 3)


def test_weight_rows_share_their_cells():
    for g in (cyclic(12), dihedral(5), symmetric(4), quaternion8()):
        expected = [{x: APPair(t, len(walk)) for t, x in enumerate(walk, 1)}
                    for walk in map(g.powers, range(g.order))]
        assert list(power_weights(g)) == expected, g
    # The rows are built when read: all of C600's rows, held at once.
    w = power_weights(cyclic(600))
    tracemalloc.start()
    try:
        rows = list(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, rows)) == 156821
    # A new APPair per cell took 19.3 MiB.
    assert peak < 10 * 2**20, peak


def test_identity_row_is_sentinel():
    g = symmetric(3)
    w = power_weights(g)
    e = g.identity
    for b in range(g.order):
        assert w[e].get(b, SENTINEL) == (APPair(1, 1) if b == e else SENTINEL)


def test_bundle_adjacency_matches_weights():
    for g in (cyclic(8), dihedral(5), symmetric(3)):
        bundle = power_graph_bundle(g)
        w = bundle.weights
        adj = adjacency(bundle.graph)
        for a in range(g.order):
            for b in range(g.order):
                if a == b:
                    continue
                expected = w[a].get(b, SENTINEL) != SENTINEL or w[b].get(a, SENTINEL) != SENTINEL
                assert adj(a, b) == expected


def naive_power_graph(g):
    """Adjacency straight from the definition: scan all exponents both ways."""
    edges = []
    for a in range(g.order):
        for b in range(a + 1, g.order):
            related = b in powers(g, a) or a in powers(g, b)
            if related:
                edges.append((a, b))
    return SimpleGraph(g.element_names, edges)


def test_matches_definition_direct_construction():
    for g in family_groups(24):
        assert graphs_equal_labeled(power_graph(g), naive_power_graph(g)), g.name


def cyclic_subgroup(g, a):
    return set(powers(g, a))


def test_adjacency_is_subgroup_containment():
    for g in family_groups(16):
        graph = power_graph(g)
        subgroups = {a: cyclic_subgroup(g, a) for a in range(g.order)}
        adj = adjacency(graph)
        for a in range(g.order):
            for b in range(a + 1, g.order):
                expected = subgroups[a] <= subgroups[b] or subgroups[b] <= subgroups[a]
                assert adj(a, b) == expected


def test_prime_cyclic_power_graphs_complete():
    for p in (2, 3, 5, 7, 11):
        assert power_graph(cyclic(p)).edge_count == p * (p - 1) // 2


def test_identity_is_universal():
    for g in family_groups(36):
        if g.order >= 2:
            graph = power_graph(g)
            assert sum(g.identity in edge for edge in graph.edges()) == g.order - 1
            assert has_universal_vertex(graph)


def test_z2_times_z3_looks_like_z6():
    product = direct_product(cyclic(2), cyclic(3))
    z6 = cyclic(6)
    assert sorted(product.element_orders) == sorted(z6.element_orders)
    iso, _ = are_isomorphic(power_graph(product), power_graph(z6))
    assert iso


def test_trivial_factor_changes_nothing():
    g = symmetric(3)
    left = power_graph(direct_product(cyclic(1), g))
    assert graphs_equal_labeled(left, power_graph(g))


def test_powers_walk_to_the_identity():
    for g in family_groups(36):
        for a in range(g.order):
            walk = g.powers(a)
            assert len(set(walk)) == len(walk) == g.element_orders[a], (g.name, a)
            assert walk[-1] == g.identity
            for k, b in enumerate(walk, 1):
                assert k in exponent_set_window(g, a, b, len(walk)), (g.name, a, k)


def test_power_graph_builds_no_weight_rows(monkeypatch):
    family = family_groups(36)
    expected = [power_graph(g) for g in family]

    def refuse(group):
        raise AssertionError(f"weight rows of {group.name} built")
    monkeypatch.setattr("powergraphs.power.power_weights", refuse)
    for g, graph in zip(family, expected):
        assert graphs_equal_labeled(power_graph(g), graph), g.name


def arc_power_graph(g):
    """Oracle: each arc a -> a^k, k = 2..o(a), handed to SimpleGraph one at a time."""
    return SimpleGraph(g.element_names, ((a, x) for a in range(g.order) for x in g.powers(a)[1:]))


def test_power_graph_matches_arc_oracle_on_family_products():
    family = family_groups(36)
    groups = family + [direct_product(g1, g2) for g1 in family for g2 in family
                       if g1.order * g2.order <= 36]
    for g in groups:
        want = arc_power_graph(g)
        for got in (power_graph(g), power_graph_bundle(g).graph):
            assert got.labels == want.labels, g.name
            assert got.edges() == want.edges(), g.name


@pytest.mark.parametrize("spec", ["C2000", "D1000", "Q8xC125"])
def test_power_graph_matches_arc_oracle_on_large_groups(spec):
    g = parse_group_spec(spec)
    want = arc_power_graph(g)
    got = power_graph(g)
    assert got.edge_count == want.edge_count
    assert graphs_equal_labeled(got, want)
    assert got.labels == want.labels


def test_subgroup_rows_need_one_generator_per_subgroup():
    """power_graph and the power join pass only the divisor powers x^t,
    t | o, one generator of each subgroup, as the members of a cyclic
    subgroup; its whole walk must give the same rows."""
    groups = family_groups(144) + [parse_group_spec(spec) for spec in ("S5", "D1000", "C2000", "Q8xC125")]
    for g in groups:
        walks, subgroup, _ = g.cyclic_subgroups
        own = [sum(1 << x for x in walk) for walk in walks]
        divisors = [[walk[t - 1] for t in range(1, len(walk) + 1) if len(walk) % t == 0] for walk in walks]
        assert _subgroup_rows(own, walks, subgroup) == _subgroup_rows(own, divisors, subgroup), g.name


def test_bundle_walks_each_cyclic_subgroup_once(monkeypatch):
    family = family_groups(36)
    walked = []

    def counting(original):
        def counted(self, a):
            walked.append((self, a))
            return original(self, a)
        return counted
    # Groups built by a rule walk by their own powers(), and a product walks
    # its factors too; each walk is recorded with the group it walks in.
    for cls in {c for g in family for c in type(g).__mro__ if "powers" in vars(c)}:
        monkeypatch.setattr(cls, "powers", counting(vars(cls)["powers"]))
    for g in family:
        walked.clear()
        bundle = power_graph_bundle(g)
        rows = list(bundle.weights)
        generalized_product_graph(bundle.graph, bundle.weights, bundle.graph, bundle.weights)
        own = [a for group, a in walked if group is g]
        # One walk per cyclic subgroup, from the first of its generators.
        subgroups = {frozenset(powers(g, a)) for a in range(g.order)}
        assert len(own) == len(set(own)) == len(subgroups), g.name
        assert {frozenset(powers(g, a)) for a in own} == subgroups, g.name
        assert all(a == min(x for x in range(g.order) if frozenset(powers(g, x)) == frozenset(powers(g, a)))
                   for a in own), g.name
        assert graphs_equal_labeled(bundle.graph, arc_power_graph(g))
        assert rows == [{x: APPair(t, len(walk)) for t, x in enumerate(walk, 1)}
                        for walk in (powers(g, a) for a in range(g.order))], g.name


def test_window_for_identity():
    assert exponent_set_window(cyclic(2), 0, 0, 6) == {1, 2, 3, 4, 5, 6}


def test_window_z6():
    z6 = cyclic(6)
    # powers of 2 run 2, 4, 0, 2, ... so 4 first appears at exponent 2
    assert exponent_set_window(z6, 2, 4, 9) == {2, 5, 8}
    assert exponent_set_window(z6, 2, 3, 9) == set()


def test_window_bound_validation():
    z6 = cyclic(6)
    with pytest.raises(ValueError):
        exponent_set_window(z6, 2, 4, 0)
    with pytest.raises(ValueError):
        exponent_set_window(z6, 2, 4, 31)  # cap is 10 * o(2) = 30
    with pytest.raises(IndexError, match="element 6 out of range for group of order 6"):
        exponent_set_window(z6, 6, 0, 1)
    with pytest.raises(IndexError, match="element -1 out of range for group of order 6"):
        exponent_set_window(z6, 0, -1, 1)


def test_window_matches_progression_membership():
    for g in family_groups(16):
        w = power_weights(g)
        for a in range(g.order):
            bound = 3 * g.element_orders[a]
            for b in range(g.order):
                brute = exponent_set_window(g, a, b, bound)
                assert brute == {m for m in range(1, bound + 1) if ap_contains(w[a].get(b, SENTINEL), m)}
