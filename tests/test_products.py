"""The four graph products and the weight constructions behind them."""

import itertools
import random
import tracemalloc
from collections import Counter
from math import gcd
from types import SimpleNamespace

import pytest

import powergraphs.products
from powergraphs import (
    APPair,
    SENTINEL,
    SimpleGraph,
    SizeCap,
    are_isomorphic,
    aps_intersect_positively,
    cartesian_product_graph,
    classical_weights,
    cyclic,
    direct_product,
    direct_product_graph,
    generalized_product_graph,
    graphs_equal_labeled,
    normal_product_graph,
    power_graph,
    power_graph_bundle,
    quaternion8,
)
from powergraphs.cli import main
from powergraphs.groupspec import parse_group_spec
from powergraphs.power import PowerWeights
from powergraphs.products import CLASSICAL_KINDS, classical_product
from powergraphs.verify import RANDOM_TRIALS, check_classical_weights, family_groups
from helpers import adjacency, labels, random_gnp


def k2():
    return SimpleGraph(["0", "1"], [(0, 1)])


def test_k2_product_trio():
    direct = direct_product_graph(k2(), k2())
    cartesian = cartesian_product_graph(k2(), k2())
    normal = normal_product_graph(k2(), k2())
    assert direct.edge_count == 2
    assert cartesian.edge_count == 4
    assert cartesian.degree_sequence() == [2, 2, 2, 2]  # the 4-cycle
    assert normal.edge_count == 6  # K4


def test_product_labels_use_pair_names():
    got = direct_product_graph(k2(), k2())
    assert got.labels == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def pair_oracle(left, right):
    """Eager oracle: the label "(a,b)" of each pair, one f-string each."""
    return [f"({a},{b})" for a in left for b in right]


@pytest.mark.parametrize("specs", [("C1", "C1"), ("C1", "D3"), ("Q8", "C1"), ("C2xS3", "C4"),
                                   ("D4", "C3xC2xC1")])
def test_products_build_labels_names_and_edge_counts_on_first_read(specs):
    # A product group as a factor makes each product below a nested one.
    g1, g2 = map(parse_group_spec, specs)
    (a, wa), (b, wb) = ((bundle.graph, bundle.weights) for bundle in map(power_graph_bundle, (g1, g2)))
    group = direct_product(g1, g2)
    built = [build(a, b) for build in (direct_product_graph, cartesian_product_graph, normal_product_graph)]
    built += [generalized_product_graph(a, wa, b, wb),
              generalized_product_graph(a, classical_weights("normal", a), b, classical_weights("normal", b)),
              power_graph(group)]
    nested = direct_product_graph(built[1], a)
    for g in (a, b, *built, nested):
        assert not {"labels", "edge_count"} & vars(g).keys()
    for g in (g1, g2, group):
        # D<n>, Q8 and S<n> are given their names; products name their pairs when read.
        assert ("element_names" in vars(g)) == (g.name in ("D3", "Q8", "D4")), g.name
    names = pair_oracle(g1.element_names, g2.element_names)
    assert group.element_names == names
    for g in (*built, nested):
        assert g.labels == (names if g is not nested else pair_oracle(names, a.labels))
        assert g.labels is g.labels and "_labels" not in vars(g)
        assert g.edge_count == len(g.edges())


def test_edge_count_identities():
    rng = random.Random(3)
    for _ in range(100):
        a = random_gnp(rng, rng.randint(1, 8))
        b = random_gnp(rng, rng.randint(1, 8))
        ea, eb = a.edge_count, b.edge_count
        va, vb = a.vertex_count, b.vertex_count
        assert direct_product_graph(a, b).edge_count == 2 * ea * eb
        assert cartesian_product_graph(a, b).edge_count == va * eb + vb * ea
        assert normal_product_graph(a, b).edge_count == 2 * ea * eb + va * eb + vb * ea


def by_rule(a, b, rule):
    """Quadratic reference construction straight from the pair adjacency rule."""
    adj_a, adj_b = adjacency(a), adjacency(b)
    nb = b.vertex_count
    n = a.vertex_count * nb
    edges = []
    for x in range(n):
        u1, u2 = divmod(x, nb)
        for y in range(x + 1, n):
            v1, v2 = divmod(y, nb)
            if rule(adj_a, adj_b, u1, u2, v1, v2):
                edges.append((x, y))
    return SimpleGraph([f"({la},{lb})" for la in a.labels for lb in b.labels], edges)


def direct_rule(adj_a, adj_b, u1, u2, v1, v2):
    return adj_a(u1, v1) and adj_b(u2, v2)


def cartesian_rule(adj_a, adj_b, u1, u2, v1, v2):
    return (u1 == v1 and adj_b(u2, v2)) or (adj_a(u1, v1) and u2 == v2)


def normal_rule(adj_a, adj_b, u1, u2, v1, v2):
    return (direct_rule(adj_a, adj_b, u1, u2, v1, v2)
            or cartesian_rule(adj_a, adj_b, u1, u2, v1, v2))


def test_products_match_pairwise_rules():
    rng = random.Random(5)
    for _ in range(40):
        a = random_gnp(rng, rng.randint(1, 6))
        b = random_gnp(rng, rng.randint(1, 6))
        assert graphs_equal_labeled(direct_product_graph(a, b), by_rule(a, b, direct_rule))
        assert graphs_equal_labeled(cartesian_product_graph(a, b), by_rule(a, b, cartesian_rule))
        assert graphs_equal_labeled(normal_product_graph(a, b), by_rule(a, b, normal_rule))


def product_labels(a, b):
    return [f"({la},{lb})" for la in a.labels for lb in b.labels]


def direct_edges(a, b):
    """Oracle: each pair of factor edges gives the two direct-product edges, one at a time."""
    nb = b.vertex_count
    edges_b = b.edges()
    for u1, v1 in a.edges():
        for u2, v2 in edges_b:
            yield u1 * nb + u2, v1 * nb + v2
            yield u1 * nb + v2, v1 * nb + u2


def cartesian_edges(a, b):
    """Oracle: a copy of b's edges for each vertex of a, and of a's for each vertex of b."""
    nb = b.vertex_count
    edges_b = b.edges()
    for v1 in range(a.vertex_count):
        for u2, v2 in edges_b:
            yield v1 * nb + u2, v1 * nb + v2
    for u1, v1 in a.edges():
        for v2 in range(nb):
            yield u1 * nb + v2, v1 * nb + v2


EDGE_ORACLES = {
    direct_product_graph: direct_edges,
    cartesian_product_graph: cartesian_edges,
    normal_product_graph: lambda a, b: itertools.chain(direct_edges(a, b), cartesian_edges(a, b)),
}


def assert_matches_edge_oracles(a, b):
    for build, oracle in EDGE_ORACLES.items():
        got, want = build(a, b), SimpleGraph(product_labels(a, b), oracle(a, b))
        assert got.labels == want.labels
        assert got.edges() == want.edges(), (build.__name__, a, b)
        assert got.edge_count == want.edge_count


def test_classical_products_match_edge_oracles_on_family_pairs():
    graphs = [power_graph(g) for g in family_groups(36)]
    checked = 0
    for a in graphs:
        for b in graphs:
            if a.vertex_count * b.vertex_count <= 36:
                assert_matches_edge_oracles(a, b)
                checked += 1
    assert checked > 100


def test_classical_products_match_edge_oracles_on_random_graphs():
    rng = random.Random(41)
    special = [SimpleGraph(["*"]), SimpleGraph(list("ab")), SimpleGraph(list("abcd")),
               random_gnp(rng, 5, 1.0), random_gnp(rng, 7, 1.0), k2()]
    for a in special:
        for b in special:
            assert_matches_edge_oracles(a, b)
    for _ in range(60):
        a = random_gnp(rng, rng.randint(1, 12), rng.random())
        b = random_gnp(rng, rng.randint(1, 12), rng.random())
        for x, y in ((a, b), (a, rng.choice(special)), (rng.choice(special), b)):
            assert_matches_edge_oracles(x, y)


def test_classical_products_at_the_size_cap_fit_in_memory():
    # P(C100) has 4430 edges; its square has 10,000 vertices, the size cap.
    p = power_graph(cyclic(100))
    assert p.edge_count == 4430
    tracemalloc.start()
    try:
        normal = normal_product_graph(p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert normal.vertex_count == 10_000
    assert normal.edge_count == 40_135_800 == 2 * 4430 ** 2 + 2 * 100 * 4430
    # The edges as sets took about 11 GB.
    assert peak < 64 * 2**20, peak
    del normal
    assert direct_product_graph(p, p).edge_count == 39_249_800 == 2 * 4430 ** 2
    assert cartesian_product_graph(p, p).edge_count == 886_000 == 2 * 100 * 4430


def test_power_product_keeps_no_int_per_weight_cell():
    # P(Q8) x P(C625): 5000 vertices and 6,963,648 edges.  The subgroup
    # join peaks at about 3.1 MiB, with the bit transpose of its forward
    # rows it took 8.5 MiB, the dict join over the weight rows 19.0 MiB,
    # and keeping one 1 << target int per right cell 45.4 MiB.
    a, b = power_graph_bundle(quaternion8()), power_graph_bundle(cyclic(625))
    tracemalloc.start()
    try:
        product = generalized_product_graph(a.graph, a.weights, b.graph, b.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (product.vertex_count, product.edge_count) == (5000, 6_963_648)
    assert peak < 24 * 2**20, peak


def test_weight_table_values():
    g = k2()
    w = classical_weights("direct", g)
    assert w[0].get(0, SENTINEL) == SENTINEL
    assert w[0].get(1, SENTINEL) == APPair(1, 1)
    w = classical_weights("cartesian-left", g)
    assert w[0].get(1, SENTINEL) == APPair(1, 0)
    assert w[0].get(0, SENTINEL) == APPair(1, 1)
    assert classical_weights("cartesian-right", g)[0].get(1, SENTINEL) == APPair(2, 0)
    edgeless = SimpleGraph(["a", "b"])
    w = classical_weights("normal", edgeless)
    assert w[0].get(0, SENTINEL) == APPair(1, 1) and w[1].get(1, SENTINEL) == APPair(1, 1)
    assert w[0].get(1, SENTINEL) == SENTINEL and w[1].get(0, SENTINEL) == SENTINEL


def test_unknown_weight_kind():
    with pytest.raises(ValueError, match="unknown weight kind"):
        classical_weights("tensor", k2())


def test_classical_weights_match_the_edge_list_construction():
    # Oracle: the diagonal cell, then one write per end of each edge of g.edges().
    cells = {"direct": (APPair(1, 1), SENTINEL), "cartesian-left": (APPair(1, 0), APPair(1, 1)),
             "cartesian-right": (APPair(2, 0), APPair(1, 1)), "normal": (APPair(1, 0), APPair(1, 1))}
    rng = random.Random(32)
    graphs = [power_graph(g) for g in family_groups()] + [SimpleGraph(["0"]), SimpleGraph(labels(9))]
    graphs += [random_gnp(rng, rng.randint(1, 40), rng.random()) for _ in range(60)]
    for kind, (arc, diagonal) in cells.items():
        for g in graphs:
            want = [{} if diagonal == SENTINEL else {u: diagonal} for u in range(g.vertex_count)]
            for u, v in g.edges():
                want[u][v] = want[v][u] = arc
            assert classical_weights(kind, g) == want, (kind, g)


def test_weighted_product_reproduces_classics():
    rng = random.Random(9)
    for _ in range(100):
        a = random_gnp(rng, rng.randint(1, 8))
        b = random_gnp(rng, rng.randint(1, 8))
        direct = generalized_product_graph(a, classical_weights("direct", a),
                                           b, classical_weights("direct", b))
        assert graphs_equal_labeled(direct, direct_product_graph(a, b))
        cartesian = generalized_product_graph(a, classical_weights("cartesian-left", a),
                                              b, classical_weights("cartesian-right", b))
        assert graphs_equal_labeled(cartesian, cartesian_product_graph(a, b))
        normal = generalized_product_graph(a, classical_weights("normal", a),
                                           b, classical_weights("normal", b))
        assert graphs_equal_labeled(normal, normal_product_graph(a, b))


def test_all_sentinel_weights_give_no_edges():
    blank = [{}, {}]
    assert generalized_product_graph(k2(), blank, k2(), blank).edge_count == 0


def test_weights_alone_decide_adjacency():
    # two isolated vertices, but a weight claiming v is the square of u,
    # and the mirrored table claiming u is the square of v
    a = SimpleGraph(["u", "v"])
    b = SimpleGraph(["x"])
    wb = [{0: APPair(1, 1)}]
    for wa in ([{0: APPair(1, 1), 1: APPair(2, 2)}, {1: APPair(1, 1)}],
               [{0: APPair(1, 1)}, {0: APPair(2, 2), 1: APPair(1, 1)}]):
        got = generalized_product_graph(a, wa, b, wb)
        assert got.edge_count == 1 and adjacency(got)(0, 1)


def test_weighted_product_of_power_graphs():
    b1 = power_graph_bundle(cyclic(2))
    b2 = power_graph_bundle(cyclic(3))
    got = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    want = power_graph(direct_product(cyclic(2), cyclic(3)))
    assert graphs_equal_labeled(got, want)
    assert got.edge_count == 13


def test_k1_factors():
    x = random_gnp(random.Random(2), 6)
    k1 = SimpleGraph(["*"])
    assert direct_product_graph(x, k1).edge_count == 0
    assert graphs_equal_labeled(normal_product_graph(k1, x), x)
    assert graphs_equal_labeled(cartesian_product_graph(k1, x), x)


def test_products_commute_up_to_isomorphism():
    rng = random.Random(13)
    for build in (direct_product_graph, cartesian_product_graph, normal_product_graph):
        for _ in range(10):
            a = random_gnp(rng, rng.randint(1, 5))
            b = random_gnp(rng, rng.randint(1, 5))
            iso, _ = are_isomorphic(build(a, b), build(b, a))
            assert iso


def test_size_cap(monkeypatch):
    monkeypatch.setattr("powergraphs.products.DEFAULT_SIZE_CAP", 100)
    big = SimpleGraph(labels(40))
    blank = [{} for _ in range(40)]
    for build in (direct_product_graph, cartesian_product_graph, normal_product_graph):
        with pytest.raises(SizeCap, match="product on 1600 vertices exceeds cap 100"):
            build(big, big)
    with pytest.raises(SizeCap):
        generalized_product_graph(big, blank, big, blank)


def test_weight_table_shape_checked():
    direct = classical_weights("direct", k2())
    # a missing row, on either side
    with pytest.raises(ValueError, match="left weight table"):
        generalized_product_graph(k2(), [{}], k2(), direct)
    with pytest.raises(ValueError, match="right weight table"):
        generalized_product_graph(k2(), direct, k2(), [{1: APPair(1, 1)}])
    # a target outside 0..n-1 would otherwise encode to another pair's vertex
    for row in ({2: APPair(1, 1)}, {-1: APPair(1, 1)}):
        with pytest.raises(ValueError, match="left weight table"):
            generalized_product_graph(k2(), [row, {}], k2(), direct)
    # targets that are not ints: 1.0 would fail later as a shift, True read as vertex 1
    for target in (1.0, True, "1"):
        with pytest.raises(ValueError, match="left weight table"):
            generalized_product_graph(k2(), [{target: APPair(1, 1)}, {}], k2(), direct)
        with pytest.raises(ValueError, match="right weight table"):
            generalized_product_graph(k2(), direct, k2(), [{target: APPair(1, 1)}, {}])
    # rows that are not dicts: the join would read them with .items()
    for row in (None, [], 0, "", {0, 1}, [(1, APPair(1, 1))]):
        with pytest.raises(ValueError, match="left weight table"):
            generalized_product_graph(k2(), [row, {}], k2(), direct)
        with pytest.raises(ValueError, match="right weight table"):
            generalized_product_graph(k2(), direct, k2(), [row, {}])
    # AP(3, -2) would be read as {3, 5, 7, ...} and meet AP(5, 0)
    negative, singleton = [{1: APPair(3, -2)}, {}], [{1: APPair(5, 0)}, {}]
    with pytest.raises(ValueError, match="left weight table .* steps >= 0"):
        generalized_product_graph(k2(), negative, k2(), singleton)
    with pytest.raises(ValueError, match="right weight table .* steps >= 0"):
        generalized_product_graph(k2(), singleton, k2(), negative)


def test_classical_product_pairs_constructor_and_weight_kinds():
    assert classical_product("direct") == (direct_product_graph, "direct", "direct")
    assert classical_product("cartesian") == (cartesian_product_graph, "cartesian-left", "cartesian-right")
    assert classical_product("normal") == (normal_product_graph, "normal", "normal")
    with pytest.raises(ValueError) as info:
        classical_product("generalized")
    assert str(info.value) == "unknown product kind 'generalized'; expected one of direct, cartesian, normal"


@pytest.mark.parametrize("kind", CLASSICAL_KINDS)
def test_classical_constructors_are_looked_up_at_call_time(monkeypatch, kind):
    # The benchmark's tracer rebinds the constructors on the products module
    # after import; the CLI and the sweep must both call the rebound one.
    name = f"{kind}_product_graph"
    original, calls = getattr(powergraphs.products, name), []

    def recording(a, b):
        calls.append((a.vertex_count, b.vertex_count))
        return original(a, b)
    monkeypatch.setattr(powergraphs.products, name, recording)
    assert main(["product", kind, "C2", "C3"]) == 0
    assert calls == [(2, 3)]
    assert all(result.passed for result in check_classical_weights(kind))
    assert len(calls) == 1 + RANDOM_TRIALS


def dense_generalized_product(a, wa, b, wb):
    """Oracle: the weighted product as a scan over all pairs of dense tables.

    The rows are expanded to n x n tables with the sentinel in every absent
    cell, and each pair x < y tests both orientations.
    """
    na, nb = a.vertex_count, b.vertex_count
    wa = [[row.get(v, SENTINEL) for v in range(na)] for row in wa]
    wb = [[row.get(v, SENTINEL) for v in range(nb)] for row in wb]
    edges = []
    for g1 in range(na):
        for g2 in range(nb):
            # y walks the indices of the pairs (h1, h2) after x in encoding order.
            x = y = g1 * nb + g2
            row2 = wb[g2]
            for h1 in range(g1, na):
                forward, back = wa[g1][h1], wa[h1][g1]
                for h2 in range(g2 + 1 if h1 == g1 else 0, nb):
                    y += 1
                    if aps_intersect_positively(forward, row2[h2]) or \
                       aps_intersect_positively(back, wb[h2][g2]):
                        edges.append((x, y))
    return SimpleGraph([f"({la},{lb})" for la in a.labels for lb in b.labels], edges)


def dense_meeting_arcs(wa, wb):
    """Oracle: for each x = (g1, g2), the set of y = (h1, h2) != x whose
    forward cells meet, over all pairs, with the sentinel in every absent cell."""
    wa, wb = list(wa), list(wb)
    na, nb = len(wa), len(wb)
    return [{h1 * nb + h2 for h1 in range(na) for h2 in range(nb)
             if (g1, g2) != (h1, h2)
             and aps_intersect_positively(wa[g1].get(h1, SENTINEL), wb[g2].get(h2, SENTINEL))}
            for g1 in range(na) for g2 in range(nb)]


def cells(w):
    return {(g, h): cell for g, row in enumerate(w) for h, cell in row.items()}


def brute_transpose(rows):
    """Oracle: bit x of row y is bit y of rows[x], one bit at a time."""
    return [sum((rows[x] >> y & 1) << x for x in range(len(rows))) for y in range(len(rows))]


def flipped_cells(w):
    return {(h, g): cell for (g, h), cell in cells(w).items()}


def symmetric(w):
    return flipped_cells(w) == cells(w)


@pytest.fixture
def product_calls(monkeypatch):
    """Records the tables and rows of each dict join the products module
    runs and the groups and rows of each power join.  decided holds the
    cell pairs the last dict join tested for intersection, and the fixture
    fails when one join tests a pair twice: the join decides each pair of
    cells once."""
    calls = SimpleNamespace(joins=[], power_joins=[], decided=set())
    join, power_join = powergraphs.products._forward_rows, powergraphs.products._power_rows

    def decided_once(p, q):
        assert (p, q) not in calls.decided, f"decided {p} and {q} twice in one join"
        calls.decided.add((p, q))
        return aps_intersect_positively(p, q)

    def recorded_join(wa, wb, nb):
        calls.decided.clear()
        rows = join(wa, wb, nb)
        calls.joins.append((wa, wb, rows))
        return rows

    def recorded_power_join(g1, g2):
        rows = power_join(g1, g2)
        calls.power_joins.append((g1, g2, rows))
        return rows
    monkeypatch.setattr("powergraphs.products.aps_intersect_positively", decided_once)
    monkeypatch.setattr("powergraphs.products._forward_rows", recorded_join)
    monkeypatch.setattr("powergraphs.products._power_rows", recorded_power_join)
    return calls


def assert_matches_dense(a, wa, b, wb, calls):
    calls.joins.clear()
    calls.power_joins.clear()
    got = generalized_product_graph(a, wa, b, wb)
    assert got.edges() == dense_generalized_product(a, wa, b, wb).edges()
    # Row x of the product is its meeting arcs x -> y, forward, and the
    # arcs y -> x, the transpose of the forward rows.
    forward = [sum(1 << y for y in arcs) for arcs in dense_meeting_arcs(wa, wb)]
    reverse = brute_transpose(forward)
    assert got._rows == [f | r for f, r in zip(forward, reverse)]
    if isinstance(wa, PowerWeights) and isinstance(wb, PowerWeights):
        # Both are power weights: one subgroup join builds the whole rows.
        assert calls.joins == []
        (g1, g2, rows), = calls.power_joins
        assert (g1, g2) == (wa.group, wb.group)
        assert rows == got._rows
        return
    # Else the dict join gives the forward rows, and a second one over the
    # flipped tables the reverse rows, unless both tables equal their flips.
    assert calls.power_joins == []
    (wa1, wb1, rows), *second = calls.joins
    assert (wa1, wb1) == (list(wa), list(wb))
    assert rows == forward
    if symmetric(wa) and symmetric(wb):
        assert second == []
        assert reverse == forward
    else:
        (wa2, wb2, rows), = second
        assert (len(wa2), len(wb2)) == (len(wa), len(wb))
        assert (cells(wa2), cells(wb2)) == (flipped_cells(wa), flipped_cells(wb))
        assert rows == reverse


def test_tables_equal_to_their_flip_take_one_join(product_calls):
    """Classical weight tables are their own flip, so their reverse rows
    are the forward rows: one join builds the product.  Their rows hold at
    most two distinct cells, the arc and the diagonal, so the join tests at
    most 4 pairs of cells, whatever the graph sizes.  One asymmetric table
    brings in the second join, over the flipped tables."""
    rng = random.Random(31)
    for _ in range(40):
        a, b = random_gnp(rng, rng.randint(1, 6)), random_gnp(rng, rng.randint(1, 6))
        for kind in CLASSICAL_KINDS:
            _, left, right = classical_product(kind)
            assert_matches_dense(a, classical_weights(left, a), b, classical_weights(right, b), product_calls)
            assert len(product_calls.joins) == 1
            assert len(product_calls.decided) <= 4
    a, b = random_gnp(rng, 30), random_gnp(rng, 40)
    for kind in CLASSICAL_KINDS:
        constructor, left, right = classical_product(kind)
        product_calls.joins.clear()
        got = generalized_product_graph(a, classical_weights(left, a), b, classical_weights(right, b))
        assert graphs_equal_labeled(got, constructor(a, b))
        assert len(product_calls.joins) == 1
        assert len(product_calls.decided) <= 4
    assert_matches_dense(k2(), classical_weights("normal", k2()), k2(), [{1: APPair(1, 1)}, {}], product_calls)
    assert len(product_calls.joins) == 2


def random_weights(rng, n):
    """Rows with random cells, starts and steps from 0: asymmetric, step 0,
    start 0 and the explicit sentinel all occur."""
    return [{b: APPair(rng.randint(0, 4), rng.randint(0, 4))
             for b in range(n) if rng.random() < 0.5} for _ in range(n)]


def test_sparse_product_matches_dense_scan_on_random_tables(product_calls):
    rng = random.Random(17)
    for _ in range(600):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        a = SimpleGraph(labels(na))
        b = SimpleGraph(labels(nb))
        assert_matches_dense(a, random_weights(rng, na), b, random_weights(rng, nb), product_calls)


def pooled_weights(rng, n, pool):
    """Rows whose cells come from a pool of three, so one cell covers
    several targets, the row's own diagonal among them.  Some rows are
    empty and some hold only the diagonal."""
    rows = []
    for g in range(n):
        shape = rng.random()
        if shape < 0.15:
            rows.append({})
        elif shape < 0.3:
            rows.append({g: rng.choice(pool)})
        else:
            rows.append({h: rng.choice(pool) for h in range(n) if rng.random() < 0.6})
    return rows


def test_block_join_matches_dense_scan_at_mid_size(product_calls):
    rng = random.Random(61)
    sizes = [(1, 1), (1, 12), (14, 1), *((rng.randint(8, 14), rng.randint(8, 14)) for _ in range(12))]
    for na, nb in sizes:
        pool = [APPair(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)]
        a = SimpleGraph(labels(na))
        b = SimpleGraph(labels(nb))
        assert_matches_dense(a, pooled_weights(rng, na, pool), b, pooled_weights(rng, nb, pool), product_calls)


def test_plain_tuple_cells_join_like_appairs():
    """Cells given as plain (start, step) tuples give the same product as
    the same tables written with APPair."""
    assert generalized_product_graph(k2(), [{1: (1, 2)}, {0: (3, 0)}],
                                     k2(), [{1: (1, 4)}, {}]).edges() == [(0, 3)]
    rng = random.Random(53)
    for _ in range(100):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        a = SimpleGraph(labels(na))
        b = SimpleGraph(labels(nb))
        wa, wb = random_weights(rng, na), random_weights(rng, nb)
        ta, tb = ([{t: tuple(cell) for t, cell in row.items()} for row in w] for w in (wa, wb))
        assert generalized_product_graph(a, ta, b, tb).edges() == generalized_product_graph(a, wa, b, wb).edges()


def test_sparse_product_matches_dense_scan_on_power_weights(product_calls):
    """Power weights take the subgroup join, checked arc by arc against the
    dense scan; as dict rows, or beside a dict table, they take the dict join."""
    bundles = [power_graph_bundle(g) for g in family_groups(36)]
    checked = 0
    for b1 in bundles:
        for b2 in bundles:
            if b1.group.order * b2.group.order <= 36:
                assert_matches_dense(b1.graph, b1.weights, b2.graph, b2.weights, product_calls)
                checked += 1
    assert checked > 100
    rng = random.Random(47)
    for b1, b2 in rng.sample([(b1, b2) for b1 in bundles for b2 in bundles
                              if b1.group.order * b2.group.order <= 36], 20):
        as_dicts = [dict(row) for row in b2.weights]
        assert_matches_dense(b1.graph, b1.weights, b2.graph, as_dicts, product_calls)
        assert_matches_dense(b2.graph, as_dicts, b1.graph, b1.weights, product_calls)
        normal = classical_weights("normal", b2.graph)
        assert_matches_dense(b1.graph, b1.weights, b2.graph, normal, product_calls)


def dict_join(b1, b2):
    """The weighted product of two bundles through the dict join, over their
    power weight rows copied into plain dicts."""
    return generalized_product_graph(b1.graph, [dict(row) for row in b1.weights],
                                     b2.graph, [dict(row) for row in b2.weights])


def test_power_join_matches_dict_join_on_family_pairs(product_calls):
    bundles = [power_graph_bundle(g) for g in family_groups(144)]
    pairs = [(b1, b2) for b1 in bundles for b2 in bundles if b1.group.order * b2.group.order <= 144]
    for b1, b2 in pairs:
        product_calls.power_joins.clear()
        got = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
        assert len(product_calls.power_joins) == 1
        want = dict_join(b1, b2)
        assert got.labels == want.labels and graphs_equal_labeled(got, want), (b1.group.name, b2.group.name)
    assert len(pairs) == 379


def dense_band_rows(w1, w2, band):
    """Oracle: the product's row x = (g1, g2) for each g1 in band and every
    g2, from a dense scan of the arcs x -> y and y -> x.  The left rows are
    read one at a time, for the band's columns, so no whole left table is
    held at once."""
    w2 = list(w2)
    n1, n2 = len(w1), len(w2)
    columns = {g1: [] for g1 in band}
    for row in w1:
        for g1, column in columns.items():
            column.append(row.get(g1, SENTINEL))
    rows = {}
    for g1, column in columns.items():
        row1 = w1[g1]
        for g2, row2 in enumerate(w2):
            x = g1 * n2 + g2
            rows[x] = sum(1 << h1 * n2 + h2 for h1 in range(n1) for h2 in range(n2)
                          if h1 * n2 + h2 != x
                          and (aps_intersect_positively(row1.get(h1, SENTINEL), row2.get(h2, SENTINEL))
                               or aps_intersect_positively(column[h1], w2[h2].get(g2, SENTINEL))))
    return rows


@pytest.mark.parametrize("specs", [("Q8", "C125"), ("D50", "C100"), ("C4000", "C2"),
                                   ("C2xC2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2xC2"), ("S5", "D40")])
def test_power_join_matches_dict_join_on_large_pairs(specs):
    b1, b2 = (power_graph_bundle(parse_group_spec(spec)) for spec in specs)
    got = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    assert got.edge_count > 0
    orders = b1.group.element_orders
    if sum(orders) + sum(b2.group.element_orders) < 10**6:
        want = dict_join(b1, b2)
        assert got.labels == want.labels and graphs_equal_labeled(got, want)
        return
    # The dict join would hold every weight cell as a dict item (8.9 M for
    # C4000), so a band of left elements, one of each order, is checked.
    band = {}
    for x, o in enumerate(orders):
        band.setdefault(o, x)
    want = dense_band_rows(b1.weights, b2.weights, sorted(band.values()))
    assert {x: got._rows[x] for x in want} == want


@pytest.mark.parametrize("specs, partners", [(("S4", "D6"), ("C5", "D6", "C8")),
                                              (("Q8", "C10"), ("C125", "D4")),
                                              (("D6", "D6"), ("S3", "C4", "Q8")),
                                              (("C12", "C1"), ("C6", "C2xC2"))])
def test_power_join_reads_residue_caches_filled_by_other_partners(specs, partners):
    """Each factor's residue masks are kept under (subgroup, d, scale).
    Filled first by joins, on either side, with partners of other orders,
    the caches must give the rows that fresh groups and the product group
    give."""
    g1, g2 = (parse_group_spec(spec) for spec in specs)
    if specs[0] == specs[1]:
        g2 = g1
    for spec in partners:
        p = parse_group_spec(spec)
        for g in (g1, g2):
            powergraphs.products._power_rows(g, p), powergraphs.products._power_rows(p, g)
    scales = {scale for g in (g1, g2) for _, _, scale in g._residue_masks}
    assert len(scales) > 2, scales
    got = powergraphs.products._power_rows(g1, g2)
    fresh = powergraphs.products._power_rows(*(parse_group_spec(spec) for spec in specs))
    assert got == fresh == power_graph(direct_product(g1, g2))._rows, specs


def phi(n):
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def cyclic_subgroup_count(g1, g2):
    """Cyclic subgroups of g1 x g2: phi(gcd(|C1|, |C2|)) of them lie over each
    pair of cyclic subgroups C1 of g1 and C2 of g2 (Toth 2012, for abelian groups)."""
    o1, o2 = (Counter(map(len, g.cyclic_subgroups.walks)) for g in (g1, g2))
    return sum(n1 * n2 * phi(gcd(a, b)) for a, n1 in o1.items() for b, n2 in o2.items())


def test_power_join_creates_one_subgroup_per_cyclic_subgroup_of_the_product(monkeypatch):
    created = []

    def recorded(own, members, subgroup):
        created.append(len(own))
        return subgroup_rows(own, members, subgroup)

    subgroup_rows = powergraphs.products._subgroup_rows
    monkeypatch.setattr("powergraphs.products._subgroup_rows", recorded)
    groups = family_groups(144)
    pairs = [(g1, g2) for g1 in groups for g2 in groups if g1.order * g2.order <= 144]
    for g1, g2 in pairs:
        powergraphs.products._power_rows(g1, g2)
        assert created.pop() == cyclic_subgroup_count(g1, g2), (g1.name, g2.name)
    assert len(pairs) == 379
    for specs, count in ((("C30", "C40"), 112), (("Q8", "C125"), 20), (("S4", "D21"), 433),
                         (("D50", "C100"), 672)):
        g1, g2 = map(parse_group_spec, specs)
        powergraphs.products._power_rows(g1, g2)
        assert created.pop() == cyclic_subgroup_count(g1, g2) == count, specs


def test_power_join_of_trivial_groups():
    b = power_graph_bundle(cyclic(1))
    got = generalized_product_graph(b.graph, b.weights, b.graph, b.weights)
    assert (got.vertex_count, got.edge_count, got.labels) == (1, 0, ["(0,0)"])
    assert graphs_equal_labeled(got, dict_join(b, b))


def test_power_weights_shape_checked():
    b = power_graph_bundle(cyclic(3))
    with pytest.raises(ValueError, match="left weight table needs 2 rows"):
        generalized_product_graph(k2(), b.weights, b.graph, b.weights)
    with pytest.raises(ValueError, match="right weight table needs 2 rows"):
        generalized_product_graph(b.graph, b.weights, k2(), b.weights)



@pytest.mark.parametrize("cell", [(1, 2, 3), (1,), None, (1.5, 0), (1, 0.5), [1, 0, 0], (1, -1), ([1], 0)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_malformed_weight_cells_refused(cell, side):
    good = [{1: APPair(1, 1)}, {0: APPair(1, 1)}]
    bad = [{1: cell}, {0: APPair(1, 1)}]
    wa, wb = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(ValueError, match=rf"^{side} weight table needs 2 rows with targets in 0\.\.1 "
                                         r"and cells that are \(start, step\) pairs of ints"):
        generalized_product_graph(k2(), wa, k2(), wb)


@pytest.mark.parametrize("cell", [(True, 1), (1, 1.0), [1, True]])
@pytest.mark.parametrize("side", ["left", "right"])
def test_bad_cells_equal_to_a_good_cell_refused(cell, side):
    # (True, 1) and (1, 1.0) equal APPair(1, 1) and hash like it, so a check
    # that keeps one cell per equal value would read only the good one.
    good = [{1: APPair(1, 1)}, {0: APPair(1, 1)}]
    for bad in ([{0: APPair(1, 1), 1: cell}, {0: APPair(1, 1)}], [{1: APPair(1, 1)}, {0: cell}]):
        wa, wb = (bad, good) if side == "left" else (good, bad)
        with pytest.raises(ValueError, match=rf"^{side} weight table needs 2 rows with targets in 0\.\.1 "):
            generalized_product_graph(k2(), wa, k2(), wb)
    # likewise a True target in one row beside the target 1 in another
    bad = [{1: APPair(1, 1)}, {True: APPair(1, 1)}]
    wa, wb = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(ValueError, match=rf"^{side} weight table needs 2 rows"):
        generalized_product_graph(k2(), wa, k2(), wb)


SPREAD_WIDTHS = {1: (0, 1, 5), 2: (0, 1, 2, 7), 3: (0, 1, 2, 3, 9), 10: (0, 1, 8, 9, 10, 30),
                 11: (0, 1, 9, 10, 11, 33), 25: (0, 1, 24, 25, 75), 40: (0, 1, 38, 39, 40, 120),
                 10000: (0, 1, 2)}


@pytest.mark.parametrize("nb, na", [(nb, na) for nb, widths in SPREAD_WIDTHS.items() for na in widths])
def test_spread_matches_bit_by_bit_oracle(nb, na):
    """Both paths of _spread (the string for thin right factors, the chunked
    multiply otherwise) and their boundary, on rows of 0, 1, nb - 1, nb and
    several chunks' worth of bits: _spread reads the row width as len(rows)."""
    rng = random.Random(na * 100003 + nb)
    samples = (0, (1 << na) - 1, 1 << na >> 1, rng.getrandbits(na))
    for rows in (*([row] * na for row in samples), [rng.getrandbits(na) for _ in range(na)]):
        assert powergraphs.products._spread(rows, nb) == [
            sum(1 << h * nb for h in range(na) if row >> h & 1) for row in rows], rows


def test_list_and_tuple_cells_pass_the_check(product_calls):
    tables = [[{1: APPair(1, 1)}, {0: APPair(2, 0)}], [{1: (1, 1)}, {0: (2, 0)}], [{1: [1, 1]}, {0: [2, 0]}]]
    want = generalized_product_graph(k2(), tables[0], k2(), tables[0])
    for w in tables[1:]:
        assert graphs_equal_labeled(generalized_product_graph(k2(), w, k2(), w), want)
    # Row 0 spells the cell (1, 1) as a list, a tuple and an APPair; the
    # table equals its flip, so one join runs, and it groups the three as one cell.
    mixed = [{0: [1, 1], 1: (1, 1), 2: APPair(1, 1)}, {0: (1, 1), 1: APPair(2, 0)}, {0: APPair(1, 1)}]
    plain = [{target: APPair(*cell) for target, cell in row.items()} for row in mixed]
    g = SimpleGraph(labels(3))
    product_calls.joins.clear()
    want = generalized_product_graph(g, plain, g, plain)
    assert graphs_equal_labeled(generalized_product_graph(g, mixed, g, mixed), want)
    assert len(product_calls.joins) == 2
    cells = {APPair(1, 1), APPair(2, 0)}
    assert product_calls.decided == {(p, q) for p in cells for q in cells}


def test_dict_join_edge_cases(product_calls):
    pair = SimpleGraph(["0", "1"])
    # One arc (0,0) -> (1,1), that is 0 -> 3, per case, in both orientations.
    for p, q, meets in ((APPair(0, 3), APPair(3, 3), True),  # start 0 with a positive step
                        (APPair(0, 2), APPair(1, 2), False),
                        (APPair(7, 4), APPair(1, 6), True),  # start above step; gcd 2
                        (APPair(7, 4), APPair(3, 0), False),  # 3 = 7 mod 4, but 3 < 7
                        (APPair(7, 4), APPair(11, 0), True)):
        for left, right in ((p, q), (q, p)):
            wa, wb = [{1: left}, {}], [{1: right}, {}]
            assert_matches_dense(pair, wa, pair, wb, product_calls)
            assert generalized_product_graph(pair, wa, pair, wb).edges() == ([(0, 3)] if meets else [])
    # Meeting diagonal cells would give the arc x -> x: skipped, not a self-loop.
    diagonal = [{0: APPair(1, 1)}, {1: APPair(2, 2)}]
    assert_matches_dense(pair, diagonal, pair, diagonal, product_calls)
    assert generalized_product_graph(pair, diagonal, pair, diagonal).edge_count == 0
    # Steps up to 12 and starts above them: residues modulo gcds above 4 occur.
    rng = random.Random(29)
    wide = 0
    for _ in range(300):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        wa, wb = ([{t: APPair(rng.randint(0, 24), rng.randint(0, 12)) for t in range(n)
                    if rng.random() < 0.6} for _ in range(n)] for n in (na, nb))
        assert_matches_dense(SimpleGraph(map(str, range(na))), wa,
                             SimpleGraph(map(str, range(nb))), wb, product_calls)
        wide += sum(p.step and q.step and gcd(p.step, q.step) > 4 and p.start != q.start
                    and aps_intersect_positively(p, q)
                    for row1 in wa for p in row1.values() for row2 in wb for q in row2.values())
    assert wide > 0


def test_dict_join_of_the_largest_in_cap_row():
    """Row 0 of a 10,000-vertex left table holds 10,000 distinct cells, the
    most one row can hold within the size cap, so one block takes 10,000
    terms.  Against the right cell (1, 0), the singleton {1}, only target
    1's cell (1, 0) meets: (0, 0) is the sentinel and (t, 0), t >= 2, holds
    t alone.  So the product has the one edge 0 -- 1, whichever way it is read."""
    n = powergraphs.products.DEFAULT_SIZE_CAP
    wa = [{t: APPair(t, 0) for t in range(n)}] + [{} for _ in range(n - 1)]
    got = generalized_product_graph(SimpleGraph(map(str, range(n))), wa, SimpleGraph(["0"]), [{0: APPair(1, 0)}])
    assert got.edges() == [(0, 1)]
