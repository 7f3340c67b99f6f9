"""Verification sweeps and their report plumbing."""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

import powergraphs.groups
import powergraphs.power
import powergraphs.products
import powergraphs.verify
from powergraphs import (
    APPair,
    SimpleGraph,
    are_isomorphic,
    cartesian_product_graph,
    cyclic,
    direct_product,
    direct_product_graph,
    generalized_product_graph,
    group_from_cayley_table,
    has_universal_vertex,
    normal_product_graph,
    parse_group_spec,
    power_graph,
    power_graph_bundle,
    power_weights,
)
from powergraphs.cli import main
from powergraphs.verify import (
    FAMILY_SPECS,
    InstanceResult,
    VerificationReport,
    check_cartesian_obstruction,
    check_classical_weights,
    check_exponent_windows,
    check_power_product_pair,
    edge_set_difference,
    family_groups,
    format_reports,
    random_graph,
    verify_all,
)


def test_passing_sweep_builds_no_pair_label(monkeypatch):
    # Product element names and product graph labels are built on first
    # read, and a passing sweep reads neither.
    calls = []

    def counting(left, right):
        calls.append((left, right))
        return pair_labels(left, right)

    pair_labels = powergraphs.groups._pair_labels
    for module in (powergraphs.groups, powergraphs.products):
        monkeypatch.setattr(module, "_pair_labels", counting)
    reports = verify_all(max_order=36)
    assert all(report.passed for report in reports)
    assert calls == []


def test_family_respects_max_order():
    names = [g.name for g in family_groups(36)]
    assert len(names) == len(FAMILY_SPECS) == 20
    assert [g.name for g in family_groups(1)] == ["C1"]
    assert "S4" not in [g.name for g in family_groups(16)]


def test_product_pair_check_passes():
    result = check_power_product_pair(power_graph_bundle(cyclic(2)), power_graph_bundle(cyclic(3)),
                                      power_graph(direct_product(cyclic(2), cyclic(3))))
    assert result.passed
    assert result.subject == "C2 x C3"
    assert "13 edges" in result.detail


def test_cartesian_obstruction_passes():
    bundle = power_graph_bundle(cyclic(2))
    result = check_cartesian_obstruction(bundle, bundle,
                                         power_graph(direct_product(cyclic(2), cyclic(2))))
    assert result.passed
    assert "universal vertex" in result.detail


def test_exponent_window_check():
    result = check_exponent_windows(cyclic(6))
    assert result.passed
    assert "36 ordered pairs" in result.detail


def test_random_graph_is_seeded():
    a = random_graph(random.Random(4), 6)
    b = random_graph(random.Random(4), 6)
    assert a.edges() == b.edges()
    assert a.vertex_count == 6


def test_classical_weight_trials():
    for kind in ("direct", "cartesian", "normal"):
        results = check_classical_weights(kind, seed=0)
        assert len(results) == 50
        assert all(r.passed for r in results)


def test_verify_all_default_family():
    reports = verify_all(max_order=36, seed=0)
    by_claim = {r.claim: r for r in reports}
    assert sorted(by_claim) == [
        "cartesian-obstruction",
        "classical-weights-cartesian",
        "classical-weights-direct",
        "classical-weights-normal",
        "exponent-window",
        "power-product-identity",
    ]
    assert all(r.passed for r in reports)
    assert len(by_claim["power-product-identity"].instances) == 169
    assert len(by_claim["cartesian-obstruction"].instances) == 130
    assert len(by_claim["exponent-window"].instances) == 20


def test_verify_all_builds_each_product_group_once(monkeypatch):
    calls = []

    def counted(g1, g2):
        calls.append((g1.name, g2.name))
        return direct_product(g1, g2)

    monkeypatch.setattr(powergraphs.verify, "direct_product", counted)
    reports = verify_all(max_order=36, seed=0)
    by_claim = {r.claim: r for r in reports}
    subjects = [inst.subject for inst in by_claim["power-product-identity"].instances]
    assert [f"{a} x {b}" for a, b in calls] == subjects
    assert len(calls) == 169
    assert all(r.passed for r in reports)


def test_verify_all_builds_each_factor_bundle_once(monkeypatch):
    built, weighed = [], []

    def counted_bundle(g):
        built.append(g.name)
        return power_graph_bundle(g)

    def counted_weights(g):
        weighed.append(g.name)
        return power_weights(g)

    monkeypatch.setattr(powergraphs.verify, "power_graph_bundle", counted_bundle)
    # A power_graph that went through a bundle would be counted too.
    monkeypatch.setattr(powergraphs.power, "power_graph_bundle", counted_bundle)
    # The bundles reach power_weights through powergraphs.power, the
    # exponent windows through powergraphs.verify.
    monkeypatch.setattr(powergraphs.power, "power_weights", counted_weights)
    monkeypatch.setattr(powergraphs.verify, "power_weights", counted_weights)
    reports = verify_all(max_order=36, seed=0)
    family = [g.name for g in family_groups(36)]
    assert built == family and len(built) == 20
    # P(G1 x G2) of the 169 product groups is built from no weight rows.
    assert weighed == family + family
    assert all(r.passed for r in reports)


def test_verify_all_reads_the_iso_cap_at_call_time(monkeypatch):
    monkeypatch.setattr("powergraphs.graphs.DEFAULT_ISO_CAP", 6)
    with pytest.raises(ValueError, match=r"max order 7 is outside the isomorphism cap 1\.\.6"):
        verify_all(max_order=7, seed=0)
    assert all(report.passed for report in verify_all(max_order=6, seed=0))


def test_verify_all_trivial_order():
    reports = verify_all(max_order=1, seed=0)
    by_claim = {r.claim: r for r in reports}
    # no nontrivial pairs exist, so the obstruction claim is vacuous
    assert by_claim["cartesian-obstruction"].instances == []
    assert by_claim["cartesian-obstruction"].passed
    assert by_claim["power-product-identity"].passed


def test_format_reports_deterministic():
    text = format_reports(verify_all(max_order=12, seed=0), 12, 0)
    again = format_reports(verify_all(max_order=12, seed=0), 12, 0)
    assert text == again
    assert text.splitlines()[0] == "verification summary (max-order=12, seed=0)"
    assert text.splitlines()[-1] == "result: PASS"
    assert "power-product-identity" in text


def test_format_reports_shows_failures():
    bad = VerificationReport("sample-claim", [InstanceResult("case", False, "details here")])
    text = format_reports([bad], 36, 0)
    assert "FAIL sample-claim [case]: details here" in text
    assert text.splitlines()[-1] == "result: FAIL"
    assert not bad.passed
    assert len(bad.failures()) == 1


def test_edge_set_difference_output():
    left = SimpleGraph(["a", "b", "c"], [(0, 1)])
    right = SimpleGraph(["a", "b", "c"], [(1, 2)])
    assert edge_set_difference(left, right) == "only in left: {a--b}; only in right: {b--c}"


def set_edge_set_difference(left, right):
    """Oracle: the dump from a set of edge tuples per graph."""
    edges_left = set(left.edges())
    edges_right = set(right.edges())

    def fmt(graph, pairs):
        return "{" + ", ".join(f"{graph.labels[u]}--{graph.labels[v]}" for u, v in sorted(pairs)) + "}"

    return (f"only in left: {fmt(left, edges_left - edges_right)}; "
            f"only in right: {fmt(right, edges_right - edges_left)}")


def test_edge_set_difference_matches_set_oracle_on_planted_differences():
    rng = random.Random(43)
    for _ in range(300):
        left = random_graph(rng, rng.randint(1, 9))
        # The right graph may have fewer or more vertices, and its own labels.
        n = max(1, left.vertex_count + rng.choice((-2, -1, 0, 0, 0, 1, 2)))
        edges = {(u, v) for u, v in left.edges() if v < n}
        for _ in range(rng.randint(0, 4)):
            if n > 1:
                edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        right = SimpleGraph([f"r{v}" for v in range(n)], edges)
        assert edge_set_difference(left, right) == set_edge_set_difference(left, right)
        assert edge_set_difference(right, left) == set_edge_set_difference(right, left)
        assert edge_set_difference(left, left) == "only in left: {}; only in right: {}"


def test_edge_set_difference_takes_memory_for_the_difference_only():
    # P(C2000) has 1,777,660 edges: as a set of edge tuples per graph the
    # dump peaked at 365 MiB under tracemalloc.
    left = power_graph(cyclic(2000))
    rows = list(left._rows)
    rows[1] ^= 1 << 2
    rows[2] ^= 1 << 1
    right = SimpleGraph._of_rows(left.labels, rows)
    tracemalloc.start()
    try:
        text = edge_set_difference(left, right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "only in left: {1--2}; only in right: {}"
    assert peak < 2**20, peak


def test_cartesian_obstruction_names_each_problem():
    # Passing the cartesian product itself as P(G1 x G2) breaks both certificates.
    bundle = power_graph_bundle(cyclic(2))
    cart = cartesian_product_graph(bundle.graph, bundle.graph)
    result = check_cartesian_obstruction(bundle, bundle, cart)
    assert not result.passed
    assert result.detail == "graphs are isomorphic via [0, 1, 2, 3]; power graph lacks a universal vertex"


def first_nonempty_altered(build, alter, seen):
    """build, with its first result that has an edge passed through alter.

    seen records that call's number and arguments, its graph and the altered graph.
    """
    calls = []

    def faulty(*args):
        graph = build(*args)
        calls.append(args)
        if seen or not graph.edge_count:
            return graph
        seen.extend((len(calls) - 1, args, graph, alter(graph)))
        return seen[-1]
    return faulty


def without_first_edge(graph):
    return SimpleGraph(graph.labels, graph.edges()[1:])


def with_universal_first_vertex(graph):
    return SimpleGraph(graph.labels, graph.edges() + [(0, v) for v in range(1, graph.vertex_count)])


def run_faulty_sweep(capsys):
    """verify-all --max-order 4 through the CLI: its exit code and FAIL lines."""
    code = main(["verify-all", "--max-order", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "result: FAIL"
    return code, [line for line in lines if line.startswith("FAIL ")]


def test_sweep_dumps_a_product_identity_failure(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(powergraphs.verify, "generalized_product_graph",
                        first_nonempty_altered(generalized_product_graph, without_first_edge, seen))
    assert run_faulty_sweep(capsys) == (1, [
        "FAIL power-product-identity [C1 x C2]: left has 1 edges, right has 0; "
        "only in left: {(0,0)--(0,1)}; only in right: {}"])


def test_sweep_dumps_an_exponent_window_failure(monkeypatch, capsys):
    def corrupted(g):
        # Power weights are read-only; their rows, copied, are a plain table.
        weights = list(power_weights(g))
        if g.name == "C4":
            weights[1][3] = APPair(1, 4)  # 1^3 = 3 in C4, so the start is 3
        return weights
    monkeypatch.setattr(powergraphs.verify, "power_weights", corrupted)
    assert run_faulty_sweep(capsys) == (1, [
        "FAIL exponent-window [C4]: pair (1, 3): iteration gives [3, 7, 11], progression gives [1, 5, 9]"])


def test_sweep_dumps_a_cartesian_obstruction_failure(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(powergraphs.verify, "cartesian_product_graph",
                        first_nonempty_altered(cartesian_product_graph, with_universal_first_vertex, seen))
    assert run_faulty_sweep(capsys) == (1, [
        "FAIL cartesian-obstruction [C2 x C2]: cartesian product has a universal vertex"])
    assert seen[3].edge_count == seen[2].edge_count + 1 == 5


def test_sweep_dumps_a_classical_weights_failure(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(powergraphs.products, "direct_product_graph",
                        first_nonempty_altered(direct_product_graph, without_first_edge, seen))
    code, fails = run_faulty_sweep(capsys)
    # Each trial builds one direct product, so the call number is the trial's.
    trial, (left, right), graph, _ = seen
    subject = (f"trial {trial:02d}: {left.vertex_count}x{right.vertex_count} vertices, "
               f"{left.edge_count}+{right.edge_count} edges")
    u, v = graph.edges()[0]
    assert (code, fails) == (1, [
        f"FAIL classical-weights-direct [{subject}]: "
        f"only in left: {{}}; only in right: {{{graph.labels[u]}--{graph.labels[v]}}}"])


def permutation_closure(*generators):
    """The permutation group generated by the given image tuples, as a validated table."""
    elements = [tuple(range(len(generators[0])))]
    seen = set(elements)
    for p in elements:
        for g in generators:
            q = tuple(p[x] for x in g)
            if q not in seen:
                seen.add(q)
                elements.append(q)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(p[x] for x in q)] for q in elements] for p in elements]


def dicyclic(n):
    """Dic_n of order 4n: a^k b^s with a^(2n) = 1, b^2 = a^n and b a^m = a^-m b."""
    def mul(k, s, m, t):
        if not s:
            return (k + m) % (2 * n), t
        # a^k b a^m b^t = a^(k-m) b^(1+t), and b^2 = a^n.
        return ((k - m + n * t) % (2 * n), 1 - t)

    elements = [(k, s) for s in (0, 1) for k in range(2 * n)]
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(*x, *y)] for y in elements] for x in elements]


def test_is_abelian_agrees_with_the_pairwise_check():
    rng = random.Random(0)
    # The family starts at C1, which has no generators.
    groups = family_groups() + [group_from_cayley_table(dicyclic(3), "Dic3"),
                                group_from_cayley_table(dicyclic(4), "Q16")]
    for g in (groups[-1], direct_product(cyclic(3), cyclic(4))):
        perm = rng.sample(range(g.order), g.order)
        table = [[0] * g.order for _ in range(g.order)]
        for i, row in enumerate(g.table):
            for j, v in enumerate(row):
                table[perm[i]][perm[j]] = perm[v]
        groups.append(group_from_cayley_table(table, f"relabelled {g.name}"))
    groups += map(parse_group_spec, ("D4xC3", "Q8xC6", "S3xS3", "C2xC2xC2"))
    verdicts = {g.name: g.is_abelian() for g in groups}
    assert verdicts == {g.name: all(row[j] == g.table[j][i] for i, row in enumerate(g.table)
                                    for j in range(g.order)) for g in groups}
    assert set(verdicts.values()) == {True, False}
    assert verdicts["C1"] and verdicts["C2xC2xC2"] and not verdicts["S3xS3"]


def universal_vertices(g):
    """Elements u such that every x is a power of u or u a power of x."""
    powers = [set(g.powers(a)) for a in range(g.order)]
    return sum(all(x in powers[u] or u in powers[x] for x in range(g.order))
               for u in range(g.order))


def test_direct_and_normal_products_differ_from_the_power_graph():
    extras = {
        "A4": group_from_cayley_table(permutation_closure((1, 2, 0, 3), (1, 0, 3, 2)), "A4"),
        "A5": group_from_cayley_table(permutation_closure((1, 2, 0, 3, 4), (0, 1, 3, 4, 2)), "A5"),
        "Dic3": group_from_cayley_table(dicyclic(3), "Dic3"),
        "Q16": group_from_cayley_table(dicyclic(4), "Q16"),
    }
    assert {name: (g.order, universal_vertices(g)) for name, g in extras.items()} == {
        "A4": (12, 1), "A5": (60, 1), "Dic3": (12, 1), "Q16": (16, 2)}
    assert not extras["Dic3"].is_abelian() and not extras["Q16"].is_abelian()
    family = [g for g in family_groups(36) if g.order > 1]
    pairs = [(g1, g2) for g1 in family for g2 in family if g1.order * g2.order <= 36]
    small = {g.name: g for g in family if g.name in ("C2", "C3", "S3")}
    for extra in extras.values():
        pairs += [(extra, small["C2"]), (extra, small["C3"]), (extra, small["S3"]),
                  (small["C2"], extra)]
    assert len(pairs) == 146
    for g1, g2 in pairs:
        p1, p2 = power_graph(g1), power_graph(g2)
        pg = power_graph(direct_product(g1, g2))
        subject = f"{g1.name} x {g2.name}"
        # The identity is universal in every power graph, never in a direct
        # product of graphs on two or more vertices each.
        assert has_universal_vertex(pg), subject
        assert not has_universal_vertex(direct_product_graph(p1, p2)), subject
        # The normal product holds every edge of the power graph and more.
        assert set(pg.edges()) < set(normal_product_graph(p1, p2).edges()), subject


def test_isomorphic_power_graphs_have_equal_order_histograms():
    """Groups with isomorphic power graphs have the same number of elements
    of each order (Cameron, J. Group Theory 13, 2010): checked on every
    same-order pair of family products up to order 72 that iso calls isomorphic."""
    family = family_groups()
    products = [direct_product(g1, g2) for g1 in family for g2 in family if g1.order * g2.order <= 72]
    graphs = list(map(power_graph, products))
    pairs = [(i, j) for i, j in combinations(range(len(products)), 2) if products[i].order == products[j].order]
    isomorphic = [(i, j) for i, j in pairs if are_isomorphic(graphs[i], graphs[j])[0]]
    assert (len(products), len(pairs), len(isomorphic)) == (306, 1854, 273)
    for i, j in isomorphic:
        assert Counter(products[i].element_orders) == Counter(products[j].element_orders), \
            f"{products[i].name} and {products[j].name}"


def test_universal_vertex_beside_the_identity_iff_cyclic_or_generalised_quaternion():
    """P(G) has a universal vertex other than the identity iff G is cyclic of
    order at least 2 or generalised quaternion (Cameron & Ghosh, Discrete
    Math. 311, 2011).  Dic_n is generalised quaternion iff n is a power of 2."""
    quaternion = {"Q8", "Dic2", "Dic4", "Dic8"}
    groups = family_groups() + [group_from_cayley_table(dicyclic(n), f"Dic{n}") for n in range(2, 13)]
    seen = set()
    for g in groups:
        n = g.order
        others = [u for u, row in enumerate(power_graph(g)._rows) if u != g.identity and row.bit_count() == n - 1]
        cyclic_group = n >= 2 and max(g.element_orders) == n
        assert bool(others) == (cyclic_group or g.name in quaternion), g.name
        seen.add((bool(others), cyclic_group))
    assert seen == {(True, True), (True, False), (False, False)}
