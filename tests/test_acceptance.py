"""Acceptance gate: the seven headline checks, one printed line each.

Each test computes its verdict, reports it through the acceptance_report
fixture (which also feeds the end-of-run summary), and only then asserts.
"""

import time

from powergraphs import (
    APPair,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    SENTINEL,
    ap_contains,
    aps_intersect_oracle,
    aps_intersect_positively,
    are_isomorphic,
    cartesian_product_graph,
    cyclic,
    direct_product,
    direct_product_graph,
    exponent_set_window,
    generalized_product_graph,
    graphs_equal_labeled,
    group_from_cayley_table,
    has_universal_vertex,
    normal_product_graph,
    power_graph,
    power_graph_bundle,
    power_weights,
)
from powergraphs.verify import check_classical_weights, family_groups


def _trio_facts(z2, v4):
    """The three order-4 graphs: star vs complete vs two disjoint edges."""
    pg = power_graph(v4)
    k2 = power_graph(z2)
    normal = normal_product_graph(k2, k2)
    direct = direct_product_graph(k2, k2)
    star_ok = pg.edge_count == 3 and all(v4.identity in edge for edge in pg.edges())
    complete_ok = normal.edge_count == 6 and normal.degree_sequence() == [3, 3, 3, 3]
    return star_ok and complete_ok and direct.edge_count == 2


def test_criterion_1_order_four_trio(acceptance_report):
    z2 = cyclic(2)
    v4 = direct_product(z2, z2)
    _trio_facts(z2, v4)  # warm-up
    start = time.perf_counter()
    facts_ok = _trio_facts(z2, v4)
    elapsed_ms = (time.perf_counter() - start) * 1000
    ok = facts_ok and elapsed_ms < 1.0
    acceptance_report(1, "order-4 product trio", ok, f"{elapsed_ms:.3f} ms")
    assert facts_ok
    assert elapsed_ms < 1.0


def test_criterion_2_product_identity_sweep(acceptance_report):
    family = family_groups(36)
    pairs = [(g1, g2) for g1 in family for g2 in family if g1.order * g2.order <= 36]
    start = time.perf_counter()
    failures = []
    for g1, g2 in pairs:
        left = power_graph(direct_product(g1, g2))
        b1 = power_graph_bundle(g1)
        b2 = power_graph_bundle(g2)
        right = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
        if not graphs_equal_labeled(left, right):
            failures.append(f"{g1.name} x {g2.name}")
    elapsed = time.perf_counter() - start
    ok = len(pairs) >= 60 and not failures and elapsed < 10.0
    acceptance_report(2, "weighted product identity sweep", ok,
                      f"{len(pairs)} pairs, {elapsed:.2f} s")
    assert len(pairs) >= 60
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_3_classical_weight_suites(acceptance_report):
    failures = []
    total = 0
    for kind in ("direct", "cartesian", "normal"):
        results = check_classical_weights(kind, seed=0)
        total += len(results)
        failures += [f"{kind}: {r.subject}" for r in results if not r.passed]
    ok = total == 150 and not failures
    acceptance_report(3, "classical weight constructions", ok, f"{total} trials")
    assert total == 150
    assert not failures, failures


def test_criterion_4_cartesian_obstruction(acceptance_report):
    family = family_groups(16)
    pairs = [(g1, g2) for g1 in family for g2 in family
             if g1.order > 1 and g2.order > 1 and g1.order * g2.order <= 16]
    failures = []
    for g1, g2 in pairs:
        pg = power_graph(direct_product(g1, g2))
        cart = cartesian_product_graph(power_graph(g1), power_graph(g2))
        iso, _ = are_isomorphic(pg, cart)
        if iso or not has_universal_vertex(pg) or has_universal_vertex(cart):
            failures.append(f"{g1.name} x {g2.name}")
    ok = len(pairs) == 36 and not failures
    acceptance_report(4, "cartesian product obstruction", ok,
                      f"{len(pairs)} nontrivial pairs")
    assert len(pairs) == 36
    assert not failures, failures


def test_criterion_5_exponent_windows(acceptance_report):
    checked = 0
    failures = []
    for g in family_groups(36):
        weights = power_weights(g)
        for a in range(g.order):
            bound = 3 * g.element_orders[a]
            for b in range(g.order):
                brute = exponent_set_window(g, a, b, bound)
                via = {m for m in range(1, bound + 1) if ap_contains(weights[a].get(b, SENTINEL), m)}
                checked += 1
                if brute != via:
                    failures.append(f"{g.name}: ({a}, {b})")
    ok = checked > 0 and not failures
    acceptance_report(5, "exponent window agreement", ok, f"{checked} ordered pairs")
    assert checked > 0
    assert not failures, failures


def test_criterion_6_decision_grid(acceptance_report):
    start = time.perf_counter()
    cases = 0
    disagreements = 0
    for pa in range(13):
        for pd in range(13):
            p = APPair(pa, pd)
            for qa in range(13):
                for qd in range(13):
                    q = APPair(qa, qd)
                    cases += 1
                    if aps_intersect_positively(p, q) != aps_intersect_oracle(p, q):
                        disagreements += 1
    elapsed = time.perf_counter() - start
    ok = cases == 28561 and disagreements == 0 and elapsed < 1.0
    acceptance_report(6, "progression decision grid", ok,
                      f"{cases} cases, {disagreements} disagreements, {elapsed:.2f} s")
    assert cases == 28561
    assert disagreements == 0
    assert elapsed < 1.0


MALFORMED = (
    ("out-of-range entry", [[0, 2], [1, 0]], NotClosed),
    ("row repeat", [[0, 1], [1, 1]], NotLatinSquare),
    ("column repeat", [[0, 1], [0, 1]], NotLatinSquare),
    ("no identity", [[0, 1, 2], [2, 0, 1], [1, 2, 0]], NoIdentity),
    ("order-5 loop", [[0, 1, 2, 3, 4],
                      [1, 0, 3, 4, 2],
                      [2, 3, 4, 0, 1],
                      [3, 4, 1, 2, 0],
                      [4, 2, 0, 1, 3]], NotAssociative),
    ("empty table", [], InvalidOrder),
)


def _revalidates(g):
    try:
        rebuilt = group_from_cayley_table(g.table, name=g.name)
    except ValueError:
        return False
    return rebuilt.identity == g.identity and rebuilt.element_orders == g.element_orders


def _rejects(table, err):
    try:
        group_from_cayley_table(table)
    except err:
        return True
    except ValueError:
        return False
    return False


def _fully_associative(g):
    # independent exhaustive scan; every family order is well below 64
    t = g.table
    n = g.order
    return all(t[t[i][j]][k] == t[i][t[j][k]]
               for i in range(n) for j in range(n) for k in range(n))


def test_criterion_7_group_axioms(acceptance_report):
    family = family_groups(36)
    build_failures = [g.name for g in family if not _revalidates(g)]
    assoc_failures = [g.name for g in family if not _fully_associative(g)]
    corpus_failures = [name for name, table, err in MALFORMED if not _rejects(table, err)]
    ok = not build_failures and not assoc_failures and not corpus_failures
    acceptance_report(7, "group axiom validation", ok,
                      f"{len(family)} groups revalidated, "
                      f"{len(MALFORMED)} malformed tables rejected")
    assert not build_failures, build_failures
    assert not assoc_failures, assoc_failures
    assert not corpus_failures, corpus_failures
