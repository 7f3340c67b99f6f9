"""Acceptance gate: the seven headline checks, one printed line each.

Each test computes its verdict, reports it through the acceptance_report
fixture (which also feeds the end-of-run summary), and only then asserts.
Criteria 2 to 5 read the reports of one verify_all sweep, so they check
the paper's claims through the same code as `powergraphs verify-all`.
"""

import time

import pytest

from powergraphs import (
    APPair,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    aps_intersect_oracle,
    aps_intersect_positively,
    cyclic,
    direct_product,
    direct_product_graph,
    group_from_cayley_table,
    normal_product_graph,
    power_graph,
)
from powergraphs.verify import family_groups, verify_all
from helpers import first_violation


@pytest.fixture(scope="module")
def reports():
    """verify_all's reports at max order 36, seed 0, by claim."""
    return {report.claim: report for report in verify_all(max_order=36, seed=0)}


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


def test_criterion_2_product_identity_sweep(acceptance_report, reports):
    report = reports["power-product-identity"]
    pairs, elapsed = len(report.instances), report.wall_time
    ok = pairs == 169 and report.passed and elapsed < 10.0
    acceptance_report(2, "weighted product identity sweep", ok, f"{pairs} pairs, {elapsed:.2f} s")
    assert pairs == 169
    assert report.passed, report.failures()
    assert elapsed < 10.0


def test_criterion_3_classical_weight_suites(acceptance_report, reports):
    suites = [reports[f"classical-weights-{kind}"] for kind in ("direct", "cartesian", "normal")]
    total = sum(len(report.instances) for report in suites)
    failures = [f"{report.claim}: {r.subject}" for report in suites for r in report.failures()]
    ok = total == 150 and not failures
    acceptance_report(3, "classical weight constructions", ok, f"{total} trials")
    assert total == 150
    assert not failures, failures


def test_criterion_4_cartesian_obstruction(acceptance_report, reports):
    report = reports["cartesian-obstruction"]
    pairs = len(report.instances)
    ok = pairs == 130 and report.passed
    acceptance_report(4, "cartesian product obstruction", ok, f"{pairs} nontrivial pairs")
    assert pairs == 130
    assert report.passed, report.failures()


def test_criterion_5_exponent_windows(acceptance_report, reports):
    report = reports["exponent-window"]
    family = family_groups(36)
    # One instance per group, covering all of its ordered pairs.
    covered = [r.subject for r in report.instances] == [g.name for g in family]
    checked = sum(g.order * g.order for g in family)
    ok = covered and len(family) == 20 and checked == 1606 and report.passed
    acceptance_report(5, "exponent window agreement", ok,
                      f"{len(family)} groups, {checked} ordered pairs")
    assert covered
    assert len(family) == 20 and checked == 1606
    assert report.passed, report.failures()


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


def test_criterion_7_group_axioms(acceptance_report):
    family = family_groups(36)
    build_failures = [g.name for g in family if not _revalidates(g)]
    assoc_failures = [g.name for g in family if first_violation(g.table) is not None]
    corpus_failures = [name for name, table, err in MALFORMED if not _rejects(table, err)]
    ok = not build_failures and not assoc_failures and not corpus_failures
    acceptance_report(7, "group axiom validation", ok,
                      f"{len(family)} groups revalidated, "
                      f"{len(MALFORMED)} malformed tables rejected")
    assert not build_failures, build_failures
    assert not assoc_failures, assoc_failures
    assert not corpus_failures, corpus_failures
