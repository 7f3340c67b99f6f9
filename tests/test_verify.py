"""Verification sweeps and their report plumbing."""

import random

import pytest

import powergraphs.power
import powergraphs.verify
from powergraphs import SimpleGraph, cyclic, direct_product, power_graph, power_graph_bundle
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
    built = []

    def counted(g):
        built.append(g.name)
        return power_graph_bundle(g)

    # power_graph reaches the bundle through powergraphs.power.
    monkeypatch.setattr(powergraphs.verify, "power_graph_bundle", counted)
    monkeypatch.setattr(powergraphs.power, "power_graph_bundle", counted)
    reports = verify_all(max_order=36, seed=0)
    by_claim = {r.claim: r for r in reports}
    products = [inst.subject.replace(" x ", "x") for inst in by_claim["power-product-identity"].instances]
    assert built == [g.name for g in family_groups(36)] + products
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
