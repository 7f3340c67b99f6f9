"""Verification sweeps over built-in group families and random graphs.

Each claim checks one exact statement about power graphs and products:

  power-product-identity   the power graph of G1 x G2 is labeled-equal to
                           the weighted product of P(G1) and P(G2) under
                           power weights
  cartesian-obstruction    for nontrivial factors the cartesian product is
                           never isomorphic to the power graph of the
                           product group (the power graph has a universal
                           vertex, the cartesian product cannot)
  exponent-window          brute-force exponent sets match progression
                           membership on the window [1, 3*o(a)]
  classical-weights-*      the weighted product reproduces the direct,
                           cartesian, and normal products under the
                           classical weight tables, on seeded random graphs

Failures never raise; they land in the report with a counterexample dump.
"""

import random
import time
from itertools import compress
from typing import NamedTuple

from . import graphs
from .graphs import SimpleGraph, are_isomorphic, graphs_equal_labeled, has_universal_vertex
from .groups import FiniteGroup, direct_product
from .groupspec import parse_group_spec
from .power import PowerGraphBundle, power_graph, power_graph_bundle, power_weights, exponent_set_window
from .products import (CLASSICAL_KINDS, cartesian_product_graph, classical_product, classical_weights,
                       generalized_product_graph)
from .progressions import SENTINEL, ap_contains

DEFAULT_MAX_ORDER = 36
DEFAULT_SEED = 0
RANDOM_TRIALS = 50
RANDOM_MAX_VERTICES = 8

FAMILY_SPECS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
                "C11", "C12", "C2xC2", "C2xC4", "D3", "D4", "D5", "Q8", "S3", "S4")


class InstanceResult(NamedTuple):
    subject: str
    passed: bool
    detail: str = ""


class VerificationReport:
    """One claim's instances and the wall time spent on them; verify_all adds to both."""

    def __init__(self, claim: str, instances: list[InstanceResult] | None = None,
                 wall_time: float = 0.0):
        self.claim = claim
        self.instances = [] if instances is None else instances
        self.wall_time = wall_time

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def failures(self) -> list[InstanceResult]:
        return [inst for inst in self.instances if not inst.passed]


def family_groups(max_order: int = DEFAULT_MAX_ORDER) -> list[FiniteGroup]:
    """Built-in sweep family, restricted to groups of order <= max_order."""
    groups = [parse_group_spec(spec) for spec in FAMILY_SPECS]
    return [g for g in groups if g.order <= max_order]


def edge_set_difference(left: SimpleGraph, right: SimpleGraph) -> str:
    """Counterexample dump: the symmetric difference of the edge sets, labeled.

    It is read off the XOR of the two graphs' rows, bits above u only, one
    row's bits at a time through graphs._bits, so it takes memory in
    proportion to the difference and one row, not to the graphs.
    """
    n = max(left.vertex_count, right.vertex_count)
    rows_left, rows_right = (g._rows + [0] * (n - g.vertex_count) for g in (left, right))
    only_left, only_right = [], []
    for u, (row_left, row_right) in enumerate(zip(rows_left, rows_right)):
        for v in compress(range(u + 1, n), graphs._bits((row_left ^ row_right) >> u + 1)):
            graph, pairs = (left, only_left) if row_left >> v & 1 else (right, only_right)
            pairs.append(f"{graph.labels[u]}--{graph.labels[v]}")
    return f"only in left: {{{', '.join(only_left)}}}; only in right: {{{', '.join(only_right)}}}"


def check_power_product_pair(b1: PowerGraphBundle, b2: PowerGraphBundle,
                             pg: SimpleGraph) -> InstanceResult:
    """Power graph pg of G1 x G2 vs weighted product of the factor power graphs."""
    subject = f"{b1.group.name} x {b2.group.name}"
    right = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    if graphs_equal_labeled(pg, right):
        return InstanceResult(subject, True, f"{pg.edge_count} edges on each side")
    return InstanceResult(
        subject, False,
        f"left has {pg.edge_count} edges, right has {right.edge_count}; "
        + edge_set_difference(pg, right))


def check_cartesian_obstruction(b1: PowerGraphBundle, b2: PowerGraphBundle,
                                pg: SimpleGraph) -> InstanceResult:
    """Non-isomorphism of pg = P(G1 x G2) and the cartesian product, with certificates."""
    subject = f"{b1.group.name} x {b2.group.name}"
    cart = cartesian_product_graph(b1.graph, b2.graph)
    iso, witness = are_isomorphic(pg, cart)
    problems = []
    if iso:
        problems.append(f"graphs are isomorphic via {witness}")
    if not has_universal_vertex(pg):
        problems.append("power graph lacks a universal vertex")
    if has_universal_vertex(cart):
        problems.append("cartesian product has a universal vertex")
    if problems:
        return InstanceResult(subject, False, "; ".join(problems))
    return InstanceResult(
        subject, True,
        f"power graph {pg.edge_count} edges with universal vertex, "
        f"cartesian {cart.edge_count} edges without")


def check_exponent_windows(g: FiniteGroup) -> InstanceResult:
    """Brute-force exponent sets vs progression membership, all ordered pairs."""
    weights = power_weights(g)
    for a in range(g.order):
        bound = 3 * g.element_orders[a]
        # Each read of a power weight row builds it, so the row is read once.
        row = weights[a]
        for b in range(g.order):
            brute = exponent_set_window(g, a, b, bound)
            cell = row.get(b, SENTINEL)
            via_ap = {m for m in range(1, bound + 1) if ap_contains(cell, m)}
            if brute != via_ap:
                return InstanceResult(
                    g.name, False,
                    f"pair ({g.element_names[a]}, {g.element_names[b]}): "
                    f"iteration gives {sorted(brute)}, progression gives {sorted(via_ap)}")
    return InstanceResult(g.name, True, f"{g.order * g.order} ordered pairs checked")


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return SimpleGraph([str(v) for v in range(n)], edges)


def check_classical_weights(kind: str, seed: int = DEFAULT_SEED) -> list[InstanceResult]:
    """Weighted product vs one classical product on seeded random graph pairs."""
    classical, left_kind, right_kind = classical_product(kind)
    rng = random.Random(f"{seed}:{kind}")
    results = []
    for trial in range(RANDOM_TRIALS):
        a = random_graph(rng, rng.randint(1, RANDOM_MAX_VERTICES))
        b = random_graph(rng, rng.randint(1, RANDOM_MAX_VERTICES))
        subject = (f"trial {trial:02d}: {a.vertex_count}x{b.vertex_count} vertices, "
                   f"{a.edge_count}+{b.edge_count} edges")
        expected = classical(a, b)
        got = generalized_product_graph(a, classical_weights(left_kind, a),
                                        b, classical_weights(right_kind, b))
        if graphs_equal_labeled(expected, got):
            results.append(InstanceResult(subject, True, f"{expected.edge_count} edges"))
        else:
            results.append(InstanceResult(subject, False, edge_set_difference(expected, got)))
    return results


def verify_all(max_order: int = DEFAULT_MAX_ORDER,
               seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Run every claim over the family and return one report per claim."""
    # The cartesian-obstruction claim tests each product for isomorphism.
    cap = graphs.DEFAULT_ISO_CAP
    if not 1 <= max_order <= cap:
        raise ValueError(f"max order {max_order} is outside the isomorphism cap 1..{cap}")
    family = family_groups(max_order)
    identity_report = VerificationReport("power-product-identity")
    obstruction_report = VerificationReport("cartesian-obstruction")
    reports = [identity_report, obstruction_report]

    # Both claims share the factor bundles and P(G1 x G2); their builds
    # count towards the first.
    start = time.perf_counter()
    bundles = [power_graph_bundle(g) for g in family]
    identity_report.wall_time += time.perf_counter() - start
    pairs = [(b1, b2) for b1 in bundles for b2 in bundles
             if b1.group.order * b2.group.order <= max_order]
    for b1, b2 in pairs:
        start = time.perf_counter()
        pg = power_graph(direct_product(b1.group, b2.group))
        identity_report.instances.append(check_power_product_pair(b1, b2, pg))
        identity_report.wall_time += time.perf_counter() - start
        if b1.group.order > 1 and b2.group.order > 1:
            start = time.perf_counter()
            obstruction_report.instances.append(check_cartesian_obstruction(b1, b2, pg))
            obstruction_report.wall_time += time.perf_counter() - start

    start = time.perf_counter()
    instances = [check_exponent_windows(g) for g in family]
    reports.append(VerificationReport("exponent-window", instances,
                                      time.perf_counter() - start))

    for kind in CLASSICAL_KINDS:
        start = time.perf_counter()
        instances = check_classical_weights(kind, seed=seed)
        reports.append(VerificationReport(f"classical-weights-{kind}", instances,
                                          time.perf_counter() - start))

    return reports


def format_reports(reports: list[VerificationReport], max_order: int, seed: int) -> str:
    """Deterministic summary table plus a block per failing instance."""
    reports = sorted(reports, key=lambda r: r.claim)
    width = max(len(r.claim) for r in reports)
    lines = [f"verification summary (max-order={max_order}, seed={seed})", ""]
    lines.append(f"{'claim'.ljust(width)}  total  pass  fail")
    for report in reports:
        n_fail = len(report.failures())
        n_total = len(report.instances)
        lines.append(f"{report.claim.ljust(width)}  {n_total:5d}  {n_total - n_fail:4d}  {n_fail:4d}")
    lines.append("")
    for report in reports:
        for inst in report.failures():
            lines.append(f"FAIL {report.claim} [{inst.subject}]: {inst.detail}")
    overall = all(report.passed for report in reports)
    lines.append(f"result: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines)
