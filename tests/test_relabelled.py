"""Relabelled Cayley tables through every layer.

Cyclic, dihedral and product groups walk their powers by a rule.  A
relabelled copy of each one's table, validated as an untrusted Cayley table,
walks them in the table, and the index order of its elements, so its chosen
generators, exponents and join keys, differ.  Power graphs, the power join
and the CLI must agree on both, up to the relabelling.
"""

import random

import pytest

from powergraphs import (SimpleGraph, direct_product, generalized_product_graph, graphs_equal_labeled,
                         group_from_cayley_table, power_graph, power_weights)
from powergraphs.groupspec import parse_group_spec
from powergraphs.verify import FAMILY_SPECS
from helpers import random_relabelling, relabel_table, run, write_table

SPECS = (*FAMILY_SPECS, "Q8xC3", "S3xS3", "C2xC2xC2xC3", "D12", "C60", "C4xC6")
PAIRS = (("Q8", "C6"), ("D6", "C4"), ("S3", "C2xC2"), ("C12", "D4"), ("S4", "C3"), ("C2xC4", "C6"))


def copies(g, count=3):
    """count (perm, group) pairs: g's table relabelled by perm, validated."""
    rng = random.Random(g.name)
    for _ in range(count):
        perm = random_relabelling(g, rng)
        yield perm, group_from_cayley_table(relabel_table(g.table, perm), name=f"{g.name}'")


def relabel_graph(graph, perm):
    """graph with vertex x renamed perm[x]."""
    return SimpleGraph(map(str, range(len(perm))), ((perm[u], perm[v]) for u, v in graph.edges()))


def power_join(g1, g2):
    return generalized_product_graph(power_graph(g1), power_weights(g1), power_graph(g2), power_weights(g2))


@pytest.mark.parametrize("spec", SPECS)
def test_power_graph_of_a_relabelled_table(spec):
    g = parse_group_spec(spec)
    want = power_graph(g)
    for perm, copy in copies(g):
        assert graphs_equal_labeled(power_graph(copy), relabel_graph(want, perm)), perm


@pytest.mark.parametrize("spec1, spec2", PAIRS)
def test_power_join_of_relabelled_factors(spec1, spec2):
    g1, g2 = parse_group_spec(spec1), parse_group_spec(spec2)
    want = power_join(g1, g2)
    for (perm1, h1), (perm2, h2) in zip(copies(g1), copies(g2)):
        # (x1, x2) is x1 * n2 + x2 on both sides.
        perm = [p1 * g2.order + p2 for p1 in perm1 for p2 in perm2]
        got = power_join(h1, h2)
        assert graphs_equal_labeled(got, relabel_graph(want, perm)), (perm1, perm2)
        product = direct_product(h1, h2)
        assert graphs_equal_labeled(got, power_graph(product)), (perm1, perm2)
        # Its identity (e1, e2) is off index 0 here; its table names it too.
        assert product.table[product.identity] == list(range(product.order)), (perm1, perm2)


def write_copy(path, g):
    """A cayley: spec of g's table relabelled; an 'x' before an atom would end its path."""
    write_table(path, relabel_table(g.table, random_relabelling(g, random.Random(g.name))))
    return f"cayley:{path}"


@pytest.mark.parametrize("spec", ["Q8xC6", "S3xC2xC2", "D4xC3", "C2xC4xC6", "S4xC2"])
def test_stats_on_a_relabelled_product_table(tmp_path, capsys, spec):
    code, want, _ = run(capsys, "stats", spec)
    assert code == 0
    code, got, _ = run(capsys, "stats", write_copy(tmp_path / "g.tbl", parse_group_spec(spec)))
    assert code == 0
    # The file's stem names the group, and the identity is its index in the file.
    skip = ("group: ", "identity: ")
    assert [line for line in got.splitlines() if not line.startswith(skip)] == \
           [line for line in want.splitlines() if not line.startswith(skip)]


@pytest.mark.parametrize("spec1, spec2", PAIRS)
def test_verify_theorem_on_relabelled_factor_tables(tmp_path, capsys, spec1, spec2):
    code, want, _ = run(capsys, "verify-theorem", spec1, spec2)
    assert code == 0 and ": PASS (" in want
    files = [write_copy(tmp_path / f"g{i}.tbl", parse_group_spec(spec)) for i, spec in enumerate((spec1, spec2))]
    code, got, _ = run(capsys, "verify-theorem", *files)
    assert code == 0 and ": PASS (" in got
    # The same edge count on each side.
    assert got.split(": PASS ")[1] == want.split(": PASS ")[1]
