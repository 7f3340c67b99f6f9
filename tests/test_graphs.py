"""Graph container, labeled equality, isomorphism, and serialization."""

import itertools
import json
import random
import sys
import tracemalloc

import pytest

from powergraphs import (
    SimpleGraph,
    TooLarge,
    are_isomorphic,
    cyclic,
    dihedral,
    export,
    generalized_product_graph,
    graph_from_json,
    graphs_equal_labeled,
    has_universal_vertex,
    normal_product_graph,
    parse_group_spec,
    power_graph,
    power_graph_bundle,
)
from powergraphs.graphs import EXPORT_FORMATS, _twin_quotient, _upper_items
from powergraphs.verify import FAMILY_SPECS
from helpers import adjacency, labels, random_gnp, run


def relabel(g, perm):
    """Image of g under the vertex permutation v -> perm[v]."""
    n = g.vertex_count
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the vertex indices")
    new_labels = [""] * n
    for v in range(n):
        new_labels[perm[v]] = g.labels[v]
    return SimpleGraph(new_labels, [(perm[u], perm[v]) for u, v in g.edges()])


def complete(n):
    return SimpleGraph(labels(n), [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n):
    return SimpleGraph(labels(n), [(0, v) for v in range(1, n)])


def cycle(n):
    return SimpleGraph(labels(n), [(v, (v + 1) % n) for v in range(n)])


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def check_witness(a, b, perm):
    assert sorted(perm) == list(range(a.vertex_count))
    a_adj, b_adj = adjacency(a), adjacency(b)
    for u in range(a.vertex_count):
        for v in range(u + 1, a.vertex_count):
            assert a_adj(u, v) == b_adj(perm[u], perm[v])


def test_basic_counts():
    g = SimpleGraph(["a", "b", "c"], [(0, 1), (1, 2)])
    assert g.vertex_count == 3
    assert g.edge_count == 2
    adj = adjacency(g)
    assert adj(0, 1) and adj(1, 0)
    assert not adj(0, 2)
    assert g.degree_sequence() == [1, 1, 2]
    assert [v for v in range(3) if adj(1, v)] == [0, 2]


def test_duplicate_edges_collapse():
    g = SimpleGraph(labels(2), [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_rejects_loops_and_bad_indices():
    with pytest.raises(ValueError, match="self-loop"):
        SimpleGraph(labels(2), [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(labels(2), [(0, 2)])


def test_edges_sorted():
    g = SimpleGraph(labels(4), [(3, 2), (1, 0), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]


def test_degree_sequence():
    assert star(4).degree_sequence() == [1, 1, 1, 3]
    assert cycle(5).degree_sequence() == [2] * 5


def test_labeled_equality_ignores_labels():
    a = SimpleGraph(["x", "y"], [(0, 1)])
    b = SimpleGraph(["p", "q"], [(0, 1)])
    assert graphs_equal_labeled(a, b)


def test_labeled_equality_examples():
    k4 = complete(4)
    assert graphs_equal_labeled(k4, complete(4))
    assert not graphs_equal_labeled(k4, star(4))
    # same edge count, different adjacency
    path = SimpleGraph(labels(3), [(0, 1), (1, 2)])
    bent = SimpleGraph(labels(3), [(0, 1), (0, 2)])
    assert not graphs_equal_labeled(path, bent)


def test_relabel_permutes_adjacency():
    g = star(4)
    h = relabel(g, [3, 0, 1, 2])
    adj = adjacency(h)
    assert adj(3, 0) and adj(3, 1) and adj(3, 2)
    assert h.labels[3] == "0"
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2])


def test_iso_rejects_star_vs_complete():
    iso, witness = are_isomorphic(complete(4), star(4))
    assert not iso and witness is None


def test_iso_identity():
    for g in (complete(4), star(5), cycle(6), SimpleGraph([])):
        iso, witness = are_isomorphic(g, g)
        assert iso
        check_witness(g, g, witness)


def test_iso_under_random_relabelings():
    rng = random.Random(7)
    base = [star(6), cycle(6), complete(5),
            SimpleGraph(labels(7), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])]
    for g in base:
        for _ in range(100):
            h = relabel(g, shuffled(rng, g.vertex_count))
            iso, witness = are_isomorphic(g, h)
            assert iso
            check_witness(g, h, witness)


def test_iso_witness_deterministic():
    g = star(6)
    h = relabel(g, [5, 4, 3, 2, 1, 0])
    assert are_isomorphic(g, h)[1] == are_isomorphic(g, h)[1]


def test_iso_agrees_with_permutation_search():
    """Cross-check against trying every bijection on graphs of up to 5 vertices."""
    rng = random.Random(11)

    def brute(a, b):
        if a.vertex_count != b.vertex_count:
            return False
        n = a.vertex_count
        a_adj, b_adj = adjacency(a), adjacency(b)
        return any(all(a_adj(u, v) == b_adj(p[u], p[v])
                       for u in range(n) for v in range(u + 1, n))
                   for p in itertools.permutations(range(n)))

    for _ in range(150):
        n = rng.randint(1, 5)
        a = random_gnp(rng, n)
        if rng.random() < 0.5:
            b = random_gnp(rng, n)
        else:
            b = relabel(a, shuffled(rng, n))
        iso, witness = are_isomorphic(a, b)
        assert iso == brute(a, b)
        assert iso == are_isomorphic(b, a)[0]
        if iso:
            check_witness(a, b, witness)


def random_cubic(rng, n):
    """Pairing model, retried until the graph is simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == 3 * n // 2:
            return SimpleGraph(labels(n), edges)


def triangles(g):
    adj = adjacency(g)
    return sum(1 for u, v in g.edges() for w in range(v + 1, g.vertex_count)
               if adj(u, w) and adj(v, w))


def test_iso_relabelled_power_graphs_of_products():
    rng = random.Random(5)
    for spec in ("S3xS3", "C6xC6xC5"):
        g = power_graph(parse_group_spec(spec))
        h = relabel(g, shuffled(rng, g.vertex_count))
        iso, witness = are_isomorphic(g, h)
        assert iso
        check_witness(g, h, witness)


def test_iso_rejects_cubic_pairs_with_different_triangle_counts():
    # Refinement cannot split a regular graph, so the search does the work.
    rng = random.Random(3)
    for n in (20, 30):
        for _ in range(3):
            a = random_cubic(rng, n)
            b = random_cubic(rng, n)
            while triangles(b) == triangles(a):
                b = random_cubic(rng, n)
            assert are_isomorphic(a, b) == (False, None)


def test_iso_tries_each_vertex_of_the_class():
    """C6 plus two triangles: refinement cannot split it, and vertex 0 of a
    lies on the hexagon while the first vertices of b lie on triangles."""
    hexagon = [(v, (v + 1) % 6) for v in range(6)]
    two_triangles = [(s + i, s + j) for s in (0, 3) for i, j in ((0, 1), (1, 2), (0, 2))]
    a = SimpleGraph(labels(12), hexagon + [(u + 6, v + 6) for u, v in two_triangles])
    b = SimpleGraph(labels(12), two_triangles + [(u + 6, v + 6) for u, v in hexagon])
    iso, witness = are_isomorphic(a, b)
    assert iso
    check_witness(a, b, witness)
    rng = random.Random(6)
    for _ in range(50):
        h = relabel(a, shuffled(rng, 12))
        iso, witness = are_isomorphic(a, h)
        assert iso
        check_witness(a, h, witness)


def test_iso_strongly_regular_pair():
    """Shrikhande graph and 4x4 rook's graph: both SRG(16, 6, 2, 2), not isomorphic."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    shrikhande = SimpleGraph(labels(16), [
        (x, y) for x in range(16) for y in range(x + 1, 16)
        if ((cells[y][0] - cells[x][0]) % 4, (cells[y][1] - cells[x][1]) % 4) in steps])
    rook = SimpleGraph(labels(16), [
        (x, y) for x in range(16) for y in range(x + 1, 16)
        if (cells[x][0] == cells[y][0]) != (cells[x][1] == cells[y][1])])
    assert shrikhande.degree_sequence() == rook.degree_sequence() == [6] * 16
    assert are_isomorphic(shrikhande, rook) == (False, None)
    assert are_isomorphic(rook, shrikhande) == (False, None)
    rng = random.Random(2)
    for g in (shrikhande, rook):
        h = relabel(g, shuffled(rng, 16))
        iso, witness = are_isomorphic(g, h)
        assert iso
        check_witness(g, h, witness)


def latin_square_graph(group):
    """Cells of the Cayley table, adjacent when they share a row, a column or a symbol."""
    n = group.order
    cells = [(i, j, group.table[i][j]) for i in range(n) for j in range(n)]
    return SimpleGraph(labels(n * n), [(x, y) for x in range(n * n) for y in range(x + 1, n * n)
                                       if any(p == q for p, q in zip(cells[x], cells[y]))])


def cliques4(g):
    """Brute-force count of K4 subgraphs."""
    adj = adjacency(g)
    count = 0
    for u, v in g.edges():
        common = [w for w in range(v + 1, g.vertex_count) if adj(u, w) and adj(v, w)]
        count += sum(1 for w, x in itertools.combinations(common, 2) if adj(w, x))
    return count


def test_iso_latin_square_graphs_of_c6_and_s3():
    """Both SRG(36, 15, 6, 6): refinement leaves one class, so the search does the
    work.  Their K4 counts differ, which certifies the answer independently."""
    c6, s3 = (latin_square_graph(parse_group_spec(spec)) for spec in ("C6", "S3"))
    assert c6.degree_sequence() == s3.degree_sequence() == [15] * 36
    assert (cliques4(c6), cliques4(s3)) == (279, 297)
    assert are_isomorphic(c6, s3) == (False, None)
    assert are_isomorphic(s3, c6) == (False, None)
    rng = random.Random(11)
    for g in (c6, s3):
        h = relabel(g, shuffled(rng, 36))
        iso, witness = are_isomorphic(g, h)
        assert iso
        check_witness(g, h, witness)


def test_iso_relabelled_twin_classes_at_the_cap():
    rng = random.Random(4)
    biclique = SimpleGraph(labels(200), [(u, v) for u in range(100) for v in range(100, 200)])
    for g in (complete(200), biclique, power_graph(cyclic(200))):
        h = relabel(g, shuffled(rng, 200))
        iso, witness = are_isomorphic(g, h)
        assert iso
        check_witness(g, h, witness)


def edge_swapped(rng, g, tries):
    """g after random double-edge swaps (uv, xy -> uy, xv), which keep every degree."""
    edges = set(g.edges())
    for _ in range(tries):
        if len(edges) < 2:
            break
        (u, v), (x, y) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            x, y = y, x
        new = {(min(u, y), max(u, y)), (min(x, v), max(x, v))}
        if len({u, v, x, y}) == 4 and not new & edges:
            edges -= {(u, v), (x, y), (y, x)}
            edges |= new
    return SimpleGraph(labels(g.vertex_count), edges)


def test_iso_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    decided = {True: 0, False: 0}
    for i in range(2000):
        n = rng.randint(1, 10)
        a = random_gnp(rng, n, rng.choice((0.3, 0.5, 0.7)))
        # Relabellings, or graphs with the same degrees, so refinement and
        # search rather than the degree test decide most pairs.
        b = edge_swapped(rng, a, 20) if i % 2 else a
        b = relabel(b, shuffled(rng, n))
        na, nb = nx.Graph(), nx.Graph()
        for g, ng in ((a, na), (b, nb)):
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges())
        iso, witness = are_isomorphic(a, b)
        assert iso == nx.is_isomorphic(na, nb)
        assert a.degree_sequence() == b.degree_sequence()
        if iso:
            check_witness(a, b, witness)
        decided[iso] += 1
    assert decided[False] > 250



def blown_up(g, classes):
    """g with vertex u replaced by classes[u] = (size, clique): a clique or an
    independent set of that size, each copy adjacent to every copy of u's neighbours."""
    copies, edges, n = [], [], 0
    for size, clique in classes:
        members = list(range(n, n + size))
        n += size
        copies.append(members)
        if clique:
            edges += itertools.combinations(members, 2)
    edges += [(x, y) for u, v in g.edges() for x in copies[u] for y in copies[v]]
    return SimpleGraph(labels(n), edges)


def test_iso_agrees_with_networkx_on_twin_classes():
    """Half the pairs are relabellings, isomorphic by construction.  The rest
    are edge-swapped copies, or blow-ups of an edge-swapped base with one
    class size throughout, so that the edge counts and often the twin
    classes agree and the search decides.  networkx decides those, with
    could_be_isomorphic (degrees, triangles and cliques per vertex) first,
    since VF2 is slow to refuse twin-rich pairs."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    decided = {True: 0, False: 0}
    searched = 0
    for i in range(800):
        base = random_gnp(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        size = rng.randint(1, 4)
        classes = [(size if i % 4 == 3 else rng.randint(1, 4), rng.random() < 0.5)
                   for _ in range(base.vertex_count)]
        a = blown_up(base, classes)
        n = a.vertex_count
        if i % 2 == 0:
            b = a
        elif i % 4 == 1:
            b = edge_swapped(rng, a, 20)
        else:
            b = blown_up(edge_swapped(rng, base, 20), classes)
        b = relabel(b, shuffled(rng, n))
        iso, witness = are_isomorphic(a, b)
        if i % 2:
            na, nb = nx.Graph(), nx.Graph()
            for g, ng in ((a, na), (b, nb)):
                ng.add_nodes_from(range(n))
                ng.add_edges_from(g.edges())
            assert iso == (nx.could_be_isomorphic(na, nb) and nx.is_isomorphic(na, nb))
        else:
            assert iso
        assert iso == are_isomorphic(b, a)[0]
        if iso:
            check_witness(a, b, witness)
        decided[iso] += 1
        searched += not iso and sorted(_twin_quotient(a._rows)[1]) == sorted(_twin_quotient(b._rows)[1])
    assert decided[False] > 150
    assert searched > 20


def test_iso_equal_degrees_different_twin_classes(monkeypatch):
    """Each pair has equal degree sequences, but only one side has twins:
    the class sizes decide it before any search."""
    hexagon = cycle(6)
    two_triangles = SimpleGraph(labels(6), [(s + i, s + j) for s in (0, 3) for i, j in ((0, 1), (1, 2), (0, 2))])
    k33 = SimpleGraph(labels(6), [(u, v) for u in range(3) for v in range(3, 6)])
    prism = SimpleGraph(labels(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    monkeypatch.setattr("powergraphs.graphs._search", None)
    for a, b in ((hexagon, two_triangles), (k33, prism)):
        assert a.degree_sequence() == b.degree_sequence()
        assert a.edge_count == b.edge_count
        assert are_isomorphic(a, b) == (False, None)
        assert are_isomorphic(b, a) == (False, None)


@pytest.mark.parametrize("n", [9, 12])
def test_iso_power_graph_of_dihedral_group_with_its_reflections_as_one_class(n):
    g = power_graph(dihedral(n))
    classes, color, _ = _twin_quotient(g._rows)
    # The n reflections are open twins: the identity is their only neighbour.
    assert 2 * n in color
    assert [len(members) for members in classes if len(members) == n] == [n]
    h = relabel(g, shuffled(random.Random(n), 2 * n))
    iso, witness = are_isomorphic(g, h)
    assert iso
    check_witness(g, h, witness)


def test_iso_witness_deterministic_on_twin_classes():
    g = power_graph(parse_group_spec("D6xC4"))
    h = relabel(g, shuffled(random.Random(8), g.vertex_count))
    first = are_isomorphic(g, h)[1]
    check_witness(g, h, first)
    assert are_isomorphic(g, h)[1] == first

def test_universal_vertex():
    assert has_universal_vertex(star(4))
    assert has_universal_vertex(complete(3))
    assert has_universal_vertex(SimpleGraph(["v"]))
    assert not has_universal_vertex(cycle(4))
    assert not has_universal_vertex(SimpleGraph(labels(2)))
    assert not has_universal_vertex(SimpleGraph([]))


def test_iso_cap(monkeypatch):
    over = SimpleGraph(labels(201))
    with pytest.raises(TooLarge, match="isomorphism cap is 200 vertices"):
        are_isomorphic(over, complete(3))
    monkeypatch.setattr("powergraphs.graphs.DEFAULT_ISO_CAP", 5)
    assert are_isomorphic(complete(5), complete(5))[0]
    with pytest.raises(TooLarge, match="isomorphism cap is 5 vertices"):
        are_isomorphic(complete(5), SimpleGraph(labels(6)))


def test_export_json_empty():
    assert export(SimpleGraph([]), "json") == '{"vertices":[],"edges":[]}'


def test_export_edgelist_k2():
    assert export(SimpleGraph(["0", "1"], [(0, 1)]), "edgelist") == "0,1"


def test_export_edgelist_sorted_lexicographically():
    # each line keeps the edge's index order; the lines themselves are sorted
    g = SimpleGraph(["b", "a", "c"], [(0, 2), (1, 0)])
    assert export(g, "edgelist") == "b,a\nb,c"


def test_export_dot():
    g = SimpleGraph(["u", "v", "lonely"], [(0, 1)])
    assert export(g, "dot") == 'graph {\n  "lonely";\n  "u" -- "v";\n}'


def test_export_dot_quotes_labels():
    g = SimpleGraph(['say "hi"', "w"], [(0, 1)])
    assert '\\"hi\\"' in export(g, "dot")


def test_export_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        export(SimpleGraph([]), "yaml")


def oracle_edges(g):
    """Edges (u, v), u < v, in order, read one bit at a time."""
    n = g.vertex_count
    return [(u, v) for u in range(n) for v in range(u + 1, n) if g._rows[u] >> v & 1]


def oracle_export(g, fmt):
    """Oracle: the export formats built from a list of edge pairs."""
    edges = oracle_edges(g)
    if fmt == "json":
        return json.dumps({"vertices": g.labels, "edges": edges}, separators=(",", ":"))
    if fmt == "edgelist":
        return "\n".join(sorted(f"{g.labels[u]},{g.labels[v]}" for u, v in edges))

    def quote(label):
        return label.replace("\\", "\\\\").replace('"', '\\"')

    ends = {v for edge in edges for v in edge}
    lines = ["graph {"]
    lines += [f'  "{quote(g.labels[v])}";' for v in range(g.vertex_count) if v not in ends]
    lines += [f'  "{quote(g.labels[u])}" -- "{quote(g.labels[v])}";' for u, v in edges]
    lines.append("}")
    return "\n".join(lines)


def assert_export_matches_oracle(g):
    assert g.edges() == oracle_edges(g)
    for fmt in ("json", "edgelist", "dot"):
        got, want = export(g, fmt), oracle_export(g, fmt)
        if got != want:
            # The first difference, rather than a diff of megabytes of text.
            at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
            pytest.fail(f"{fmt} differs at {at}: {got[at - 20:at + 20]!r} vs {want[at - 20:at + 20]!r}")


def small_graphs():
    for n in range(6):
        yield SimpleGraph(labels(n))
        yield complete(n)
    yield star(7)
    yield cycle(9)


def seeded_random_graphs():
    rng = random.Random(41)
    for density in (0, 0.1, 0.5, 1):
        for _ in range(25):
            yield random_gnp(rng, rng.randint(0, 40), density)


def awkward_label_graphs():
    odd = ['say "hi"', "back\\slash", "a,b", "two words", "line\nbreak", "", "\u00e9t\u00e9",
           "\u2205", "\U0001f600", '\\"', ",", " "]
    rng = random.Random(43)
    for density in (0, 0.1, 0.5, 1):
        for _ in range(10):
            n = rng.randint(0, len(odd))
            g = random_gnp(rng, n, density)
            yield SimpleGraph(rng.sample(odd, n), g.edges())


# Labels that repeat, or that are another label followed by a comma: edgelist
# sorts the lines of such vertices together.
NESTED_KEY_LABELS = ("a", "a,", "a,b", "a,,", "", ",", "(1,2)", "(1,2),x", "10", "2")


def nested_key_graphs():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(0, 14)
        g = random_gnp(rng, n, rng.random())
        yield SimpleGraph(rng.choices(NESTED_KEY_LABELS, k=n), g.edges())


def power_product_graph(left, right):
    b1, b2 = (power_graph_bundle(parse_group_spec(spec)) for spec in (left, right))
    return generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)


POWER_PRODUCT_PAIRS = (("S4", "D21"), ("C20", "C60"), ("Q8", "C125"))


def power_product_graphs():
    for left, right in POWER_PRODUCT_PAIRS:
        yield power_product_graph(left, right)


def closed_classes(g):
    """The number of distinct closed rows row | 1 << u."""
    return len({row | 1 << u for u, row in enumerate(g._rows)})


def disjoint_k2s(n):
    return SimpleGraph(labels(2 * n), [(2 * i, 2 * i + 1) for i in range(n)])


def twin_graphs():
    """Graphs with closed twins, each followed by a relabelling with odd labels
    that puts the twins far apart in the vertex order."""
    rng = random.Random(47)
    graphs = [power_graph(parse_group_spec(spec)) for spec in FAMILY_SPECS]
    graphs += [normal_product_graph(power_graph(parse_group_spec(left)), power_graph(parse_group_spec(right)))
               for left, right in (("C4", "S3"), ("Q8", "C6"), ("D4", "C2xC2"))]
    # The last twin of every class in these has no neighbour above it.
    graphs += [complete(n) for n in (2, 3, 7)] + [disjoint_k2s(n) for n in (1, 4)]
    for g in graphs:
        yield g
        perm = shuffled(rng, g.vertex_count)
        yield SimpleGraph([f'"{v}",' for v in range(g.vertex_count)], relabel(g, perm).edges())


def test_export_matches_oracle_on_small_graphs():
    for g in small_graphs():
        assert_export_matches_oracle(g)


def test_export_matches_oracle_on_random_graphs():
    for g in seeded_random_graphs():
        assert_export_matches_oracle(g)


def test_export_matches_oracle_on_awkward_labels():
    for g in awkward_label_graphs():
        assert_export_matches_oracle(g)


def merges_lines(g):
    """Two vertices with lines, one of whose keys label + "," starts with the other's."""
    keys = [label + "," for u, label in enumerate(g.labels) if g._rows[u] >> u + 1]
    return any(i != j and a.startswith(b) for i, a in enumerate(keys) for j, b in enumerate(keys))


def test_export_matches_oracle_on_nested_keys():
    graphs = list(nested_key_graphs())
    assert sum(map(merges_lines, graphs)) > 150
    for g in graphs:
        assert_export_matches_oracle(g)


@pytest.mark.parametrize("left, right", POWER_PRODUCT_PAIRS)
def test_export_matches_oracle_on_power_graph_products(left, right):
    assert_export_matches_oracle(power_product_graph(left, right))


def test_export_matches_oracle_on_graphs_with_closed_twins():
    graphs = list(twin_graphs())
    # Only P(C1) and the star P(C2xC2) have no twins.
    assert sum(closed_classes(g) < g.vertex_count for g in graphs[::2]) == len(graphs) // 2 - 2
    for g in graphs:
        assert_export_matches_oracle(g)


@pytest.mark.parametrize("graphs", [small_graphs, seeded_random_graphs, awkward_label_graphs,
                                    nested_key_graphs, twin_graphs, power_product_graphs],
                         ids=lambda graphs: graphs.__name__)
def test_cli_streams_the_export_text(monkeypatch, capsys, graphs):
    # build and product write the text a row at a time, with one newline
    # after it, or nothing when the text is empty.
    for g in graphs():
        monkeypatch.setattr("powergraphs.cli.power_graph", lambda group: g)
        monkeypatch.setattr("powergraphs.cli.generalized_product_graph", lambda *args: g)
        for fmt in EXPORT_FORMATS:
            text = export(g, fmt)
            want = (0, text + "\n" if text else "", "")
            assert run(capsys, "build", "C1", "--format", fmt) == want
            assert run(capsys, "product", "generalized", "C1", "C1", "--format", fmt) == want


def brute_upper_items(rows, items):
    return [(items[u], [items[v] for v in range(u + 1, len(rows)) if row >> v & 1])
            for u, row in enumerate(rows) if row >> u + 1]


def test_upper_items_on_closed_rows_whose_hashes_collide():
    # Python hashes a non-negative int modulo sys.hash_info.modulus, so the
    # closed rows c and c + modulus collide.
    modulus, n = sys.hash_info.modulus, 72
    rng = random.Random(53)
    for _ in range(300):
        a = rng.getrandbits(n - 1)
        closed = [a, a + modulus, rng.getrandbits(n)]
        assert hash(closed[0]) == hash(closed[1])
        # Each vertex takes one of the closed rows holding it, or a row of its own.
        rows = []
        for u in range(n):
            holding = [c for c in closed if c >> u & 1]
            c = rng.choice(holding) if holding and rng.random() < 0.8 else rng.getrandbits(n) | 1 << u
            rows.append(c & ~(1 << u) if rng.random() < 0.5 else c)
        items = [f"v{u}" for u in range(n)]
        assert [(u, list(above)) for u, above in _upper_items(rows, items)] == brute_upper_items(rows, items)


def test_edges_share_one_int_per_vertex():
    b1, b2 = (power_graph_bundle(parse_group_spec(spec)) for spec in ("Q8", "C125"))
    g = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    edges = g.edges()
    assert g.vertex_count == 1000
    assert len({id(x) for edge in edges for x in edge}) <= g.vertex_count


def test_json_export_memory_beside_its_text():
    b1, b2 = (power_graph_bundle(parse_group_spec(spec)) for spec in ("D50", "C100"))
    g = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    tracemalloc.start()
    try:
        text = export(g, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Before twins shared their selections the peak was 6.82 MB beside the
    # text (Python 3.11): the edge text is built once more before it is
    # wrapped, and the rest is per-row scratch.
    assert peak - sys.getsizeof(text) < 7_500_000, peak - sys.getsizeof(text)


def test_json_round_trip():
    g = SimpleGraph(["(0,0)", "(0,1)", "(1,0)"], [(0, 1), (0, 2)])
    h = graph_from_json(export(g, "json"))
    assert graphs_equal_labeled(g, h)
    assert h.labels == g.labels


def test_reprs():
    assert repr(SimpleGraph("abc", [(0, 1), (1, 2)])) == "SimpleGraph(3 vertices, 2 edges)"
    # A group built by a rule shows as the FiniteGroup it is.
    assert repr(cyclic(6)) == "FiniteGroup('C6', order=6)"


def test_json_parse_errors():
    with pytest.raises(ValueError):
        graph_from_json("[]")
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": [0], "edges": []}')
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": ["a", "b"], "edges": [[0]]}')
    with pytest.raises(ValueError, match=r'^"edges" must be an array of \[i, j\] pairs$'):
        graph_from_json('{"vertices": ["a", "b"], "edges": {}}')
    with pytest.raises(ValueError, match=r"bad edge entry \[True, False\]"):
        graph_from_json('{"vertices": ["a", "b"], "edges": [[true, false]]}')
    with pytest.raises(json.JSONDecodeError):
        graph_from_json("not json")


def test_json_edge_out_of_range_is_refused_before_it_is_stored():
    # A row sets bit v for the edge (u, v), so the indices are checked first:
    # 1 << 2**62 would need 2**59 bytes.
    for edge, text in (([0, 2**62], "edge (0, 4611686018427387904) out of range for 2 vertices"),
                       ([-1, 0], "edge (-1, 0) out of range for 2 vertices")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                graph_from_json(json.dumps({"vertices": ["a", "b"], "edges": [[0, 1], edge]}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == text
        assert peak < 2**20, peak
