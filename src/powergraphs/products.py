"""Products of simple graphs on the vertex set V(a) x V(b).

All four constructions share the pair encoding (i, j) -> i*|V(b)| + j used
by group direct products, so a product of power graphs can be compared to
the power graph of a product group by labeled equality.

Terminology note: "cartesian" here moves along one coordinate with the
other fixed (the box product) and "normal" is the union of direct and
cartesian adjacency (elsewhere called the strong product).
"""

from itertools import chain

from .graphs import SimpleGraph
from .power import WeightTable
from .progressions import APPair, SENTINEL, aps_intersect_positively

DEFAULT_SIZE_CAP = 10000

PRODUCT_KINDS = ("direct", "cartesian", "normal", "generalized")

# classical_weights: (arc value, diagonal value) per kind.
_WEIGHT_CASES = {
    "direct": (APPair(1, 1), SENTINEL),
    "cartesian-left": (APPair(1, 0), APPair(1, 1)),
    "cartesian-right": (APPair(2, 0), APPair(1, 1)),
    "normal": (APPair(1, 0), APPair(1, 1)),
}


class SizeCap(ValueError):
    pass


def check_product_size(na: int, nb: int) -> None:
    """Refuse a product of factors with na and nb vertices above the size cap."""
    if na * nb > DEFAULT_SIZE_CAP:
        raise SizeCap(f"product on {na * nb} vertices exceeds cap {DEFAULT_SIZE_CAP}")


def _product_labels(a: SimpleGraph, b: SimpleGraph) -> list[str]:
    check_product_size(a.vertex_count, b.vertex_count)
    return [f"({la},{lb})" for la in a.labels for lb in b.labels]


def _direct_edges(a: SimpleGraph, b: SimpleGraph):
    nb = b.vertex_count
    edges_b = b.edges()
    for u1, v1 in a.edges():
        for u2, v2 in edges_b:
            yield u1 * nb + u2, v1 * nb + v2
            yield u1 * nb + v2, v1 * nb + u2


def _cartesian_edges(a: SimpleGraph, b: SimpleGraph):
    nb = b.vertex_count
    edges_b = b.edges()
    for v1 in range(a.vertex_count):
        for u2, v2 in edges_b:
            yield v1 * nb + u2, v1 * nb + v2
    for u1, v1 in a.edges():
        for v2 in range(nb):
            yield u1 * nb + v2, v1 * nb + v2


def direct_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """(g1, g2) ~ (h1, h2) iff g1 ~ h1 and g2 ~ h2."""
    return SimpleGraph(_product_labels(a, b), _direct_edges(a, b))


def cartesian_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """(g1, g2) ~ (h1, h2) iff the pairs agree in one slot and are adjacent in the other."""
    return SimpleGraph(_product_labels(a, b), _cartesian_edges(a, b))


def normal_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """Union of direct and cartesian adjacency."""
    return SimpleGraph(_product_labels(a, b), chain(_direct_edges(a, b), _cartesian_edges(a, b)))


def generalized_product_graph(a: SimpleGraph, wa: WeightTable,
                              b: SimpleGraph, wb: WeightTable) -> SimpleGraph:
    """Weighted product: distinct pairs are adjacent iff the two factors'
    progressions meet in a common positive integer, in either consistent
    orientation.  The factor edge sets themselves are not consulted; the
    weight tables alone decide adjacency.
    """
    _check_weights(a, wa, "left")
    _check_weights(b, wb, "right")
    labels = _product_labels(a, b)
    nb = b.vertex_count
    # Only stored cells can meet a positive integer, so walk the arcs
    # x = (g1, g2) -> y = (h1, h2) whose two forward cells are stored.  When
    # both reverse cells are stored too, y -> x is walked as well and the
    # pair is decided once, at x < y; otherwise only x -> y can meet.
    # arcs_b[g2]: (h2, forward cell, reverse cell or None) per arc g2 -> h2.
    arcs_b = [[(h2, cell, wb[h2].get(g2)) for h2, cell in row.items()] for g2, row in enumerate(wb)]
    edges = []
    for g1, row1 in enumerate(wa):
        for h1, fwd1 in row1.items():
            back1 = wa[h1].get(g1)
            for g2, arcs in enumerate(arcs_b):
                x, y0 = g1 * nb + g2, h1 * nb  # y = (h1, h2) encodes as y0 + h2
                for h2, fwd2, back2 in arcs:
                    if back1 is None or back2 is None:
                        if aps_intersect_positively(fwd1, fwd2):
                            edges.append((x, y0 + h2))
                    elif x < y0 + h2 and (aps_intersect_positively(fwd1, fwd2)
                                          or aps_intersect_positively(back1, back2)):
                        edges.append((x, y0 + h2))
    return SimpleGraph(labels, edges)


def classical_weights(kind: str, g: SimpleGraph) -> WeightTable:
    """Weight tables under which the weighted product reproduces a classical one.

    kind        arc (u ~ v)   diagonal
    direct          (1,1)       (0,0)
    cartesian-left  (1,0)       (1,1)
    cartesian-right (2,0)       (1,1)
    normal          (1,0)       (1,1)

    The direct kind on both factors yields the direct product; the
    cartesian-left/-right pair yields the cartesian product (the disjoint
    singletons {1} and {2} kill the both-coordinates-adjacent case); the
    normal kind on both factors yields the normal product.  Rows store the
    neighbours and a non-sentinel diagonal; every other cell is absent,
    which means the sentinel.
    """
    if kind not in _WEIGHT_CASES:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {', '.join(_WEIGHT_CASES)}")
    arc, diagonal = _WEIGHT_CASES[kind]
    weights = [{} if diagonal == SENTINEL else {u: diagonal} for u in range(g.vertex_count)]
    for u, v in g.edges():
        weights[u][v] = weights[v][u] = arc
    return weights


def _check_weights(g: SimpleGraph, w: WeightTable, side: str) -> None:
    n = g.vertex_count
    if len(w) != n or any(not 0 <= b < n for row in w for b in row):
        raise ValueError(f"{side} weight table needs {n} rows with targets in 0..{n - 1}")
