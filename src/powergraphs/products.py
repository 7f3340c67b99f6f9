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


def _product_labels(a: SimpleGraph, b: SimpleGraph) -> list[str]:
    n = a.vertex_count * b.vertex_count
    if n > DEFAULT_SIZE_CAP:
        raise SizeCap(f"product on {n} vertices exceeds cap {DEFAULT_SIZE_CAP}")
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
    na, nb = a.vertex_count, b.vertex_count
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
    normal kind on both factors yields the normal product.  Non-adjacent
    distinct pairs always carry the sentinel.
    """
    if kind not in _WEIGHT_CASES:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {', '.join(_WEIGHT_CASES)}")
    arc, diagonal = _WEIGHT_CASES[kind]
    n = g.vertex_count
    return [[arc if g.adjacent(u, v) else diagonal if u == v else SENTINEL
             for v in range(n)]
            for u in range(n)]


def _check_weights(g: SimpleGraph, w: WeightTable, side: str) -> None:
    n = g.vertex_count
    if len(w) != n or any(len(row) != n for row in w):
        raise ValueError(f"{side} weight table does not cover all ordered vertex pairs")
