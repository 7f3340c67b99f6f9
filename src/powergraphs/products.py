"""Products of simple graphs on the vertex set V(a) x V(b).

All four constructions share the pair encoding (i, j) -> i*|V(b)| + j used
by group direct products, so a product of power graphs can be compared to
the power graph of a product group by labeled equality.

Terminology note: "cartesian" here moves along one coordinate with the
other fixed (the box product) and "normal" is the union of direct and
cartesian adjacency (elsewhere called the strong product).
"""

from collections.abc import Callable
from itertools import chain
from math import gcd

from .graphs import SimpleGraph
from .progressions import APPair, SENTINEL, WeightTable, aps_intersect_positively

DEFAULT_SIZE_CAP = 10000

CLASSICAL_KINDS = ("direct", "cartesian", "normal")
PRODUCT_KINDS = (*CLASSICAL_KINDS, "generalized")

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


def classical_product(kind: str) -> tuple[Callable[[SimpleGraph, SimpleGraph], SimpleGraph], str, str]:
    """The constructor of a classical product, and the classical_weights kinds
    of its left and right factors under which the weighted product reproduces it."""
    # Built per call, so a constructor rebound on this module (as bench/tracing.py does) is used.
    cases = {"direct": (direct_product_graph, "direct", "direct"),
             "cartesian": (cartesian_product_graph, "cartesian-left", "cartesian-right"),
             "normal": (normal_product_graph, "normal", "normal")}
    if kind not in cases:
        raise ValueError(f"unknown product kind {kind!r}; expected one of {', '.join(cases)}")
    return cases[kind]


def generalized_product_graph(a: SimpleGraph, wa: WeightTable,
                              b: SimpleGraph, wb: WeightTable) -> SimpleGraph:
    """Weighted product: distinct pairs are adjacent iff the two factors'
    progressions meet in a common positive integer, in either consistent
    orientation.  The factor edge sets themselves are not consulted; the
    weight tables alone decide adjacency.
    """
    _check_weights(a, wa, "left")
    _check_weights(b, wb, "right")
    return SimpleGraph(_product_labels(a, b), _generalized_arcs(wa, wb, b.vertex_count))


def _generalized_arcs(wa: WeightTable, wb: WeightTable, nb: int):
    """Every arc x = (g1, g2) -> y = (h1, h2), x != y, whose forward cells meet.

    An edge meets in one orientation or the other, so it is the arc x -> y or
    the arc y -> x; SimpleGraph merges a pair found from both ends.  Two
    positive-step progressions AP(t1, s1) and AP(t2, s2) meet iff
    t1 = t2 mod gcd(s1, s2), so for each pair of steps the targets of both
    rows are bucketed by start residue and matching buckets are joined
    without a test.  When a step is 0 both sides are bucketed by start, and
    each pair of starts is decided by aps_intersect_positively.
    """
    # The right rows' buckets are met again for every g1 and are kept; the
    # left row's are needed only while g1 is the current row.
    memo_b = {}
    steps_b = [{step for _, step in row.values()} for row in wb]
    for g1, row1 in enumerate(wa):
        memo_a = {}
        steps1 = {step for _, step in row1.values()}
        for g2, steps2 in enumerate(steps_b):
            x = g1 * nb + g2
            for s1 in steps1:
                for s2 in steps2:
                    d = gcd(s1, s2) if s1 and s2 else 0
                    # Targets come scaled ready to add: h1 * nb on the left, h2 on the right.
                    left = _buckets(memo_a, wa, g1, s1, d, nb)
                    right = _buckets(memo_b, wb, g2, s2, d, 1)
                    if d:
                        meeting = [(left[r], right[r]) for r in left.keys() & right.keys()]
                    else:
                        meeting = [(ys1, ys2) for t1, ys1 in left.items() for t2, ys2 in right.items()
                                   if aps_intersect_positively(APPair(t1, s1), APPair(t2, s2))]
                    for ys1, ys2 in meeting:
                        for y1 in ys1:
                            for y2 in ys2:
                                if y1 + y2 != x:
                                    yield x, y1 + y2


def _buckets(memo: dict, w: WeightTable, g: int, step: int, d: int, scale: int) -> dict[int, list[int]]:
    """The targets of row g whose cell has this step, times scale, keyed by
    start mod d, or by start when d is 0; memoised on (g, step, d)."""
    key = (g, step, d)
    buckets = memo.get(key)
    if buckets is None:
        buckets = memo[key] = {}
        for target, (start, s) in w[g].items():
            if s == step:
                buckets.setdefault(start % d if d else start, []).append(target * scale)
    return buckets


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
    if len(w) != n or any(not 0 <= b < n or step < 0 for row in w for b, (_, step) in row.items()):
        raise ValueError(f"{side} weight table needs {n} rows with targets in 0..{n - 1} and steps >= 0")
