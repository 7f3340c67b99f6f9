"""Products of simple graphs on the vertex set V(a) x V(b).

All four constructions share the pair encoding (i, j) -> i*|V(b)| + j used
by group direct products, so a product of power graphs can be compared to
the power graph of a product group by labeled equality.

Terminology note: "cartesian" here moves along one coordinate with the
other fixed (the box product) and "normal" is the union of direct and
cartesian adjacency (elsewhere called the strong product).
"""

from collections.abc import Callable
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


def _spread(rows: list[int], nb: int) -> list[int]:
    """Each row with its bit h moved to bit h * nb.

    Times a row below 2**nb, a spread row sets bit h * nb + v for each bit h
    of its row and v of the other, with no carries: the vertex indices of the
    pairs (h, v).
    """
    gap = "0" * (nb - 1)
    return [int(gap.join(bin(row)[:1:-1])[::-1], 2) for row in rows]


def direct_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """(g1, g2) ~ (h1, h2) iff g1 ~ h1 and g2 ~ h2."""
    labels, nb = _product_labels(a, b), b.vertex_count
    return SimpleGraph._of_rows(labels, [spread1 * row2 for spread1 in _spread(a._rows, nb) for row2 in b._rows])


def cartesian_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """(g1, g2) ~ (h1, h2) iff the pairs agree in one slot and are adjacent in the other."""
    labels, nb = _product_labels(a, b), b.vertex_count
    return SimpleGraph._of_rows(labels, [(row2 << u1 * nb) | (spread1 << u2)
                                         for u1, spread1 in enumerate(_spread(a._rows, nb))
                                         for u2, row2 in enumerate(b._rows)])


def normal_product_graph(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    """Union of direct and cartesian adjacency."""
    labels, nb = _product_labels(a, b), b.vertex_count
    # The closed neighbourhoods multiply to the closed neighbourhood of the pair.
    closed_a, closed_b = ([row | 1 << u for u, row in enumerate(g._rows)] for g in (a, b))
    return SimpleGraph._of_rows(labels, [(spread1 * closed2) ^ (1 << u1 * nb + u2)
                                         for u1, spread1 in enumerate(_spread(closed_a, nb))
                                         for u2, closed2 in enumerate(closed_b)])


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
    labels, nb = _product_labels(a, b), b.vertex_count
    forward = _forward_rows(wa, wb, nb)
    # x ~ y meets in the reverse orientation iff the forward cells from y to x
    # meet, so the transposed tables give the reverse rows: the forward rows
    # again when both tables are symmetric, as classical weights are.
    ta, tb = _transposed(wa), _transposed(wb)
    reverse = forward if (ta, tb) == (wa, wb) else _forward_rows(ta, tb, nb)
    return SimpleGraph._of_rows(labels, [f | r for f, r in zip(forward, reverse)])


def _forward_rows(wa: WeightTable, wb: WeightTable, nb: int) -> list[int]:
    """Row x = (g1, g2): bit y = (h1, h2) set iff y != x and the cells
    wa[g1][h1] and wb[g2][h2] meet in a positive integer.

    Two positive-step progressions AP(t1, s1) and AP(t2, s2) meet iff
    t1 = t2 mod gcd(s1, s2), so for each pair of steps the targets of both
    rows are bucketed by start residue, and each pair of matching buckets
    adds its left mask times its right mask.  When a step is 0 both sides are
    bucketed by start, and each pair of starts is decided once per call by
    aps_intersect_positively.
    """
    # The right rows' buckets are met again for every g1 and are kept; the
    # left row's are needed only while g1 is the current row.
    memo_b = {}
    steps_b = [{step for _, step in row.values()} for row in wb]
    decided = {}
    rows = []
    for g1, row1 in enumerate(wa):
        memo_a = {}
        steps1 = {step for _, step in row1.values()}
        for g2, steps2 in enumerate(steps_b):
            row = 0
            for s1 in steps1:
                for s2 in steps2:
                    d = gcd(s1, s2) if s1 and s2 else 0
                    # Left masks set bit h1 * nb, right masks bit h2.
                    left = _buckets(memo_a, wa, g1, s1, d, nb)
                    right = _buckets(memo_b, wb, g2, s2, d, 1)
                    if d:
                        for r in left.keys() & right.keys():
                            row |= left[r] * right[r]
                    else:
                        for t1, mask1 in left.items():
                            for t2, mask2 in right.items():
                                key = (t1, s1, t2, s2)
                                if key not in decided:
                                    decided[key] = aps_intersect_positively(APPair(t1, s1), APPair(t2, s2))
                                if decided[key]:
                                    row |= mask1 * mask2
            # Meeting diagonal cells would give the arc x -> x: not a self-loop.
            rows.append(row & ~(1 << len(rows)))
    return rows


def _buckets(memo: dict, w: WeightTable, g: int, step: int, d: int, scale: int) -> dict[int, int]:
    """The targets of row g whose cell has this step, as masks with bit
    target * scale, keyed by start mod d, or by start when d is 0; memoised
    on (g, step, d)."""
    key = (g, step, d)
    buckets = memo.get(key)
    if buckets is None:
        buckets = memo[key] = {}
        for target, (start, s) in w[g].items():
            if s == step:
                r = start % d if d else start
                buckets[r] = buckets.get(r, 0) | 1 << target * scale
    return buckets


def _transposed(w: WeightTable) -> WeightTable:
    """Row h of the result maps g to w[g][h]."""
    out = [{} for _ in w]
    for g, row in enumerate(w):
        for h, cell in row.items():
            out[h][g] = cell
    return out


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
