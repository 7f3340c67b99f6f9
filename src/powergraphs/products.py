"""Products of simple graphs on the vertex set V(a) x V(b).

All four constructions share the pair encoding (i, j) -> i*|V(b)| + j used
by group direct products, so a product of power graphs can be compared to
the power graph of a product group by labeled equality.

Terminology note: "cartesian" here moves along one coordinate with the
other fixed (the box product) and "normal" is the union of direct and
cartesian adjacency (elsewhere called the strong product).
"""

from collections.abc import Callable
from itertools import compress
from math import gcd
from operator import add, mul, or_

from .graphs import SimpleGraph, _bits
from .groups import FiniteGroup, _pair_labels
from .power import PowerWeights, _divisors, _subgroup_rows
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


def _product_labels(a: SimpleGraph, b: SimpleGraph) -> Callable[[], list[str]]:
    """Refuse an over-cap product, and return the builder of its labels "(la,lb)"."""
    check_product_size(a.vertex_count, b.vertex_count)
    return lambda: _pair_labels(a.labels, b.labels)


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
    if isinstance(wa, PowerWeights) and isinstance(wb, PowerWeights):
        return SimpleGraph._of_rows(labels, _power_rows(wa.group, wb.group))
    # Power rows are built here once each: the join and _flip read them.
    wa, wb = list(wa), list(wb)
    forward = _forward_rows(wa, wb, nb)
    # x ~ y meets in the reverse orientation iff the forward arc y -> x
    # meets, so the reverse rows are the forward join over the flipped
    # tables.  Classical weight tables are their own flip.
    flipped = _flip(wa), _flip(wb)
    if flipped == (wa, wb):
        return SimpleGraph._of_rows(labels, forward)
    return SimpleGraph._of_rows(labels, list(map(or_, forward, _forward_rows(*flipped, nb))))


def _flip(w: list[dict[int, APPair]]) -> list[dict[int, APPair]]:
    """The table w' with w'[h][g] = w[g][h] for every stored cell."""
    flipped = [{} for _ in w]
    for g, row in enumerate(w):
        for h, cell in row.items():
            flipped[h][g] = cell
    return flipped


def _forward_rows(wa: WeightTable, wb: WeightTable, nb: int) -> list[int]:
    """Row x = (g1, g2): bit y = (h1, h2) set iff y != x and the cells
    wa[g1][h1] and wb[g2][h2] meet in a positive integer.

    The unit masks are built once per call, bit h2 for a right target and
    bit h1 * nb for a left one, and _cell_masks groups each row's targets
    by cell with them.  A left cell p is decided once per call against
    every distinct right cell, by aps_intersect_positively, and
    meeting[p][g2] is the mask of the right targets h2 whose cells meet p.
    The nb rows of one left row g1 are built at once, as a block: each
    cell p of wa[g1] gives one term, p's left mask times meeting[p][g2]
    for every g2.  The block starts at its first term and adds each later
    one; a row with no cells gives nb zero rows.  Every pair (h1, h2) lies
    under one left cell, and a right mask is below 2**nb, so the terms
    share no bits and the sum is their union.  The block is a list again
    after each term, so no map nests in more than one other.  The arc
    x -> x is not a self-loop: when p covers g1 itself, that bit is split
    off p's mask and multiplied by off[p][g2], meeting[p][g2] without bit
    g2, a copy built once per cell.
    """
    units_b = [1 << h for h in range(nb)]
    units_a = [1 << h * nb for h in range(len(wa))]
    masks_b = [_cell_masks(row, units_b) for row in wb]
    cells_b = {APPair(*q) for masks2 in masks_b for q in masks2}
    meeting, off = {}, {}
    rows = []
    for g1, row1 in enumerate(wa):
        own, block = units_a[g1], None
        for p, mask1 in _cell_masks(row1, units_a).items():
            if p not in meeting:
                met = {q for q in cells_b if aps_intersect_positively(APPair(*p), q)}
                meeting[p] = [sum(mask2 for q, mask2 in masks2.items() if q in met) for masks2 in masks_b]
            if mask1 & own:
                if p not in off:
                    off[p] = [mask2 & ~(1 << g2) for g2, mask2 in enumerate(meeting[p])]
                block = _add_term(block, own, off[p])
                mask1 ^= own
            if mask1:
                block = _add_term(block, mask1, meeting[p])
        rows += block or [0] * nb
    return rows


def _add_term(block: list[int] | None, mask1: int, masks2: list[int]) -> list[int]:
    """The block plus mask1 times each of masks2; the term alone when there is no block yet."""
    term = map(mask1.__mul__, masks2)
    return list(term) if block is None else list(map(add, block, term))


def _cell_masks(row: dict[int, APPair], units: list[int]) -> dict[APPair | tuple[int, int], int]:
    """The OR of units[target] for each cell, keyed by the cell: a list cell
    becomes a tuple, which hashes and compares like the APPair it spells."""
    masks = {}
    try:
        for target, cell in row.items():
            masks[cell] = masks.get(cell, 0) | units[target]
    except TypeError:  # an unhashable cell, a list: key every cell as a tuple
        return _cell_masks({target: tuple(cell) for target, cell in row.items()}, units)
    return masks


def _power_rows(g1: FiniteGroup, g2: FiniteGroup) -> list[int]:
    """The rows of the weighted product under the power weights of g1 and
    g2, one dot product per cyclic subgroup of g1 x g2.

    Write x1 = c1^k1 and x2 = c2^k2, for the chosen generators c1 and c2 of
    their cyclic subgroups, of orders o1 and o2, and let d = gcd(o1, o2).
    The cell (x1, c1^u1) is (t1, o1) with t1 = u1 / k1 mod o1, and likewise
    on the right, so the cells of x1 and x2 meet at (c1^u1, c2^u2) iff
    u1 / k1 = u2 / k2 mod d, that is u2 = u1 * m mod d with m = k2 / k1.
    The forward row of x = (x1, x2) is then the dot product J of c1's
    start-residue masks L[r] (bit h1 * n2 for each h1 = c1^u1, u1 = r mod
    d) with c2's masks R[r * m mod d] (bit h2).  Its arcs x -> y are the
    powers y of x, so J is the mask of the cyclic subgroup K = <x>, and
    the key (c1, c2, m) names K.  The x^t, t dividing |K|, generate K's
    subgroups, and power._subgroup_rows makes the rows.
    """
    walks1 = g1.cyclic_subgroups.walks
    walks2, subgroup2, exponent2 = g2.cyclic_subgroups
    n2 = g2.order
    right = {}  # c2's masks R per (subgroup, d)
    index = {}  # K's index per key
    joined, powers = [], []  # J[K] and the x^t, t | |K|, of one generator x of K
    subgroup = [0] * (g1.order * n2)  # K = <x> per x
    for s1, walk1 in enumerate(walks1):
        o1 = len(walk1)
        left = {}  # c1's masks L per d
        # The generators of <c1> are the c1^k1 with k1 prime to o1.
        for k1, x1 in enumerate(walk1, 1):
            if gcd(k1, o1) > 1:
                continue
            x = x1 * n2
            for s2, k2, o2 in zip(subgroup2, exponent2, g2.element_orders):
                d = gcd(o1, o2)
                key = (s1, s2, k2 * pow(k1, -1, d) % d)
                k = index.get(key)
                if k is None:
                    walk2 = walks2[s2]
                    if d not in left:
                        left[d] = _walk_masks(walk1, d, n2)
                    if (s2, d) not in right:
                        right[s2, d] = _walk_masks(walk2, d)
                    masks, m = right[s2, d], key[2]
                    k = index[key] = len(joined)
                    joined.append(sum(map(mul, left[d], [masks[r * m % d] for r in range(d)])))
                    powers.append([walk1[(k1 * t - 1) % o1] * n2 + walk2[(k2 * t - 1) % o2]
                                   for t in _divisors(o1 * o2 // d)])
                subgroup[x] = k
                x += 1
    return _subgroup_rows(joined, powers, subgroup)


def _walk_masks(walk: list[int], d: int, scale: int = 1) -> list[int]:
    """Entry r: bit c^u * scale for each power c^u = walk[u - 1] with u = r mod d."""
    return [sum(1 << x * scale for x in walk[(r - 1) % d::d]) for r in range(d)]


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
    rows = (dict.fromkeys(compress(range(g.vertex_count), _bits(row)), arc) for row in g._rows)
    return [cells if diagonal == SENTINEL else {u: diagonal} | cells for u, cells in enumerate(rows)]


def _check_weights(g: SimpleGraph, w: WeightTable, side: str) -> None:
    n = g.vertex_count
    # Power weight rows hold group elements and positive steps by construction.
    if len(w) != n or not isinstance(w, PowerWeights) and not all(_row_is_valid(row, n) for row in w):
        raise ValueError(f"{side} weight table needs {n} rows with targets in 0..{n - 1} "
                         "and cells that are (start, step) pairs of ints with steps >= 0")


def _row_is_valid(row: dict[int, APPair], n: int) -> bool:
    """A dict with int targets in 0..n-1, each cell a (start, step) tuple or list of ints with step >= 0."""
    if not isinstance(row, dict):
        return False
    if not row:
        return True
    # type() and not isinstance(): a True target would be read as vertex 1.
    if {*map(type, row)} != {int} or min(row) < 0 or max(row) >= n:
        return False
    try:
        cells = set(row.values())
    except TypeError:  # unhashable cells, such as lists, are checked one by one
        cells = row.values()
    return all(isinstance(cell, (tuple, list)) and len(cell) == 2 and type(cell[0]) is int
               and type(cell[1]) is int and cell[1] >= 0 for cell in cells)
