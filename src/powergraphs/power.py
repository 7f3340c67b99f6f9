"""Power graphs: adjacency through the power relation, with exponent weights.

The weight table W maps every ordered element pair (a, b) to an APPair:
(t, o(a)) when t is the least positive exponent with a^t = b, and the
sentinel (0, 0) when b is not a power of a.  The set of all exponents m
with a^m = b is then exactly AP(W(a, b)), and the undirected power graph
is derived from W: distinct a, b are adjacent iff either direction is
non-sentinel.
"""

from dataclasses import dataclass

from .graphs import SimpleGraph
from .groups import FiniteGroup
from .progressions import APPair, SENTINEL

WeightTable = list[list[APPair]]


@dataclass(frozen=True)
class PowerGraphBundle:
    """A group together with its power graph and weight table."""

    group: FiniteGroup
    graph: SimpleGraph
    weights: WeightTable


def power_weights(g: FiniteGroup) -> WeightTable:
    """Dense weight table over all ordered element pairs of g."""
    n = g.order
    weights = [[SENTINEL] * n for _ in range(n)]
    for a in range(n):
        o_a = g.element_orders[a]
        x = a
        # a^1..a^o(a) are pairwise distinct, so each power is set once.
        for t in range(1, o_a + 1):
            weights[a][x] = APPair(t, o_a)
            x = g.table[x][a]
    return weights


def power_graph_bundle(g: FiniteGroup) -> PowerGraphBundle:
    weights = power_weights(g)
    # Row a is non-sentinel exactly at a^1..a^o(a), and of these only a^1
    # is a itself, so the cells with start > 1 are the arcs a -> b, b != a.
    # An arc whose reverse is also an arc is passed once, from its lower end.
    edges = [(a, b) for a, row in enumerate(weights) for b, w in enumerate(row)
             if w.start > 1 and (a < b or weights[b][a] is SENTINEL)]
    graph = SimpleGraph(g.element_names, edges)
    return PowerGraphBundle(group=g, graph=graph, weights=weights)


def power_graph(g: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of g: a ~ b iff one is a power of the other."""
    return power_graph_bundle(g).graph


def exponent_set_window(g: FiniteGroup, a: int, b: int, bound: int) -> set[int]:
    """{m in [1, bound] : a^m = b} by direct iteration.

    The brute-force side of the progression checks; bound is capped at
    10*o(a) to keep windows at sanity scale.
    """
    for x in (a, b):
        if not 0 <= x < g.order:
            raise IndexError(f"element {x} out of range for group of order {g.order}")
    o_a = g.element_orders[a]
    if bound < 1 or bound > 10 * o_a:
        raise ValueError(f"bound must be in [1, {10 * o_a}], got {bound}")
    hits = set()
    x = g.identity
    for m in range(1, bound + 1):
        x = g.table[x][a]
        if x == b:
            hits.add(m)
    return hits
