"""Power graphs: adjacency through the power relation, with exponent weights.

The weight table W holds one row per element: row a maps each power
b = a^t, t = 1..o(a), to the APPair (t, o(a)), t the least positive
exponent with a^t = b.  An absent key means the sentinel (0, 0): b is not
a power of a (the weight dump still prints (0,0) for it).  The set of all
exponents m with a^m = b is then exactly AP(W(a, b)), and the undirected
power graph is derived from W: distinct a, b are adjacent iff either
direction is present.
"""

from dataclasses import dataclass

from .graphs import SimpleGraph
from .groups import FiniteGroup
from .progressions import APPair

# Row a maps each target b to its non-sentinel cell; absent keys are (0,0).
WeightTable = list[dict[int, APPair]]


@dataclass(frozen=True)
class PowerGraphBundle:
    """A group together with its power graph and weight table."""

    group: FiniteGroup
    graph: SimpleGraph
    weights: WeightTable


def power_weights(g: FiniteGroup) -> WeightTable:
    """Sparse weight rows of g: row a holds its o(a) powers a^1..a^o(a)."""
    weights = []
    for a, o_a in enumerate(g.element_orders):
        row = {}
        x = a
        # a^1..a^o(a) are pairwise distinct, so each power is set once.
        for t in range(1, o_a + 1):
            row[x] = APPair(t, o_a)
            x = g.table[x][a]
        weights.append(row)
    return weights


def power_graph_bundle(g: FiniteGroup) -> PowerGraphBundle:
    weights = power_weights(g)
    # Row a holds a^1..a^o(a), and of these only a^1 is a itself, so its
    # other keys are the arcs a -> b, b != a.  An arc whose reverse is also
    # an arc is passed once, from its lower end.
    edges = [(a, b) for a, row in enumerate(weights) for b in row
             if b != a and (a < b or a not in weights[b])]
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
