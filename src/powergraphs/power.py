"""Power graphs: adjacency through the power relation, with exponent weights.

The power graph joins distinct a, b when one is a power of the other, so
it is read off the powers a^1..a^o(a) of each element alone.

The weight table W holds one row per element: row a maps each power
b = a^t, t = 1..o(a), to the APPair (t, o(a)), t the least positive
exponent with a^t = b.  An absent key means the sentinel (0, 0): b is not
a power of a (the weight dump still prints (0,0) for it).  The set of all
exponents m with a^m = b is then exactly AP(W(a, b)).  The weighted
product, `--dump-weights` and verify-all's exponent-window claim read W.
"""

import functools
from dataclasses import dataclass

from .graphs import SimpleGraph
from .groups import FiniteGroup
from .progressions import APPair, WeightTable


@dataclass(frozen=True)
class PowerGraphBundle:
    """A group together with its power graph and weight table."""

    group: FiniteGroup
    graph: SimpleGraph
    weights: WeightTable


def power_weights(g: FiniteGroup) -> WeightTable:
    """Sparse weight rows of g: row a holds its o(a) powers a^1..a^o(a)."""
    # Rows of elements of order o share one list of cells (1, o)..(o, o);
    # a^1..a^o(a) are pairwise distinct, so each power is set once.
    cells = functools.cache(lambda o: [APPair(t, o) for t in range(1, o + 1)])
    return [dict(zip(walk, cells(len(walk)))) for walk in map(g.powers, range(g.order))]


def power_graph_bundle(g: FiniteGroup) -> PowerGraphBundle:
    return PowerGraphBundle(g, power_graph(g), power_weights(g))


def power_graph(g: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of g: a ~ b iff one is a power of the other."""
    # Of a^1..a^o(a) only a^1 is a itself, so the rest are the arcs a -> b.
    return SimpleGraph(g.element_names, ((a, x) for a in range(g.order) for x in g.powers(a)[1:]))


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
