"""Power graphs: adjacency through the power relation, with exponent weights.

The power graph joins distinct a, b when one is a power of the other, so
it is read off the cyclic subgroups: one walk a^1..a^o(a) per subgroup.

The weight table W holds one row per element: row a maps each power
b = a^t, t = 1..o(a), to the APPair (t, o(a)), t the least positive
exponent with a^t = b.  An absent key means the sentinel (0, 0): b is not
a power of a (the weight dump still prints (0,0) for it).  The set of all
exponents m with a^m = b is then exactly AP(W(a, b)).  The weighted
product, `--dump-weights` and verify-all's exponent-window claim read W.
"""

import functools
from collections.abc import Callable
from dataclasses import dataclass
from math import gcd

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
    weights = power_weights(g)
    # Row a's keys are a^1..a^o(a) in order: the graph reuses the walks.
    return PowerGraphBundle(g, _graph(g, lambda a: list(weights[a])), weights)


def power_graph(g: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of g: a ~ b iff one is a power of the other."""
    return _graph(g, g.powers)


def _graph(g: FiniteGroup, powers: Callable[[int], list[int]]) -> SimpleGraph:
    """The power graph from powers(a) = [a, a^2, ..., a^o(a)], read once per cyclic subgroup.

    Row x is <x> together with every generator of a cyclic subgroup that
    holds x.  The generators of <a> are the a^k with k prime to o(a), so one
    walk gives the rows of all of them.
    """
    n = g.order
    subgroup = [0] * n  # the row of <x>, once x's subgroup is walked
    above = [0] * n  # the generators of the cyclic subgroups that hold x
    for a in range(n):
        if subgroup[a]:
            continue
        walk = powers(a)
        generators = [x for k, x in enumerate(walk, 1) if gcd(k, len(walk)) == 1]
        # The powers of a are distinct, so summing their bits ORs them.
        mask = sum(1 << x for x in walk)
        for x in generators:
            subgroup[x] = mask
        mask = sum(1 << x for x in generators)
        for x in walk:
            above[x] |= mask
    # x is in <x> and generates it, so bit x is set on both sides.
    return SimpleGraph._of_rows(list(g.element_names),
                                [(own | gens) ^ (1 << x) for x, (own, gens) in enumerate(zip(subgroup, above))])


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
