"""Power graphs: adjacency through the power relation, with exponent weights.

The power graph joins distinct a, b when one is a power of the other, so
it is read off the cyclic subgroups: one walk a^1..a^o(a) per subgroup.

The weight table W holds one row per element: row a maps each power
b = a^t, t = 1..o(a), to the APPair (t, o(a)), t the least positive
exponent with a^t = b.  An absent key means the sentinel (0, 0): b is not
a power of a (the weight dump still prints (0,0) for it).  The set of all
exponents m with a^m = b is then exactly AP(W(a, b)).  `--dump-weights`
and verify-all's exponent-window claim read W; the power join does not.
Each row is built from its cyclic subgroup's walk when it is read.
"""

import functools
from collections.abc import Sequence
from math import isqrt
from operator import or_
from typing import NamedTuple

from .graphs import SimpleGraph
from .groups import FiniteGroup
from .progressions import APPair


class PowerWeights(Sequence):
    """The weight rows of a group, each built when it is read.

    Write x = c^k for the chosen generator c of <x>, of order o.  Then
    x^t = c^(kt), so row x is the walk of c read at stride k: x^t is
    walk[(k*t - 1) mod o], with the cell (t, o).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._cells: dict[int, list[APPair]] = {}

    def __len__(self) -> int:
        return self.group.order

    def __getitem__(self, x: int) -> dict[int, APPair]:
        walks, subgroup, exponent = self.group.cyclic_subgroups
        walk, k = walks[subgroup[x]], exponent[x]
        o = len(walk)
        # Rows of elements of order o share one list of cells (1, o)..(o, o);
        # x^1..x^o are pairwise distinct, so each power is set once.
        if o not in self._cells:
            self._cells[o] = [APPair(t, o) for t in range(1, o + 1)]
        return dict(zip([walk[i % o] for i in range(k - 1, k * o, k)], self._cells[o]))


class PowerGraphBundle(NamedTuple):
    """A group together with its power graph and weight table."""

    group: FiniteGroup
    graph: SimpleGraph
    weights: PowerWeights


def power_weights(g: FiniteGroup) -> PowerWeights:
    """Sparse weight rows of g, read-only: row a holds its o(a) powers a^1..a^o(a)."""
    return PowerWeights(g)


def power_graph_bundle(g: FiniteGroup) -> PowerGraphBundle:
    return PowerGraphBundle(g, power_graph(g), power_weights(g))


def power_graph(g: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of g: a ~ b iff one is a power of the other."""
    walks, subgroup, _ = g.cyclic_subgroups
    # The powers of a generator are distinct, so summing their bits ORs them.
    own = [sum(map((1).__lshift__, walk)) for walk in walks]
    # c^t, t dividing o, generates each subgroup of <c> once.
    members = [[walk[t - 1] for t in _divisors(len(walk))] for walk in walks]
    return SimpleGraph._of_rows(lambda: list(g.element_names), _subgroup_rows(own, members, subgroup))


@functools.cache
def _divisors(o: int) -> tuple[int, ...]:
    """The divisors of o, those up to its square root first.  Element orders
    are at most the order cap, which bounds the cache."""
    small = [t for t in range(1, isqrt(o) + 1) if o % t == 0]
    return (*small, *(o // t for t in small if t * t < o))


def _subgroup_rows(own: list[int], members: list[list[int]], subgroup: list[int]) -> list[int]:
    """Power-graph rows from the cyclic subgroups K of a group.

    own[K] is K's mask, members[K] holds a generator of every subgroup of
    K, and subgroup[x] is the K that x generates.  The arcs out of x are
    its powers, own[<x>].  y is a power of x iff <y> lies in <x>, so the
    arcs into x come from the generators G[K] of every K that holds <x>,
    and all of K's generators share that part A[K].  Each K ORs G[K] into
    A[<y>] for each y in members[K], and row x is own[<x>] | A[<x>]
    without bit x.
    """
    generators = [0] * len(own)  # G[K]
    for x, s in enumerate(subgroup):
        generators[s] |= 1 << x
    above = [0] * len(own)  # A[K]
    for gens, ys in zip(generators, members):
        for y in ys:
            above[subgroup[y]] |= gens
    rows = list(map(or_, own, above))
    # x is in <x> and generates it, so bit x is set on both sides.
    return [rows[s] ^ 1 << x for x, s in enumerate(subgroup)]


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
