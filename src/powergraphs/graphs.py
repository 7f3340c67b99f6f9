"""Undirected simple graphs with string vertex labels.

Equality and isomorphism ignore labels; labels exist to make exported
output readable.
"""

import json
from collections import Counter
from typing import Iterable, Iterator

DEFAULT_ISO_CAP = 200

EXPORT_FORMATS = ("dot", "edgelist", "json")


class TooLarge(ValueError):
    pass


class SimpleGraph:
    """Labeled undirected simple graph; no loops, no multi-edges."""

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]] = ()):
        self.labels = [str(lab) for lab in labels]
        n = self.vertex_count = len(self.labels)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        self.edge_count = sum(len(nbrs) for nbrs in adj) // 2

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count} vertices, {self.edge_count} edges)"

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """Unordered edges as sorted (u, v) pairs with u < v."""
        return sorted((u, v) for u in range(self.vertex_count) for v in self._adj[u] if u < v)

    def degree_sequence(self) -> list[int]:
        return sorted(len(nbrs) for nbrs in self._adj)


def graphs_equal_labeled(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Identical vertex count and adjacency under the identity map."""
    return a.vertex_count == b.vertex_count and a._adj == b._adj


def has_universal_vertex(g: SimpleGraph) -> bool:
    """True iff some vertex is adjacent to all others (so always for K1)."""
    full = g.vertex_count - 1
    return any(len(nbrs) == full for nbrs in g._adj)


def are_isomorphic(a: SimpleGraph, b: SimpleGraph) -> tuple[bool, list[int] | None]:
    """Exact isomorphism test with a witness permutation.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II"): each search node refines each graph's colors until
    stable, with equal signature counts in every round, and tries the map
    pairing each color class in index order.  If it breaks an edge, the first
    vertex of a's lowest non-singleton class gets a new color, as does, in
    turn and in index order, each vertex of that class in b.  The witness is
    deterministic.  Returns (True, perm) with b adjacency at (perm[u], perm[v])
    matching a at (u, v), or (False, None).
    """
    if a.vertex_count > DEFAULT_ISO_CAP or b.vertex_count > DEFAULT_ISO_CAP:
        raise TooLarge(f"isomorphism cap is {DEFAULT_ISO_CAP} vertices")
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False, None
    # The root refinement compares the degree histograms.
    perm = _search(a, b, list(_refine(a, [0] * a.vertex_count)), [0] * b.vertex_count)
    return perm is not None, perm


def _search(a: SimpleGraph, b: SimpleGraph,
            rounds: list, color_b: list[int]) -> list[int] | None:
    """A witness mapping each class of a onto the same class of b, given a's refinement rounds."""
    for (sigs_a, color_a), (sigs_b, color_b) in zip(rounds, _refine(b, color_b)):
        if sigs_a != sigs_b:
            return None
    n = a.vertex_count
    perm = [0] * n
    for v, w in zip(sorted(range(n), key=color_a.__getitem__),
                    sorted(range(n), key=color_b.__getitem__)):
        perm[v] = w
    # Equal edge counts make an edge-preserving bijection an isomorphism.
    if all(perm[u] in b._adj[perm[v]] for v in range(n) for u in a._adj[v]):
        return perm
    # A stable coloring of singletons pairs equal signatures, so it passed above.
    cell = min(c for c, size in Counter(color_a).items() if size > 1)
    # Stable colors are 0..k-1 with k <= n, so n is a new color.
    v = color_a.index(cell)
    child = list(_refine(a, color_a[:v] + [n] + color_a[v + 1:]))
    for w in range(n):
        if color_b[w] == cell:
            perm = _search(a, b, child, color_b[:w] + [n] + color_b[w + 1:])
            if perm is not None:
                return perm
    return None


def _refine(g: SimpleGraph, color: list[int]) -> Iterator[tuple[list, list[int]]]:
    """Each round until stable: the sorted (signature, count) pairs, and the colors they rank."""
    while True:
        sigs = [(c, tuple(sorted(color[u] for u in nbrs))) for c, nbrs in zip(color, g._adj)]
        histogram = sorted(Counter(sigs).items())
        rank = {sig: c for c, (sig, _) in enumerate(histogram)}
        old, color = color, [rank[sig] for sig in sigs]
        yield histogram, color
        # Signatures embed the old color, so classes only split: stable when none did.
        if len(rank) == len(set(old)):
            return


def export(g: SimpleGraph, fmt: str) -> str:
    """Serialize the graph; formats are dot, edgelist, and json.

    dot lists isolated vertices and then edges; edgelist emits one
    "label_u,label_v" line per edge with the lines sorted; json holds the
    label array and index pairs [i, j] with i < j, sorted.
    """
    if fmt == "json":
        return json.dumps({"vertices": g.labels, "edges": g.edges()},
                          separators=(",", ":"))
    if fmt == "edgelist":
        return "\n".join(sorted(f"{g.labels[u]},{g.labels[v]}" for u, v in g.edges()))
    if fmt == "dot":
        lines = ["graph {"]
        for v in range(g.vertex_count):
            if g.degree(v) == 0:
                lines.append(f'  "{_dot_quote(g.labels[v])}";')
        for u, v in g.edges():
            lines.append(f'  "{_dot_quote(g.labels[u])}" -- "{_dot_quote(g.labels[v])}";')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(EXPORT_FORMATS)}")


def _dot_quote(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def graph_from_json(text: str) -> SimpleGraph:
    """Parse the json export format back into a graph."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError('expected an object with "vertices" and "edges"')
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError('"vertices" must be an array of strings')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be an array of [i, j] pairs')
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f'bad edge entry {e!r}; expected [i, j]')
        pairs.append((e[0], e[1]))
    return SimpleGraph(vertices, pairs)
