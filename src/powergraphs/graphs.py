"""Undirected simple graphs with string vertex labels.

Equality and isomorphism ignore labels; labels exist to make exported
output readable.
"""

import json
from collections import Counter, defaultdict
from typing import Iterable

DEFAULT_ISO_CAP = 200

EXPORT_FORMATS = ("dot", "edgelist", "json")


class TooLarge(ValueError):
    pass


class SimpleGraph:
    """Labeled undirected simple graph; no loops, no multi-edges."""

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]] = ()):
        self.labels = [str(lab) for lab in labels]
        self.vertex_count = len(self.labels)
        self._adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in edges:
            self._add_edge(u, v)
        self.edge_count = sum(len(nbrs) for nbrs in self._adj) // 2

    def _add_edge(self, u: int, v: int) -> None:
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count} vertices, {self.edge_count} edges)"

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def neighbors(self, u: int) -> set[int]:
        return self._adj[u]

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


def relabel(g: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """Image of g under the vertex permutation v -> perm[v]."""
    n = g.vertex_count
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the vertex indices")
    labels = [""] * n
    for v in range(n):
        labels[perm[v]] = g.labels[v]
    return SimpleGraph(labels, [(perm[u], perm[v]) for u, v in g.edges()])


def has_universal_vertex(g: SimpleGraph) -> bool:
    """True iff some vertex is adjacent to all others (so always for K1)."""
    full = g.vertex_count - 1
    return any(len(nbrs) == full for nbrs in g._adj)


def are_isomorphic(a: SimpleGraph, b: SimpleGraph,
                   cap: int = DEFAULT_ISO_CAP) -> tuple[bool, list[int] | None]:
    """Exact isomorphism test with a witness permutation.

    Vertices are first partitioned by iterated neighborhood-degree
    refinement (colors renamed jointly across the two graphs); backtracking
    then maps each vertex only onto vertices of the same stable color,
    trying candidates in ascending index order, so any witness found is
    deterministic.  Returns (True, perm) with b adjacency at (perm[u],
    perm[v]) matching a at (u, v), or (False, None).
    """
    if a.vertex_count > cap or b.vertex_count > cap:
        raise TooLarge(f"isomorphism cap is {cap} vertices")
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False, None
    n = a.vertex_count
    if n == 0:
        return True, []
    if a.degree_sequence() != b.degree_sequence():
        return False, None

    colors = _stable_colors(a, b)
    if colors is None:
        return False, None
    color_a, color_b = colors

    by_color = defaultdict(list)
    for w in range(n):
        by_color[color_b[w]].append(w)
    candidates = [by_color[color_a[v]] for v in range(n)]

    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        nbrs_a = a._adj[v]
        for w in candidates[v]:
            if used[w]:
                continue
            nbrs_b = b._adj[w]
            if all((mapping[u] in nbrs_b) == (u in nbrs_a) for u in range(v)):
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    if extend(0):
        return True, list(mapping)
    return False, None


def _stable_colors(a: SimpleGraph, b: SimpleGraph) -> tuple[list[int], list[int]] | None:
    """Jointly-renamed stable refinement colors, or None on histogram mismatch."""
    n = a.vertex_count
    color_a, color_b = _rename([a.degree(v) for v in range(n)],
                               [b.degree(v) for v in range(n)])
    while True:
        sig_a = [(color_a[v], tuple(sorted(color_a[u] for u in a._adj[v]))) for v in range(n)]
        sig_b = [(color_b[v], tuple(sorted(color_b[u] for u in b._adj[v]))) for v in range(n)]
        new_a, new_b = _rename(sig_a, sig_b)
        # Signatures embed the old color, so classes only ever split.
        if len(set(new_a) | set(new_b)) == len(set(color_a) | set(color_b)):
            break
        color_a, color_b = new_a, new_b
    if Counter(color_a) != Counter(color_b):
        return None
    return color_a, color_b


def _rename(sig_a: list, sig_b: list) -> tuple[list[int], list[int]]:
    palette = {sig: c for c, sig in enumerate(sorted(set(sig_a) | set(sig_b)))}
    return [palette[s] for s in sig_a], [palette[s] for s in sig_b]


def export(g: SimpleGraph, fmt: str) -> str:
    """Serialize the graph; formats are dot, edgelist, and json.

    dot lists isolated vertices and then edges; edgelist emits one
    "label_u,label_v" line per edge with the lines sorted; json holds the
    label array and index pairs [i, j] with i < j, sorted.
    """
    if fmt == "json":
        return json.dumps({"vertices": g.labels, "edges": [[u, v] for u, v in g.edges()]},
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
    data = json.loads(text)
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
