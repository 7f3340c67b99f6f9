"""Undirected simple graphs with string vertex labels.

Equality and isomorphism ignore labels; labels exist to make exported
output readable.
"""

import functools
from collections import Counter
from collections.abc import Callable
from itertools import compress
from typing import Iterable, Iterator

DEFAULT_ISO_CAP = 200

EXPORT_FORMATS = ("dot", "edgelist", "json")

# Maps the binary digits "0" and "1" to the bytes 0 and 1, for compress.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


class TooLarge(ValueError):
    pass


def check_iso_size(na: int, nb: int) -> None:
    """Refuse an isomorphism test on graphs with na or nb vertices above the cap."""
    if na > DEFAULT_ISO_CAP or nb > DEFAULT_ISO_CAP:
        raise TooLarge(f"isomorphism cap is {DEFAULT_ISO_CAP} vertices")


def _bits(row: int) -> bytes:
    """Byte i is 1 iff bit i of row is set: compress selects by it, in C."""
    return bin(row)[:1:-1].encode().translate(_DIGIT_BITS)


def _upper_items(rows: list[int], items: list) -> Iterator[tuple[object, list]]:
    """(items[u], the items of u's neighbours above u) for each row u with a bit above u.

    Closed twins, vertices with equal closed rows row | 1 << u, share one
    selection: the first twin of a class selects its neighbours above
    itself, each later twin is one of them and takes the tail after itself,
    and the last twin drops it, so a vertex without a twin drops its own at
    once.  A first pass keys each vertex by the hash of its closed row, so
    no second copy of the rows is held.  Selections are kept under their
    exact closed row, so a collision costs time, never a wrong line.
    """
    hashes = [hash(row | 1 << u) for u, row in enumerate(rows)]
    last = dict(zip(hashes, range(len(rows))))
    shared = {}
    for u, (row, h) in enumerate(zip(rows, hashes)):
        above = row >> u + 1
        closed = row | 1 << u
        selection = shared.get(closed)
        if selection is None:
            selection = shared[closed] = list(compress(items[u + 1:], _bits(above)))
        else:
            selection = selection[len(selection) - above.bit_count():]
        if u == last[h]:
            del shared[closed]
        if selection:
            yield items[u], selection


class SimpleGraph:
    """Labeled undirected simple graph; no loops, no multi-edges.

    Row u is an int with bit v set iff u ~ v.  The edge count is counted
    from the rows on first read and then cached.  SimpleGraph(labels, edges)
    keeps its labels as it builds them; a graph from _of_rows builds its
    labels on first read and then caches them.
    """

    def __init__(self, labels: Iterable[str], edges: Iterable[tuple[int, int]] = ()):
        labels = [str(lab) for lab in labels]
        n = len(labels)
        rows = [0] * n
        for u, v in edges:
            # Checked before any shift, so a huge index allocates nothing.
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.labels = labels
        self.vertex_count = n
        self._rows = rows

    @classmethod
    def _of_rows(cls, labels: Callable[[], list[str]], rows: list[int]) -> "SimpleGraph":
        """The graph with these rows: symmetric, below 2**n and without bit u in row u.

        labels() returns the n labels; it is called on the first read of
        g.labels, and then dropped.
        """
        g = cls.__new__(cls)
        g._labels = labels
        g.vertex_count = len(rows)
        g._rows = rows
        return g

    @functools.cached_property
    def labels(self) -> list[str]:
        labels = self._labels()
        # The builder may hold the factors of a product: they are not kept for it.
        del self._labels
        return labels

    @functools.cached_property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._rows)) // 2

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count} vertices, {self.edge_count} edges)"

    def edges(self) -> list[tuple[int, int]]:
        """Unordered edges as sorted (u, v) pairs with u < v."""
        # Items from one list of ints, so the pairs share n int objects.
        return [(u, v) for u, above in _upper_items(self._rows, list(range(self.vertex_count))) for v in above]

    def degree_sequence(self) -> list[int]:
        return sorted(map(int.bit_count, self._rows))


def graphs_equal_labeled(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Identical vertex count and adjacency under the identity map."""
    return a.vertex_count == b.vertex_count and a._rows == b._rows


def has_universal_vertex(g: SimpleGraph) -> bool:
    """True iff some vertex is adjacent to all others (so always for K1)."""
    full = g.vertex_count - 1
    return full in map(int.bit_count, g._rows)


def are_isomorphic(a: SimpleGraph, b: SimpleGraph) -> tuple[bool, list[int] | None]:
    """Exact isomorphism test with a witness permutation.

    The search runs on each graph's twin quotient.  Closed twins (equal
    closed rows row | 1 << u) form cliques; among the other vertices, open
    twins (equal rows) form independent sets, and a vertex with a closed
    twin has no open twin.  Two classes are joined completely or not at
    all, so the quotient has one vertex per class, coloured by its kind and
    size; a twin-free graph is its own quotient, with one colour.  Graphs
    whose colour multisets differ are not isomorphic.  Otherwise
    individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II") starts from those colours: each search node refines
    each quotient's colors until stable, with equal signature counts in
    every round, and tries the map pairing each color class in index order.
    If it breaks an edge, the first vertex of a's lowest non-singleton class
    gets a new color, as does, in turn and in index order, each vertex of
    that class in b.  A quotient witness pairs the members of each class in
    index order.  The witness is deterministic.  Returns (True, perm) with b
    adjacency at (perm[u], perm[v]) matching a at (u, v), or (False, None).
    """
    check_iso_size(a.vertex_count, b.vertex_count)
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False, None
    (classes_a, color_a, adj_a), (classes_b, color_b, adj_b) = map(_twin_quotient, (a._rows, b._rows))
    if sorted(color_a) != sorted(color_b):
        return False, None
    rows_b = [sum(map((1).__lshift__, nbrs)) for nbrs in adj_b]
    # The root refinement compares the histograms of class colour and degree.
    witness = _search(adj_a, adj_b, rows_b, list(_refine(adj_a, color_a)), color_b)
    if witness is None:
        return False, None
    perm = [0] * a.vertex_count
    for i, j in enumerate(witness):
        for v, w in zip(classes_a[i], classes_b[j]):
            perm[v] = w
    return True, perm


def _twin_quotient(rows: list[int]) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The twin classes of a graph in order of their first vertex, each
    class's colour 2 * size + (1 if closed), and the quotient's neighbour lists."""
    closed = Counter(row | 1 << u for u, row in enumerate(rows))
    classes = {}
    for u, row in enumerate(rows):
        key = (1, row | 1 << u) if closed[row | 1 << u] > 1 else (0, row)
        classes.setdefault(key, []).append(u)
    # Each neighbouring class is read off its first vertex, which every
    # member of a joined class sees; a closed class's first vertex has no loop.
    firsts = bytearray(len(rows))
    for members in classes.values():
        firsts[members[0]] = 1
    indices = range(len(classes))
    adj = [list(compress(indices, compress(_bits(rows[members[0]]), firsts))) for members in classes.values()]
    color = [2 * len(members) + kind for (kind, _), members in classes.items()]
    return list(classes.values()), color, adj


def _search(a: list[list[int]], b: list[list[int]], rows_b: list[int],
            rounds: list, color_b: list[int]) -> list[int] | None:
    """A witness mapping each class of a onto the same class of b, given a's
    refinement rounds; a and b are neighbour lists, rows_b the rows of b."""
    for (sigs_a, color_a), (sigs_b, color_b) in zip(rounds, _refine(b, color_b)):
        if sigs_a != sigs_b:
            return None
    n = len(a)
    perm = [0] * n
    for v, w in zip(sorted(range(n), key=color_a.__getitem__),
                    sorted(range(n), key=color_b.__getitem__)):
        perm[v] = w
    # Equal degree histograms in the first round give equal edge counts, which
    # make an edge-preserving bijection an isomorphism.
    if all(rows_b[perm[v]] >> perm[u] & 1 for v in range(n) for u in a[v]):
        return perm
    # A stable coloring of singletons pairs equal signatures, so it passed above.
    cell = min(c for c, size in Counter(color_a).items() if size > 1)
    # Stable colors are 0..k-1 with k <= n, so n is a new color.
    v = color_a.index(cell)
    child = list(_refine(a, color_a[:v] + [n] + color_a[v + 1:]))
    for w in range(n):
        if color_b[w] == cell:
            perm = _search(a, b, rows_b, child, color_b[:w] + [n] + color_b[w + 1:])
            if perm is not None:
                return perm
    return None


def _refine(adj: list[list[int]], color: list[int]) -> Iterator[tuple[list, list[int]]]:
    """Each round until stable: the sorted (signature, count) pairs, and the colors they rank."""
    while True:
        sigs = [(c, tuple(sorted(map(color.__getitem__, nbrs)))) for c, nbrs in zip(color, adj)]
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
    label array and index pairs [i, j] with i < j, sorted.  The text is
    the join of export_chunks(g, fmt).
    """
    return "".join(export_chunks(g, fmt))


def export_chunks(g: SimpleGraph, fmt: str) -> Iterator[str]:
    """The text of export(g, fmt) in non-empty pieces of at most one row's
    text each, or one cluster's edgelist lines; an unknown format is refused
    before any piece.

    A row's bits select its text from one string per vertex, and closed
    twins share one selection in json and dot: no edge becomes a pair.
    """
    if fmt not in _CHUNKS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(EXPORT_FORMATS)}")
    return _CHUNKS[fmt](g)


def _json_chunks(g: SimpleGraph) -> Iterator[str]:
    # Imported here: only the json format needs it, and every command pays for start-up.
    import json

    names = list(map(str, range(g.vertex_count)))
    sep = ""
    yield f'{{"vertices":{json.dumps(g.labels, separators=(",", ":"))},"edges":['
    for u, above in _upper_items(g._rows, names):
        yield f"{sep}[{u}," + f"],[{u},".join(above) + "]"
        sep = ","
    yield "]}"


def _edgelist_chunks(g: SimpleGraph) -> Iterator[str]:
    """Lines in sorted order without sorting them all at once.

    Vertex u's lines are key_u + label_v with key_u = label_u + ",".  In
    the order of the sorted keys, a key that does not start with an
    earlier one is greater than every line of the vertices before it, so
    only a cluster, a run of keys that start with the run's first key,
    needs its lines sorted together; any other vertex's lines are its
    neighbour labels sorted behind its key.
    """
    labels, rows = g.labels, g._rows
    keys = [label + "," for label in labels]
    order = sorted(range(len(keys)), key=keys.__getitem__)

    def selected(u):
        return compress(labels[u + 1:], _bits(rows[u] >> u + 1))

    sep = ""
    i = 0
    while i < len(order):
        first = keys[order[i]]
        j = i + 1
        while j < len(order) and keys[order[j]].startswith(first):
            j += 1
        if j - i == 1:
            key, lines = first, sorted(selected(order[i]))
        else:
            key, lines = "", sorted(keys[u] + label for u in order[i:j] for label in selected(u))
        i = j
        if lines:
            yield sep + key + f"\n{key}".join(lines)
            sep = "\n"


def _dot_chunks(g: SimpleGraph) -> Iterator[str]:
    quoted = [f'"{_dot_quote(label)}"' for label in g.labels]
    yield "graph {" + "".join(f"\n  {q};" for q, row in zip(quoted, g._rows) if not row)
    for q, above in _upper_items(g._rows, quoted):
        head = f"\n  {q} -- "
        yield head + f";{head}".join(above) + ";"
    yield "\n}"


_CHUNKS = {"dot": _dot_chunks, "edgelist": _edgelist_chunks, "json": _json_chunks}


def _dot_quote(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def graph_from_json(text: str) -> SimpleGraph:
    """Parse the json export format back into a graph."""
    return SimpleGraph(*parse_graph_json(text))


def parse_graph_json(text: str) -> tuple[list[str], list[list[int]]]:
    """The labels and [i, j] edge pairs of the json export format, checked
    for shape; SimpleGraph checks the indices as it builds the rows."""
    import json

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
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise ValueError(f'bad edge entry {e!r}; expected [i, j]')
    return vertices, edges
