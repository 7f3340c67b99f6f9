"""The five benchmark workloads: seeded inputs, job execution and output checks.

A workload turns a seed into a list of jobs; a job is a list of items, and an
item is one call a user makes: a CLI invocation (``argv``) or, for
product_classical, one library product.  Fixed-set workloads have one job,
the whole seeded batch, which the worker repeats; iso_decide has a long
stream of distinct jobs, because single isomorphism decisions vary too much
in cost for a small fixed batch to be steady.

Inputs are generated here from the seed alone, without calling the package
under test, and every check except product_power's compares against an
oracle in this file.  product_power's oracle is the package's own untimed
power_graph(direct_product(G1, G2)): the identity the paper states.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import lcm
from pathlib import Path

# verify-all --max-order 144 claim table recorded at the commit that added
# this benchmark; the trial counts do not depend on the seed.
VERIFY_MAX_ORDER = 144
VERIFY_TABLE = (
    "claim                        total  pass  fail",
    "cartesian-obstruction          340   340     0",
    "classical-weights-cartesian     50    50     0",
    "classical-weights-direct        50    50     0",
    "classical-weights-normal        50    50     0",
    "exponent-window                 20    20     0",
    "power-product-identity         379   379     0",
)

# One pair per stratum per seed, in a seeded order and orientation.  Pairs
# in a stratum have about the same cost, so the job's cost does not depend
# on the seed's pick.  Q8xC125 has the largest output, which sets the peak
# memory, so it is in every job.
PRODUCT_POWER_STRATA = (
    (("S4", "D21"), ("D10", "D25"), ("D12", "D21")),   # nonabelian x nonabelian
    (("S4", "C42"), ("C50", "D10"), ("C20", "D25")),   # cyclic x nonabelian
    (("C30", "C40"), ("C20", "C60")),                  # cyclic x cyclic
    (("Q8", "C125"),),                                 # 278,148 edges to export
)

CLASSICAL_KINDS = ("direct", "cartesian", "normal")
CLASSICAL_WEIGHTS = {"direct": ("direct", "direct"),
                     "cartesian": ("cartesian-left", "cartesian-right"),
                     "normal": ("normal", "normal")}
CLASSICAL_DENSITIES = (0.1, 0.6)
# Factor sizes and exact edge counts are the same for every seed, so the
# product's edge count, its cost and the peak memory are too.
CLASSICAL_SIZES = ((25, 40), (40, 25))

# Group recipes by order; one valid and one corrupted table of each order
# per job.  The scan cost n^3 does not depend on the group's structure.  The
# valid table of order 200 is always C200: its power graph, the largest,
# sets the peak memory.
CAYLEY_RECIPES = {
    150: ("C150", "D75", "S3xC25", "D5xC15", "D15xC5", "D25xC3"),
    168: ("C168", "D84", "S4xC7", "Q8xC21", "D4xC21", "D12xC7"),
    180: ("C180", "D90", "S3xC30", "D5xC18", "D9xC10", "D15xC6"),
    200: ("C200", "D100", "Q8xC25", "D4xC25", "D5xC20", "D10xC10"),
}

# Groups of at most 50 elements whose relabelled power graphs iso decides:
# in a few milliseconds, except S4xC2 (about 0.1 to 0.6 s, while C2xS4 takes
# 1 ms).  S3xS3, which iso does not finish, is kept out; see baseline.json,
# "not_run".
ISO_GROUPS = ("C24", "C36", "C48", "C50", "D12", "D24", "D25", "Q8xC3", "Q8xC6",
              "S4", "S4xC2", "S3xC8", "C2xC2xC12", "D4xC6", "C2xD12", "D4xD3", "D5xC5",
              "D8xC3", "D6xC4", "Q8xC4", "D3xC6")
ISO_REGULAR_VERTICES = 14
ISO_JOBS_PER_SECOND = 40
ISO_MIN_JOBS = 200


# ---------------------------------------------------------------- groups ---
# Independent group tables with the identity at index 0.

def _cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral(m):
    # r^a at a, r^a s at m + a, with s r = r^-1 s.
    def mul(x, y):
        a, fa = x % m, x >= m
        b, fb = y % m, y >= m
        rot = (a - b) % m if fa else (a + b) % m
        return rot + (m if fa != fb else 0)
    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def _quaternion():
    units = [(s * (k == 0), s * (k == 1), s * (k == 2), s * (k == 3))
             for k in range(4) for s in (1, -1)]

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    index = {u: i for i, u in enumerate(units)}
    return [[index[hamilton(p, q)] for q in units] for p in units]


def _symmetric(k):
    from itertools import permutations
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def _product(t1, t2):
    n2 = len(t2)
    return [[t1[i1][j1] * n2 + t2[i2][j2] for j1 in range(len(t1)) for j2 in range(n2)]
            for i1 in range(len(t1)) for i2 in range(n2)]


def group_table(recipe):
    """Table of a recipe such as C150, D75 (order 150) or Q8xC21."""
    table = None
    for atom in recipe.split("x"):
        letter, arg = atom[0], int(atom[1:])
        factor = {"C": _cyclic, "D": _dihedral, "S": _symmetric,
                  "Q": lambda _: _quaternion()}[letter](arg)
        table = factor if table is None else _product(table, factor)
    return table


def _relabel_table(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def _identity(table):
    return next(e for e in range(len(table)) if all(table[e][i] == i for i in range(len(table))))


def _element_orders(table):
    e = _identity(table)
    orders = []
    for a in range(len(table)):
        x, k = a, 1
        while x != e:
            x, k = table[x][a], k + 1
        orders.append(k)
    return orders


def first_associativity_violation(table):
    """(i, j, k, (ij)k, i(jk)) for the first violating triple in i, j, k order."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left, right = table[table[i][j]][k], table[i][table[j][k]]
                if left != right:
                    return i, j, k, left, right
    return None


def _corrupt(table, rng):
    """Swap an intercalate: Latin rows, columns and the identity survive."""
    n = len(table)
    e = _identity(table)
    involutions = [x for x in range(n) if x != e and table[x][x] == e]
    while True:
        x = rng.choice(involutions)
        r1, c1 = rng.randrange(n), rng.randrange(n)
        r2, c2 = table[r1][x], table[x][c1]
        if e in (r1, r2, c1, c2):
            continue
        bad = [row[:] for row in table]
        a, b = table[r1][c1], table[r1][c2]
        bad[r1][c1], bad[r1][c2], bad[r2][c1], bad[r2][c2] = b, a, a, b
        violation = first_associativity_violation(bad)
        if violation is not None:
            return bad, violation


# ---------------------------------------------------------------- graphs ---

def power_graph_edges(table):
    """Sorted edges u < v of the power graph: one of u, v is a power of the other."""
    e = _identity(table)
    powers = []
    for a in range(len(table)):
        seen, x = {a}, a
        while x != e:
            x = table[x][a]
            seen.add(x)
        powers.append(seen)
    n = len(table)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if v in powers[u] or u in powers[v]]


def _random_cubic(rng, n):
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == 3 * n // 2:
            return sorted(edges)


def _invariant(n, edges):
    """Sorted (triangles at v, vertices at distance 2) pairs; 1-WL cannot see them."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for v in range(n):
        triangles = sum(1 for u in adj[v] for w in adj[v] if u < w and w in adj[u])
        two = set().union(*(adj[u] for u in adj[v])) - adj[v] - {v}
        out.append((triangles, len(two)))
    return sorted(out)


def _write_graph(path, n, edges):
    path.write_text(json.dumps({"vertices": [str(v) for v in range(n)],
                                "edges": [list(e) for e in edges]}, separators=(",", ":")))


def edges_digest(n, edges):
    """Digest of a vertex count and a sorted edge list."""
    h = hashlib.sha256(f"{n}\n".encode())
    for u, v in edges:
        h.update(f"{u} {v}\n".encode())
    return h.hexdigest()


def classical_reference(kind, na, ea, nb, eb):
    """Sorted edges of the direct, cartesian or normal product, pair (i, j) at i*nb + j."""
    edges = set()
    if kind in ("direct", "normal"):
        for u1, v1 in ea:
            for u2, v2 in eb:
                edges.add((u1 * nb + u2, v1 * nb + v2))
                x, y = u1 * nb + v2, v1 * nb + u2
                edges.add((min(x, y), max(x, y)))
    if kind in ("cartesian", "normal"):
        for i in range(na):
            for u2, v2 in eb:
                edges.add((i * nb + u2, i * nb + v2))
        for u1, v1 in ea:
            for j in range(nb):
                edges.add((u1 * nb + j, v1 * nb + j))
    return sorted(edges)


# ------------------------------------------------------------- execution ---

class ItemTimeout(Exception):
    """An item ran past the per-item time limit."""


def run_cli(argv):
    """Run powergraphs.cli.main in-process, capturing its output."""
    from powergraphs import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def prepare(item):
    """A zero-argument callable that runs the item and returns its raw output.

    Everything an item needs is built here, before timing starts.  The
    package's modules are looked up at call time, so the tracer's rebound
    names are the ones called.
    """
    if item["kind"] == "cli":
        return lambda: run_cli(item["argv"])
    from powergraphs import graphs, products
    a = graphs.SimpleGraph([str(v) for v in range(item["na"])], map(tuple, item["ea"]))
    b = graphs.SimpleGraph([str(v) for v in range(item["nb"])], map(tuple, item["eb"]))
    left, right = CLASSICAL_WEIGHTS[item["product"]]
    classical = f"{item['product']}_product_graph"

    def run():
        got = products.generalized_product_graph(a, products.classical_weights(left, a),
                                                 b, products.classical_weights(right, b))
        return {"code": 0, "generalized": got, "classical": getattr(products, classical)(a, b)}
    return run


def to_record(raw):
    """JSON-ready output record: graphs become digests of their edge sets."""
    return {key: edges_digest(value.vertex_count, value.edges()) if hasattr(value, "edges") else value
            for key, value in raw.items()}


def record_digest(workload, record):
    kept = {k: v for k, v in record.items() if not (k == "stderr" and workload.volatile_stderr)}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------- workloads ---

class Workload:
    name = ""
    volatile_stderr = False

    def generate(self, seed, seconds, inputs: Path):
        """Write input files under inputs; return the jobs as lists of item dicts."""
        raise NotImplementedError

    def check(self, item, record):
        """None when the record is a correct output for item, else the reason."""
        raise NotImplementedError


def _code_reason(record, expected):
    if record["code"] != expected:
        return f"exit code {record['code']!r}, expected {expected}"
    return None


class VerifySweep(Workload):
    """verify-all --max-order 144: the headline command.

    Its 889 small instances split time between groups.direct_product,
    power_graph and the weighted product; are_isomorphic is settled by
    degree sequences.
    """
    name = "verify_sweep"
    volatile_stderr = True  # per-claim wall times

    def generate(self, seed, seconds, inputs):
        return [[{"kind": "cli", "argv": ["verify-all", "--max-order", str(VERIFY_MAX_ORDER),
                                          "--seed", str(seed)]}]]

    def check(self, item, record):
        seed = item["argv"][-1]
        expected = "\n".join((f"verification summary (max-order={VERIFY_MAX_ORDER}, seed={seed})",
                              "") + VERIFY_TABLE + ("", "result: PASS")) + "\n"
        if record["stdout"] != expected:
            return "claim table differs from the recorded one"
        return _code_reason(record, 0)


class ProductPower(Workload):
    """product generalized G1 G2 --format json on 1000-1200 vertex pairs.

    The weighted product, power weights and export do the work and no
    product group is built; power weight rows are sparse.
    """
    name = "product_power"

    def generate(self, seed, seconds, inputs):
        rng = random.Random(f"product_power:{seed}")
        items = []
        for stratum in PRODUCT_POWER_STRATA:
            pair = list(rng.choice(stratum))
            rng.shuffle(pair)
            items.append({"kind": "cli", "argv": ["product", "generalized", *pair, "--format", "json"]})
        rng.shuffle(items)
        return [items]

    def check(self, item, record):
        reason = _code_reason(record, 0)
        if reason:
            return reason
        from powergraphs import direct_product, parse_group_spec, power_graph
        g1, g2 = item["argv"][2:4]
        expected = power_graph(direct_product(parse_group_spec(g1), parse_group_spec(g2)))
        got = json.loads(record["stdout"])
        if got["vertices"] != expected.labels:
            return "vertex labels differ from power_graph(direct_product(G1, G2))"
        if sorted(map(tuple, got["edges"])) != expected.edges():
            return "edges differ from power_graph(direct_product(G1, G2))"
        return None


class ProductClassical(Workload):
    """classical_weights + generalized_product_graph and the classical constructors.

    The same products layer as product_power with dense weight rows, on
    random graphs at densities 0.1 and 0.6, so a change that helps sparse
    power rows but costs dense rows shows here.
    """
    name = "product_classical"

    def generate(self, seed, seconds, inputs):
        rng = random.Random(f"product_classical:{seed}")
        items = []
        for kind in CLASSICAL_KINDS:
            for density in CLASSICAL_DENSITIES:
                na, nb = rng.choice(CLASSICAL_SIZES)
                items.append({"kind": "classical", "product": kind, "density": density,
                              "na": na, "ea": _random_edges(rng, na, density),
                              "nb": nb, "eb": _random_edges(rng, nb, density)})
        rng.shuffle(items)
        return [items]

    def check(self, item, record):
        expected = edges_digest(item["na"] * item["nb"], classical_reference(
            item["product"], item["na"], item["ea"], item["nb"], item["eb"]))
        for key in ("generalized", "classical"):
            if record.get(key) != expected:
                return f"{key} product is not labeled-equal to the reference {item['product']} product"
        return _code_reason(record, 0)


def _random_edges(rng, n, density):
    """round(density * n(n-1)/2) edges drawn uniformly, sorted."""
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, round(density * len(pairs))))


class CayleyValidate(Workload):
    """stats cayley:FILE on relabelled tables of order 150-200, half corrupted.

    The only workload that validates untrusted tables: the O(n^3)
    associativity scan dominates and products are never reached.  Corrupted
    tables keep the Latin property and the identity, so only associativity
    rejects them.
    """
    name = "cayley_validate"

    def generate(self, seed, seconds, inputs):
        rng = random.Random(f"cayley_validate:{seed}")
        items = []
        for order, recipes in CAYLEY_RECIPES.items():
            valid, corrupt = rng.sample(recipes, 2)
            if order == 200:
                valid, corrupt = "C200", rng.choice(recipes[1:])
            items.append(cayley_item(valid, False, rng, inputs / f"t{len(items)}.tbl"))
            items.append(cayley_item(corrupt, True, rng, inputs / f"t{len(items)}.tbl"))
        rng.shuffle(items)
        return [items]

    def check(self, item, record):
        if "violation" in item:
            reason = _code_reason(record, 2)
            if reason:
                return reason
            i, j, k, left, right = item["violation"]
            expected = f"({i}*{j})*{k} = {left} but {i}*({j}*{k}) = {right}"
            if expected not in record["stderr"] or record["stdout"]:
                return f"error does not name the first violating cell {expected!r}"
            return None
        reason = _code_reason(record, 0)
        if reason:
            return reason
        lines = record["stdout"].splitlines()
        missing = [line for line in item["stats"] if line not in lines]
        return f"stats output lacks {missing}" if missing else None


def cayley_item(recipe, broken, rng, path):
    """Write a relabelled, and if broken corrupted, table of recipe to path."""
    table = group_table(recipe)
    perm = list(range(len(table)))
    rng.shuffle(perm)
    table = _relabel_table(table, perm)
    item = {"kind": "cli", "recipe": recipe, "argv": ["stats", f"cayley:{path.as_posix()}"]}
    if broken:
        table, item["violation"] = _corrupt(table, rng)
    else:
        item["stats"] = _stats_lines(table)
    path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
    return item


def _stats_lines(table):
    n = len(table)
    orders = _element_orders(table)
    counts = {o: orders.count(o) for o in sorted(set(orders))}
    abelian = all(table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n))
    return [f"order: {n}",
            f"identity: {_identity(table)}",
            f"abelian: {'yes' if abelian else 'no'}",
            f"exponent: {lcm(*orders)}",
            "element orders: " + " ".join(f"{o}^{c}" for o, c in counts.items())]


class IsoDecide(Workload):
    """iso A B on non-isomorphic random cubic pairs and relabelled power graphs.

    The only workload where are_isomorphic backtracking does the work:
    colour refinement cannot split a regular graph.
    """
    name = "iso_decide"

    def generate(self, seed, seconds, inputs):
        rng = random.Random(f"iso_decide:{seed}")
        graphs = {}
        for name in ISO_GROUPS:
            table = group_table(name)
            n, edges = len(table), power_graph_edges(table)
            path = inputs / f"p-{name.replace('x', '_')}.json"
            _write_graph(path, n, edges)
            graphs[name] = (n, edges, path)
        n = ISO_REGULAR_VERTICES
        jobs = []
        for index in range(max(ISO_MIN_JOBS, int(ISO_JOBS_PER_SECOND * seconds))):
            a = _random_cubic(rng, n)
            b = _random_cubic(rng, n)
            while _invariant(n, b) == _invariant(n, a):
                b = _random_cubic(rng, n)
            pa, pb = inputs / f"r{index}a.json", inputs / f"r{index}b.json"
            _write_graph(pa, n, a)
            _write_graph(pb, n, b)
            name = rng.choice(ISO_GROUPS)
            size, edges, source = graphs[name]
            perm = list(range(size))
            rng.shuffle(perm)
            image = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
            target = inputs / f"q{index}.json"
            _write_graph(target, size, image)
            jobs.append([
                {"kind": "cli", "argv": ["iso", pa.as_posix(), pb.as_posix()], "isomorphic": False},
                {"kind": "cli", "argv": ["iso", source.as_posix(), target.as_posix()],
                 "isomorphic": True, "group": name}])
        return jobs

    def check(self, item, record):
        if not item["isomorphic"]:
            reason = _code_reason(record, 1)
            if reason is None and record["stdout"] != "not isomorphic\n":
                reason = "expected 'not isomorphic'"
            return reason
        reason = _code_reason(record, 0)
        if reason:
            return reason
        a = json.loads(Path(item["argv"][1]).read_text())
        b = json.loads(Path(item["argv"][2]).read_text())
        try:
            perm = [int(w) for w in record["stdout"].split()]
        except ValueError:
            return "witness is not a list of integers"
        n = len(a["vertices"])
        if sorted(perm) != list(range(n)):
            return "witness is not a permutation of the vertices"
        image = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in a["edges"])
        if image != sorted(map(tuple, b["edges"])):
            return "witness does not map the first graph onto the second"
        return None


WORKLOADS = {w.name: w for w in (VerifySweep(), ProductPower(), ProductClassical(),
                                  CayleyValidate(), IsoDecide())}
