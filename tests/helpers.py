"""Oracles and builders shared by test modules; pytest does not collect this file."""

from powergraphs import SimpleGraph
from powergraphs.cli import main


def labels(n):
    return [str(v) for v in range(n)]


def random_gnp(rng, n, p=0.5):
    return SimpleGraph(labels(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < p])


def adjacency(g):
    """Adjacency test on g, built from one read of g.edges()."""
    edges = set(g.edges())
    return lambda u, v: (min(u, v), max(u, v)) in edges


def relabel_table(table, perm):
    """The table of the same operation on the elements renamed x -> perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def random_relabelling(g, rng):
    """A random permutation of g's elements that moves the identity off index 0."""
    perm = rng.sample(range(g.order), g.order)
    if g.order > 1 and perm[g.identity] == 0:
        other = (g.identity + 1) % g.order
        perm[g.identity], perm[other] = perm[other], perm[g.identity]
    return perm


def write_table(path, table, spell=str, sep=" "):
    path.write_text(f"{len(table)}\n" + "".join(sep.join(map(spell, row)) + "\n" for row in table),
                    encoding="utf-8")


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def powers(g, a, count=None):
    """[a^1, ..., a^count] by repeated multiplication in the table; by default up to the identity."""
    out = [a]
    while out[-1] != g.identity if count is None else len(out) < count:
        out.append(g.table[out[-1]][a])
    return out


def first_violation(table):
    """Slow oracle: the first (i, j, k) in index order with (i*j)*k != i*(j*k)."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left, right = table[table[i][j]][k], table[i][table[j][k]]
                if left != right:
                    return i, j, k, left, right
    return None
