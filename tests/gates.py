"""In-cap gates: each row runs one powergraphs command in a child process.

Run `python tests/gates.py` from any directory, on Linux (it reads each
child's max RSS from os.wait4). It prints one line per row and exits 1 if
any row failed: a nonzero exit, a failed check, or a bound passed.

On Linux a child's ru_maxrss includes this process's own peak RSS, even
after it has freed that memory, so rows whose output no check reads send it
to DEVNULL: read here, one large output would raise every later row's RSS.
"""

import json, os, random, subprocess, sys, tempfile, time
from pathlib import Path

CLI = (sys.executable, "-m", "powergraphs.cli")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Twin-rich power graphs at the 200-vertex cap: iso searches one vertex per twin class.
ISO_SPECS = ("S4xC8", "D4xD3xC4", "C2xC2xC2xD12", "S3xS3xC5", "Q8xC25")
C2_12, C2_13 = "x".join(["C2"] * 12), "x".join(["C2"] * 13)


def _passes(out, args):
    return ": PASS (" in out


def _sweep_passes(out, args):
    return out.endswith("\nresult: PASS\n")


def _witness_maps_edges(out, args):
    """The witness maps file1's vertices one-to-one onto file2's, and edges onto edges."""
    a, b = (json.loads(Path(path).read_text()) for path in args[1:])
    witness = [int(w) for w in out.split()]
    return sorted(witness) == list(range(len(a["vertices"]))) and sorted(
        sorted((witness[u], witness[v])) for u, v in a["edges"]) == sorted(map(sorted, b["edges"]))


# (argv with {work} for the input directory, check of stdout, max RSS in MB, max seconds)
ROWS = (
    (("verify-all", "--max-order", "144"), _sweep_passes, 40, 10),
    # The isomorphism cap: the largest sweep the CLI takes, where the power
    # join's residue caches are largest.  It read 0.14 to 0.36 s and 15 MB
    # alone, and 0.15 to 0.25 s and 19 MB here, where a child's max RSS
    # includes this script's own (Python 3.11.7, 2 vCPUs): bounds at about
    # five times the slowest time and 1.5 times the RSS read here.
    (("verify-all", "--max-order", "200"), _sweep_passes, 30, 2),
    *((("verify-theorem", *pair.split()), _passes, None, None) for pair in (
        "S4 D21", "D10 D25", "D12 D21", "S4 C42", "C50 D10", "C20 D25", "C30 C40", "C20 C60", "Q8 C125")),
    *((("verify-theorem", *pair.split()), _passes, 150, 30) for pair in (
        "Q8 C1250", "D50 C100", "C100 C100", "C4 C2500", "C50 C200")),
    *((("iso", f"{{work}}/{spec}.a.json", f"{{work}}/{spec}.b.json"), _witness_maps_edges, None, 5)
      for spec in ISO_SPECS),
    (("stats", "C2000"), None, 150, None),
    (("stats", "D5000"), None, 100, None),
    (("build", "C2000", "--dump-weights"), None, 100, None),
    (("stats", C2_12), None, 80, None),
    (("product", "generalized", "Q8", "C125", "--format", "dot"), None, 50, None),
    (("build", "C2000", "--format", "json"), None, 40, None),
    (("product", "generalized", "D50", "C100", "--format", "json"), None, 50, None),
    # Twin-free at the cap: the export selects each row's neighbours once, for
    # that row alone, and the dict that finds each vertex's twin-class lead
    # holds the 5000 distinct closed rows while it runs (34 MB).
    (("product", "cartesian", "D50", "C100", "--format", "json"), None, 50, None),
    # 10,000 distinct closed rows with 1,328 distinct hashes: twin selections
    # keyed by hash hold the colliding rows' lists to the end, and fail this
    # row at 201 MB.  It reads 1.3 s and 39 MB (Python 3.11.7, 2 vCPUs):
    # bounds at about five times the time and 1.5 times the RSS.
    (("product", "direct", "C2", "C5000", "--format", "json"), None, 60, 7),
    # Time bounds: hang guards at about five times 0.52 and 1.95 s (Python 3.11.7, 2 vCPUs).
    (("stats", "cayley:{work}/c2000.tbl"), None, 80, 3),
    # The same table with every entry spelt with a + sign: read with int(),
    # then mapped to the loader's shared ints, so it skips the closure test too.
    (("stats", "cayley:{work}/c2000p.tbl"), None, 80, 3),
    (("stats", "cayley:{work}/c4000.tbl"), None, 180, 10),
    (("product", "generalized", "C4000", "C2", "--format", "json"), None, 60, None),
    (("stats", "C10000"), None, 100, None),
    (("product", "generalized", "Q8", "C1250", "--format", "json"), None, 60, None),
    (("stats", C2_13), None, 100, None),
    # Exports at the caps, written a row at a time: each read 1.4 to 3.5 GB when
    # the whole text was built first.  Time bounds: hang guards at five to seven
    # times 0.74, 1.68, 0.83, 0.75 and 2.06 s (Python 3.11.7, 2 vCPUs).
    (("build", "C10000", "--format", "json"), None, 60, 5),
    (("build", "C10000"), None, 60, 10),
    (("product", "generalized", "C10000", "C1", "--format", "json"), None, 80, 5),
    (("product", "normal", "C100", "C100", "--format", "json"), None, 60, 5),
    (("product", "normal", "C100", "C100"), None, 60, 12),
    # The two ends of products._spread at the cap: a one-bit left row
    # against 10,000 right vertices, and 5000-bit left rows against two.
    # Time bounds: hang guards at about five times 1.09 and 1.47 s, RSS at
    # about 1.5 times 45 and 44 MB (Python 3.11.7, 2 vCPUs).  A spread whose
    # multiplier is sized by |V2| alone fails the first row, and one that
    # loops over one-bit chunks for a thin right factor fails the second.
    (("product", "cartesian", "C1", "C10000", "--format", "json"), None, 68, 5.5),
    (("product", "normal", "C5000", "C2", "--format", "json"), None, 66, 7.5),
)


def write_inputs(work):
    """Cyclic Cayley table files of orders 2000 and 4000, the order-2000 one
    also with a + sign on every entry, and the iso pairs: each spec's power
    graph and a seeded relabelling of it."""
    for name, n, spell in (("c2000", 2000, str), ("c2000p", 2000, "+{}".format), ("c4000", 4000, str)):
        tokens = list(map(spell, range(n))) * 2
        with open(Path(work, f"{name}.tbl"), "w") as f:
            f.write(f"{n}\n")
            f.writelines(" ".join(tokens[i:i + n]) + "\n" for i in range(n))
    rng = random.Random(1)
    for spec in ISO_SPECS:
        text = subprocess.run([*CLI, "build", spec, "--format", "json"],
                              stdout=subprocess.PIPE, text=True, check=True).stdout
        graph = json.loads(text)
        perm = list(range(len(graph["vertices"])))
        rng.shuffle(perm)
        labels = [label for _, label in sorted(zip(perm, graph["vertices"]))]
        image = sorted(sorted((perm[u], perm[v])) for u, v in graph["edges"])
        Path(work, f"{spec}.a.json").write_text(text)
        Path(work, f"{spec}.b.json").write_text(json.dumps({"vertices": labels, "edges": image}))


def run_row(work, argv, check, max_mb, max_s):
    """Run one row; print its line and return whether it passed."""
    args = [arg.format(work=work) for arg in argv]
    start = time.perf_counter()
    with subprocess.Popen([*CLI, *args], stdout=subprocess.PIPE if check else subprocess.DEVNULL,
                          text=True) as child:
        out = child.stdout.read() if check else ""
        # wait4 per child: RUSAGE_CHILDREN's ru_maxrss is the largest child waited for so far.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall, mb = time.perf_counter() - start, usage.ru_maxrss / 1024
    checked = child.returncode == 0 and (check is None or check(out, args))
    ok = checked and (max_mb is None or mb <= max_mb) and (max_s is None or wall <= max_s)
    print(f"{'ok' if ok else 'FAIL'}: {' '.join(argv)}: exit {child.returncode}, check "
          f"{'-' if check is None else 'passed' if checked else 'failed'}, {wall:.2f} s (bound {max_s}), "
          f"max RSS {mb:.0f} MB (bound {max_mb})", flush=True)
    return ok


def main():
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        results = [run_row(work, *row) for row in ROWS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
