"""End-to-end command-line checks through main()."""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import powergraphs
from powergraphs import (SENTINEL, SimpleGraph, cyclic, dihedral, direct_product, direct_product_graph,
                         export, normal_product_graph, power_graph, power_weights, symmetric)
from powergraphs.cli import build_parser, entry_point, main
from powergraphs.graphs import EXPORT_FORMATS
from powergraphs.products import PRODUCT_KINDS
from gates import ROWS
from helpers import adjacency, run


def write_graph(path, g):
    path.write_text(export(g, "json"))


def test_build_klein(capsys):
    code, out, err = run(capsys, "build", "C2xC2")
    assert code == 0
    assert out == "(0,0),(0,1)\n(0,0),(1,0)\n(0,0),(1,1)\n"
    assert err == ""


def test_build_trivial_json(capsys):
    code, out, _ = run(capsys, "build", "C1", "--format", "json")
    assert code == 0
    assert out == '{"vertices":["0"],"edges":[]}\n'


@pytest.mark.parametrize("argv", [["build", "C1"], ["product", "direct", "C1", "C2"]])
def test_edgeless_edgelist_prints_nothing(capsys, argv):
    assert run(capsys, *argv) == (0, "", "")


def test_build_c6_line_count(capsys):
    code, out, _ = run(capsys, "build", "C6")
    assert code == 0
    assert len(out.splitlines()) == 13


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "C2", "--format", "dot")
    assert code == 0
    assert out == 'graph {\n  "0" -- "1";\n}\n'


def test_build_rejects_bad_spec(capsys):
    code, out, err = run(capsys, "build", "C2yC3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "position 2" in err


def test_build_missing_cayley_file(capsys):
    code, _, err = run(capsys, "build", "cayley:/no/such/file.tbl")
    assert code == 2
    assert err.startswith("error:")


def test_product_normal_k4(capsys):
    code, out, _ = run(capsys, "product", "normal", "C2", "C2")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_product_direct_two_edges(capsys):
    code, out, _ = run(capsys, "product", "direct", "C2", "C2")
    assert code == 0
    assert out.splitlines() == ["(0,0),(1,1)", "(0,1),(1,0)"]


def test_product_generalized_matches_group_build(capsys):
    code, gen_out, _ = run(capsys, "product", "generalized", "C2", "C3")
    assert code == 0
    code, build_out, _ = run(capsys, "build", "C2xC3")
    assert code == 0
    assert gen_out == build_out


# sha256 of the stdout of `product generalized Q8 C125 --format FMT`, as the
# tuple-based export printed it: the export oracle in test_graphs.py and
# export itself could drift together, these digests cannot.
Q8_C125_DIGESTS = {
    "json": "6555b9bc8ae4137e866ee7578275d797328f759134f34299a03cd9b209c75f0e",
    "edgelist": "6de71b77948a72a584ff6cbe24907413a93707a37fdb37b6061948293ffcb610",
    "dot": "454c281d3a9d1887a06926b9a8ec4e4dbe350d05fb840223f225cdd033875ad8",
}


@pytest.mark.parametrize("fmt", sorted(Q8_C125_DIGESTS))
def test_product_generalized_output_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "product", "generalized", "Q8", "C125", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == Q8_C125_DIGESTS[fmt]


# sha256 of the stdout of each `--dump-weights` command below, as the weight
# rows printed it when each was a dict built up front.
DUMP_DIGESTS = {
    "build C12 --dump-weights": "da6d09efd1862492ee4347a6a00be3a3a2895a0f7d3bf86a10929ed7e277ae18",
    "product direct D4 Q8 --dump-weights": "3bfcfa9c7d24a3d70bf454bc24ea3b17583ea2a1fc1820f44ac3ee458c42f4a6",
}


@pytest.mark.parametrize("command", sorted(DUMP_DIGESTS))
def test_dump_weights_output_is_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_DIGESTS[command]


@pytest.mark.parametrize("argv, graph", [
    (["build", "C1"], lambda: power_graph(cyclic(1))),
    (["build", "D6"], lambda: power_graph(dihedral(6))),
    (["product", "direct", "C1", "C2"], lambda: direct_product_graph(power_graph(cyclic(1)), power_graph(cyclic(2)))),
    (["product", "normal", "C4", "S3"], lambda: normal_product_graph(power_graph(cyclic(4)), power_graph(symmetric(3)))),
    (["product", "generalized", "D4", "C6"], lambda: power_graph(direct_product(dihedral(4), cyclic(6)))),
])
def test_streamed_stdout_is_the_export_text(capsys, argv, graph):
    g = graph()
    for fmt in EXPORT_FORMATS:
        text = export(g, fmt)
        assert run(capsys, *argv, "--format", fmt) == (0, text + "\n" if text else "", "")


@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
def test_graph_is_written_a_row_at_a_time(fmt):
    # Built as one string, P(C2000)'s json peaked at 38 MiB, its dot at 65 MiB
    # and its edgelist at 127 MiB; its rows take about 1 MiB (Python 3.11).
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["build", "C2000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20, peak


def test_verify_theorem_pass(capsys):
    code, out, _ = run(capsys, "verify-theorem", "C2", "C3")
    assert code == 0
    assert out == "power-product-identity [C2 x C3]: PASS (13 edges on each side)\n"


def test_verify_all_small(capsys):
    code, out, err = run(capsys, "verify-all", "--max-order", "8")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"
    assert len([line for line in err.splitlines() if line.startswith("#")]) == 6


def test_verify_all_stdout_is_stable(capsys):
    _, first, _ = run(capsys, "verify-all", "--max-order", "6")
    _, second, _ = run(capsys, "verify-all", "--max-order", "6")
    assert first == second


@pytest.mark.parametrize("argv, products, pairs, seed", [
    (["--max-order", "36"], 169, 130, 0),
    (["--max-order", "144", "--seed", "7"], 379, 340, 7),
])
def test_verify_all_stdout(capsys, argv, products, pairs, seed):
    code, out, _ = run(capsys, "verify-all", *argv)
    assert code == 0
    assert out == (
        f"verification summary (max-order={argv[1]}, seed={seed})\n"
        "\n"
        "claim                        total  pass  fail\n"
        f"cartesian-obstruction          {pairs}   {pairs}     0\n"
        "classical-weights-cartesian     50    50     0\n"
        "classical-weights-direct        50    50     0\n"
        "classical-weights-normal        50    50     0\n"
        "exponent-window                 20    20     0\n"
        f"power-product-identity         {products}   {products}     0\n"
        "\n"
        "result: PASS\n")


def test_verify_all_trivial_order(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-order", "1")
    assert code == 0
    assert out.splitlines()[-1] == "result: PASS"


@pytest.mark.parametrize("max_order", ["0", "-5", "201"])
def test_verify_all_refuses_max_order_outside_the_iso_cap(capsys, max_order):
    code, out, err = run(capsys, "verify-all", "--max-order", max_order)
    assert (code, out) == (2, "")
    assert err == f"error: max order {max_order} is outside the isomorphism cap 1..200\n"


def test_iso_star_vs_complete(tmp_path, capsys):
    # P(C2xC2) is a 3-edge star; P(C4) is K4
    write_graph(tmp_path / "a.json", power_graph(direct_product(cyclic(2), cyclic(2))))
    write_graph(tmp_path / "b.json", power_graph(cyclic(4)))
    code, out, _ = run(capsys, "iso", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert code == 1
    assert out == "not isomorphic\n"


def test_iso_relabeled_self(tmp_path, capsys):
    g = power_graph(cyclic(6))
    moved = [2, 4, 0, 5, 1, 3]
    h = SimpleGraph(g.labels, [(moved[u], moved[v]) for u, v in g.edges()])
    write_graph(tmp_path / "a.json", g)
    write_graph(tmp_path / "b.json", h)
    code, out, _ = run(capsys, "iso", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert code == 0
    perm = [int(tok) for tok in out.split()]
    assert sorted(perm) == list(range(6))
    g_adj, h_adj = adjacency(g), adjacency(h)
    for u in range(6):
        for v in range(u + 1, 6):
            assert g_adj(u, v) == h_adj(perm[u], perm[v])


def test_iso_reads_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + export(power_graph(cyclic(4)), "json"), encoding="utf-8")
    assert run(capsys, "iso", str(path), str(path)) == (0, "0 1 2 3\n", "")


def test_iso_bad_file(tmp_path, capsys):
    # Either file may be the bad one, so the message names it.
    ok = tmp_path / "ok.json"
    write_graph(ok, power_graph(cyclic(2)))
    for name, data, reason in (("junk.json", b"{]", "Expecting property name"),
                               ("latin1.json", b'{"vertices":["\xe9"],"edges":[]}', "can't decode byte 0xe9")):
        bad = tmp_path / name
        bad.write_bytes(data)
        for argv in ((bad, ok), (ok, bad)):
            code, out, err = run(capsys, "iso", *map(str, argv))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {bad}: ") and reason in err, err


def test_iso_rejects_boolean_vertex_index(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text('{"vertices":["a","b"],"edges":[[true,false]]}')
    write_graph(tmp_path / "k2.json", power_graph(cyclic(2)))
    code, out, err = run(capsys, "iso", str(bad), str(tmp_path / "k2.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad edge entry" in err


def test_iso_rejects_deeply_nested_json(tmp_path, capsys):
    write_graph(tmp_path / "k2.json", power_graph(cyclic(2)))
    deep = "[" * 100_000
    for name, text in (("deep.json", deep), ("edges.json", '{"vertices":["a","b"],"edges":' + deep)):
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "iso", str(tmp_path / name), str(tmp_path / "k2.json"))
        assert code == 2
        assert out == ""
        assert err == f"error: {tmp_path / name}: JSON is nested too deeply\n"


def test_stats_c6(capsys):
    code, out, _ = run(capsys, "stats", "C6")
    assert code == 0
    assert out == (
        "group: C6\n"
        "order: 6\n"
        "identity: 0\n"
        "abelian: yes\n"
        "exponent: 6\n"
        "element orders: 1^1 2^1 3^2 6^2\n"
        "power graph edges: 13\n"
        "power graph degrees: min 3, max 5\n"
        "universal vertices: 3\n"
        "has universal vertex: yes\n")


@pytest.mark.parametrize("spec, orders", [
    ("S4", "1^1 2^9 3^8 4^6"),
    ("Q8xC21", "1^1 2^1 3^2 4^6 6^2 7^6 12^12 14^6 21^12 28^36 42^12 84^72"),
])
def test_stats_element_orders_with_several_orders(capsys, spec, orders):
    code, out, _ = run(capsys, "stats", spec)
    assert code == 0
    assert f"\nelement orders: {orders}\n" in out


@pytest.mark.parametrize("argv", [
    ["build", "D4"],
    ["build", "Q8xC3", "--format", "json"],
    ["build", "C12", "--format", "dot"],
    ["stats", "C2xC4xD3"],
    ["product", "direct", "D4", "C6"],
    ["product", "cartesian", "Q8", "C3"],
    ["product", "normal", "C4", "S3", "--format", "json"],
])
def test_power_graphs_are_built_without_weight_rows(monkeypatch, capsys, argv):
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def refuse(group):
        raise AssertionError(f"weight rows of {group.name} built")
    monkeypatch.setattr("powergraphs.power.power_weights", refuse)
    monkeypatch.setattr("powergraphs.cli.power_weights", refuse)
    assert run(capsys, *argv) == expected


def test_stats_holds_no_weight_rows(capsys):
    # D500's weight rows and power graph together peaked at 45 MB; the power
    # graph alone peaks at about 23 MB.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "stats", "D500")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "power graph edges: 112230\n" in out
    assert peak < 32 * 2**20, peak


def test_stats_nonabelian(capsys):
    code, out, _ = run(capsys, "stats", "S3")
    assert code == 0
    assert "abelian: no" in out
    assert "has universal vertex: yes" in out


def test_table_errors_name_their_file(tmp_path, capsys):
    good, bad = tmp_path / "good.tbl", tmp_path / "bad.tbl"
    good.write_text("2\n0 1\n1 0\n")
    bad.write_text("2\n0 1\n0 1\n")
    message = f"error: {bad}: column 0 repeats entry 0 at rows 0 and 1\n"
    for argv in (("stats", f"cayley:{bad}"), ("verify-theorem", f"cayley:{good}", f"cayley:{bad}")):
        assert run(capsys, *argv) == (2, "", message)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
def test_stats_reads_a_cayley_table_from_a_pipe(tmp_path):
    # The table file is read once, so a pipe, which cannot be read twice, loads too.
    table = dihedral(3).table
    text = f"# D3\n{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)
    path = tmp_path / "d3.tbl"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(powergraphs.__file__).parents[1]))
    outputs = [subprocess.run([sys.executable, "-m", "powergraphs.cli", "stats", f"cayley:{source}"],
                              input=text.encode(), capture_output=True, env=env, check=True).stdout
               for source in (path, "/dev/stdin")]
    from_file, from_pipe = (out.decode().splitlines() for out in outputs)
    assert from_file[0] == "group: d3" and from_pipe[0] == "group: stdin"
    assert from_pipe[1:] == from_file[1:]
    assert "abelian: no" in from_file


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
def test_stats_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # A 0xFF byte on line 61, past the reader's first 8 KB chunk, from a file and from a pipe.
    table = cyclic(100).table
    data = (f"100\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)).encode()
    at = data.index(b"\n59 60 ") + 4
    data = data[:at] + b"\xff" + data[at + 1:]
    path = tmp_path / "c100.tbl"
    path.write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(powergraphs.__file__).parents[1]))
    for source in (path, "/dev/stdin"):
        done = subprocess.run([sys.executable, "-m", "powergraphs.cli", "stats", f"cayley:{source}"],
                              input=data, capture_output=True, env=env)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.decode() == f"error: {source}:61: not UTF-8 text (invalid start byte, byte 0xff)\n"


@pytest.mark.parametrize("argv, message", [
    (["build", "C10001"], "error: cyclic group order 10001 exceeds cap 10000 (position 0)"),
    (["build", "C2xD5001"], "error: dihedral group order 10002 exceeds cap 10000 (position 3)"),
    (["product", "direct", "C101", "C100"], "error: product on 10100 vertices exceeds cap 10000"),
    (["stats", "cayley:{tmp}/huge.tbl"], "error: {tmp}/huge.tbl:1: order 10001 exceeds cap 10000 (position 0)"),
    (["iso", "{tmp}/big.json", "{tmp}/big.json"], "error: isomorphism cap is 200 vertices"),
    (["iso", "{tmp}/star.json", "{tmp}/star.json"], "error: isomorphism cap is 200 vertices"),
])
def test_caps_reject_before_building(tmp_path, capsys, argv, message):
    (tmp_path / "huge.tbl").write_text("10001\n")
    write_graph(tmp_path / "big.json", SimpleGraph([str(v) for v in range(201)]))
    n = 10_000
    (tmp_path / "star.json").write_text(json.dumps({"vertices": [str(v) for v in range(n)],
                                                    "edges": [[v, n - 1] for v in range(n - 1)]}))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == message.format(tmp=tmp_path) + "\n"
    # An over-cap table would take gigabytes; an over-cap product is refused
    # before either factor's power graph is built, and an over-cap iso pair
    # before either graph's rows are: a star's rows on 10000 vertices take 12.5 MB.
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_cap_checked_before_power_graphs(monkeypatch, capsys, kind):
    monkeypatch.setattr("powergraphs.products.DEFAULT_SIZE_CAP", 10)

    def refuse(group):
        raise AssertionError(f"P({group.name}) built for an over-cap product")
    monkeypatch.setattr("powergraphs.cli.power_graph_bundle", refuse)
    monkeypatch.setattr("powergraphs.cli.power_graph", refuse)
    code, out, err = run(capsys, "product", kind, "C4", "C3")
    assert (code, out, err) == (2, "", "error: product on 12 vertices exceeds cap 10\n")


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def exhaust(group):
        raise MemoryError
    monkeypatch.setattr("powergraphs.cli.power_graph", exhaust)
    assert run(capsys, "build", "C6") == (2, "", "error: out of memory\n")


def test_over_cap_product_builds_only_the_factor_tables(capsys):
    # The factors are built before the product is refused, but a cyclic
    # group builds no table until one is read: C3000's would be about 69 MB.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "product", "direct", "C3000", "C4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: product on 12000 vertices exceeds cap 10000\n")
    assert peak < 8 * 2**20, peak


def test_build_dump_weights(capsys):
    code, out, _ = run(capsys, "build", "C2", "--dump-weights")
    assert code == 0
    assert out == "0 0 : (1,1)\n0 1 : (0,0)\n1 0 : (2,2)\n1 1 : (1,2)\n"


def test_build_dump_weights_nonabelian(capsys):
    code, out, _ = run(capsys, "build", "D6", "--dump-weights")
    weights = power_weights(dihedral(6))
    assert code == 0
    assert out == "".join(f"{u} {v} : ({start},{step})\n" for u in range(12) for v in range(12)
                          for start, step in [weights[u].get(v, SENTINEL)])


def test_dump_weights_is_printed_one_row_at_a_time():
    # Joined into one string, C400's 160000 dump lines peaked at 27 MB.
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["build", "C400", "--dump-weights"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2**20, peak


def test_product_dump_weights(capsys):
    code, out, _ = run(capsys, "product", "generalized", "C2", "C2", "--dump-weights")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# weights of P(C2)"
    assert lines.count("# weights of P(C2)") == 2
    assert len(lines) == 10


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_entry_point_raises_system_exit(monkeypatch, capsys):
    # entry_point restores the default SIGPIPE action; keep it out of this process.
    installed = []
    monkeypatch.setattr(signal, "signal", lambda *args: installed.append(args))
    monkeypatch.setattr(sys, "argv", ["powergraphs", "build", "C2"])
    with pytest.raises(SystemExit) as info:
        entry_point()
    assert info.value.code == 0
    assert capsys.readouterr().out == "0,1\n"
    if hasattr(signal, "SIGPIPE"):
        assert installed == [(signal.SIGPIPE, signal.SIG_DFL)]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_quietly():
    # C300's edge list is about 245 KB, well above a pipe buffer, so the
    # child is still writing when the reader closes the pipe.
    env = dict(os.environ, PYTHONPATH=str(Path(powergraphs.__file__).parents[1]))
    # Leaving the block closes both pipes and waits for the child.
    with subprocess.Popen([sys.executable, "-m", "powergraphs.cli", "build", "C300"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"0,1\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_cli_import_loads_no_introspection_modules():
    # Every command pays for importing the CLI first.  dataclasses would pull
    # in inspect, ast, dis and tokenize, which nothing in the package uses;
    # json and signal are imported by the functions that use them.
    # Only the modules new since the snapshot count: site may preload others.
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "before = set(sys.modules)\n"
            "import powergraphs.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(Path(powergraphs.__file__).parents[1])],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "powergraphs.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "signal"}) == []


def test_gate_rows_stay_runnable():
    # The gate script runs only where it is run by hand or in CI; a renamed
    # subcommand or option, a repeated row or a bad bound fails here too.
    parser = build_parser()
    for argv, *_ in ROWS:
        parser.parse_args([arg.format(work="work") for arg in argv])
    assert len(set(ROWS)) == len(ROWS)
    bounds = [bound for _, _, *row_bounds in ROWS for bound in row_bounds]
    assert all(bound is None or type(bound) in (int, float) and bound > 0 for bound in bounds)
