"""Command-line interface.

Exit codes: 0 success or verified, 1 semantic negative (graphs not
isomorphic, verification failure), 2 usage or input error, or out of
memory.  Results go to standard output, diagnostics to standard error.
"""

import argparse
import sys
from collections import Counter
from collections.abc import Callable
from math import lcm
from pathlib import Path

from .graphs import EXPORT_FORMATS, SimpleGraph, are_isomorphic, check_iso_size, export_chunks, parse_graph_json
from .groups import direct_product
from .groupspec import parse_group_spec
from .power import power_graph, power_graph_bundle, power_weights
from .products import PRODUCT_KINDS, check_product_size, classical_product, generalized_product_graph
from .progressions import SENTINEL, WeightTable
from .verify import (
    DEFAULT_MAX_ORDER,
    DEFAULT_SEED,
    check_power_product_pair,
    format_reports,
    verify_all,
)

GROUP_SPEC_HELP = (
    "Group specs: C<n> cyclic, D<n> dihedral of order 2n, S<n> symmetric "
    "(n <= 5), Q8 quaternion, cayley:<path> a Cayley table file; atoms "
    "joined by 'x' denote direct products, e.g. C2xC2 or D4xQ8."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergraphs",
        description="Power graphs of finite groups and their products.",
        epilog=GROUP_SPEC_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="print the power graph of a group",
                             epilog=GROUP_SPEC_HELP)
    p_build.add_argument("spec", help="group spec, e.g. C6 or C2xC2")
    _add_format(p_build)
    _add_dump_weights(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_product = sub.add_parser(
        "product",
        help="print a product of two power graphs",
        epilog="The generalized product uses the factor groups' power weights. "
               + GROUP_SPEC_HELP)
    p_product.add_argument("kind", choices=PRODUCT_KINDS)
    p_product.add_argument("spec1")
    p_product.add_argument("spec2")
    _add_format(p_product)
    _add_dump_weights(p_product)
    p_product.set_defaults(func=_cmd_product)

    p_theorem = sub.add_parser(
        "verify-theorem",
        help="check that the power graph of a direct product equals the "
             "weighted product of the factor power graphs")
    p_theorem.add_argument("spec1")
    p_theorem.add_argument("spec2")
    p_theorem.set_defaults(func=_cmd_verify_theorem)

    p_all = sub.add_parser("verify-all",
                           help="run every verification sweep over the built-in family")
    p_all.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                       help="cap on group and product orders (default %(default)s)")
    p_all.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the random-graph suites (default %(default)s)")
    p_all.set_defaults(func=_cmd_verify_all)

    p_iso = sub.add_parser("iso", help="test two json graph files for isomorphism")
    p_iso.add_argument("file1")
    p_iso.add_argument("file2")
    p_iso.set_defaults(func=_cmd_iso)

    p_stats = sub.add_parser("stats", help="print group and power graph statistics")
    p_stats.add_argument("spec")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=EXPORT_FORMATS, default="edgelist",
                        help="output format (default %(default)s)")


def _add_dump_weights(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dump-weights", action="store_true",
                        help="print the exponent weight table(s) instead of the graph")


def _print_weights(weights: WeightTable) -> None:
    """Print all n^2 cells, absent ones as (0,0), one row at a time."""
    for u, row in enumerate(weights):
        cells = (row.get(v, SENTINEL) for v in range(len(weights)))
        print("\n".join(f"{u} {v} : ({start},{step})" for v, (start, step) in enumerate(cells)))


def _write_graph(g: SimpleGraph, fmt: str) -> None:
    """Write g's export and a newline to stdout a piece at a time; an empty
    text, as an edgeless graph's edgelist is, prints no line."""
    # Looked up per call, so a redirected sys.stdout gets the text.
    out = sys.stdout
    wrote = False
    for chunk in export_chunks(g, fmt):
        out.write(chunk)
        wrote = True
    if wrote:
        out.write("\n")


def _cmd_build(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    if args.dump_weights:
        _print_weights(power_weights(group))
    else:
        _write_graph(power_graph(group), args.format)
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    g1, g2 = parse_group_spec(args.spec1), parse_group_spec(args.spec2)
    if args.dump_weights:
        for g in (g1, g2):
            print(f"# weights of P({g.name})")
            _print_weights(power_weights(g))
        return 0
    # Refuse an over-cap product before either factor's power graph is built.
    check_product_size(g1.order, g2.order)
    if args.kind == "generalized":
        b1, b2 = power_graph_bundle(g1), power_graph_bundle(g2)
        result = generalized_product_graph(b1.graph, b1.weights, b2.graph, b2.weights)
    else:
        build, _, _ = classical_product(args.kind)
        result = build(power_graph(g1), power_graph(g2))
    _write_graph(result, args.format)
    return 0


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    g1 = parse_group_spec(args.spec1)
    g2 = parse_group_spec(args.spec2)
    # P(G1 x G2) first: direct_product refuses an over-cap product before
    # either factor's power graph is built.
    pg = power_graph(direct_product(g1, g2))
    result = check_power_product_pair(power_graph_bundle(g1), power_graph_bundle(g2), pg)
    status = "PASS" if result.passed else "FAIL"
    print(f"power-product-identity [{result.subject}]: {status} ({result.detail})")
    return 0 if result.passed else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    reports = verify_all(max_order=args.max_order, seed=args.seed)
    print(format_reports(reports, args.max_order, args.seed))
    for report in reports:
        print(f"# {report.claim}: {report.wall_time:.3f}s", file=sys.stderr)
    return 0 if all(report.passed for report in reports) else 1


def _on_file(path: str, step: Callable, *args):
    """step(*args), with path named in a ValueError it raises."""
    try:
        return step(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_iso(args: argparse.Namespace) -> int:
    paths = (args.file1, args.file2)
    # utf-8-sig also drops one leading byte-order mark.
    parsed = [_on_file(path, lambda: parse_graph_json(Path(path).read_text(encoding="utf-8-sig")))
              for path in paths]
    # An over-cap pair is refused before either graph's rows are built.
    check_iso_size(*(len(labels) for labels, _ in parsed))
    a, b = (_on_file(path, SimpleGraph, labels, edges) for path, (labels, edges) in zip(paths, parsed))
    # Dropped before the search: its small lists, kept alive, are traversed by every
    # garbage collection the search triggers (about 4% of an iso_decide item).
    del parsed
    iso, witness = are_isomorphic(a, b)
    if iso:
        print(" ".join(str(w) for w in witness))
        return 0
    print("not isomorphic")
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    group = parse_group_spec(args.spec)
    graph = power_graph(group)
    order_counts = Counter(group.element_orders)
    degrees = graph.degree_sequence()
    universal = degrees.count(graph.vertex_count - 1)
    print(f"group: {group.name}")
    print(f"order: {group.order}")
    print(f"identity: {group.element_names[group.identity]}")
    print(f"abelian: {'yes' if group.is_abelian() else 'no'}")
    print(f"exponent: {lcm(*group.element_orders)}")
    print("element orders: " + " ".join(f"{o}^{order_counts[o]}" for o in sorted(order_counts)))
    print(f"power graph edges: {graph.edge_count}")
    print(f"power graph degrees: min {degrees[0]}, max {degrees[-1]}")
    print(f"universal vertices: {universal}")
    print(f"has universal vertex: {'yes' if universal else 'no'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Exit 1 would read as a failed check.
        print("error: out of memory", file=sys.stderr)
        return 2


def entry_point() -> None:
    # Imported here, not by `import powergraphs.cli`: main() does not need it.
    import signal

    # A closed stdout ends the process by SIGPIPE, quietly, as it does other filters.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
