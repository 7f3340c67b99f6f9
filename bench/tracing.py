"""Outside-in tracing of the powergraphs package.

Tracer.install() rebinds each traced function, in every powergraphs module
whose namespace holds it, to a wrapper that records a span or only counts;
uninstall() puts the original objects back.  Nothing under src/ changes.
Spans (id, name, start, end, parent id, job id) stay in memory until
write_spans() is called at the end of the run.
"""

import json
import sys
import time
from collections import Counter, defaultdict


def _count(metric, value):
    def hook(counters, result, args):
        counters[metric] += value(result, args)
    return hook


CLAIMS = {"check_power_product_pair": "power-product-identity",
          "check_cartesian_obstruction": "cartesian-obstruction",
          "check_exponent_windows": "exponent-window"}

# (module, function, result hook).  A span is named "<module>.<function>".
SPANNED = (
    ("groupspec", "parse_group_spec", None),
    ("groups", "direct_product", _count("groups.direct_product_cells", lambda g, a: g.order ** 2)),
    ("groups", "load_cayley_table", None),
    ("groups", "group_from_cayley_table", None),
    ("power", "power_weights", _count("power.weight_cells", lambda w, a: len(w) ** 2)),
    ("power", "power_graph_bundle", None),
    ("products", "generalized_product_graph", _count("products.edges_out", lambda g, a: g.edge_count)),
    ("products", "direct_product_graph", _count("products.edges_out", lambda g, a: g.edge_count)),
    ("products", "cartesian_product_graph", _count("products.edges_out", lambda g, a: g.edge_count)),
    ("products", "normal_product_graph", _count("products.edges_out", lambda g, a: g.edge_count)),
    ("products", "classical_weights", None),
    ("graphs", "graphs_equal_labeled", None),
    ("graphs", "export", _count("graphs.export_bytes", lambda s, a: len(s.encode()))),
    ("graphs", "graph_from_json", None),
    ("graphs", "are_isomorphic", _count("graphs.iso_calls", lambda r, a: 1)),
    ("verify", "check_power_product_pair", _count("verify.instances", lambda r, a: 1)),
    ("verify", "check_cartesian_obstruction", _count("verify.instances", lambda r, a: 1)),
    ("verify", "check_exponent_windows", _count("verify.instances", lambda r, a: 1)),
    ("verify", "check_classical_weights", _count("verify.instances", lambda r, a: len(r))),
    ("cli", "main", None),
)

# Per-layer time metrics: self time (span minus its traced children) summed
# over the listed spans.
SELF_TIME = {
    "groupspec.parse_s": ("groupspec.parse_group_spec",),
    "groups.direct_product_s": ("groups.direct_product",),
    "groups.load_s": ("groups.load_cayley_table",),
    "groups.validate_s": ("groups.group_from_cayley_table",),
    "power.bundle_s": ("power.power_graph_bundle", "power.power_weights"),
    "products.generalized_s": ("products.generalized_product_graph",),
    "products.classical_s": ("products.direct_product_graph", "products.cartesian_product_graph",
                             "products.normal_product_graph"),
    "products.classical_weights_s": ("products.classical_weights",),
    "graphs.build_s": ("graphs.SimpleGraph",),
    "graphs.equal_labeled_s": ("graphs.graphs_equal_labeled",),
    "graphs.export_s": ("graphs.export",),
    "graphs.from_json_s": ("graphs.graph_from_json",),
    "graphs.iso_s": ("graphs.are_isomorphic",),
    "cli.main_s": ("cli.main",),
}
# Verification claims are reported inclusive: the whole cost of each claim.
CLAIM_TIME = {f"verify.{claim}_s": f"verify.{claim}" for claim in (
    "power-product-identity", "cartesian-obstruction", "exponent-window",
    "classical-weights-direct", "classical-weights-cartesian", "classical-weights-normal")}
COUNTERS = ("groups.direct_product_cells", "groups.tables_rejected", "power.weight_cells",
            "progressions.intersect_calls", "progressions.intersect_hits", "products.edges_out",
            "graphs.build_edges", "graphs.export_bytes", "graphs.iso_calls", "verify.instances")


def package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "powergraphs" or name.startswith("powergraphs.")}


def _classical_claim(args, kwargs):
    return f"verify.classical-weights-{args[0] if args else kwargs['kind']}"


def namespace_snapshot():
    """Every name bound in the package's modules and in SimpleGraph."""
    import powergraphs.cli  # noqa: F401  (loads every module)
    from powergraphs.graphs import SimpleGraph
    snapshot = {name: dict(vars(module)) for name, module in package_modules().items()}
    snapshot["powergraphs.graphs.SimpleGraph"] = dict(vars(SimpleGraph))
    return snapshot


def same_namespaces(a, b):
    return a.keys() == b.keys() and all(
        a[m].keys() == b[m].keys() and all(a[m][k] is b[m][k] for k in a[m]) for m in a)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.job = None
        self._stack = []
        self._next_id = 0
        self._rebound = []

    def _spanned(self, name, fn, hook=None, rejected=None):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if rejected and isinstance(exc, rejected[0]):
                    tracer.counters[rejected[1]] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name_of(args, kwargs), start, end, parent, tracer.job))
            if hook:
                hook(tracer.counters, result, args)
            return result
        return wrapper

    def _rebind(self, original, replacement):
        for module in package_modules().values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._rebound.append((module, key, original))

    def install(self):
        from powergraphs import cli, graphs, groups, progressions  # noqa: F401  (loads every module)
        modules = package_modules()
        for module, function, hook in SPANNED:
            original = getattr(modules[f"powergraphs.{module}"], function)
            if function in CLAIMS:
                name = f"verify.{CLAIMS[function]}"
            elif function == "check_classical_weights":
                name = _classical_claim
            else:
                name = f"{module}.{function}"
            rejected = None
            if function == "group_from_cayley_table":
                rejected = (groups.CayleyTableError, "groups.tables_rejected")
            self._rebind(original, self._spanned(name, original, hook, rejected))

        intersect = progressions.aps_intersect_positively
        counters = self.counters

        # About 1.4 M calls per C30xC40 product: counters only, no spans.
        def counted(p, q):
            hit = intersect(p, q)
            counters["progressions.intersect_calls"] += 1
            if hit:
                counters["progressions.intersect_hits"] += 1
            return hit
        self._rebind(intersect, counted)

        init = graphs.SimpleGraph.__init__
        graphs.SimpleGraph.__init__ = self._spanned(
            "graphs.SimpleGraph", init, _count("graphs.build_edges", lambda r, args: args[0].edge_count))
        self._rebound.append((graphs.SimpleGraph, "__init__", init))

    def uninstall(self):
        while self._rebound:
            owner, key, original = self._rebound.pop()
            setattr(owner, key, original)

    def metrics(self, jobs=1):
        """Per-layer metrics per job: every span and counter recorded, over jobs."""
        children = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            self_time[name] += end - start - children[span_id]
            total_time[name] += end - start
        out = {metric: sum(self_time[n] for n in names) / jobs for metric, names in SELF_TIME.items()}
        out.update({metric: total_time[name] / jobs for metric, name in CLAIM_TIME.items()})
        out.update({name: self.counters[name] / jobs for name in COUNTERS})
        calls = self.counters["progressions.intersect_calls"]
        out["progressions.hit_ratio"] = self.counters["progressions.intersect_hits"] / calls if calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for span_id, name, start, end, parent, job in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")
