"""Power graphs of finite groups and arithmetic-progression-weighted products."""

from .groups import (
    CayleyTableError,
    FiniteGroup,
    InvalidOrder,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    OrderOverflow,
    cyclic,
    dihedral,
    direct_product,
    group_from_cayley_table,
    load_cayley_table,
    quaternion8,
    symmetric,
)
from .progressions import APPair, SENTINEL, ap_contains, aps_intersect_oracle, aps_intersect_positively
from .graphs import (
    SimpleGraph,
    TooLarge,
    are_isomorphic,
    export,
    graph_from_json,
    graphs_equal_labeled,
    has_universal_vertex,
)
from .power import PowerGraphBundle, exponent_set_window, power_graph, power_graph_bundle, power_weights
from .products import (
    SizeCap,
    cartesian_product_graph,
    classical_weights,
    direct_product_graph,
    generalized_product_graph,
    normal_product_graph,
)
from .groupspec import ParseError, parse_group_spec

__version__ = "0.1.0"

__all__ = [
    "APPair",
    "CayleyTableError",
    "FiniteGroup",
    "InvalidOrder",
    "NoIdentity",
    "NotAssociative",
    "NotClosed",
    "NotLatinSquare",
    "OrderOverflow",
    "ParseError",
    "PowerGraphBundle",
    "SENTINEL",
    "SimpleGraph",
    "SizeCap",
    "TooLarge",
    "ap_contains",
    "aps_intersect_oracle",
    "aps_intersect_positively",
    "are_isomorphic",
    "cartesian_product_graph",
    "classical_weights",
    "cyclic",
    "dihedral",
    "direct_product",
    "direct_product_graph",
    "export",
    "exponent_set_window",
    "generalized_product_graph",
    "graph_from_json",
    "graphs_equal_labeled",
    "group_from_cayley_table",
    "has_universal_vertex",
    "load_cayley_table",
    "normal_product_graph",
    "parse_group_spec",
    "power_graph",
    "power_graph_bundle",
    "power_weights",
    "quaternion8",
    "symmetric",
]
