"""Exact toolkit for ordered graphs: retraction decisions through a 2-SAT
encoding, cores, interval chromatic numbers, edge-collapsible matchings, and
generators for three hardness reductions.

The public names below are re-exported from their submodules, and each
submodule is imported on first use (PEP 562), so `import ordcore` and the
CLI's graph commands load only what they call.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "GraphError", "IntervalPartition", "MonotoneMap", "OrderedGraph",
        "find_ordered_homomorphism", "image_subgraph",
        "interval_chromatic_number", "is_independent_interval",
        "is_ordered_homomorphism", "new_graph", "path_graph",
    ),
    "twosat": ("Assignment", "TwoSatError", "TwoSatInstance", "check", "solve"),
    "retraction": (
        "EarlyUnsat", "RetractionEncoding", "RetractionError",
        "SegmentDecomposition", "decide_retraction", "decode", "decompose",
        "encode",
    ),
    "cores": (
        "CoreHasChiVertices", "CoreResult", "CoreVerdict", "DoubleTuple",
        "InstanceIsCore", "Neither", "SliceTargets", "compute_core",
        "decide_core_chi", "decide_core_with_k_vertices",
        "find_nonsurjective_endomorphism", "is_core", "solve_slice",
        "solve_sub",
    ),
    "matchings": ("OrderedMatching", "is_edge_collapsible", "mc", "mc4"),
    "hypergraphs": (
        "HypergraphError", "OrderedHypergraph", "decide_hyper_retraction",
        "find_nonsurjective_hyper_endomorphism", "is_ordered_hyperhom",
        "new_hypergraph",
    ),
    "gadgets": (
        "CliqueGadgetLayout", "GadgetError", "HyperGadgetLayout",
        "PartitionedGraph", "SliceGadgetLayout", "X13Formula",
        "brute_force_multicolored_clique", "brute_force_x13", "clique_gadget",
        "extract_assignment", "extract_clique", "hypergraph_gadget",
        "new_partitioned", "satisfying_collapse", "slice_gadget",
    ),
    "formats": (
        "FormatError", "parse_graph", "parse_hypergraph", "parse_partitioned",
        "parse_x13", "serialize_graph", "serialize_hypergraph",
        "serialize_partitioned", "serialize_x13",
    ),
}

_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        mod = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
