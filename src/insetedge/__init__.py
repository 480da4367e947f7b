"""Exact Wiener-index change under single shortcut-edge insertion in trees."""

from .bounds import (
    BoundsReport,
    audit,
    build_family_tree,
    claimed_case_formula,
    claimed_upper,
    exact_case_formula,
    family_delta,
    family_optimum,
)
from .counting import OpCounter
from .delta import DeltaRecord, ad_prime, delta_direct, delta_from_weights
from .matrixform import build_F, delta_via_matrix
from .oracle import SimpleGraph, delta_oracle, tree_plus_edge, wiener_brute
from .randgen import Corpus, SplitMix64, leaf_stats, random_labeled_tree
from .search import SearchReport, best_edge, pruning_ratio
from .sweep import sweep_path
from .tree import (
    CycleAnatomy,
    Tree,
    anatomize,
    bfs_distances,
    leaves,
    parse_tree,
    serialize_tree,
    wiener_tree_linear,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Corpus",
    "CycleAnatomy",
    "DeltaRecord",
    "OpCounter",
    "SearchReport",
    "SimpleGraph",
    "SplitMix64",
    "Tree",
    "ad_prime",
    "anatomize",
    "audit",
    "best_edge",
    "bfs_distances",
    "build_F",
    "build_family_tree",
    "claimed_case_formula",
    "claimed_upper",
    "delta_direct",
    "delta_from_weights",
    "delta_oracle",
    "delta_via_matrix",
    "exact_case_formula",
    "family_delta",
    "family_optimum",
    "leaf_stats",
    "leaves",
    "parse_tree",
    "pruning_ratio",
    "random_labeled_tree",
    "serialize_tree",
    "sweep_path",
    "tree_plus_edge",
    "wiener_brute",
    "wiener_tree_linear",
]
