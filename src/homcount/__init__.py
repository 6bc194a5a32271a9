"""Homomorphism-count graph embeddings and classification experiments."""

from .graphs import (
    FeaturedGraph,
    Graph,
    degree_sequence,
    disjoint_union,
    is_bipartite,
    bipartite_coloring,
    permute,
    permute_featured,
    twin_reduce,
)
from .hom import (
    HomValue,
    PhiFunction,
    hom,
    hom_brute,
    hom_cycle,
    hom_density,
    hom_tree,
    hom_treedec,
    hom_vector,
    hom_weighted_density,
)
from .patterns import (
    Pattern,
    TreeDecomposition,
    build_nice_decomposition,
    canonical_tree_code,
    enumerate_cycles,
    enumerate_paths,
    enumerate_stars,
    enumerate_trees,
    nice_decomposition,
    resolve_family,
    treewidth_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
