"""Core contribution: the Clique Percolation Method, the community
model, the k-clique community tree and the structural metrics of the
paper's evaluation.
"""

from .cache import CliqueCache, default_cache_dir
from .cliques import (
    CliqueCensus,
    CliqueEnumerationStats,
    clique_size_census,
    k_cliques,
    max_clique_size,
    maximal_cliques,
    maximal_cliques_bitset,
)
from .communities import Community, CommunityCover, CommunityHierarchy
from .filtering import communities_of_node, filter_communities, restrict_orders
from .lightweight import KERNELS, CPMRunStats, LightweightParallelCPM
from .overlap import OverlapWire
from .metrics import (
    CommunityMetrics,
    average_odf,
    community_metrics,
    link_density,
    node_internal_fraction,
    node_odf,
    overlap,
    overlap_fraction,
)
from .percolation import (
    CliqueOverlapIndex,
    build_hierarchy,
    extract_hierarchy,
    k_clique_communities,
    k_clique_communities_direct,
)
from .serialize import (
    hierarchy_from_dict,
    hierarchy_to_dict,
    load_hierarchy,
    save_hierarchy,
)
from .tree import CommunityTree, NestingViolation, TreeNode, find_parent, verify_nesting
from .unionfind import UnionFind
from .weighted import intensity_sweep, weighted_k_clique_communities

__all__ = [
    "maximal_cliques",
    "maximal_cliques_bitset",
    "max_clique_size",
    "k_cliques",
    "CliqueCensus",
    "CliqueEnumerationStats",
    "clique_size_census",
    "Community",
    "CommunityCover",
    "CommunityHierarchy",
    "CliqueOverlapIndex",
    "k_clique_communities",
    "k_clique_communities_direct",
    "extract_hierarchy",
    "build_hierarchy",
    "LightweightParallelCPM",
    "CPMRunStats",
    "KERNELS",
    "OverlapWire",
    "CliqueCache",
    "default_cache_dir",
    "CommunityTree",
    "TreeNode",
    "NestingViolation",
    "find_parent",
    "verify_nesting",
    "link_density",
    "node_odf",
    "node_internal_fraction",
    "average_odf",
    "overlap",
    "overlap_fraction",
    "CommunityMetrics",
    "community_metrics",
    "UnionFind",
    "hierarchy_to_dict",
    "hierarchy_from_dict",
    "save_hierarchy",
    "load_hierarchy",
    "weighted_k_clique_communities",
    "intensity_sweep",
    "restrict_orders",
    "filter_communities",
    "communities_of_node",
]
