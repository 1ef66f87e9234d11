"""Core contribution: the Clique Percolation Method, the community
model, the k-clique community tree and the structural metrics of the
paper's evaluation.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "cache": ["CliqueCache", "default_cache_dir"],
        "cliques": [
            "CliqueCensus", "CliqueEnumerationStats", "clique_size_census", "k_cliques",
            "max_clique_size", "maximal_cliques", "maximal_cliques_bitset",
        ],
        "communities": ["Community", "CommunityCover", "CommunityHierarchy"],
        "filtering": ["communities_of_node", "filter_communities", "restrict_orders"],
        "lightweight": ["KERNELS", "CPMRunStats", "LightweightParallelCPM"],
        "overlap": ["OverlapWire"],
        "metrics": [
            "CommunityMetrics", "average_odf", "community_metrics", "link_density",
            "node_internal_fraction", "node_odf", "overlap", "overlap_fraction",
        ],
        "percolation": [
            "CliqueOverlapIndex", "build_hierarchy", "extract_hierarchy", "k_clique_communities",
            "k_clique_communities_direct",
        ],
        "serialize": [
            "hierarchy_from_dict", "hierarchy_to_dict", "load_hierarchy", "save_hierarchy",
        ],
        "tree": ["CommunityTree", "NestingViolation", "TreeNode", "find_parent", "verify_nesting"],
        "unionfind": ["UnionFind"],
        "weighted": ["intensity_sweep", "weighted_k_clique_communities"],
    },
)
