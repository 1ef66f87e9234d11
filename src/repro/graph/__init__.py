"""Graph substrate: undirected simple graphs plus the algorithms the
Clique Percolation Method and the paper's analysis layers are built on.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "components": [
            "bfs_order", "connected_components", "is_connected", "largest_connected_component",
            "node_component",
        ],
        "csr": ["CSRGraph"],
        "degeneracy": ["core_numbers", "degeneracy", "degeneracy_ordering", "k_core"],
        "generators": [
            "barabasi_albert", "complete_graph", "cycle_graph", "erdos_renyi",
            "overlapping_cliques", "path_graph", "ring_of_cliques", "star_graph",
        ],
        "io": ["format_edgelist", "parse_edgelist", "read_edgelist", "write_edgelist"],
        "nullmodel": ["degree_preserving_null", "double_edge_swap"],
        "stats": [
            "GraphSummary", "average_local_clustering", "degree_assortativity", "degree_ccdf",
            "degree_histogram", "global_clustering", "powerlaw_alpha_mle", "summarize_graph",
            "top_degree_density",
        ],
        "subgraph": ["containment_fraction", "tag_induced_node_sets", "tag_induced_subgraph"],
        "undirected": ["Graph", "GraphError"],
        "weighted": ["WeightedGraph"],
    },
)
