"""Baseline community-detection methods the paper compares against or
rejects: k-core [26], k-dense [25], GCE [18], EAGLE [27] and a
label-propagation partition representative.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "eagle": ["EagleConfig", "EagleResult", "eagle", "extended_modularity"],
        "gce": ["GCEConfig", "greedy_clique_expansion"],
        "kcore": ["KCoreDecomposition", "ShellRow"],
        "kdense": ["KDenseDecomposition", "k_dense_communities", "k_dense_subgraph"],
        "labelprop": ["label_propagation"],
    },
)
