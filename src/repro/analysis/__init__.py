"""Analysis layer: one module per piece of the paper's Chapter 4
evaluation, all driven by a shared :class:`AnalysisContext`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "bands": [
            "BandBoundaries", "CrownReport", "RootReport", "TrunkReport", "crown_report",
            "derive_bands", "root_report", "trunk_report",
        ],
        "census": ["CensusRow", "CommunityCensus"],
        "community_graph": ["CommunityGraphStats", "community_graph", "community_graph_stats"],
        "context": ["AnalysisContext"],
        "density_odf": ["DensityOdfAnalysis", "DensityOdfPoint"],
        "engine": ["ENGINES", "MetricsEngine", "MetricsRow", "OrderOverlap"],
        "geo": ["CommunityGeo", "GeoAnalysis", "common_continents", "common_countries"],
        "ixp_share": ["CommunityIXPShare", "IXPShareAnalysis"],
        "kdense_compare": ["KDenseComparison", "compare_with_kdense"],
        "overlap": ["OverlapAnalysis", "OverlapRow"],
        "percolation_threshold": [
            "SweepPoint", "critical_probability", "empirical_threshold", "threshold_sweep",
        ],
        "robustness": ["BandRecall", "RobustnessReport", "community_recall", "uniform_edge_sample"],
        "sensitivity": ["SeedRun", "SensitivityReport", "run_sensitivity"],
        "sizes": ["SizeAnalysis", "SizePoint"],
        "tree_metrics": ["BranchRecord", "TreeShape", "tree_shape"],
        "zp": ["NodeRole", "ZPAnalysis", "ZPRecord", "classify_role"],
    },
)
