"""Topology substrate: the AS-level graph, its side datasets (IXP and
geography), the synthetic Internet generator and the measurement
merge pipeline that stands in for the paper's data sources.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "configio": ["config_from_dict", "config_to_dict", "load_config", "save_config"],
        "dataset": ["ASDataset"],
        "generator": [
            "CrownBlockSpec", "GeneratorConfig", "InternetTopologyGenerator", "MediumIXPSpec",
            "SmallIXPSpec", "generate_topology",
        ],
        "geography": ["COUNTRY_CONTINENT", "Continent", "GeoRegistry", "GeoTag", "continent_of"],
        "ixp": ["IXP", "IXPRegistry", "IXPShare"],
        "merge": ["MergePolicy", "MergeReport", "merge_observations"],
        "realdata": [
            "parse_as_links", "parse_as_relationships", "read_as_links", "read_as_relationships",
        ],
        "sources": ["MeasurementSource", "ObservedDataset", "default_sources", "observe_all"],
        "tags": ["GeoTagSummary", "IXPTagSummary", "TagSummary", "summarize_tags"],
        "whatif": ["add_ixp", "remove_ixp_fabric"],
    },
)
