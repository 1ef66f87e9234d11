"""Routing substrate: AS business relationships and Gao-Rexford policy
routing, with path-inflation and traffic-locality analyses.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "analysis": ["PathInflation", "measure_locality", "measure_path_inflation"],
        "bgp": ["BGPSimulator", "Route", "RouteKind"],
        "inference": ["GaoInference", "InferenceScore", "infer_from_paths", "score_inference"],
        "observation": ["PathCollection", "collect_policy_paths"],
        "relationships": ["Relationship", "RelationshipMap", "infer_relationships"],
        "resilience": ["FailureImpact", "simulate_as_failure"],
    },
)
