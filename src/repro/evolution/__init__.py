"""Temporal extension: growing-topology snapshots and community
tracking (birth / growth / merge / split events across campaigns).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "snapshots": ["TopologyEvolution"],
        "tracking": [
            "STRATEGIES", "CommunityEvent", "CommunityTimeline", "EventKind", "EvolutionTracker",
        ],
    },
)
