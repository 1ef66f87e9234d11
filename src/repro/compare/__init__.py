"""Cover-comparison metrics: Jaccard matching, recall at threshold,
and the chance-corrected Omega index for overlapping covers.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "covers": ["MatchResult", "jaccard", "match_covers", "omega_index", "recall_at"],
    },
)
