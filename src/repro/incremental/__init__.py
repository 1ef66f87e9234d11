"""Incremental CPM: stateful sessions updated by edge deltas.

The batch pipeline (:func:`repro.run_cpm`) recomputes everything from
the graph; this package keeps the intermediate state — maximal
cliques, truncated overlap activations, per-order percolation groups —
alive in a :class:`CPMSession` so a small edge change costs work
proportional to the change, not the graph.  Results are byte-identical
to from-scratch runs (pinned by the delta fuzz tests).

Entry points: :func:`repro.open_session` / :func:`repro.load_session`
on the facade, or :class:`CPMSession` directly.  See
``docs/incremental.md`` for the lifecycle, cost model and persistence
format.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "delta": ["CHANGE_KINDS", "CommunityChange", "CPMUpdate", "EdgeDelta", "diff_covers"],
        "session": ["SESSION_SCHEMA_VERSION", "CPMSession", "load_session"],
    },
)
