"""repro — reproduction of *k-clique Communities in the Internet
AS-level Topology Graph* (Gregori, Lenzini, Orsini; ICDCS 2011).

The package implements, from scratch:

* the Clique Percolation Method and its Lightweight Parallel variant
  (:mod:`repro.core`),
* the k-clique community tree with main/parallel classification
  (:mod:`repro.core.tree`),
* the AS-level topology substrate — synthetic Internet generator,
  measurement-source simulation, merge pipeline, IXP and geography
  registries (:mod:`repro.topology`),
* the full Chapter 4 analysis (:mod:`repro.analysis`),
* partition-style baselines for the Chapter 1 contrast
  (:mod:`repro.baselines`),
* text renderings of every table and figure (:mod:`repro.report`).

Quickstart::

    from repro import generate_topology, run_cpm, PaperRun
    dataset = generate_topology(seed=42)
    result = run_cpm(dataset.graph, k_range=(2, None))   # stable facade
    run = PaperRun(dataset)
    print(run.figure_4_1())

:mod:`repro.api` (``run_cpm``/``CPMResult``/``save_result``/
``load_result``, plus ``open_session``/``load_session`` for the
incremental path) is the supported programmatic surface — see
``docs/api.md`` for the stability policy, ``docs/robustness.md`` for
checkpoint/resume and fault tolerance, and ``docs/incremental.md`` for
edge-delta sessions.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "analysis": ["AnalysisContext"],
        "api": [
            "CPMResult", "load_result", "load_session", "open_session", "run_cpm", "save_result",
        ],
        "compare": ["jaccard", "match_covers", "omega_index", "recall_at"],
        "core": [
            "Community", "CommunityCover", "CommunityHierarchy", "CommunityTree",
            "LightweightParallelCPM", "extract_hierarchy", "k_clique_communities",
            "maximal_cliques", "verify_nesting",
        ],
        "evolution": ["EvolutionTracker", "TopologyEvolution"],
        "graph": ["Graph", "read_edgelist", "write_edgelist"],
        "incremental": ["CPMSession", "CPMUpdate", "CommunityChange", "EdgeDelta"],
        "report": ["PaperRun"],
        "routing": ["BGPSimulator", "RelationshipMap", "infer_relationships"],
        "topology": ["ASDataset", "GeneratorConfig", "generate_topology"],
    },
)
__all__ += ["__version__"]
