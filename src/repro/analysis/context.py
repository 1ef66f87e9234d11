"""Shared analysis context.

Every experiment in Chapter 4 consumes the same three artefacts: the
dataset bundle, the full k-clique community hierarchy, and the
community tree.  :class:`AnalysisContext` computes them once (CPM is
the expensive step) and hands them to the per-figure analyses, so a
full paper run costs one extraction.

The context also owns the shared :class:`~repro.analysis.engine
.MetricsEngine`: the per-community metric table (density, ODF, sizes,
per-order overlap fractions) is swept once, memoized here, and every
analysis (:class:`~repro.analysis.density_odf.DensityOdfAnalysis`,
:class:`~repro.analysis.overlap.OverlapAnalysis`, sizes, bands, the
report) reads from it.  ``analysis_engine`` selects the bitset fast
path or the set-based reference oracle (``--analysis-engine`` on the
CLI); ``csr`` reuses the CPM run's CSR snapshot so the sweep never
re-derives the degeneracy order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cache import CliqueCache
from ..core.communities import Community, CommunityHierarchy
from ..core.lightweight import CPMRunStats
from ..core.tree import CommunityTree
from ..graph.csr import CSRGraph
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..runner import CheckpointStore, FaultPlan, RunnerConfig
from ..topology.dataset import ASDataset
from .engine import MetricsEngine, MetricsRow

__all__ = ["AnalysisContext"]


@dataclass
class AnalysisContext:
    """Dataset + hierarchy + tree + metric table, shared by all analyses."""

    dataset: ASDataset
    hierarchy: CommunityHierarchy
    tree: CommunityTree
    cpm_stats: CPMRunStats | None = None
    #: CSR snapshot reused from the CPM run (None → the engine builds
    #: its own on first use).
    csr: CSRGraph | None = None
    #: Which metric engine the analyses consume: "bitset" or "set".
    analysis_engine: str = "bitset"
    #: The graph fingerprint the CPM run computed (None when it had no
    #: cache or checkpoint to key), so a manifest need not hash again.
    fingerprint: dict | None = None
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    _engine: MetricsEngine | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @classmethod
    def from_dataset(
        cls,
        dataset: ASDataset,
        *,
        workers: int = 1,
        kernel: str = "blocks",
        shards: int | str = "auto",
        cache: CliqueCache | None = None,
        checkpoint: CheckpointStore | None = None,
        resume: bool = False,
        runner: RunnerConfig | None = None,
        fault_plan: FaultPlan | None = None,
        min_k: int = 2,
        max_k: int | None = None,
        analysis_engine: str = "bitset",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "AnalysisContext":
        """Run LP-CPM on the dataset and build the community tree.

        Extraction goes through :func:`repro.api.run_cpm`, so every
        facade option is available here: ``kernel``/``cache`` select
        the CPM kernel and an optional on-disk clique cache
        (``docs/performance.md``); ``checkpoint``/``resume``/
        ``runner``/``fault_plan`` enable the resilient-runner features
        (``docs/robustness.md``); ``workers`` parallelises CPM only.
        ``analysis_engine`` selects the metric engine the Chapter-4
        analyses consume (the bitset sweep or the set-based oracle,
        both serial).  ``tracer``/``metrics`` are threaded
        through the extraction, the tree build and the metric sweep, so
        one instrumented context captures the whole pipeline
        (``docs/observability.md``).
        """
        from ..api import run_cpm

        result = run_cpm(
            dataset.graph,
            k_range=(min_k, max_k),
            workers=workers,
            kernel=kernel,
            shards=shards,
            cache=cache,
            checkpoint=checkpoint,
            resume=resume,
            runner=runner,
            fault_plan=fault_plan,
            tracer=tracer,
            metrics=metrics,
        )
        return cls.from_result(
            dataset, result, analysis_engine=analysis_engine, tracer=tracer, metrics=metrics
        )

    @classmethod
    def from_result(
        cls,
        dataset: ASDataset,
        result,
        *,
        analysis_engine: str = "bitset",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "AnalysisContext":
        """Wrap a finished :class:`~repro.api.CPMResult` of
        ``dataset.graph``: build the tree and keep the run's stats, CSR
        snapshot and fingerprint (so no consumer hashes the graph again)."""
        return cls(
            dataset=dataset,
            hierarchy=result.hierarchy,
            tree=CommunityTree(result.hierarchy, tracer=tracer, metrics=metrics),
            cpm_stats=result.stats,
            csr=result.csr,
            analysis_engine=analysis_engine,
            fingerprint=result.fingerprint,
            tracer=tracer,
            metrics=metrics,
        )

    @property
    def engine(self) -> MetricsEngine:
        """The shared metric engine, built lazily and memoized."""
        if self._engine is None:
            self._engine = MetricsEngine(
                self.hierarchy,
                self.tree,
                self.graph,
                engine=self.analysis_engine,
                csr=self.csr,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        return self._engine

    def metrics_rows(self) -> list[MetricsRow]:
        """The per-community metric table (one sweep, memoized)."""
        return self.engine.rows()

    def is_main(self, community: Community) -> bool:
        """True iff ``community`` lies on the main chain of the tree."""
        return self.tree.is_main(community)

    @property
    def graph(self):
        return self.dataset.graph
