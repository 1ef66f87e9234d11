"""Stable programmatic facade for the LP-CPM pipeline.

Everything a caller needs for "graph in, communities out" lives behind
one function::

    from repro import run_cpm

    result = run_cpm(graph, k_range=(2, None), workers=4)
    result.hierarchy[4]          # the k=4 community cover
    result.stats.total_seconds   # phase timings
    save_result(result, "communities.json")

:func:`run_cpm` is the supported batch entry point — the CLI
subcommands (``communities``, ``tree``, ``export``, ``evolve``), the
analysis context and the evolution tracker all route through it — so
resilience features (on-disk caching, phase checkpoints with
``resume=True``, supervised worker pools, fault injection) arrive
uniformly everywhere.  For evolving graphs, :func:`open_session` /
:func:`load_session` expose the stateful incremental path
(:mod:`repro.incremental`): apply edge deltas to a live session
instead of re-running the batch pipeline per snapshot.
Constructor internals (:class:`~repro.core.lightweight
.LightweightParallelCPM` and friends) remain importable but are not a
stability surface; prefer this module.

Convenience coercions: ``cache=True`` builds the default on-disk
:class:`~repro.core.cache.CliqueCache`; ``checkpoint`` accepts a
directory path and wraps it in a
:class:`~repro.runner.checkpoint.CheckpointStore`.

Results round-trip through :func:`save_result` / :func:`load_result`
as the same JSON document ``repro.core.serialize`` writes (plus an
embedded run-statistics block), so files saved here load with the
legacy :func:`~repro.core.serialize.load_hierarchy` and vice versa.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from os import PathLike
from pathlib import Path

from .core.cache import CliqueCache
from .core.communities import CommunityCover, CommunityHierarchy
from .core.lightweight import CPMRunStats, LightweightParallelCPM
from .core.serialize import hierarchy_from_dict, hierarchy_to_dict
from .graph.csr import CSRGraph
from .graph.undirected import Graph
from .obs.metrics import MetricsRegistry
from .obs.tracing import Tracer
from .runner import CheckpointStore, FaultPlan, RunnerConfig

__all__ = [
    "CPMResult",
    "run_cpm",
    "open_session",
    "load_session",
    "save_result",
    "load_result",
    "build_query_artifact",
    "load_query_artifact",
    "make_query_server",
    "RESULT_SCHEMA_VERSION",
]

#: Version of the :meth:`CPMResult.to_dict` document.  Files written
#: before versioning (or by the legacy ``save_hierarchy``) carry no
#: ``result_schema`` key and load as version 1; an unknown *future*
#: version fails loudly in :meth:`CPMResult.from_dict`.
RESULT_SCHEMA_VERSION = 1


@dataclass
class CPMResult:
    """What one :func:`run_cpm` call produced.

    ``hierarchy`` is the full per-order community structure;
    ``stats`` the always-on run summary (clique census, phase wall
    times, cache/resume/degradation flags).  Indexing the result
    delegates to the hierarchy: ``result[4]`` is the k=4 cover.

    ``csr`` is the degeneracy-ordered :class:`~repro.graph.csr
    .CSRGraph` snapshot the pipeline built during enumeration —
    downstream consumers (the analysis engine) reuse it instead of
    re-deriving the ordering; ``fingerprint`` is the graph fingerprint
    a run with a cache or checkpoint computed.  Neither is serialised,
    and either may be ``None`` (no such run, or a loaded result).
    """

    hierarchy: CommunityHierarchy
    stats: CPMRunStats = field(default_factory=CPMRunStats)
    csr: CSRGraph | None = None
    fingerprint: dict | None = None

    def __getitem__(self, k: int) -> CommunityCover:
        """The community cover at order ``k`` (delegates to hierarchy)."""
        return self.hierarchy[k]

    def __contains__(self, k: int) -> bool:
        return k in self.hierarchy

    @property
    def orders(self) -> list[int]:
        """The extracted orders, ascending (delegates to hierarchy)."""
        return self.hierarchy.orders

    @property
    def degraded(self) -> bool:
        """True iff any batch had to fall back to serial execution."""
        return self.stats.degraded

    def to_dict(self) -> dict:
        """A versioned JSON-ready document of hierarchy plus stats.

        The document is a superset of :func:`repro.core.serialize
        .hierarchy_to_dict` output (``format``, ``covers``,
        ``parent_labels``) extended with ``result_schema`` (see
        :data:`RESULT_SCHEMA_VERSION`) and a ``stats`` block.  The CSR
        snapshot is deliberately not serialised — it is a derived
        acceleration structure, rebuilt from the graph when needed.
        """
        stats = asdict(self.stats)
        stats["resumed_phases"] = list(stats["resumed_phases"])
        stats["size_histogram"] = {str(k): v for k, v in stats["size_histogram"].items()}
        return {
            **hierarchy_to_dict(self.hierarchy),
            "result_schema": RESULT_SCHEMA_VERSION,
            "stats": stats,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "CPMResult":
        """Rebuild a result from :meth:`to_dict` output.

        Accepts three document generations: current (versioned),
        pre-versioning :func:`save_result` files (stats but no
        ``result_schema``), and bare ``save_hierarchy`` documents (no
        stats at all — defaults apply).  A document declaring a
        *newer* schema than this build understands raises
        ``ValueError`` instead of guessing.
        """
        schema = document.get("result_schema", RESULT_SCHEMA_VERSION)
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"result document declares schema {schema!r}; this build reads "
                f"schema {RESULT_SCHEMA_VERSION} (upgrade repro to load it)"
            )
        hierarchy = hierarchy_from_dict(document)
        raw = dict(document.get("stats") or {})
        known = set(CPMRunStats.__dataclass_fields__)
        raw = {key: value for key, value in raw.items() if key in known}
        if "resumed_phases" in raw:
            raw["resumed_phases"] = tuple(raw["resumed_phases"])
        if "size_histogram" in raw:
            raw["size_histogram"] = {
                int(k): v for k, v in raw["size_histogram"].items()
            }
        return cls(hierarchy=hierarchy, stats=CPMRunStats(**raw))


def _coerce_cache(cache: CliqueCache | bool | str | PathLike | None) -> CliqueCache | None:
    if cache is None or cache is False:
        return None
    if cache is True:
        return CliqueCache()
    if isinstance(cache, (str, PathLike)):
        return CliqueCache(cache)
    return cache


def _coerce_checkpoint(
    checkpoint: CheckpointStore | str | PathLike | None,
) -> CheckpointStore | None:
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)


def run_cpm(
    graph: Graph,
    *,
    k_range: tuple[int, int | None] | int = (2, None),
    kernel: str = "blocks",
    workers: int = 1,
    shards: int | str = "auto",
    cache: CliqueCache | bool | str | PathLike | None = None,
    checkpoint: CheckpointStore | str | PathLike | None = None,
    resume: bool = False,
    runner: RunnerConfig | None = None,
    fault_plan: FaultPlan | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CPMResult:
    """Extract the k-clique community hierarchy of ``graph``.

    ``k_range`` is ``(min_k, max_k)`` with ``max_k=None`` meaning "up
    to the largest clique" (a bare int extracts that single order).
    ``kernel`` is one of ``repro.choices.KERNELS`` or
    ``"auto"`` (``blocks``); any other name raises a ``ValueError``
    that names the accepted ones.  ``shards`` (an int, or the default
    ``"auto"`` — one shard per worker) fans clique enumeration out
    across ``workers`` via :mod:`repro.shard`; overlap counting and
    percolation always run serially in the driver.  Output is
    byte-identical at every shard count.  The ``"set"`` kernel is the
    serial reference oracle and rejects ``workers``/``shards`` > 1,
    ``cache`` and ``checkpoint`` with a ``ValueError``.  ``cache``
    memoises every phase on disk; ``checkpoint`` (+
    ``resume=True``) persists phase outputs so an interrupted run
    restarts from the last completed phase; ``runner`` tunes the worker
    supervision policy and ``fault_plan`` injects deterministic faults
    (see ``docs/robustness.md``).  Returns a :class:`CPMResult`.

    The pre-facade keyword spellings (``min_k``/``max_k``/``n_workers``
    /``use_cache``), deprecated since the facade landed, have been
    removed — they now raise ``TypeError`` like any unknown keyword;
    see ``docs/api.md`` for the migration table.
    """
    return _extract(
        graph,
        k_range,
        None,
        workers=workers,
        kernel=kernel,
        shards=shards,
        cache=_coerce_cache(cache),
        checkpoint=_coerce_checkpoint(checkpoint),
        resume=resume,
        runner=runner,
        fault_plan=fault_plan,
        tracer=tracer,
        metrics=metrics,
    )


def _extract(graph: Graph, k_range, fingerprint: dict | None, **options) -> CPMResult:
    """:func:`run_cpm`'s body over coerced :class:`LightweightParallelCPM`
    keywords.  A ``fingerprint`` the caller already took (the CLI's
    stale-artifact guard) must be ``graph_fingerprint(graph)``: it keys
    the run's stores unchecked, in place of a second hash."""
    min_k, max_k = k_range if isinstance(k_range, tuple) else (k_range, k_range)
    cpm = LightweightParallelCPM(graph, **options)
    cpm.fingerprint = fingerprint
    hierarchy = cpm.run(min_k=min_k, max_k=max_k)
    return CPMResult(hierarchy=hierarchy, stats=cpm.stats, csr=cpm.csr, fingerprint=cpm.fingerprint)


# ----------------------------------------------------------------------
# Incremental sessions (repro.incremental)
# ----------------------------------------------------------------------
def open_session(
    source,
    *,
    kernel: str = "blocks",
    cache: CliqueCache | bool | str | PathLike | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
):
    """Open an incremental CPM session over a graph (or a result's graph).

    ``source`` is a :class:`~repro.graph.undirected.Graph`, or a
    :class:`CPMResult` whose CSR snapshot identifies the graph it was
    extracted from (set-kernel, cache-hit and disk-loaded results carry
    none — pass the graph itself for those).  The returned
    :class:`~repro.incremental.CPMSession` holds live percolation
    state; feed it :class:`~repro.incremental.EdgeDelta` batches via
    ``session.apply`` and read ``session.result()`` — always
    byte-identical to a fresh :func:`run_cpm` on the mutated graph.
    ``kernel`` is ``"blocks"`` or ``"auto"`` (the set oracle has no
    session); ``cache`` accepts the same coercions as :func:`run_cpm`
    and is probed for the initial clique payload.
    """
    from .incremental import CPMSession

    if isinstance(source, CPMResult):
        if source.csr is None:
            raise ValueError(
                "cannot open a session from this CPMResult: it carries no CSR "
                "snapshot (set-kernel, cache-hit and loaded results do not); "
                "pass the graph itself instead"
            )
        graph = source.csr.to_graph()
    elif isinstance(source, Graph):
        graph = source
    else:
        raise TypeError(
            f"open_session() takes a Graph or CPMResult, got {type(source).__name__}"
        )
    return CPMSession(
        graph,
        kernel=kernel,
        cache=_coerce_cache(cache),
        tracer=tracer,
        metrics=metrics,
    )


def load_session(
    path: str | PathLike,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
):
    """Reopen a session persisted by ``CPMSession.save``.

    Facade alias of :func:`repro.incremental.load_session`: validates
    the checkpoint directory (session tag, schema versions, graph
    fingerprint) and rebuilds the full incremental state without any
    recomputation.
    """
    from .incremental import load_session as _load_session

    return _load_session(path, tracer=tracer, metrics=metrics)


# ----------------------------------------------------------------------
# Result persistence
# ----------------------------------------------------------------------
def save_result(result: CPMResult, path: str | PathLike) -> None:
    """Write a result as JSON: the hierarchy document plus a stats block.

    The file is a superset of :func:`repro.core.serialize
    .save_hierarchy` output, so it also loads with plain
    :func:`~repro.core.serialize.load_hierarchy` (which ignores the
    extra keys).  The document is exactly :meth:`CPMResult.to_dict`
    (versioned via ``result_schema``).
    """
    Path(path).write_text(
        json.dumps(result.to_dict(), indent=1, sort_keys=True), encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Query-artifact facade (the serveable read path; repro.query)
# ----------------------------------------------------------------------
def build_query_artifact(
    result: CPMResult,
    graph: Graph,
    *,
    bands=None,
    analysis_engine: str = "bitset",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
):
    """Freeze a :func:`run_cpm` result into a serveable query artifact.

    Builds the community tree, sweeps the Chapter-4 metric table
    (reusing the result's CSR snapshot when the run kept one), and
    packs everything into an immutable
    :class:`~repro.query.artifact.QueryArtifact` keyed by ``graph``'s
    fingerprint.  ``bands`` optionally carries IXP-share-derived
    crown/trunk/root boundaries (:func:`repro.analysis.bands
    .derive_bands`); without it the paper's fallback boundaries apply.
    Save with ``artifact.save(path)`` and serve with ``repro query
    serve`` — the read path never re-runs CPM.
    """
    from .core.tree import CommunityTree
    from .query.artifact import build_artifact

    tree = CommunityTree(result.hierarchy, tracer=tracer, metrics=metrics)
    return build_artifact(
        result.hierarchy,
        tree=tree,
        graph=graph,
        csr=result.csr,
        bands=bands,
        analysis_engine=analysis_engine,
        tracer=tracer,
        metrics=metrics,
    )


def load_query_artifact(path: str | PathLike, *, mmap: bool = True):
    """Load a saved query artifact (mmapped by default).

    Returns a :class:`~repro.query.artifact.QueryArtifact`; wrap it in
    a :class:`~repro.query.engine.LookupEngine` (or hand it to
    :func:`~repro.query.server.make_server`) for point queries.
    Corrupt or truncated files raise :class:`~repro.query.artifact
    .ArtifactError` with a clean message.
    """
    from .query.artifact import QueryArtifact

    return QueryArtifact.load(path, mmap=mmap)


def make_query_server(
    artifact,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    monitor=None,
):
    """Bind a threaded JSON lookup server over a query artifact.

    Facade over :func:`repro.query.server.make_server`: ``artifact``
    is a loaded :class:`~repro.query.artifact.QueryArtifact` or an
    existing :class:`~repro.query.engine.LookupEngine`.  Requests run
    concurrently, one handler thread per connection, with
    per-endpoint latency histograms and a Prometheus ``/metrics``
    endpoint; ``monitor`` attaches a running
    :class:`~repro.obs.resources.ResourceMonitor` whose samples
    surface as process gauges on scrapes.  The caller drives
    ``serve_forever()`` / ``shutdown()``.
    """
    from .query.server import make_server

    return make_server(
        artifact,
        host=host,
        port=port,
        tracer=tracer,
        metrics=metrics,
        monitor=monitor,
    )


def load_result(path: str | PathLike) -> CPMResult:
    """Read a :func:`save_result` file (or a bare hierarchy file) back.

    A file written by the legacy ``save_hierarchy`` has no stats block;
    it loads with default (all-zero) statistics.  Delegates to
    :meth:`CPMResult.from_dict`, so pre-versioning and versioned
    documents both load (and future-schema documents fail loudly).
    """
    return CPMResult.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
