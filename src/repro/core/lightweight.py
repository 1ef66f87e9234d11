"""Lightweight Parallel Clique Percolation Method (LP-CPM, [11]).

The paper's communities were extracted with the Lightweight Parallel
CPM of Gregori, Lenzini, Mainardi & Orsini — the only algorithm able to
process the 2.7M maximal cliques of the AS graph (93 hours on 48
cores).  The 'lightweight' idea is to never materialise the CFinder
all-pairs clique overlap matrix; the 'parallel' idea is that every
phase decomposes into independent shards.

:meth:`LightweightParallelCPM.run` is one orchestration of the three
phases — **enumerate** maximal cliques, count their truncated
**overlaps** into a packed :class:`~.overlap.OverlapWire`, and
**percolate** every order k over that wire — followed by hierarchy
assembly.  The kernel picks that pipeline or the reference oracle; the
``shards`` count only decides whether enumeration fans out through
:mod:`repro.shard.pipeline`.  The rule is: *shards fan out
enumeration; overlap and percolation run serially in the driver.*

* ``kernel="blocks"`` (default) — the production path over a
  :class:`~repro.graph.csr.CSRGraph` snapshot (dense ids in degeneracy
  order).  Enumeration is :func:`~.cliques.maximal_cliques_bitset`,
  the one integer Bron–Kerbosch (pure Python); overlap counting
  (size >= 3 cliques only, :func:`~.overlap.count_overlaps`) and the
  min-label percolation sweep (:func:`~.percolation.percolate_wire`)
  are whole-array numpy passes (:mod:`.blocks`).  ``kernel="auto"``
  resolves to it (:func:`resolve_kernel`).
* ``kernel="set"`` — the serial reference oracle:
  :func:`~.percolation.extract_hierarchy` over a
  :class:`~.percolation.CliqueOverlapIndex`, with the same
  ``cpm.*`` spans and :class:`CPMRunStats`.  It takes no workers,
  shards, cache or checkpoint (:func:`check_oracle_options`).  Both
  kernels produce byte-identical hierarchies (same covers, same parent
  labels), which ``tests/test_kernels_equivalence.py`` asserts.

With ``shards > 1`` enumeration fans out (degeneracy-partitioned
Bron–Kerbosch subtrees, reassembled in the serial emission order); it
is the only phase a pool speeds up.  ``shards`` defaults to
``"auto"`` — one shard per worker — so ``workers=N`` alone runs the
shard tasks on a pool of N processes.

One path reads and writes the phases of both stores, a
:class:`~.cache.CliqueCache` entry keyed by the graph fingerprint (read
when its META names the run) and a
:class:`~repro.runner.checkpoint.CheckpointStore` (read when
``resume=True``): each completed phase is written to both.  A run loads
the cliques, then the percolated orders, and the overlap wire only if
an order is still missing, so a cache hit is a resume (``cache.hits``,
``cache="hit"`` on the ``cpm.run`` span).  Fault tolerance
(:mod:`repro.runner`): a run interrupted by a crash — of a worker or
of the driver — restarts with ``resume=True`` from the last completed
phase and produces a hierarchy identical to an uninterrupted run.  The
enumeration fan-out runs under a
:class:`~repro.runner.supervise.PoolSupervisor`: per-round timeouts,
bounded exponential-backoff retry, pool resurrection after worker
death, and graceful degradation to serial in-driver execution when a
task fails permanently (``runner.degraded`` gauge).  A
:class:`~repro.runner.faults.FaultPlan` (or ``$REPRO_FAULT_PLAN``)
injects deterministic worker/driver faults so those paths stay
testable; see ``docs/robustness.md``.

Every phase is observable: pass a :class:`repro.obs.Tracer` and a
:class:`repro.obs.MetricsRegistry` and the run emits nested spans
(wall/CPU/peak-memory per phase) plus counters and histograms —
including per-shard timings reported back from worker processes.  The
defaults (no-op tracer, private registry) add no measurable overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..graph.csr import CSRGraph
from ..graph.undirected import Graph
from ..obs.manifest import graph_fingerprint
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from ..runner.checkpoint import PHASES, CheckpointStore, has_fields
from ..runner.faults import FaultPlan
from ..runner.supervise import PoolSupervisor, RunnerConfig
from ..shard.pipeline import sharded_enumerate_dense
from ..shard.plan import prefix_count, resolve_shards
from .cache import CliqueCache
from .cliques import CliqueCensus
from .communities import CommunityHierarchy
from .overlap import OverlapWire, count_overlaps
from .percolation import CliqueOverlapIndex, build_hierarchy, extract_hierarchy, percolate_wire

__all__ = [
    "LightweightParallelCPM",
    "CPMRunStats",
    "KERNELS",
    "PHASE_SHAPES",
    "check_oracle_options",
    "resolve_kernel",
]

KERNELS = ("blocks", "set")


def resolve_kernel(kernel: str, kernels: tuple[str, ...] = KERNELS) -> str:
    """Resolve a kernel request (including ``"auto"``) to a name in ``kernels``.

    The one kernel validator of the batch pipeline, the session
    (``kernels=("blocks",)``) and the CLI: ``"auto"`` is ``blocks``,
    any other name outside ``kernels`` raises a ``ValueError`` that
    lists the accepted names.
    """
    if kernel == "auto":
        return "blocks"
    if kernel not in kernels:
        raise ValueError(f"kernel must be one of {kernels} or 'auto', got {kernel!r}")
    return kernel


@dataclass
class CPMRunStats:
    """Timing and census record of one LP-CPM run.

    Mirrors the run statistics the paper reports in Section 3: the
    maximal clique count, the dominant size band, and per-phase wall
    times.  (Full per-phase CPU/memory detail lives in the tracer's
    spans; this dataclass stays the cheap always-on summary.)
    """

    n_cliques: int = 0
    max_clique_size: int = 0
    n_overlap_pairs: int = 0
    enumerate_seconds: float = 0.0
    overlap_seconds: float = 0.0
    percolate_seconds: float = 0.0
    workers: int = 1
    kernel: str = "blocks"
    #: Resolved shard count (1 = the unsharded single-process pipeline).
    shards: int = 1
    cache_hit: bool = False
    size_histogram: dict[int, int] = field(default_factory=dict)
    #: Phases loaded from a checkpoint instead of recomputed.
    resumed_phases: tuple[str, ...] = ()
    #: True iff any batch exhausted its retries and ran via the serial
    #: fallback (see repro.runner.supervise).
    degraded: bool = False

    @property
    def total_seconds(self) -> float:
        """Sum of the three phase wall times."""
        return self.enumerate_seconds + self.overlap_seconds + self.percolate_seconds


#: The shape of each phase payload the pipeline reads back from a
#: checkpoint or a cache entry; any other shape is a phase not done.
PHASE_SHAPES = {
    "enumerate": lambda p: has_fields(p, {"dense": list, "cliques": list}),
    "overlap": lambda p: has_fields(
        p, {"cliques": list, "wire": OverlapWire, "counted_pairs": int}
    ),
    "percolate": lambda p: has_fields(p, {"groups": dict, "counted_pairs": int})
    and all(isinstance(k, int) and isinstance(g, list) for k, g in p["groups"].items()),
}


def check_oracle_options(
    kernel: str,
    *,
    workers: int = 1,
    shards: int = 1,
    cache: object | None = None,
    checkpoint: object | None = None,
) -> None:
    """Reject the pipeline options the serial ``set`` oracle does not take.

    The set kernel is a small reference implementation with no pool,
    shard, cache or checkpoint plumbing; asking it for any of those is
    a configuration error, reported by name instead of being ignored.
    """
    if kernel != "set":
        return
    refused = []
    if workers > 1:
        refused.append(f"workers={workers}")
    if shards > 1:
        refused.append(f"shards={shards}")
    if cache is not None:
        refused.append("a cache")
    if checkpoint is not None:
        refused.append("a checkpoint")
    if refused:
        raise ValueError(
            "kernel 'set' is the serial reference oracle and does not take "
            f"{', '.join(refused)}; use kernel 'blocks' for those"
        )


class LightweightParallelCPM:
    """Extract the full k-clique community hierarchy of a graph.

    ``kernel`` selects the production path (``"blocks"``, default;
    ``"auto"`` resolves to it) or the serial set-based reference oracle
    (``"set"``); both produce identical hierarchies.  ``shards`` (a count,
    or ``"auto"`` — the default — for one shard per worker) decides
    how clique enumeration fans out across ``workers`` through
    :mod:`repro.shard`; output is byte-identical at every count.
    ``cache`` (a :class:`~.cache.CliqueCache`) memoises every phase on
    disk keyed by the graph fingerprint; ``checkpoint`` (+ ``resume``)
    persists and resumes them in a directory of the caller's choosing.
    ``tracer``/``metrics`` (both optional) switch on observability: the
    run then emits ``cpm.run`` → ``cpm.enumerate`` / ``cpm.overlap`` /
    ``cpm.percolate`` / ``cpm.hierarchy`` spans and populates the
    metric names documented in ``docs/observability.md``.

    >>> from repro.graph import ring_of_cliques
    >>> cpm = LightweightParallelCPM(ring_of_cliques(3, 4))
    >>> hierarchy = cpm.run()
    >>> len(hierarchy[4]), len(hierarchy[2])
    (3, 1)
    """

    def __init__(
        self,
        graph: Graph,
        *,
        workers: int = 1,
        kernel: str = "blocks",
        shards: int | str = "auto",
        cache: CliqueCache | None = None,
        checkpoint: CheckpointStore | None = None,
        resume: bool = False,
        runner: RunnerConfig | None = None,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        kernel = resolve_kernel(kernel)
        self.graph = graph
        self.workers = workers
        self.kernel = kernel
        #: Resolved shard count (``"auto"`` -> one shard per worker).
        self.shards = resolve_shards(shards, workers)
        check_oracle_options(
            kernel, workers=workers, shards=self.shards, cache=cache, checkpoint=checkpoint
        )
        self.cache = cache
        self.checkpoint = checkpoint
        self.resume = resume
        self.runner_config = runner if runner is not None else RunnerConfig()
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self.stats = CPMRunStats(workers=workers, kernel=kernel, shards=self.shards)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._observing = self.tracer.enabled or metrics is not None
        #: The CSR snapshot enumeration built, kept so downstream
        #: consumers (the analysis engine) can reuse it instead of
        #: re-deriving the degeneracy order.  None for the set kernel
        #: and for runs that loaded their cliques from a store.
        self.csr: CSRGraph | None = None
        #: The graph fingerprint, computed once iff the run has a cache
        #: or checkpoint (both are keyed by its checksum).
        self.fingerprint: dict | None = None
        self._readable: list[CheckpointStore] = []
        self._entry: CheckpointStore | None = None
        #: "held" (its META names this run), "stale" (reset before the
        #: first write) or "written" (this run wrote it).
        self._entry_state = "stale"

    def run(self, *, min_k: int = 2, max_k: int | None = None) -> CommunityHierarchy:
        """Run all three phases and return the hierarchy over [min_k, max_k]."""
        if min_k < 2:
            raise ValueError(f"min_k must be >= 2, got {min_k}")

        with self.tracer.span(
            "cpm.run",
            workers=self.workers,
            min_k=min_k,
            max_k=max_k,
            kernel=self.kernel,
            shards=self.shards,
        ) as run_span:
            if self.kernel == "set":
                return self._run_oracle(min_k, max_k)
            self._open_stores()
            if self.checkpoint is not None:
                run_span.set("checkpoint", str(self.checkpoint.root))
                run_span.set("resume", self.resume)
            hierarchy = self._run_pipeline(min_k, max_k)
            if self.cache is not None:
                run_span.set("cache", "hit" if self.stats.cache_hit else "miss")
            if self.stats.resumed_phases:
                run_span.set("resumed_phases", list(self.stats.resumed_phases))
            if self.stats.degraded:
                run_span.set("degraded", 1)
            return hierarchy

    # ------------------------------------------------------------------
    # The phase stores: the cache entry and the checkpoint
    # ------------------------------------------------------------------
    def _open_stores(self) -> None:
        """Fingerprint the graph and bind the stores the run reads and writes."""
        self._readable = []
        self._entry = None
        if self.cache is None and self.checkpoint is None:
            return
        with self.tracer.span("graph.fingerprint"):
            self.fingerprint = graph_fingerprint(self.graph)
        identity = {"checksum": self.fingerprint["checksum"], "kernel": self.kernel}
        if self.cache is not None:
            self._entry = self.cache.entry(**identity)
            self._entry_state = "held" if self._entry.holds(**identity) else "stale"
            if self._entry_state == "held":
                self._readable.append(self._entry)
        if self.checkpoint is not None:
            self.checkpoint.open(**identity, resume=self.resume)
            if self.resume:
                self._readable.append(self.checkpoint)

    def _load_phase(self, phase: str) -> tuple[dict | None, CheckpointStore | None]:
        """``(payload, store)`` from the first readable store holding a
        well-shaped ``phase``, or ``(None, None)``: absent, torn, corrupt
        and misshapen payloads are all "not done"."""
        for store in self._readable:
            payload = store.load_phase(phase)
            if PHASE_SHAPES[phase](payload):
                self._mark_resumed(phase)
                return payload, store
        return None, None

    def _mark_resumed(self, phase: str) -> None:
        """Record a phase loaded from a store (kept in pipeline order)."""
        done = {*self.stats.resumed_phases, phase}
        self.stats.resumed_phases = tuple(p for p in PHASES if p in done)
        self.metrics.inc("runner.resumed_phases")

    def _store_phase(
        self, phase: str, payload: dict, source: CheckpointStore | None = None
    ) -> None:
        """Write a completed phase to every store but ``source`` (which holds it).

        Checkpoint write errors propagate; an unwritable cache entry
        costs the next run a recompute, never this run its result: the
        first ``OSError`` is counted and the run stops writing it.
        """
        if self.checkpoint is not None and self.checkpoint is not source:
            self.checkpoint.store_phase(phase, payload)
        entry = self._entry
        if entry is None or entry is source:
            return
        try:
            if self._entry_state == "stale":
                entry.open(checksum=self.fingerprint["checksum"], kernel=self.kernel, resume=False)
            entry.store_phase(phase, payload)
        except OSError:
            self.metrics.inc("cache.write_errors")
            self._entry = None
            return
        if self._entry_state != "written":
            self.metrics.inc("cache.writes")
            self._entry_state = "written"

    def _boundary(self, phase: str) -> None:
        """Driver-level fault hook, fired after a phase's checkpoint write."""
        if self.fault_plan is not None:
            self.fault_plan.fire_boundary(phase)

    def _supervisor(self, phase: str, initializer, initargs: tuple) -> PoolSupervisor:
        """A supervised pool for one phase's parallel dispatch."""
        return PoolSupervisor(
            workers=self.workers,
            phase=phase,
            config=self.runner_config,
            fault_plan=self.fault_plan,
            initializer=initializer,
            initargs=initargs,
            tracer=self.tracer,
            metrics=self.metrics,
            # Explicit: the CPM always owns a private registry, so the
            # supervisor's tracer-based default would miss metrics-only
            # observation; _observing is the run's single source of truth.
            telemetry=self._observing,
        )

    # ------------------------------------------------------------------
    # The pipeline (blocks)
    # ------------------------------------------------------------------
    def _run_pipeline(self, min_k: int, max_k: int | None) -> CommunityHierarchy:
        """Load or compute each phase: the cliques first, then the orders
        still to percolate, and the wire only when some order remains."""
        t0 = time.perf_counter()
        enumerated, source = self._load_phase("enumerate")
        if self.cache is not None:
            self.stats.cache_hit = source is not None and source is self._entry
            self.metrics.inc("cache.hits" if self.stats.cache_hit else "cache.misses")
        if enumerated is None:
            dense, cliques = sharded_enumerate_dense(self, self.checkpoint)
            enumerated = {"dense": dense, "cliques": cliques}
        self._store_phase("enumerate", enumerated, source)
        self._boundary("enumerate")
        t1 = time.perf_counter()
        self.stats.enumerate_seconds = t1 - t0
        cliques = enumerated["cliques"]
        top = self._record_census(cliques, min_k, max_k)
        sizes = [len(c) for c in cliques]

        percolated, percolated_source = self._load_phase("percolate")
        grouped = dict(percolated["groups"]) if percolated is not None else {}
        orders = list(range(top, min_k - 1, -1))  # descending: incremental sweep
        todo = [k for k in orders if k not in grouped]
        wire, n_counted = None, 0
        if percolated is not None:
            self.metrics.inc("runner.resumed_orders", len(orders) - len(todo))
            n_counted = percolated["counted_pairs"]
        if todo:
            overlap, source = self._load_phase("overlap")
            if overlap is None:
                wire, n_counted = self._overlap(enumerated["dense"], sizes)
                overlap = {"cliques": cliques, "wire": wire, "counted_pairs": n_counted}
            self._store_phase("overlap", overlap, source)
            wire, n_counted = overlap["wire"], overlap["counted_pairs"]
        self._boundary("overlap")
        t2 = time.perf_counter()
        self.stats.overlap_seconds = t2 - t1
        self.stats.n_overlap_pairs = n_counted

        with self.tracer.span("cpm.percolate", orders=len(todo)) as span:
            if todo:  # one sweep over every order still to do
                span.set("pairs", wire.n_pairs)
                eligibles = [prefix_count(sizes, k) for k in todo]
                part, batch = percolate_wire(todo, eligibles, wire)
                grouped.update(part)
                self.metrics.inc("percolate.skipped_pairs", batch["skipped_pairs"])
                self.metrics.inc("percolate.union_merges", batch["union_merges"])
                self.metrics.observe("percolate.batch_seconds", batch["wall_seconds"])
                self.metrics.observe("percolate.batch_orders", batch["orders"])
            # One write per run; a phase loaded whole is only copied on.
            payload = {"groups": grouped, "counted_pairs": n_counted}
            self._store_phase("percolate", payload, None if todo else percolated_source)
        self._boundary("percolate")
        with self.tracer.span("cpm.hierarchy"):
            in_range = {k: grouped[k] for k in orders}
            hierarchy = build_hierarchy(cliques, in_range, tracer=self.tracer, metrics=self.metrics)
        self.stats.percolate_seconds = time.perf_counter() - t2
        return hierarchy

    def _record_census(self, cliques: list, min_k: int, max_k: int | None) -> int:
        """Fill the clique census stats; returns the top order to extract."""
        census = CliqueCensus(cliques)
        self.stats.n_cliques = len(cliques)
        self.stats.max_clique_size = census.max_size
        self.stats.size_histogram = census.histogram
        self.metrics.set_gauge("cliques.max_size", census.max_size)
        top = census.max_size if max_k is None else min(max_k, census.max_size)
        if top < min_k:
            raise ValueError(f"graph has no clique of size >= {min_k}; nothing to extract")
        return top

    def _overlap(
        self,
        dense: list[tuple[int, ...]],
        sizes: list[int],
    ) -> tuple[OverlapWire, int]:
        """Count truncated overlaps into the wire, serially in the driver."""
        with self.tracer.span("cpm.overlap") as span:
            shift = max(1, len(sizes).bit_length())
            wire, n_counted, stats = count_overlaps(dense, sizes, shift, self.tracer)
            self.metrics.inc("overlap.pair_updates", stats["pair_updates"])
            self.metrics.inc("overlap.pairs", n_counted)
            self.metrics.inc("overlap.chain_pairs", wire.n_chain_pairs)
            span.set("pairs", n_counted)
            span.set("chain_pairs", wire.n_chain_pairs)
            span.set("bucketed_pairs", wire.n_pairs)
            return wire, n_counted

    # ------------------------------------------------------------------
    # The set kernel: the serial reference oracle
    # ------------------------------------------------------------------
    def _run_oracle(self, min_k: int, max_k: int | None) -> CommunityHierarchy:
        """:func:`extract_hierarchy` over a :class:`CliqueOverlapIndex`."""
        t0 = time.perf_counter()
        index = CliqueOverlapIndex.from_graph(
            self.graph, tracer=self.tracer, metrics=self.metrics
        )
        t1 = time.perf_counter()
        self.stats.enumerate_seconds = t1 - t0
        self._record_census(index.cliques, min_k, max_k)
        self.stats.n_overlap_pairs = len(index.overlaps())
        t2 = time.perf_counter()
        self.stats.overlap_seconds = t2 - t1
        hierarchy = extract_hierarchy(
            self.graph,
            min_k=min_k,
            max_k=max_k,
            index=index,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.stats.percolate_seconds = time.perf_counter() - t2
        return hierarchy
