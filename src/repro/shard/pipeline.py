"""Driver-side orchestration of the sharded enumeration phase.

Clique enumeration is the one LP-CPM phase that gains from a worker
pool, so it is the one phase :mod:`repro.shard` fans out.  Shard tasks
run through the owning ``LightweightParallelCPM`` instance's
:class:`~repro.runner.supervise.PoolSupervisor` (retry, timeout,
degradation and worker telemetry for free), and the driver reassembles
their results so the pipeline's output is byte-identical at every
shard count.  A run with one worker executes the very same task
function in the driver, one shard at a time.

One shard is a plain in-driver call of
:func:`~repro.core.cliques.maximal_cliques_bitset`; with more, the
shard plan partitions degeneracy-ordered vertices, workers run the
same enumerator and return cliques keyed by vertex, and the driver
reassembles them in global vertex order (the serial emission sequence)
before the usual stable size-descending sort.  Overlap counting and
the percolation sweep never come through here: they run serially in
the driver.

The fan-out checkpoints per-task results under the ``shard_enumerate``
phase of :class:`~repro.runner.checkpoint.CheckpointStore`, so a run
killed mid-shard resumes from the completed shards.  The supervisor
runs under the ``enumerate`` site name, which keeps
:class:`~repro.runner.faults.FaultPlan` specs like
``enumerate:shard=0:kill`` aimed at shard tasks.
"""

from __future__ import annotations

from ..core.cliques import CliqueEnumerationStats, maximal_cliques_bitset
from ..graph.csr import CSRGraph
from ..obs.logging import get_logger
from ..runner.checkpoint import CheckpointStore, has_fields
from .plan import ShardPlan, plan_shards
from .workers import enumerate_shard, install_shared

__all__ = ["sharded_enumerate_dense"]


# ----------------------------------------------------------------------
# Fan-out plumbing
# ----------------------------------------------------------------------
def _dispatch(cpm, tasks: list, payload: dict, on_result) -> None:
    """Run enumeration shard tasks through the supervisor (or in-driver
    serially, with one worker).

    The payload is installed in the driver process too, so in-driver
    execution and the supervisor's serial-degradation fallback run
    against the same shared state as pool workers.
    """
    install_shared(dict(payload))
    if not tasks:
        return
    if cpm.workers == 1:
        for index, task in enumerate(tasks):
            on_result(index, enumerate_shard(task))
        return
    supervisor = cpm._supervisor("enumerate", initializer=install_shared, initargs=(payload,))
    supervisor.run(enumerate_shard, tasks, fallback=enumerate_shard, on_result=on_result)
    cpm.stats.degraded = cpm.stats.degraded or supervisor.degraded


def _load_partial(cpm, ckpt: CheckpointStore | None, signature: int) -> dict:
    """Resume the completed enumeration shards (empty when not resuming).

    Partials are only trusted when the stored shard signature matches
    the current plan — resuming with a different ``--shards`` setting
    recomputes the phase instead of stitching mismatched partitions —
    and a payload of the wrong shape is no partial at all.
    """
    if ckpt is None or not cpm.resume:
        return {}
    stored = ckpt.load_phase("shard_enumerate")
    if (
        not has_fields(stored, {"signature": int, "done": dict})
        or stored["signature"] != signature
    ):
        return {}
    done = stored["done"]
    if done:
        cpm._mark_resumed("shard_enumerate")
        cpm.metrics.inc("runner.resumed_shards", len(done))
    return done


def _store_partial(ckpt: CheckpointStore | None, signature: int, done: dict) -> None:
    if ckpt is not None:
        ckpt.store_phase("shard_enumerate", {"signature": signature, "done": done})


#: Structured-log handle (no-op until ``--log-json`` configures one).
_LOG = get_logger(component="shard")


def _observe_plan(cpm, plan: ShardPlan) -> None:
    cpm.metrics.set_gauge("shard.count", plan.n_shards)
    cpm.metrics.set_gauge("shard.imbalance", plan.imbalance())
    _LOG.info(
        "shard.plan",
        shards=plan.n_shards,
        imbalance=round(plan.imbalance(), 4),
    )
    for s in range(plan.n_shards):
        cpm.metrics.observe("shard.cost", plan.costs[s])
        cpm.metrics.observe("shard.vertices", len(plan.owners[s]))


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def sharded_enumerate_dense(cpm, ckpt: CheckpointStore | None):
    """Bron–Kerbosch over the CSR snapshot, for the pipeline.

    One shard is a plain in-driver
    :func:`~repro.core.cliques.maximal_cliques_bitset` call over the
    CSR snapshot; more shards run the same enumerator over a
    degeneracy-partitioned plan (:func:`_enumerate_shards`).  Returns
    ``(dense, cliques)``: dense-id cliques sorted by size descending
    and the same cliques over node labels — identical at every shard
    count.
    """
    with cpm.tracer.span("cpm.enumerate") as span:
        csr = CSRGraph.from_graph(cpm.graph)
        cpm.csr = csr
        counts = CliqueEnumerationStats()
        if cpm.shards == 1:
            dense = maximal_cliques_bitset(csr, min_size=2, stats=counts)
        else:
            dense = _enumerate_shards(cpm, csr, counts, ckpt)
        dense.sort(key=len, reverse=True)
        to_label = csr.labels.__getitem__
        cliques = [tuple(map(to_label, clique)) for clique in dense]
        span.set("n_cliques", len(cliques))
        span.set("kernel", cpm.kernel)
        span.set("shards", cpm.shards)
        cpm.metrics.inc("cliques.enumerated", len(cliques))
        cpm.metrics.inc("cliques.bk_calls", counts.calls)
        cpm.metrics.inc("cliques.bk_branches", counts.branches)
        cpm.metrics.inc("cliques.bk_pivot_candidates", counts.pivot_candidates)
    return dense, cliques


def _enumerate_shards(
    cpm, csr: CSRGraph, counts: CliqueEnumerationStats, ckpt: CheckpointStore | None
) -> list[tuple[int, ...]]:
    """Fan the per-vertex subtrees out as shard tasks.

    Per-vertex reassembly in ascending id order reproduces the serial
    emission sequence.  Workers get the CSR arrays and nothing else.
    """
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    with cpm.tracer.span("shard.plan") as plan_span:
        forward = csr.forward_starts()
        plan = plan_shards([indptr[v + 1] - forward[v] for v in range(n)], cpm.shards)
        plan_span.set("shards", plan.n_shards)
        plan_span.set("imbalance", round(plan.imbalance(), 3))
        _observe_plan(cpm, plan)

    payload = {"indptr": indptr, "indices": indices}
    done = _load_partial(cpm, ckpt, plan.n_shards)
    tasks = [(sid, plan.owners[sid]) for sid in range(plan.n_shards) if sid not in done]

    def absorb(index: int, result) -> None:
        by_vertex, stats = result
        done[stats["shard"]] = by_vertex
        cpm.metrics.observe("shard.cliques", stats["cliques"])
        cpm.metrics.observe("shard.enumerate_seconds", stats["wall_seconds"])
        if cpm.workers > 1:
            # Pool tasks only: an in-driver task would report the driver.
            cpm.metrics.observe("worker.max_rss_kib", stats["max_rss_kib"])
        counts.calls += stats["bk_calls"]
        counts.branches += stats["bk_branches"]
        counts.pivot_candidates += stats["bk_pivot_candidates"]
        _store_partial(ckpt, plan.n_shards, done)

    _dispatch(cpm, tasks, payload, absorb)

    by_vertex_all: dict[int, list] = {}
    for mapping in done.values():
        by_vertex_all.update(mapping)
    return [c for v in range(n) for c in by_vertex_all.get(v, ())]
