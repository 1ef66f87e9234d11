"""Driver-side orchestration of the CPM pipeline's pure-Python phases.

Turns each pure-Python LP-CPM phase into a shard-task fan-out through
the owning :class:`~repro.core.lightweight.LightweightParallelCPM`
instance's :class:`~repro.runner.supervise.PoolSupervisor` (retry,
timeout, degradation and worker telemetry for free), then reassembles
results so the pipeline's outputs are byte-identical at every shard
count.  A run with one worker executes the very same task functions
in the driver, one chunk at a time, and a one-shard bitset run counts
overlaps as a single in-driver chunk — there is no separate serial
counter.  The blocks kernel's numpy phases (overlap counting and the
percolation sweep) never come through here: they are whole-array
operations and run in the driver at any shard count.

* **Enumeration** (both kernels) — one shard is a plain in-driver call
  of :func:`~repro.core.cliques.maximal_cliques_bitset`; with more, the
  shard plan partitions degeneracy-ordered vertices, workers run the
  same enumerator and return cliques keyed by vertex, and the driver
  reassembles them in global vertex order (the serial emission
  sequence) before the usual stable size-descending sort.
* **Overlap** (bitset kernel) — node-index chunks are counted into
  per-``i``-shard word→count maps; the driver merges and bucketizes one
  i-shard at a time, bounding the merge's working set (Baudin
  truncation bounds ``j``, i-sharding bounds the merge).
* **Percolation** (bitset kernel) — each activation-order bucket is
  sliced across shards, contracted worker-side to spanning-chain words
  by a local :class:`~repro.core.unionfind.IntUnionFind`, and the
  reduced wire is stitched by one driver sweep.  Spanning chains
  preserve each slice's connectivity exactly, so the stitched
  components — and therefore the hierarchy — match the unreduced sweep.

Each fan-out checkpoints per-task results under the ``shard_*`` phases
of :class:`~repro.runner.checkpoint.CheckpointStore`, so a run killed
mid-shard resumes from the completed shards.  Supervisor phases reuse
the ``enumerate``/``overlap``/``percolate`` site names, which keeps
:class:`~repro.runner.faults.FaultPlan` specs like
``enumerate:shard=0:kill`` aimed at shard tasks.
"""

from __future__ import annotations

import time
from array import array

from ..core.cliques import CliqueEnumerationStats, maximal_cliques_bitset
from ..core.overlap import OverlapWire, build_node_index, chain_pairs, truncate_index
from ..graph.csr import CSRGraph
from ..obs.logging import get_logger
from ..runner.checkpoint import CheckpointStore
from .plan import ShardPlan, plan_shards, prefix_count, split_contiguous
from .workers import (
    count_shard_words,
    enumerate_shard,
    install_shared,
    reduce_shard_bucket,
)

__all__ = [
    "sharded_enumerate_dense",
    "sharded_overlap_dense",
    "sharded_reduce_wire",
]


# ----------------------------------------------------------------------
# Shared fan-out plumbing
# ----------------------------------------------------------------------
def _fans_out(cpm) -> bool:
    """True iff shard tasks go to a worker pool (more than one of each)."""
    return cpm.workers > 1 and cpm.shards > 1


def _dispatch(cpm, phase: str, fn, tasks: list, payload: dict, on_result) -> None:
    """Run shard tasks through the supervisor (or in-driver serially).

    The payload is installed in the driver process too, so in-driver
    execution and the supervisor's serial-degradation fallback run
    against the same shared state as pool workers.
    """
    install_shared(dict(payload))
    if not tasks:
        return
    if not _fans_out(cpm):
        for index, task in enumerate(tasks):
            on_result(index, fn(task))
        return
    supervisor = cpm._supervisor(phase, initializer=install_shared, initargs=(payload,))
    supervisor.run(fn, tasks, fallback=fn, on_result=on_result)
    cpm.stats.degraded = cpm.stats.degraded or supervisor.degraded


def _load_partial(cpm, ckpt: CheckpointStore | None, phase: str, signature: int) -> dict:
    """Resume one shard phase's completed tasks (empty when not resuming).

    Partials are only trusted when the stored shard signature matches
    the current plan — resuming with a different ``--shards`` setting
    recomputes the phase instead of stitching mismatched partitions.
    """
    if ckpt is None or not cpm.resume:
        return {}
    stored = ckpt.load_phase(phase)
    if not stored or stored.get("signature") != signature:
        return {}
    done = stored.get("done") or {}
    if done:
        cpm._mark_resumed(phase)
        cpm.metrics.inc("runner.resumed_shards", len(done))
    return done


def _store_partial(
    ckpt: CheckpointStore | None, phase: str, signature: int, done: dict
) -> None:
    if ckpt is not None:
        ckpt.store_phase(phase, {"signature": signature, "done": done})


#: Structured-log handle (no-op until ``--log-json`` configures one).
_LOG = get_logger(component="shard")


def _observe_plan(cpm, plan: ShardPlan, closure_rows: list[int]) -> None:
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
        cpm.metrics.observe("shard.closure_rows", closure_rows[s])


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def sharded_enumerate_dense(cpm, ckpt: CheckpointStore | None):
    """Bron–Kerbosch over the CSR snapshot, for both pipeline kernels.

    One shard is a plain in-driver
    :func:`~repro.core.cliques.maximal_cliques_bitset` call over
    ``csr.bitsets``; more shards run the same enumerator over a
    degeneracy-partitioned plan (:func:`_enumerate_shards`).  Returns
    ``(dense, cliques, n_nodes)``: dense-id cliques sorted by size
    descending, the same cliques over node labels, and the CSR node
    count — identical at every shard count.
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
    return dense, cliques, csr.n


def _enumerate_shards(
    cpm, csr: CSRGraph, counts: CliqueEnumerationStats, ckpt: CheckpointStore | None
) -> list[tuple[int, ...]]:
    """Fan the per-vertex subtrees out as shard tasks.

    Per-vertex reassembly in ascending id order reproduces the serial
    emission sequence.  Workers get the CSR arrays, never the bitsets.
    """
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    with cpm.tracer.span("shard.plan") as plan_span:
        forward = [
            sum(1 for u in indices[indptr[v] : indptr[v + 1]] if u > v) for v in range(n)
        ]
        plan = plan_shards(forward, cpm.shards)
        closure_rows = []
        for owned in plan.owners:
            mask = 0
            for v in owned:
                mask |= csr.bitsets[v] | (1 << v)
            closure_rows.append(mask.bit_count())
        plan_span.set("shards", plan.n_shards)
        plan_span.set("imbalance", round(plan.imbalance(), 3))
        _observe_plan(cpm, plan, closure_rows)

    payload = {"indptr": indptr, "indices": indices}
    done = _load_partial(cpm, ckpt, "shard_enumerate", plan.n_shards)
    tasks = [(sid, plan.owners[sid]) for sid in range(plan.n_shards) if sid not in done]

    def absorb(index: int, result) -> None:
        by_vertex, stats = result
        done[stats["shard"]] = by_vertex
        cpm.metrics.observe("shard.cliques", stats["cliques"])
        cpm.metrics.observe("shard.enumerate_seconds", stats["wall_seconds"])
        cpm.metrics.observe("worker.max_rss_kib", stats["max_rss_kib"])
        counts.calls += stats["bk_calls"]
        counts.branches += stats["bk_branches"]
        counts.pivot_candidates += stats["bk_pivot_candidates"]
        _store_partial(ckpt, "shard_enumerate", plan.n_shards, done)

    _dispatch(cpm, "enumerate", enumerate_shard, tasks, payload, absorb)

    by_vertex_all: dict[int, list] = {}
    for mapping in done.values():
        by_vertex_all.update(mapping)
    return [c for v in range(n) for c in by_vertex_all.get(v, ())]


# ----------------------------------------------------------------------
# Overlap
# ----------------------------------------------------------------------
def _shard_bounds(n_counting: int, n_shards: int) -> list[int]:
    """Ascending clique-id cut points splitting [0, n_counting)."""
    return [(s * n_counting) // n_shards for s in range(n_shards)] + [n_counting]


def sharded_overlap_dense(cpm, dense, sizes, n_nodes: int, ckpt: CheckpointStore | None):
    """Bitset overlap counting over dense-id cliques, one chunk per shard.

    Returns ``(wire, n_counted)``: the packed activation-order buckets
    plus chains, and the number of distinct co-occurring pairs.
    """
    with cpm.tracer.span("cpm.overlap") as span:
        t0 = time.perf_counter()
        n_cliques = len(sizes)
        shift = max(1, n_cliques.bit_length())
        n_counting = prefix_count(sizes, 3)
        with cpm.tracer.span("cpm.overlap.index"):
            index_lists = build_node_index(dense, n_nodes)
            counting = truncate_index(index_lists, n_counting)
        n_shards = cpm.shards
        bounds = _shard_bounds(n_counting, n_shards)
        chunks = split_contiguous(counting, n_shards)
        span.set("shards", len(chunks))

        payload = {"shift": shift, "bounds": bounds}
        done = _load_partial(cpm, ckpt, "shard_overlap", n_shards)
        tasks = [
            (cid, chunk) for cid, chunk in enumerate(chunks) if cid not in done
        ]
        shard_reports: list[dict] = []

        def absorb(index: int, result) -> None:
            by_shard, stats = result
            done[tasks[index][0]] = by_shard
            shard_reports.append(stats)
            _store_partial(ckpt, "shard_overlap", n_shards, done)

        _dispatch(cpm, "overlap", count_shard_words, tasks, payload, absorb)
        cpm._aggregate_shard_reports(
            shard_reports, time.perf_counter() - t0, cpm.workers if _fans_out(cpm) else 1
        )

        # Merge + bucketize one i-shard at a time: the working set is a
        # single shard's distinct pairs, never the global counter.
        mask = (1 << shift) - 1
        buckets: dict[int, array] = {}
        n_counted = 0
        for s in range(n_shards):
            parts = [by_shard[s] for by_shard in done.values()]
            merged = parts[0]
            if len(parts) > 1:
                merged = dict(merged)  # never mutate a checkpointed partial
                get = merged.get
                for part in parts[1:]:
                    for word, count in part.items():
                        merged[word] = get(word, 0) + count
            n_counted += len(merged)
            for word, o in merged.items():
                if o <= 1:
                    continue
                sj = sizes[word & mask]
                k_act = sj if sj < o + 1 else o + 1
                arr = buckets.get(k_act)
                if arr is None:
                    arr = buckets[k_act] = array("q")
                arr.append(word)
            cpm.metrics.observe("shard.bucket_words", len(merged))

        chains = chain_pairs(index_lists, shift)
        wire = OverlapWire(
            n_cliques=n_cliques,
            shift=shift,
            n_pairs=sum(len(b) for b in buckets.values()),
            n_chain_pairs=len(chains),
            buckets={k: arr.tobytes() for k, arr in buckets.items()},
            chains=chains.tobytes(),
        )
        cpm.metrics.inc("overlap.pairs", n_counted)
        cpm.metrics.inc("overlap.chain_pairs", len(chains))
        span.set("pairs", n_counted)
        span.set("chain_pairs", len(chains))
        span.set("bucketed_pairs", wire.n_pairs)
        return wire, n_counted


# ----------------------------------------------------------------------
# Percolation reduction
# ----------------------------------------------------------------------
def sharded_reduce_wire(cpm, wire, ckpt: CheckpointStore | None):
    """Contract each activation-order bucket shard-parallel.

    Slices every bucket into up to ``cpm.shards`` word chunks, reduces
    each chunk to its components' spanning chains worker-side, and
    returns a wire carrying the reduced buckets (chains untouched) for
    the driver's single stitching sweep.
    """
    with cpm.tracer.span("shard.reduce", shards=cpm.shards) as span:
        n_shards = cpm.shards
        chunks: list[tuple[int, bytes]] = []  # (k_act, chunk bytes)
        word_size = array("q").itemsize
        for k_act in sorted(wire.buckets, reverse=True):
            blob = wire.buckets[k_act]
            n_words = len(blob) // word_size
            n_chunks = max(1, min(n_shards, n_words))
            size, extra = divmod(n_words, n_chunks)
            start = 0
            for c in range(n_chunks):
                end = start + size + (1 if c < extra else 0)
                if end > start:
                    chunks.append(
                        (k_act, blob[start * word_size : end * word_size])
                    )
                start = end

        payload = {"n_cliques": wire.n_cliques, "shift": wire.shift}
        done = _load_partial(cpm, ckpt, "shard_percolate", n_shards)
        tasks = [
            (cid, k_act, blob)
            for cid, (k_act, blob) in enumerate(chunks)
            if cid not in done
        ]
        shipped = sum(len(blob) for _, _, blob in tasks)

        def absorb(index: int, result) -> None:
            k_act, reduced, stats = result
            done[tasks[index][0]] = (k_act, reduced)
            cpm.metrics.observe("shard.reduce_seconds", stats["wall_seconds"])
            cpm.metrics.observe("worker.max_rss_kib", stats["max_rss_kib"])
            _store_partial(ckpt, "shard_percolate", n_shards, done)

        _dispatch(cpm, "percolate", reduce_shard_bucket, tasks, payload, absorb)
        cpm.metrics.inc("overlap.bytes_shipped", shipped if _fans_out(cpm) else 0)

        reduced_buckets: dict[int, bytearray] = {}
        for cid in sorted(done):
            k_act, blob = done[cid]
            reduced_buckets.setdefault(k_act, bytearray()).extend(blob)
        reduced = OverlapWire(
            n_cliques=wire.n_cliques,
            shift=wire.shift,
            n_pairs=sum(len(b) // word_size for b in reduced_buckets.values()),
            n_chain_pairs=wire.n_chain_pairs,
            buckets={k: bytes(b) for k, b in reduced_buckets.items()},
            chains=wire.chains,
        )
        cpm.metrics.inc("shard.reduced_pairs_in", wire.n_pairs)
        cpm.metrics.inc("shard.reduced_pairs_out", reduced.n_pairs)
        span.set("pairs_in", wire.n_pairs)
        span.set("pairs_out", reduced.n_pairs)
        return reduced
