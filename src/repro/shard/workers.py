"""Worker-side task function of the sharded enumeration phase.

:func:`enumerate_shard` is a module-level picklable callable dispatched
through :class:`~repro.runner.supervise.PoolSupervisor` (or invoked
directly in the driver when the run has one worker).  The static
payload — the CSR arrays — travels once per worker process via the
pool initializer (:func:`install_shared`); tasks carry only their
shard-specific part.

Memory model: enumeration workers never receive the bitset adjacency
(O(n²/8) bytes per process at scale).  They receive the CSR arrays
(~12 bytes per edge) and run the driver's own enumerator,
:func:`~repro.core.cliques.maximal_cliques_bitset`, over a CSR
snapshot whose big-int rows are built on first read and memoised per
process — a shard's resident footprint is the rows its subtrees touch
(at most its forward-neighborhood closure), not the graph.  A subtree
the enumerator re-indexes onto its own neighbourhood reads only its
root's row; the rest comes from the CSR arrays.
"""

from __future__ import annotations

import time
from array import array

from ..core.cliques import CliqueEnumerationStats, maximal_cliques_bitset
from ..graph.csr import CSRGraph
from ..obs.tracing import max_rss_kib
from ..obs.worker import current_metrics, worker_span

__all__ = ["install_shared", "enumerate_shard"]

# Installed once per worker process by the pool initializer; the driver
# installs the same payload before dispatch so serial execution and the
# supervisor's in-driver fallback hit identical state.
_SHARED: dict = {}


def install_shared(payload: dict) -> None:
    """Install the payload this process's shard tasks read.

    Runs as the worker-pool initializer (once per worker, not per
    task) and in the driver process itself, so serial dispatch and the
    supervisor's degradation fallback see the same shared state.
    Replacing the dict wholesale also drops the per-process row memo
    built against a previous run's payload.
    """
    global _SHARED
    _SHARED = payload


class _RowMemo(dict):
    """Big-int adjacency rows by dense id, built from the CSR arrays on
    first read and kept for the rest of the phase."""

    __slots__ = ("indptr", "indices", "row_bytes")

    def __init__(self, indptr: array, indices: array) -> None:
        super().__init__()
        self.indptr = indptr
        self.indices = indices
        self.row_bytes = (len(indptr) + 6) >> 3  # ceil(n / 8)

    def __missing__(self, u: int) -> int:
        buf = bytearray(self.row_bytes)
        for w in self.indices[self.indptr[u] : self.indptr[u + 1]]:
            buf[w >> 3] |= 1 << (w & 7)
        row = self[u] = int.from_bytes(buf, "little")
        return row


def _shard_csr() -> CSRGraph:
    """This process's CSR snapshot, with a row memo for ``bitsets``.

    Labelled by dense id (workers never map labels back); built once
    per installed payload, so the memo survives across the phase's
    tasks.
    """
    csr = _SHARED.get("csr")
    if csr is None:
        indptr, indices = _SHARED["indptr"], _SHARED["indices"]
        csr = _SHARED["csr"] = CSRGraph(
            range(len(indptr) - 1), indptr, indices, _RowMemo(indptr, indices)
        )
    return csr


def enumerate_shard(task: tuple[int, tuple[int, ...]]) -> tuple[dict, dict]:
    """Worker: enumerate the Bron–Kerbosch subtrees one shard owns.

    Runs :func:`~repro.core.cliques.maximal_cliques_bitset` over the
    owned vertices and returns ``{vertex: [clique tuples]}`` (every
    tuple starts with its subtree's vertex), so the driver can
    reassemble cliques in global degeneracy order — the serial
    emission sequence — regardless of shard boundaries.
    """
    shard_id, owned = task
    t0, c0 = time.perf_counter(), time.process_time()
    with worker_span(
        "worker.shard.enumerate", shard=shard_id, vertices=len(owned)
    ) as span:
        csr = _shard_csr()
        rows_before = len(csr.bitsets)
        counts = CliqueEnumerationStats()
        cliques = maximal_cliques_bitset(csr, min_size=2, stats=counts, vertices=owned)
        rows_built = len(csr.bitsets) - rows_before
        by_vertex: dict[int, list[tuple[int, ...]]] = {v: [] for v in owned}
        for clique in cliques:
            by_vertex[clique[0]].append(clique)
        span.set("cliques", len(cliques))
        span.set("rows_built", rows_built)
        registry = current_metrics()
        if registry is not None:
            registry.inc("worker.shard.cliques", len(cliques))
            registry.observe("worker.shard.rows_built", rows_built)
    stats = {
        "shard": shard_id,
        "vertices": len(owned),
        "cliques": len(cliques),
        "rows_built": rows_built,
        "bk_calls": counts.calls,
        "bk_branches": counts.branches,
        "bk_pivot_candidates": counts.pivot_candidates,
        "wall_seconds": time.perf_counter() - t0,
        "cpu_seconds": time.process_time() - c0,
        "max_rss_kib": max_rss_kib(),
    }
    return by_vertex, stats
