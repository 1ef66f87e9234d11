"""Worker-side task function of the sharded enumeration phase.

:func:`enumerate_shard` is a module-level picklable callable dispatched
through :class:`~repro.runner.supervise.PoolSupervisor` (or invoked
directly in the driver when the run has one worker).  The static
payload — the CSR arrays — travels once per worker process via the
pool initializer (:func:`install_shared`); tasks carry only their
shard-specific part.

Memory model: enumeration workers never receive graph-width adjacency
rows (O(n²/8) bytes per process at scale).  They receive the CSR
arrays (~12 bytes per edge) and run the driver's own enumerator,
:func:`~repro.core.cliques.maximal_cliques_bitset`, which builds each
subtree's ``|N(v)|``-bit local rows from those arrays and drops them
when the subtree is done — a shard's resident footprint is the CSR
arrays, their forward-start view (one int per node) and one subtree's
rows.
"""

from __future__ import annotations

import time

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
    Replacing the dict wholesale also drops the snapshot built against
    a previous run's payload.
    """
    global _SHARED
    _SHARED = payload


def _shard_csr() -> CSRGraph:
    """This process's CSR snapshot of the installed payload.

    Labelled by dense id (workers never map labels back); built once
    per installed payload, so its cached forward-start view serves
    every task of the phase.
    """
    csr = _SHARED.get("csr")
    if csr is None:
        indptr, indices = _SHARED["indptr"], _SHARED["indices"]
        csr = _SHARED["csr"] = CSRGraph(range(len(indptr) - 1), indptr, indices)
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
        counts = CliqueEnumerationStats()
        cliques = maximal_cliques_bitset(
            _shard_csr(), min_size=2, stats=counts, vertices=owned
        )
        by_vertex: dict[int, list[tuple[int, ...]]] = {v: [] for v in owned}
        for clique in cliques:
            by_vertex[clique[0]].append(clique)
        span.set("cliques", len(cliques))
        registry = current_metrics()
        if registry is not None:
            registry.inc("worker.shard.cliques", len(cliques))
    stats = {
        "shard": shard_id,
        "vertices": len(owned),
        "cliques": len(cliques),
        "bk_calls": counts.calls,
        "bk_branches": counts.branches,
        "bk_pivot_candidates": counts.pivot_candidates,
        "wall_seconds": time.perf_counter() - t0,
        "cpu_seconds": time.process_time() - c0,
        "max_rss_kib": max_rss_kib(),
    }
    return by_vertex, stats
