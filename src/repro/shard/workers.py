"""Worker-side task functions of the sharded CPM pipeline.

Every function here is a module-level picklable callable dispatched
through :class:`~repro.runner.supervise.PoolSupervisor` (or invoked
directly in the driver when the run does not fan out: one worker or
one shard).  Static per-phase
payload travels once per worker process via the pool initializer
(:func:`install_shared`); tasks carry only their shard-specific part.

Memory model: enumeration workers never receive the bitset adjacency
(O(n²/8) bytes per process at scale).  They receive the CSR arrays
(~12 bytes per edge) and lazily materialise big-int adjacency rows for
the forward-neighborhood closure of the vertices they own, memoised
per process — a shard's resident footprint is its closure, not the
graph.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_right

from ..core.unionfind import IntUnionFind
from ..obs.tracing import max_rss_kib
from ..obs.worker import current_metrics, worker_span

__all__ = [
    "install_shared",
    "enumerate_shard_bitset",
    "count_shard_words",
    "reduce_shard_bucket",
]

# Installed once per worker process by the pool initializer; the driver
# installs the same payload before dispatch so serial execution and the
# supervisor's in-driver fallback hit identical state.
_SHARED: dict = {}


def install_shared(payload: dict) -> None:
    """Install the phase payload this process's shard tasks read.

    Runs as the worker-pool initializer (once per worker, not per
    task) and in the driver process itself, so serial dispatch and the
    supervisor's degradation fallback see the same shared state.
    Replacing the dict wholesale also drops the per-process ``_rows``
    memo built against a previous phase's payload.
    """
    global _SHARED
    _SHARED = payload


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def _bitset_rows() -> dict[int, int]:
    """The process-local adjacency-row memo (survives across tasks)."""
    rows = _SHARED.get("_rows")
    if rows is None:
        rows = _SHARED["_rows"] = {}
    return rows


def _build_rows(vertices: list[int], rows: dict[int, int]) -> int:
    """Materialise big-int adjacency rows for ``vertices`` + neighbors.

    The Bron–Kerbosch subtree rooted at ``v`` only reads rows inside
    ``{v} ∪ N(v)`` (candidates, excluded set and pivot scans all live
    in ``N(v)``), so building the one-hop closure up front lets the
    recursion index ``rows`` like the serial kernel indexes
    ``csr.bitsets``.  Returns the number of rows built.
    """
    indptr = _SHARED["indptr"]
    indices = _SHARED["indices"]
    row_bytes = _SHARED["row_bytes"]
    built = 0
    pending = []
    for v in vertices:
        if v not in rows:
            pending.append(v)
        pending.extend(u for u in indices[indptr[v] : indptr[v + 1]] if u not in rows)
    for u in pending:
        if u in rows:
            continue
        buf = bytearray(row_bytes)
        for w in indices[indptr[u] : indptr[u + 1]]:
            buf[w >> 3] |= 1 << (w & 7)
        rows[u] = int.from_bytes(buf, "little")
        built += 1
    return built


def _vertex_cliques_bitset(v: int, rows: dict[int, int], emit, counters: dict) -> None:
    """The serial bitset kernel's per-vertex subtree, over memoised rows."""
    stack = [v]

    def expand(p: int, x: int) -> None:
        counters["calls"] += 1
        if not p:
            if not x and len(stack) >= 2:
                emit(tuple(stack))
            return
        cand = p | x
        best = -1
        pivot_nbrs = 0
        m = cand
        while m:
            low = m & -m
            count = (rows[low.bit_length() - 1] & p).bit_count()
            if count > best:
                best = count
                pivot_nbrs = rows[low.bit_length() - 1]
            m ^= low
        branch = p & ~pivot_nbrs
        counters["pivot_candidates"] += cand.bit_count()
        counters["branches"] += branch.bit_count()
        while branch:
            low = branch & -branch
            nv = rows[low.bit_length() - 1]
            stack.append(low.bit_length() - 1)
            expand(p & nv, x & nv)
            stack.pop()
            p ^= low
            x |= low
            branch ^= low

    nv = rows[v]
    later = (nv >> (v + 1)) << (v + 1)
    earlier = nv & ((1 << v) - 1)
    expand(later, earlier)


def enumerate_shard_bitset(task: tuple[int, tuple[int, ...]]) -> tuple[dict, dict]:
    """Worker: enumerate the Bron–Kerbosch subtrees one shard owns.

    Returns ``{vertex: [clique tuples]}`` so the driver can reassemble
    cliques in global degeneracy order — the serial kernel's exact
    emission sequence — regardless of shard boundaries.
    """
    shard_id, owned = task
    t0, c0 = time.perf_counter(), time.process_time()
    with worker_span(
        "worker.shard.enumerate", shard=shard_id, vertices=len(owned)
    ) as span:
        rows = _bitset_rows()
        rows_built = _build_rows(list(owned), rows)
        counters = {"calls": 0, "branches": 0, "pivot_candidates": 0}
        by_vertex: dict[int, list[tuple[int, ...]]] = {}
        n_cliques = 0
        for v in owned:
            out: list[tuple[int, ...]] = []
            _vertex_cliques_bitset(v, rows, out.append, counters)
            by_vertex[v] = out
            n_cliques += len(out)
        span.set("cliques", n_cliques)
        span.set("rows_built", rows_built)
        registry = current_metrics()
        if registry is not None:
            registry.inc("worker.shard.cliques", n_cliques)
            registry.observe("worker.shard.rows_built", rows_built)
    stats = {
        "shard": shard_id,
        "vertices": len(owned),
        "cliques": n_cliques,
        "rows_built": rows_built,
        "bk_calls": counters["calls"],
        "bk_branches": counters["branches"],
        "bk_pivot_candidates": counters["pivot_candidates"],
        "wall_seconds": time.perf_counter() - t0,
        "cpu_seconds": time.process_time() - c0,
        "max_rss_kib": max_rss_kib(),
    }
    return by_vertex, stats


# ----------------------------------------------------------------------
# Overlap counting, bucketed by i-shard
# ----------------------------------------------------------------------
def count_shard_words(task: tuple[int, list[list[int]]]) -> tuple[list[dict], dict]:
    """Worker: co-occurrence counts over one chunk of the node index,
    partitioned by the ``i``-shard of each packed pair word.

    ``task`` carries one chunk of per-node counting-eligible clique-id
    lists; the shared payload carries the pair-packing ``shift`` and
    the ascending clique-id ``bounds`` that split ``[0, n_counting)``
    into i-shards.  Returning one word→count dict *per i-shard* lets
    the driver merge and bucketize one shard at a time instead of
    materialising the global counter — the Baudin truncation already
    capped j, this caps the merge's working set.
    """
    chunk_id, lists = task
    shift = _SHARED["shift"]
    bounds = _SHARED["bounds"]
    t0, c0 = time.perf_counter(), time.process_time()
    with worker_span("worker.shard.count", shard=chunk_id, nodes=len(lists)) as span:
        by_shard: list[dict[int, int]] = [{} for _ in range(len(bounds) - 1)]
        incidences = 0
        pair_updates = 0
        for cids in lists:
            n = len(cids)
            incidences += n
            pair_updates += n * (n - 1) // 2
            for a in range(n):
                ca = cids[a]
                counts = by_shard[bisect_right(bounds, ca) - 1]
                base = ca << shift
                for b in range(a + 1, n):
                    word = base | cids[b]
                    counts[word] = counts.get(word, 0) + 1
        distinct = sum(len(counts) for counts in by_shard)
        span.set("pairs", distinct)
        registry = current_metrics()
        if registry is not None:
            registry.inc("worker.overlap.pair_updates", pair_updates)
            registry.inc("worker.overlap.distinct_pairs", distinct)
            registry.observe("worker.overlap.shard_nodes", len(lists))
    stats = {
        "nodes": len(lists),
        "incidences": incidences,
        "pair_updates": pair_updates,
        "distinct_pairs": distinct,
        "wall_seconds": time.perf_counter() - t0,
        "cpu_seconds": time.process_time() - c0,
        "max_rss_kib": max_rss_kib(),
    }
    return by_shard, stats


# ----------------------------------------------------------------------
# Percolation: per-bucket union-find reduction
# ----------------------------------------------------------------------
def reduce_shard_bucket(task: tuple[int, int, bytes]) -> tuple[int, bytes, dict]:
    """Worker: contract one (activation order, i-shard) slice of pairs.

    Runs a local union-find over the slice's packed words and re-emits
    each connected component as a spanning chain of consecutive-pair
    words — at most ``touched - 1`` words out, however dense the slice
    was.  Because every original word is spanned by its component's
    chain, unioning the reduced slices of all shards reproduces the
    exact connectivity of the unsharded bucket, so the driver's single
    stitching sweep yields identical components.
    """
    chunk_id, k_act, blob = task
    n_cliques = _SHARED["n_cliques"]
    shift = _SHARED["shift"]
    t0, c0 = time.perf_counter(), time.process_time()
    with worker_span("worker.shard.reduce", shard=chunk_id, k_act=k_act) as span:
        words = array("q")
        words.frombytes(blob)
        uf = IntUnionFind(n_cliques)
        merges = uf.union_packed(words, shift)
        mask = (1 << shift) - 1
        touched = sorted({w >> shift for w in words} | {w & mask for w in words})
        out = array("q")
        for group in uf.groups_of(touched):
            prev = group[0]
            for cur in group[1:]:
                out.append((prev << shift) | cur)
                prev = cur
        span.set("pairs_in", len(words))
        span.set("pairs_out", len(out))
        registry = current_metrics()
        if registry is not None:
            registry.inc("worker.shard.reduced_pairs_in", len(words))
            registry.inc("worker.shard.reduced_pairs_out", len(out))
    stats = {
        "k_act": k_act,
        "pairs_in": len(words),
        "pairs_out": len(out),
        "union_merges": merges,
        "wall_seconds": time.perf_counter() - t0,
        "cpu_seconds": time.process_time() - c0,
        "max_rss_kib": max_rss_kib(),
    }
    return k_act, out.tobytes(), stats
