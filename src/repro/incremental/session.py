"""Stateful incremental CPM: apply edge deltas, keep the hierarchy.

A :class:`CPMSession` holds the persistent percolation state of one
graph — the maximal clique set (keyed by stable integer ids over
canonical member sets), the Baudin-style truncated overlap counts (one
activation order per counted pair; overlap-1 pairs are never stored
because order-2 connectivity is re-derivable from the node→cliques
index), and the cached per-order union-find groups — and exposes
:meth:`CPMSession.apply`, which advances all of it by one
:class:`~.delta.EdgeDelta` instead of re-running CPM on the whole
graph.

Locality of one edge change (the correctness core, pinned byte-for-
byte against from-scratch ``run_cpm`` by the delta fuzz tests):

* **Insertion** of (u, v): the new maximal cliques are exactly
  ``{u, v} ∪ C`` for ``C`` maximal in the subgraph induced on
  ``N(u) ∩ N(v)`` (any extension of such a clique would be a common
  neighbor contradicting C's maximality, and any new maximal clique
  must contain the new edge).  A pre-existing clique stops being
  maximal iff it is covered by one of those, i.e. iff it contains one
  endpoint and lies inside the other endpoint's new neighborhood.
* **Deletion** of (u, v): every clique containing both endpoints dies;
  each leaves two candidates ``K \\ {u}`` and ``K \\ {v}``, and a
  candidate is a (new) maximal clique iff its members have no common
  neighbor left — candidates already covered by surviving cliques are
  exactly those with a common neighbor, and no two candidates can
  cover each other (they differ in u/v membership or would imply two
  nested maximal cliques).

Percolation is then rebuilt only for the *affected orders* — every
k up to the largest clique born or retired; higher orders cannot have
changed (none of their cliques or qualifying overlaps did) and their
cached groups are reused.  The re-sweep reads a **persistent wire**:
each retained pair's packed word is written once (at admission, into
its activation-order bucket, under a lifetime-fixed shift) and merely
tombstoned on retirement, so an ``apply`` never re-encodes the
~10^5-pair overlap state — only the order-2 chains of the nodes whose
clique bucket changed are re-packed per sweep.  The hierarchy produced
is canonical in the clique *set* (ranking and parent provenance are
permutation-invariant), which is why stable session ids and fresh
pipeline ids yield identical output.

Sessions persist through the existing
:class:`~repro.runner.checkpoint.CheckpointStore` (a ``session``
phase slot keyed by the graph fingerprint), so long-running snapshot
pipelines survive process restarts; see ``docs/incremental.md``.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from collections.abc import Hashable
from os import PathLike
from pathlib import Path

from ..core.cache import CliqueCache
from ..core.cliques import local_maximal_cliques, maximal_cliques_bitset
from ..core.communities import CommunityHierarchy
from ..core.lightweight import PHASE_SHAPES, resolve_kernel
from ..core.overlap import OverlapWire, chain_pairs, count_overlaps
from ..core.percolation import HierarchyLevel, build_hierarchy, percolate_wire
from ..graph.csr import CSRGraph
from ..graph.undirected import Graph
from ..obs.logging import get_logger
from ..obs.manifest import graph_fingerprint
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from ..runner.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    has_fields,
)
from ..shard.plan import prefix_count
from .delta import CPMUpdate, EdgeDelta, diff_covers

#: Structured-log handle (no-op until ``--log-json`` configures one).
_LOG = get_logger(component="incremental")

__all__ = ["CPMSession", "load_session", "SESSION_KERNELS", "SESSION_SCHEMA_VERSION"]

#: The kernels a session runs on (plus ``"auto"``): the batch pipeline's.
SESSION_KERNELS = ("blocks",)

#: Bump on any change to the persisted session payload layout; stale
#: saves then fail :func:`load_session` loudly instead of deserialising
#: a half-compatible state.
SESSION_SCHEMA_VERSION = 2

#: META kernel tag distinguishing a persisted session from a pipeline
#: checkpoint sharing the same directory format.
_KERNEL_TAG = "session"

#: Field -> type of a persisted session payload (:func:`load_session`
#: rejects any other shape).
_SESSION_FIELDS = dict(
    schema=int, nodes=list, edges=list, members=dict,
    pair_kact=dict, groups=dict, next_id=int, applied=int,
)

#: Pair-packing shift for the session's persistent overlap wire.
#: Fixed for the session's lifetime (stable clique ids only grow), so
#: packed words never need re-encoding; supports ids up to 2^31.
_WIRE_SHIFT = 32


def _graph_from_csr(csr: CSRGraph) -> Graph:
    """Rebuild an adjacency-set graph from a CSR snapshot."""
    graph = Graph()
    graph.add_nodes_from(csr.labels)
    labels = csr.labels
    for i in range(csr.n):
        u = labels[i]
        for j in csr.neighbors(i):
            if i < j:
                graph.add_edge(u, labels[j])
    return graph


def _cover_members(hierarchy: CommunityHierarchy | None, k: int) -> tuple[frozenset, ...]:
    """Order ``k``'s member sets in cover order (empty when absent)."""
    if hierarchy is None or k not in hierarchy:
        return ()
    return tuple(c.members for c in hierarchy[k])


class CPMSession:
    """Persistent CPM state with edge-delta updates.

    Construct from a graph (or through :func:`repro.open_session`,
    which also accepts a :class:`~repro.api.CPMResult`); the initial
    build costs one enumeration + overlap pass, after which
    :meth:`apply` advances the state in time proportional to the delta
    and the re-percolated orders — not the graph.  :meth:`result`
    returns a :class:`~repro.api.CPMResult` whose hierarchy is
    byte-identical to a from-scratch ``run_cpm`` on the current graph.

    ``kernel`` is one of :data:`SESSION_KERNELS` or ``"auto"``: the
    session runs the batch pipeline's enumerator, overlap counter and
    percolation sweep, and its oracle is ``run_cpm`` itself (the fuzz
    tests check byte-identity after every batch).  ``cache`` (a
    :class:`~repro.core.cache.CliqueCache`) is probed read-only for
    the initial clique/overlap payload a previous ``run_cpm`` may have
    left behind.  ``tracer``/``metrics`` instrument the session with
    the ``incr.*`` spans and counters of ``docs/observability.md``.

    >>> from repro.graph import ring_of_cliques
    >>> session = CPMSession(ring_of_cliques(4, 5))
    >>> update = session.apply(EdgeDelta(insertions=[(0, 10)]))
    >>> update.inserted_edges
    1
    """

    def __init__(
        self,
        graph: Graph,
        *,
        kernel: str = "blocks",
        cache: CliqueCache | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.kernel = resolve_kernel(kernel, SESSION_KERNELS)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.graph = graph.copy()
        self._members: dict[int, frozenset] = {}
        self._index: dict[Hashable, set[int]] = {}
        self._chains: dict[Hashable, bytes] = {}
        self._stale_nodes: set = set()
        self._pair_kact: dict[tuple[int, int], int] = {}
        self._slots: dict[tuple[int, int], int] = {}
        self._wire: dict[int, array] = {}
        self._wire_garbage = 0
        self._groups: dict[int, list[list[int]]] = {}
        self._next_id = 0
        self._applied = 0
        self._hierarchy: CommunityHierarchy | None = None
        self._levels: dict[int, HierarchyLevel] = {}
        self.cache_hit = False
        with self.tracer.span("incr.open", kernel=self.kernel) as span:
            t0 = time.perf_counter()
            cliques, wire = self._initial_state(cache)
            self._members = dict(enumerate(map(frozenset, cliques)))
            self._next_id = len(self._members)
            self._build_index()
            self._install_pairs(wire)
            self._rebuild_wire()
            top = self.max_clique_size
            if top >= 2:
                self._repercolate(range(2, top + 1), top)
            span.set("n_cliques", len(self._members))
            span.set("n_pairs", len(self._pair_kact))
            span.set("cache_hit", int(self.cache_hit))
            self.metrics.inc("incr.sessions_opened")
            self.open_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _initial_state(self, cache: CliqueCache | None) -> tuple[list, OverlapWire]:
        """The maximal cliques (size-descending) and their overlap wire.

        Both come from the ``overlap`` phase of the entry a previous
        ``run_cpm`` cached (the cache is read-only here; an absent,
        foreign, corrupt or misshapen phase is a counted miss), or from
        the pipeline's enumerator and its counter,
        :func:`~repro.core.overlap.count_overlaps`.
        """
        if cache is not None:
            with self.tracer.span("graph.fingerprint"):
                checksum = graph_fingerprint(self.graph)["checksum"]
            payload = cache.load(checksum, self.kernel)
            self.cache_hit = PHASE_SHAPES["overlap"](payload)
            self.metrics.inc("cache.hits" if self.cache_hit else "cache.misses")
            if self.cache_hit:
                return payload["cliques"], payload["wire"]
        csr = CSRGraph.from_graph(self.graph)
        dense = maximal_cliques_bitset(csr, min_size=2)
        dense.sort(key=len, reverse=True)
        to_label = csr.labels.__getitem__
        cliques = [tuple(map(to_label, clique)) for clique in dense]
        sizes = [len(clique) for clique in dense]
        shift = max(1, len(sizes).bit_length())
        wire, _, _ = count_overlaps(dense, sizes, shift, self.tracer)
        return cliques, wire

    def _build_index(self) -> None:
        """Rebuild the node -> live clique ids index from the members."""
        self._index = {}
        for cid, clique in self._members.items():
            for node in clique:
                self._index.setdefault(node, set()).add(cid)
        self._chains = {}
        self._stale_nodes = set(self._index)

    def _install_pairs(self, wire: OverlapWire) -> None:
        """Decode the wire's buckets into the retained pair state.

        Initial ids are the wire's clique ids, so each word is an
        ``(a, b)`` id pair at its bucket's activation order.  Only the
        Baudin-truncated pairs (overlap >= 2) are retained; the k = 2
        chains come from the node index.  Pairs hold the members' own
        id objects: a fresh int per decoded endpoint held ~5 MiB more
        on a 144k-pair session.
        """
        ids = list(self._members)
        shift = wire.shift
        mask = (1 << shift) - 1
        pairs: dict[tuple[int, int], int] = {}
        for k_act, blob in wire.buckets.items():
            buf = array("q")
            buf.frombytes(blob)
            for word in buf:
                pairs[(ids[word >> shift], ids[word & mask])] = k_act
        self._pair_kact = pairs

    def _rebuild_wire(self) -> None:
        """(Re)pack every retained pair into the persistent wire buckets.

        The wire lives for the session: a pair's activation order never
        changes after admission, so its packed ``(a << shift) | b``
        word is written once here (or on admission) and only ever
        *tombstoned* on retirement — :meth:`_repercolate` then reuses
        the buckets as-is instead of re-encoding ~10^5 pairs per apply.
        Called at open, on restore, and when tombstones outnumber live
        pairs (compaction).
        """
        buckets: dict[int, array] = {}
        slots: dict[tuple[int, int], int] = {}
        get = buckets.get
        for pair, k_act in self._pair_kact.items():
            arr = get(k_act)
            if arr is None:
                arr = buckets[k_act] = array("q")
            slots[pair] = len(arr)
            arr.append((pair[0] << _WIRE_SHIFT) | pair[1])
        self._wire = buckets
        self._slots = slots
        self._wire_garbage = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def n_cliques(self) -> int:
        """Number of live maximal cliques (size >= 2)."""
        return len(self._members)

    @property
    def n_overlap_pairs(self) -> int:
        """Number of retained (counted, overlap >= 2) clique pairs."""
        return len(self._pair_kact)

    @property
    def max_clique_size(self) -> int:
        """Size of the largest live clique (0 when the graph has no edge)."""
        return max(map(len, self._members.values()), default=0)

    @property
    def applied_batches(self) -> int:
        """How many deltas this session has applied."""
        return self._applied

    @property
    def hierarchy(self) -> CommunityHierarchy | None:
        """The current community hierarchy (None when no clique exists).

        Rebuilt lazily from the cached per-order groups after an
        ``apply``: only the orders the apply re-swept are rebuilt, the
        other levels are reused and every parent link is re-resolved.
        Always equal to what ``run_cpm`` would produce on the session's
        current graph.
        """
        if self._hierarchy is None and self._members:
            with self.tracer.span("incr.hierarchy"):
                self._hierarchy = build_hierarchy(
                    self._members,
                    self._groups,
                    levels=self._levels,
                    tracer=self.tracer,
                    metrics=None,
                )
        return self._hierarchy

    def fingerprint(self) -> dict:
        """The current graph's fingerprint (nodes, edges, checksum)."""
        return graph_fingerprint(self.graph)

    def describe(self) -> dict:
        """A JSON-friendly status snapshot (the CLI's ``session status``)."""
        hierarchy = self.hierarchy
        return {
            "kernel": self.kernel,
            "fingerprint": self.fingerprint(),
            "n_cliques": self.n_cliques,
            "max_clique_size": self.max_clique_size,
            "n_overlap_pairs": self.n_overlap_pairs,
            "applied_batches": self.applied_batches,
            "orders": hierarchy.orders if hierarchy is not None else [],
            "total_communities": (
                hierarchy.total_communities if hierarchy is not None else 0
            ),
        }

    def result(self):
        """The current state as a :class:`~repro.api.CPMResult`.

        The hierarchy (and anything derived from it — trees, query
        artifacts) is byte-identical to a fresh ``run_cpm`` on the
        session's graph.  The stats block carries the session's live
        census; phase timings are zero (the work happened across
        ``apply`` calls, traced under ``incr.*`` spans instead).
        """
        from ..api import CPMResult
        from ..core.lightweight import CPMRunStats

        hierarchy = self.hierarchy
        if hierarchy is None:
            raise ValueError("graph has no clique of size >= 2; nothing to extract")
        histogram = dict(Counter(len(m) for m in self._members.values()))
        stats = CPMRunStats(
            n_cliques=self.n_cliques,
            max_clique_size=self.max_clique_size,
            n_overlap_pairs=self.n_overlap_pairs,
            kernel=self.kernel,
            cache_hit=self.cache_hit,
            size_histogram={k: histogram[k] for k in sorted(histogram)},
        )
        return CPMResult(hierarchy=hierarchy, stats=stats, csr=None)

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: EdgeDelta) -> CPMUpdate:
        """Apply one batch of edge changes; report what moved.

        Deletions are processed before insertions.  The whole batch is
        validated against the current graph first (every deletion
        present, every insertion absent), so an inapplicable batch
        raises ``ValueError`` without touching any state.  Returns a
        :class:`~.delta.CPMUpdate` with the per-order community
        changes between the covers before and after the batch.
        """
        if not isinstance(delta, EdgeDelta):
            raise TypeError(f"apply() takes an EdgeDelta, got {type(delta).__name__}")
        for u, v in delta.deletions:
            if not self.graph.has_edge(u, v):
                raise ValueError(
                    f"cannot delete edge ({u!r}, {v!r}): not present in the session graph"
                )
        for u, v in delta.insertions:
            if self.graph.has_edge(u, v):
                raise ValueError(
                    f"cannot insert edge ({u!r}, {v!r}): already present in the session graph"
                )
        with self.tracer.span(
            "incr.apply",
            batch=self._applied,
            insertions=len(delta.insertions),
            deletions=len(delta.deletions),
        ) as span:
            old_hierarchy = self.hierarchy
            old_max = self.max_clique_size
            born = retired = 0
            k_aff = 0
            with self.tracer.span("incr.mutate"):
                for u, v in delta.deletions:
                    b, r, k_edge = self._delete_edge(u, v)
                    born += b
                    retired += r
                    k_aff = max(k_aff, k_edge)
                for u, v in delta.insertions:
                    b, r, k_edge = self._insert_edge(u, v)
                    born += b
                    retired += r
                    k_aff = max(k_aff, k_edge)
            if self._wire_garbage > max(4096, len(self._pair_kact)):
                self._rebuild_wire()
            new_max = self.max_clique_size
            diff_top = min(k_aff, max(old_max, new_max))
            affected = tuple(range(2, diff_top + 1))
            recompute = range(2, min(k_aff, new_max) + 1)
            with self.tracer.span("incr.percolate", orders=len(recompute)):
                self._repercolate(recompute, new_max)
            self._hierarchy = None
            with self.tracer.span("incr.diff") as diff_span:
                new_hierarchy = self.hierarchy
                changes: list = []
                for k in affected:
                    changes.extend(
                        diff_covers(
                            k,
                            _cover_members(old_hierarchy, k),
                            _cover_members(new_hierarchy, k),
                        )
                    )
                diff_span.set("changes", len(changes))
            update = CPMUpdate(
                batch=self._applied,
                inserted_edges=len(delta.insertions),
                deleted_edges=len(delta.deletions),
                cliques_born=born,
                cliques_retired=retired,
                affected_orders=affected,
                changes=tuple(changes),
            )
            self._applied += 1
            span.set("cliques_born", born)
            span.set("cliques_retired", retired)
            span.set("changes", len(update.changes))
        metrics = self.metrics
        metrics.inc("incr.batches")
        metrics.inc("incr.edges_inserted", len(delta.insertions))
        metrics.inc("incr.edges_deleted", len(delta.deletions))
        metrics.inc("incr.cliques_born", born)
        metrics.inc("incr.cliques_retired", retired)
        metrics.inc("incr.orders_repercolated", len(affected))
        metrics.inc("incr.community_changes", len(update.changes))
        _LOG.info(
            "incr.apply",
            batch=update.batch,
            insertions=len(delta.insertions),
            deletions=len(delta.deletions),
            cliques_born=born,
            cliques_retired=retired,
            changes=len(update.changes),
        )
        return update

    def _insert_edge(self, u: Hashable, v: Hashable) -> tuple[int, int, int]:
        """Insert one edge; returns (born, retired, max affected size)."""
        self.graph.add_edge(u, v)
        nu = self.graph.neighbors(u)
        nv = self.graph.neighbors(v)
        members = self._members
        covered = [cid for cid in self._index.get(u, ()) if members[cid] <= nv]
        covered += [cid for cid in self._index.get(v, ()) if members[cid] <= nu]
        k_aff = 2
        for cid in covered:
            k_aff = max(k_aff, len(members[cid]))
            self._retire(cid)
        common = nu & nv
        if common:
            born = [clique | {u, v} for clique in local_maximal_cliques(self.graph, common)]
        else:
            born = [frozenset((u, v))]
        for clique in born:
            k_aff = max(k_aff, len(clique))
            self._admit(clique)
        return len(born), len(covered), k_aff

    def _delete_edge(self, u: Hashable, v: Hashable) -> tuple[int, int, int]:
        """Delete one edge; returns (born, retired, max affected size)."""
        self.graph.remove_edge(u, v)
        members = self._members
        covering = [cid for cid in self._index.get(u, ()) if v in members[cid]]
        candidates: list[frozenset] = []
        k_aff = 0
        for cid in covering:
            clique = members[cid]
            k_aff = max(k_aff, len(clique))
            candidates.append(clique - {u})
            candidates.append(clique - {v})
            self._retire(cid)
        born = 0
        neighbors = self.graph.neighbors
        for candidate in candidates:
            if len(candidate) < 2:
                continue
            nodes = iter(candidate)
            common = set(neighbors(next(nodes)))
            for node in nodes:
                common &= neighbors(node)
                if not common:
                    break
            if common:
                continue  # covered by a surviving maximal clique
            self._admit(candidate)
            born += 1
        return born, len(covering), k_aff

    def _admit(self, clique: frozenset) -> int:
        """Register a new maximal clique and count its overlaps.

        Overlap counts come from one pass over the node index (the
        co-occurrence count with each live clique *is* the overlap);
        only counts >= 2 are retained, with the pair's activation
        order fixed immediately — both cliques are immutable, so
        ``k_act = min(o + 1, |A|, |B|)`` never changes afterwards.
        2-cliques skip counting entirely: maximal cliques cannot nest,
        so their overlaps never reach 2.
        """
        cid = self._next_id
        self._next_id += 1
        members = self._members
        members[cid] = clique
        self._stale_nodes.update(clique)
        size = len(clique)
        if size >= 3:
            counts: Counter[int] = Counter()
            for node in clique:
                bucket = self._index.setdefault(node, set())
                counts.update(bucket)
                bucket.add(cid)
            pair_kact = self._pair_kact
            wire = self._wire
            slots = self._slots
            for other, overlap in counts.items():
                if overlap >= 2:
                    k_act = min(overlap + 1, size, len(members[other]))
                    pair = (other, cid)
                    pair_kact[pair] = k_act
                    arr = wire.get(k_act)
                    if arr is None:
                        arr = wire[k_act] = array("q")
                    slots[pair] = len(arr)
                    arr.append((other << _WIRE_SHIFT) | cid)
        else:
            for node in clique:
                self._index.setdefault(node, set()).add(cid)
        return cid

    def _retire(self, cid: int) -> frozenset:
        """Remove a clique from the members, index and pair state."""
        clique = self._members.pop(cid)
        self._stale_nodes.update(clique)
        cohabitants: set[int] = set()
        index = self._index
        for node in clique:
            bucket = index[node]
            bucket.discard(cid)
            cohabitants |= bucket
            if not bucket:
                del index[node]
        pair_kact = self._pair_kact
        slots = self._slots
        wire = self._wire
        for other in cohabitants:
            key = (other, cid) if other < cid else (cid, other)
            k_act = pair_kact.pop(key, None)
            if k_act is not None:
                # Tombstone the pair's wire word in place: 0 decodes as
                # the self-pair (0, 0), which every sweep unions as a
                # no-op.  Compaction reclaims the slots once tombstones
                # outnumber live pairs.
                wire[k_act][slots.pop(key)] = 0
                self._wire_garbage += 1
        return clique

    def _repercolate(self, orders, new_max: int) -> None:
        """Re-sweep the affected union-find orders from the pair state.

        Cached groups for orders above the affected range stay valid
        (their cliques and qualifying pairs were untouched); orders
        above the new maximum clique size are dropped.  The persistent
        wire buckets are reused as-is — stable ids are the union-find
        positions, so no per-apply remapping or re-packing of the
        ~10^5 retained pairs happens; only the order-2 chains of touched
        nodes are re-packed (:meth:`_node_chains`).  The sweep is
        the same :func:`~repro.core.percolation.percolate_wire` the
        batch pipeline uses, with explicit per-order eligible-id lists
        instead of prefix counts (stable ids are not size-sorted).
        """
        for k in [k for k in self._groups if k > new_max]:
            del self._groups[k]
            self._levels.pop(k, None)
        orders = sorted(orders, reverse=True)
        if not orders or not self._members:
            return
        members = self._members
        ids = sorted(members, key=lambda c: (-len(members[c]), c))
        sizes = [len(members[c]) for c in ids]
        chains = self._node_chains()
        wire = OverlapWire(
            n_cliques=self._next_id,
            shift=_WIRE_SHIFT,
            n_pairs=len(self._pair_kact),
            n_chain_pairs=len(chains) // 8,
            buckets={
                k_act: arr.tobytes() for k_act, arr in self._wire.items() if arr
            },
            chains=chains,
        )
        eligibles = [ids[: prefix_count(sizes, k)] for k in orders]
        groups_by_order, _stats = percolate_wire(orders, eligibles, wire)
        for k, groups in groups_by_order.items():
            self._groups[k] = [sorted(group) for group in groups]
            self._levels.pop(k, None)

    def _node_chains(self) -> bytes:
        """The packed order-2 chains of every node's clique bucket.

        Each node's chain words are cached and re-packed only when an
        admission or retirement touched its bucket since the last
        sweep; chain order across nodes does not matter to the sweep.
        """
        chains = self._chains
        index = self._index
        for node in self._stale_nodes:
            bucket = index.get(node)
            if bucket is None:
                chains.pop(node, None)
            else:
                chains[node] = chain_pairs([sorted(bucket)], _WIRE_SHIFT).tobytes()
        self._stale_nodes.clear()
        return b"".join(chains.values())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | PathLike | CheckpointStore) -> Path:
        """Persist the session into a checkpoint directory.

        Writes the full incremental state (graph, cliques, retained
        pair activations, cached groups) as the store's ``session``
        phase, with ``META.json`` keyed by the *current* graph
        fingerprint — :func:`load_session` re-verifies it, so a
        directory can never silently resurrect a different graph's
        state.  Any pipeline checkpoint previously in the directory is
        cleared (the two layouts are mutually exclusive).
        """
        store = path if isinstance(path, CheckpointStore) else CheckpointStore(path)
        with self.tracer.span("incr.save") as span:
            checksum = graph_fingerprint(self.graph)["checksum"]
            store.open(checksum=checksum, kernel=_KERNEL_TAG, resume=False)
            payload = {
                "schema": SESSION_SCHEMA_VERSION,
                "nodes": list(self.graph.nodes()),
                "edges": list(self.graph.edges()),
                "members": self._members,
                "pair_kact": self._pair_kact,
                "groups": self._groups,
                "next_id": self._next_id,
                "applied": self._applied,
            }
            target = store.store_phase("session", payload)
            span.set("bytes", target.stat().st_size)
        self.metrics.inc("incr.sessions_saved")
        return target

    @classmethod
    def _restore(
        cls,
        payload: dict,
        graph: Graph,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "CPMSession":
        """Rebuild a session from a persisted payload (no recompute)."""
        session = cls.__new__(cls)
        session.kernel = SESSION_KERNELS[0]
        session.tracer = tracer if tracer is not None else NULL_TRACER
        session.metrics = metrics if metrics is not None else MetricsRegistry()
        session.graph = graph
        session._members = dict(payload["members"])
        session._pair_kact = dict(payload["pair_kact"])
        session._groups = {k: list(v) for k, v in payload["groups"].items()}
        session._next_id = payload["next_id"]
        session._applied = payload["applied"]
        session._hierarchy = None
        session._levels = {}
        session.cache_hit = False
        session.open_seconds = 0.0
        session._build_index()
        session._rebuild_wire()
        session.metrics.inc("incr.sessions_loaded")
        return session


def load_session(
    path: str | PathLike,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CPMSession:
    """Reopen a session persisted by :meth:`CPMSession.save`.

    Validates the directory end to end before trusting it: the META
    must be a session entry (not a pipeline checkpoint) at the current
    schema versions, the payload must deserialise to a dict with every
    session field at its type, and the rebuilt
    graph's fingerprint must match the checksum the META was keyed
    with — any mismatch raises
    :class:`~repro.runner.checkpoint.CheckpointMismatchError` (a
    ``ValueError``, so the CLI maps it to a clean exit).
    """
    active_tracer = tracer if tracer is not None else NULL_TRACER
    with active_tracer.span("incr.load") as span:
        store = CheckpointStore(path)
        meta = store.meta()
        if meta is None:
            raise CheckpointError(
                f"no saved session at {store.root}: META.json is missing"
            )
        if meta.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointMismatchError(
                f"{store.root} was written with checkpoint schema {meta.get('schema')!r}, "
                f"this build reads schema {CHECKPOINT_SCHEMA_VERSION}; re-open and save "
                "the session again"
            )
        kernel_tag = meta.get("kernel")
        if kernel_tag != _KERNEL_TAG:
            raise CheckpointMismatchError(
                f"{store.root} holds a pipeline checkpoint (kernel={kernel_tag!r}), "
                "not a saved session"
            )
        payload = store.load_phase("session")
        if not has_fields(payload, _SESSION_FIELDS):
            raise CheckpointError(
                f"saved session at {store.root} has no readable session payload "
                f"(a dict with the fields {sorted(_SESSION_FIELDS)})"
            )
        if payload["schema"] != SESSION_SCHEMA_VERSION:
            raise CheckpointMismatchError(
                f"saved session at {store.root} uses schema {payload['schema']!r}, "
                f"this build expects {SESSION_SCHEMA_VERSION}"
            )
        graph = Graph()
        graph.add_nodes_from(payload["nodes"])
        graph.add_edges_from(payload["edges"])
        checksum = graph_fingerprint(graph)["checksum"]
        if checksum != meta.get("checksum"):
            raise CheckpointMismatchError(
                f"saved session at {store.root} fails its integrity check: stored "
                f"checksum {meta.get('checksum')!r} != rebuilt graph {checksum!r}"
            )
        span.set("n_cliques", len(payload["members"]))
    return CPMSession._restore(payload, graph, tracer=tracer, metrics=metrics)
