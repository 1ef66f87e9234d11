"""The Clique Percolation Method (CPM).

Definition reproduced (Palla et al. [23], Section 3 of the paper): a
**k-clique community** is the union of all k-cliques that can be
reached from one another through a series of adjacent k-cliques, where
two k-cliques are adjacent iff they share k-1 nodes.

Two implementations:

``k_clique_communities_direct``
    The literal definition: enumerate every k-clique, link adjacent
    pairs, take connected components.  Exponential in practice; kept as
    the executable specification and test oracle.

``k_clique_communities`` / ``extract_hierarchy``
    The CFinder formulation on **maximal** cliques: two maximal cliques
    of size >= k are in the same k-clique community iff they are
    connected through maximal cliques pairwise overlapping in >= k-1
    nodes.  Equivalent to the definition because (a) every k-clique
    lies inside some maximal clique of size >= k, (b) within one
    maximal clique all k-cliques are CPM-connected (walk one node at a
    time, keeping k-1 shared), and (c) an overlap of size >= k-1
    between two maximal cliques contains a shared (k-1)-set extendable
    to adjacent k-cliques on both sides.  The test-suite checks this
    equivalence exhaustively on small graphs and against networkx.

The overlap computation is shared across all orders k by
:class:`CliqueOverlapIndex`, so the full hierarchy (every k from 2 to
the clique number) costs one overlap pass plus one union-find sweep per
order — the structure the Lightweight Parallel CPM [11] parallelises.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass

from ..graph.undirected import Graph
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from .cliques import CliqueEnumerationStats, k_cliques, maximal_cliques
from .communities import CommunityCover, CommunityHierarchy, rank_member_sets
from .overlap import OverlapWire
from .unionfind import UnionFind

__all__ = [
    "CliqueOverlapIndex",
    "k_clique_communities",
    "k_clique_communities_direct",
    "extract_hierarchy",
    "build_hierarchy",
    "build_level",
    "HierarchyLevel",
    "percolate_wire",
]


def percolate_wire(
    orders: Sequence[int],
    eligibles: Sequence[int | Sequence[int]],
    wire: OverlapWire,
) -> tuple[dict[int, list[list[int]]], dict]:
    """Percolate every order in ``orders`` over one packed overlap wire.

    The single percolation entry point of the batch pipeline and of the
    incremental :class:`~repro.incremental.CPMSession`: the truncated
    wire (Baudin et al.) is the only state percolation needs.
    ``orders`` must be strictly descending, with ``eligibles`` aligned:
    each entry is either the *count* of cliques of size >= that order
    (a prefix, for the batch pipeline whose clique ids are assigned in
    size-descending order) or an explicit *list* of the eligible
    clique ids (for the incremental session, whose stable lifetime ids
    are not size-sorted).  A pair bucketed at activation order
    ``k_act`` is usable at every ``k <= k_act``, so one sweep serves
    the whole batch: walking orders downward, each bucket with
    ``k_act >= k`` is merged exactly once and groups are snapshotted
    over the eligible cliques.  At k = 2 the chain buffer is folded in
    (order-2 connectivity over *all* cliques, including the 2-cliques
    the counting phase excludes).  The sweep itself is the numpy
    min-label pass :func:`~.blocks.percolate_orders_blocks`.

    Returns ``(groups_by_order, stats)``; ``stats`` is the self-timed
    report the pipeline aggregates into the ``percolate.*`` metrics.
    """
    # Imported on first use, so commands that never percolate (query
    # serving, the obs tools) start without numpy.
    from .blocks import percolate_orders_blocks

    t0 = time.perf_counter()
    result, merges, applied = percolate_orders_blocks(orders, eligibles, wire)
    pairs_in = wire.n_pairs + wire.n_chain_pairs
    stats = {
        "orders": len(orders),
        "pairs_in": pairs_in,
        "skipped_pairs": max(0, pairs_in - applied),
        "union_merges": merges,
        "wall_seconds": time.perf_counter() - t0,
    }
    return result, stats


class CliqueOverlapIndex:
    """Maximal cliques plus their pairwise overlap sizes.

    Built once per graph; answers percolation queries for every order
    k.  Overlapping pairs are found through an inverted node→cliques
    index, so only pairs that actually share nodes are ever touched
    (the all-pairs matrix of the original CFinder is never formed —
    this is the 'lightweight' idea of [11]).
    """

    def __init__(
        self,
        cliques: Sequence[frozenset],
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cliques: list[frozenset] = sorted(cliques, key=len, reverse=True)
        self.sizes: list[int] = [len(c) for c in self.cliques]
        self._overlaps: dict[tuple[int, int], int] | None = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "CliqueOverlapIndex":
        """Enumerate the maximal cliques of ``graph`` and index them."""
        tracer = tracer if tracer is not None else NULL_TRACER
        observing = tracer.enabled or metrics is not None
        enum_stats = CliqueEnumerationStats() if observing else None
        with tracer.span("cpm.enumerate", kernel="set") as span:
            cliques = maximal_cliques(graph, min_size=2, stats=enum_stats)
            span.set("n_cliques", len(cliques))
        index = cls(cliques, tracer=tracer, metrics=metrics)
        index.metrics.inc("cliques.enumerated", len(cliques))
        if enum_stats is not None:
            index.metrics.inc("cliques.bk_calls", enum_stats.calls)
            index.metrics.inc("cliques.bk_branches", enum_stats.branches)
            index.metrics.inc("cliques.bk_pivot_candidates", enum_stats.pivot_candidates)
        return index

    @property
    def max_clique_size(self) -> int:
        return self.sizes[0] if self.sizes else 0

    def node_index(self) -> dict[Hashable, list[int]]:
        """Inverted index: node -> ids of maximal cliques containing it."""
        index: dict[Hashable, list[int]] = {}
        for cid, clique in enumerate(self.cliques):
            for node in clique:
                index.setdefault(node, []).append(cid)
        return index

    def overlaps(self) -> dict[tuple[int, int], int]:
        """Overlap size for every pair of maximal cliques sharing >= 1 node.

        Keys are (i, j) with i < j.  Computed lazily and cached: the
        co-occurrence count of a clique pair across the inverted index
        *is* their overlap, so one pass over the index suffices.
        """
        if self._overlaps is None:
            with self.tracer.span("cpm.overlap") as span:
                with self.tracer.span("cpm.overlap.index"):
                    node_index = self.node_index()
                counter: Counter[tuple[int, int]] = Counter()
                for cids in node_index.values():
                    for a in range(len(cids)):
                        ca = cids[a]
                        for b in range(a + 1, len(cids)):
                            counter[(ca, cids[b])] += 1
                self._overlaps = dict(counter)
                span.set("pairs", len(self._overlaps))
                self.metrics.inc("overlap.pairs", len(self._overlaps))
        return self._overlaps

    def percolate_groups(self, k: int) -> list[list[int]]:
        """Clique-id groups of every k-clique community.

        Union-find over maximal cliques of size >= k, merging pairs
        with overlap >= k-1.  Because cliques are stored sorted by size
        descending, eligibility is a prefix test.  The returned groups
        carry the percolation provenance needed to resolve community
        parents exactly (see :func:`build_hierarchy`).
        """
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        eligible_count = self._eligible_count(k)
        if eligible_count == 0:
            return []
        overlaps = self.overlaps()
        with self.tracer.span("cpm.percolate.order", k=k, eligible=eligible_count):
            uf = UnionFind(range(eligible_count))
            for (i, j), overlap in overlaps.items():
                if overlap >= k - 1 and i < eligible_count and j < eligible_count:
                    uf.union(i, j)
            groups = [sorted(group) for group in uf.groups()]
        self.metrics.inc("percolate.union_merges", eligible_count - len(groups))
        return groups

    def percolate(self, k: int) -> list[frozenset]:
        """Member sets of every k-clique community, unsorted."""
        return [
            frozenset(node for cid in group for node in self.cliques[cid])
            for group in self.percolate_groups(k)
        ]

    def _eligible_count(self, k: int) -> int:
        """Number of cliques with size >= k (a prefix, sizes are sorted)."""
        lo, hi = 0, len(self.sizes)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.sizes[mid] >= k:
                lo = mid + 1
            else:
                hi = mid
        return lo


def k_clique_communities(graph: Graph, k: int) -> CommunityCover:
    """The k-clique communities of ``graph`` at order ``k``.

    >>> from repro.graph import ring_of_cliques
    >>> cover = k_clique_communities(ring_of_cliques(4, 5), 5)
    >>> len(cover), cover[0].size
    (4, 5)
    """
    index = CliqueOverlapIndex.from_graph(graph)
    return CommunityCover(k, index.percolate(k))


@dataclass(frozen=True)
class HierarchyLevel:
    """One order of a hierarchy, built from that order's groups alone.

    ``membership`` maps each clique id in a group to its community's
    label and ``representatives[i]`` is the first clique id of the
    group behind community ``i`` — the two halves of the parent lookup
    between adjacent orders (:func:`build_hierarchy`).
    """

    cover: CommunityCover
    membership: dict[int, str]
    representatives: tuple[int, ...]


def build_level(
    cliques: Sequence[frozenset] | Mapping[int, frozenset],
    k: int,
    groups: list[list[int]],
) -> HierarchyLevel:
    """The cover of order ``k`` and its clique-id labels, from ``groups``."""
    member_sets = [frozenset().union(*map(cliques.__getitem__, group)) for group in groups]
    # Rank groups exactly as CommunityCover will, so that group
    # positions map onto community indices (rank_member_sets is
    # stable, so even duplicate member sets stay aligned).
    ranked = rank_member_sets(member_sets)
    membership: dict[int, str] = {}
    for community_index, group_position in enumerate(ranked):
        label = f"k{k}id{community_index}"
        for cid in groups[group_position]:
            membership[cid] = label
    return HierarchyLevel(
        cover=CommunityCover(k, member_sets),
        membership=membership,
        representatives=tuple(groups[p][0] for p in ranked),
    )


def build_hierarchy(
    cliques: Sequence[frozenset] | Mapping[int, frozenset],
    groups_by_k: dict[int, list[list[int]]],
    *,
    levels: dict[int, HierarchyLevel] | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CommunityHierarchy:
    """Assemble a hierarchy (with exact parent links) from clique groups.

    ``groups_by_k`` maps each order k to its percolation groups (lists
    of clique ids into ``cliques``).  The structural parent of a
    community is resolved through provenance: any clique eligible at
    order k is also eligible at k-1, so the (k-1)-group containing one
    representative clique id *is* the parent — this is the uniqueness
    construction of the paper's Theorem 1, and it is immune to the
    ambiguity of node-set containment between overlapping communities.

    ``levels``, when given, holds orders already built from the same
    groups: those are reused as-is, and every order built here is
    written back into it.  Parent links are always re-resolved, so an
    incremental session only drops the levels whose groups it re-swept.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    levels = {} if levels is None else levels
    parent_labels: dict[str, str] = {}
    previous: HierarchyLevel | None = None
    with tracer.span("hierarchy.build", orders=len(groups_by_k)) as span:
        for k in sorted(groups_by_k):
            level = levels.get(k)
            if level is None:
                level = levels[k] = build_level(cliques, k, groups_by_k[k])
            if previous is not None and previous.membership:
                for community, representative in zip(level.cover, level.representatives):
                    parent_labels[community.label] = previous.membership[representative]
            previous = level
        covers = {k: levels[k].cover for k in sorted(groups_by_k)}
        hierarchy = CommunityHierarchy(covers, parent_labels=parent_labels)
        span.set("communities", hierarchy.total_communities)
    if metrics is not None:
        metrics.inc("hierarchy.communities", hierarchy.total_communities)
        metrics.set_gauge("hierarchy.max_order", hierarchy.max_k)
    return hierarchy


def extract_hierarchy(
    graph: Graph,
    *,
    min_k: int = 2,
    max_k: int | None = None,
    index: CliqueOverlapIndex | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CommunityHierarchy:
    """All k-clique communities for every order in ``[min_k, max_k]``.

    ``max_k`` defaults to the clique number of the graph (the highest
    order with any community).  An existing :class:`CliqueOverlapIndex`
    may be supplied to share the enumeration/overlap work.  The result
    carries exact parent provenance (``hierarchy.parent_labels``).
    ``tracer``/``metrics`` instrument the run like the parallel
    extractor does (``docs/observability.md``).  This is the serial
    reference oracle behind ``kernel="set"``.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if index is None:
        index = CliqueOverlapIndex.from_graph(graph, tracer=tracer, metrics=metrics)
    top = index.max_clique_size if max_k is None else min(max_k, index.max_clique_size)
    if min_k < 2:
        raise ValueError(f"min_k must be >= 2, got {min_k}")
    if top < min_k:
        raise ValueError(f"graph has no clique of size >= {min_k}; nothing to extract")
    index.overlaps()  # its cpm.overlap span sits beside cpm.percolate, not under it
    with tracer.span("cpm.percolate", orders=top - min_k + 1):
        groups_by_k = {k: index.percolate_groups(k) for k in range(min_k, top + 1)}
    with tracer.span("cpm.hierarchy"):
        return build_hierarchy(index.cliques, groups_by_k, tracer=tracer, metrics=metrics)


def k_clique_communities_direct(graph: Graph, k: int) -> CommunityCover:
    """Executable specification: percolate raw k-cliques.

    Enumerate every k-clique, join pairs sharing exactly k-1 nodes, and
    union each connected chain.  Adjacency is found by hashing each
    clique's (k-1)-subsets, so the pair scan is linear in the number of
    (clique, facet) incidences rather than quadratic in cliques.
    Intended for small graphs (tests, documentation); use
    :func:`k_clique_communities` for real workloads.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cliques = list(k_cliques(graph, k))
    if not cliques:
        return CommunityCover(k, [])
    uf = UnionFind(range(len(cliques)))
    by_facet: dict[frozenset, int] = {}
    for cid, clique in enumerate(cliques):
        for node in clique:
            facet = clique - {node}
            anchor = by_facet.setdefault(facet, cid)
            if anchor != cid:
                # All cliques sharing a facet are mutually adjacent, so
                # chaining each to the first is enough for percolation.
                uf.union(anchor, cid)
    member_sets = [
        frozenset(node for cid in group for node in cliques[cid]) for group in uf.groups()
    ]
    return CommunityCover(k, member_sets)
