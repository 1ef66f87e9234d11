"""Bitset-backed metric engine: one-pass Chapter-4 metrics.

Every per-community structural metric of the paper's Chapter 4 — link
density, average ODF, and the per-order pairwise overlap fractions —
is a function of the community member sets and the graph adjacency.
The analyses used to recompute them independently with Python set
loops (``core/metrics.py``); :class:`MetricsEngine` instead sweeps the
whole hierarchy once over the degeneracy-ordered
:class:`~repro.graph.csr.CSRGraph` snapshot that the CPM run already
built, reading its graph-width :meth:`~repro.graph.csr.CSRGraph.bitsets`
rows (the sweep is their only reader; they are built on first use):

* each community becomes one membership bitset (an arbitrary-precision
  int), so a member's internal degree is
  ``(neighbourhood & members).bit_count()`` — a C-level popcount —
  and the intra-community edge count is half the popcount sum;
* pairwise overlap at fixed k is the popcount of the two membership
  sets' intersection; for the parallel communities (median size ~k)
  intersecting the member frozensets directly costs O(smaller set) at
  C speed, which beats AND-ing two graph-width bitsets, so the
  overlap stage intersects frozensets and never materialises masks;
* communities that persist unchanged across orders (frozenset-equal
  member sets) are computed once and shared — density and ODF depend
  only on the member set, never on k;
* two exact shortcuts skip popcounts entirely: a k=2 community is a
  connected component (every neighbour of a member is internal, so
  ODF is exactly 0.0), and a community with ``size == k`` is a single
  k-clique (density exactly 1.0, internal degree exactly ``k - 1``).

The engine produces *bit-identical* floats to the set-based reference
(``core/metrics.py`` + ``Community.overlap_fraction``): densities use
the same ``2.0 * intra / (n * (n - 1))`` expression on the same ints,
ODF sums run in *sorted member order* with the same per-node
``1.0 - d_in / d`` terms (sorted order is the canonical one — a
frozenset's iteration order depends on its insertion history and
hashing, so it cannot anchor float summation), and overlap fractions
divide the same popcount by the same minimum size.
``tests/test_analysis_engine_equivalence.py`` pins this down with
``==`` (no tolerances) on generator graphs and randomized
hierarchies; the ``engine="set"`` mode *is* that reference path and
remains selectable end to end (``--analysis-engine``).

Both modes sweep serially in the calling process: the popcount sweep
is faster than any worker pool at every measured scale
(``docs/performance.md``), so ``--workers`` only parallelises CPM.

Observability: the sweep runs inside an ``analysis.sweep`` span
(attribute ``engine``; child span ``analysis.csr`` when the engine has
to build its own CSR snapshot) and emits the ``analysis.*`` counters
documented in ``docs/observability.md``.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import sub, truediv
from typing import NamedTuple

from ..core.communities import CommunityHierarchy
from ..core.metrics import average_odf, link_density
from ..core.tree import CommunityTree
from ..graph.csr import CSRGraph
from ..graph.undirected import Graph
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer

__all__ = ["ENGINES", "MetricsRow", "OrderOverlap", "MetricsEngine"]

#: Selectable analysis engines: the popcount fast path and the
#: set-based reference oracle it is verified against.
ENGINES = ("bitset", "set")


class MetricsRow(NamedTuple):
    """One community's entry in the per-hierarchy metric table."""

    label: str
    k: int
    size: int
    link_density: float
    average_odf: float
    is_main: bool


class OrderOverlap(NamedTuple):
    """The pairwise overlap fractions of one order's community cover.

    ``main_fractions[i]`` is ``parallel_labels[i]`` vs the order's main
    community; ``pair_fractions`` follows
    ``itertools.combinations(parallel_labels, 2)`` order.  All the
    Section 4 overlap findings (a–e) derive from these two tuples — no
    pair is ever enumerated twice.
    """

    k: int
    main_label: str
    parallel_labels: tuple[str, ...]
    main_fractions: tuple[float, ...]
    pair_fractions: tuple[float, ...]


def _sweep_order_bitset(
    task: tuple, bitsets: list[int], degs: list[int], nbytes: int, rank: dict, memo: dict
) -> list:
    """The popcount sweep of one order (see module docstring).

    ``task`` is ``(k, main_index, entries)`` with ``entries`` in cover
    order, each entry ``(members, k)``; ``memo`` maps member sets
    already swept to their metric pair.  Returns ``[(density, odf),
    ...]`` aligned with ``entries`` plus, when the cover has at least
    two communities, the ``(main_fractions, pair_fractions)`` tuple
    (else ``None``) and the visit/shortcut/dedup/pair counters.
    """
    _k, main_index, entries = task
    rank_get = rank.__getitem__
    degs_get = degs.__getitem__
    memo_get = memo.get
    metric_pairs: list[tuple[float, float]] = []
    emit = metric_pairs.append
    visits = shortcuts = dedup_hits = 0
    for members, order in entries:
        cached = memo_get(members)
        if cached is not None:
            dedup_hits += 1
            emit(cached)
            continue
        # Sorted member order: float ODF summation must be independent
        # of set-table layout (pickling a frozenset can reorder it), so
        # the canonical order is the sorted one — same as the oracle.
        ids = list(map(rank_get, sorted(members)))
        n = len(ids)
        if order == 2:
            # A 2-clique community is a connected component: every
            # neighbour of a member is itself a member, so the internal
            # degree is the full degree (intra = sum(deg) / 2) and every
            # ODF term is exactly 1.0 - d/d == 0.0.
            shortcuts += 1
            intra = sum(map(degs_get, ids)) >> 1
            pair = (2.0 * intra / (n * (n - 1)) if n > 1 else 0.0, 0.0)
        elif n == order:
            # size == k forces a single complete k-clique: density is
            # exactly 1.0 and each member's internal degree is k - 1.
            shortcuts += 1
            odf_sum = sum(
                map(sub, repeat(1.0), map(truediv, repeat(order - 1), map(degs_get, ids)))
            )
            pair = (1.0, odf_sum / n)
        else:
            visits += n
            mask = _member_mask(ids, nbytes)
            inner = [(mask & bitsets[i]).bit_count() for i in ids]
            intra = sum(inner) >> 1
            odf_sum = sum(map(sub, repeat(1.0), map(truediv, inner, map(degs_get, ids))))
            pair = (2.0 * intra / (n * (n - 1)), odf_sum / n)
        memo[members] = pair
        emit(pair)
    overlap = None
    pair_count = 0
    if main_index is not None:
        overlap, pair_count = _order_overlap(entries, main_index)
    return [metric_pairs, overlap, visits, shortcuts, dedup_hits, pair_count]


def _member_mask(ids: list[int], nbytes: int) -> int:
    """Membership bitset of dense ``ids`` via a bytearray scatter."""
    buf = bytearray(nbytes)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _order_overlap(entries: list, main_index: int) -> tuple[tuple, int]:
    """One order's overlap fractions, in cover / ``combinations`` order.

    Shared by both engines: ``len(a & b)`` over member frozensets is
    the exact popcount of the membership intersection (the same int
    :meth:`Community.overlap` produces), and for the small parallel
    communities the C set intersection beats AND-ing two graph-width
    bitsets, so no masks are built here.
    """
    sized = [(members, len(members)) for members, _order in entries]
    main_members, main_size = sized[main_index]
    parallels = sized[:main_index] + sized[main_index + 1 :]
    main_fracs = tuple(
        len(pm & main_members) / (s if s < main_size else main_size) for pm, s in parallels
    )
    pair_fracs = tuple(
        len(a & b) / (sa if sa < sb else sb)
        for (a, sa), (b, sb) in combinations(parallels, 2)
    )
    return (main_fracs, pair_fracs), len(parallels) + len(pair_fracs)


def _sweep_order_set(task: tuple, graph: Graph) -> list:
    """The set-based reference sweep of one order.

    Calls the ``core/metrics.py`` oracle per community — exactly the
    computation the analyses performed before the engine existed.
    Returns the same shape as :func:`_sweep_order_bitset`.
    """
    _k, main_index, entries = task
    metric_pairs = [
        (link_density(graph, members), average_odf(graph, members))
        for members, _order in entries
    ]
    overlap = None
    pair_count = 0
    if main_index is not None:
        overlap, pair_count = _order_overlap(entries, main_index)
    visits = sum(len(members) for members, _order in entries)
    return [metric_pairs, overlap, visits, 0, 0, pair_count]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MetricsEngine:
    """One-pass per-community metric table over a community hierarchy.

    ``engine`` selects the popcount fast path (``"bitset"``, default)
    or the set-based reference (``"set"``); both produce bit-identical
    numbers and both sweep serially.  ``csr`` reuses an existing
    :class:`~repro.graph.csr.CSRGraph` snapshot (e.g. the one the CPM
    pipeline built); without one the engine snapshots the
    graph itself on first use.

    The sweep is lazy and memoized: the first call to :meth:`rows`,
    :meth:`row` or :meth:`order_overlaps` computes everything once.
    """

    def __init__(
        self,
        hierarchy: CommunityHierarchy,
        tree: CommunityTree,
        graph: Graph,
        *,
        engine: str = "bitset",
        csr: CSRGraph | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.hierarchy = hierarchy
        self.tree = tree
        self.graph = graph
        self.engine = engine
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._csr = csr
        self._rank: dict | None = None
        self._rows: list[MetricsRow] | None = None
        self._by_label: dict[str, MetricsRow] | None = None
        self._overlaps: dict[int, OrderOverlap] | None = None

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    def rows(self) -> list[MetricsRow]:
        """The full metric table, in ``hierarchy.all_communities()`` order."""
        if self._rows is None:
            self._sweep()
        return self._rows

    def row(self, label: str) -> MetricsRow:
        """The metric row of the community labelled ``label``."""
        if self._by_label is None:
            self._by_label = {r.label: r for r in self.rows()}
        return self._by_label[label]

    def order_overlaps(self) -> dict[int, OrderOverlap]:
        """Per-order overlap fractions, for every order with >= 2 communities."""
        if self._overlaps is None:
            self._sweep()
        return self._overlaps

    def export_table(self) -> dict:
        """The memoized metric table in a serialisation-ready form.

        The export hook consumed by :func:`repro.query.artifact
        .build_artifact`: one dict per community (plain JSON types
        only) carrying exactly the fields of :class:`MetricsRow`, in
        ``hierarchy.all_communities()`` order, plus the engine mode the
        numbers came from.  Both engines export bit-identical floats,
        so an artifact built from either mode is byte-identical.
        """
        return {
            "engine": self.engine,
            "rows": [
                {
                    "label": r.label,
                    "k": r.k,
                    "size": r.size,
                    "link_density": r.link_density,
                    "average_odf": r.average_odf,
                    "is_main": r.is_main,
                }
                for r in self.rows()
            ],
        }

    def node_degree(self, node) -> int:
        """Degree of an original node object.

        Bitset mode (or any mode with a CSR snapshot already in hand)
        reads one ``indptr`` difference; set mode without a snapshot
        asks the graph directly rather than building one just for
        degrees.  Both return the same integer.
        """
        if self._csr is None and self.engine == "set":
            return self.graph.degree(node)
        csr = self._ensure_csr()
        return csr.degree(self._node_rank()[node])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_csr(self) -> CSRGraph:
        """The CSR snapshot, building (and timing) it when not supplied."""
        if self._csr is None:
            with self.tracer.span("analysis.csr", nodes=self.graph.number_of_nodes):
                self._csr = CSRGraph.from_graph(self.graph)
            self.metrics.inc("analysis.csr_builds")
        return self._csr

    def _node_rank(self) -> dict:
        if self._rank is None:
            self._rank = self._ensure_csr().rank()
        return self._rank

    def _order_tasks(self) -> list[tuple]:
        """One ``(k, main_index, entries)`` task per hierarchy order."""
        hierarchy = self.hierarchy
        tree = self.tree
        tasks = []
        for k in hierarchy.orders:
            cover = hierarchy[k]
            main_index = None
            if len(cover) >= 2:
                main_label = tree.main_community(k).label
                main_index = next(
                    i for i, c in enumerate(cover) if c.label == main_label
                )
            entries = [(c.members, c.k) for c in cover]
            tasks.append((k, main_index, entries))
        return tasks

    def _sweep(self) -> None:
        """Compute the table and overlap fractions in one hierarchy pass."""
        with self.tracer.span("analysis.sweep", engine=self.engine) as span:
            tasks = self._order_tasks()
            if self.engine == "set":
                results = [_sweep_order_set(task, self.graph) for task in tasks]
            else:
                csr = self._ensure_csr()
                bitsets, degs, nbytes = csr.bitsets(), csr.degrees(), (csr.n + 7) >> 3
                rank = self._node_rank()
                memo: dict = {}
                results = [
                    _sweep_order_bitset(task, bitsets, degs, nbytes, rank, memo)
                    for task in tasks
                ]
            self._fold_results(tasks, results, span)

    def _fold_results(self, tasks: list, results: list, span) -> None:
        """Assemble rows/overlaps from per-order results; emit counters."""
        tree = self.tree
        hierarchy = self.hierarchy
        rows: list[MetricsRow] = []
        overlaps: dict[int, OrderOverlap] = {}
        visits = shortcuts = dedup_hits = pairs = 0
        for (k, main_index, _entries), result in zip(tasks, results):
            metric_pairs, overlap, task_visits, task_shortcuts, task_dedup, task_pairs = result
            cover = hierarchy[k]
            labels = []
            for community, (density, odf) in zip(cover, metric_pairs):
                label = community.label
                labels.append(label)
                rows.append(
                    MetricsRow(
                        label=label,
                        k=community.k,
                        size=community.size,
                        link_density=density,
                        average_odf=odf,
                        is_main=tree.is_main(label),
                    )
                )
            if overlap is not None:
                main_label = labels[main_index]
                parallel_labels = tuple(
                    lbl for i, lbl in enumerate(labels) if i != main_index
                )
                overlaps[k] = OrderOverlap(
                    k=k,
                    main_label=main_label,
                    parallel_labels=parallel_labels,
                    main_fractions=overlap[0],
                    pair_fractions=overlap[1],
                )
            visits += task_visits
            shortcuts += task_shortcuts
            dedup_hits += task_dedup
            pairs += task_pairs
        self._rows = rows
        self._overlaps = overlaps
        span.set("communities", len(rows))
        span.set("orders", len(tasks))
        metrics = self.metrics
        metrics.inc("analysis.communities", len(rows))
        metrics.inc("analysis.member_visits", visits)
        metrics.inc("analysis.shortcut_rows", shortcuts)
        metrics.inc("analysis.dedup_hits", dedup_hits)
        metrics.inc("analysis.overlap_pairs", pairs)
