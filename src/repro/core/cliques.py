"""Maximal clique enumeration and fixed-size clique enumeration.

CPM consumes the maximal cliques of the graph: in the Topology dataset
the paper found 2,730,916 of them, 88% with sizes in [18, 28] —
enumerating them efficiently is what made the analysis feasible at all.
We implement Bron–Kerbosch with:

* **pivoting** (Tomita et al.): the pivot is the candidate covering the
  most of P, so recursion only branches on P \\ N(pivot);
* **degeneracy ordering** on the outermost level (Eppstein–Löffler–
  Strash), bounding work by O(d * n * 3^(d/3)) where d is the graph
  degeneracy — small for AS-like graphs even when the core is dense.

Two enumerators implement the same recursion:

* ``maximal_cliques`` — the set-based reference: R/P/X are Python
  sets of node objects.  Kept as the tested oracle.
* ``maximal_cliques_bitset`` — the one integer enumerator, used by
  every integer path (the CPM pipeline, the shard tasks, the
  incremental session): operates on a
  :class:`~repro.graph.csr.CSRGraph`, with P and X as arbitrary-
  precision int bitmasks over each top-level subtree's own
  neighbourhood (local rows built from the CSR arrays, no numpy) and
  leaf-sized subproblems resolved inline.
  Emits cliques as tuples of dense ids; both enumerators produce
  exactly the same cliques (the maximal cliques of a graph are
  unique), which ``tests/test_kernels_equivalence.py`` asserts against
  each other and the ``k_cliques`` oracle.

Fixed-size k-clique enumeration (``k_cliques``) implements the literal
objects of the k-clique community definition; it is exponentially more
numerous than maximal cliques and is used only as a test oracle and for
the direct-definition CPM variant.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..graph.degeneracy import degeneracy_ordering
from ..graph.undirected import Graph

__all__ = [
    "maximal_cliques",
    "maximal_cliques_bitset",
    "local_maximal_cliques",
    "max_clique_size",
    "k_cliques",
    "clique_size_census",
    "CliqueCensus",
    "CliqueEnumerationStats",
]


@dataclass
class CliqueEnumerationStats:
    """Work counters of one Bron–Kerbosch enumeration.

    Collected only when a stats object is passed to
    :func:`maximal_cliques` (the observability layer does this when a
    run is traced), so the default enumeration path pays nothing beyond
    one ``is not None`` check per recursive call.

    * ``calls`` — recursive invocations of the Bron–Kerbosch kernel
      (for :func:`maximal_cliques_bitset`, every resolved subproblem,
      inline leaves included);
    * ``branches`` — nodes actually branched on (``|P \\ N(pivot)|``
      summed), the quantity Tomita pivoting minimises;
    * ``pivot_candidates`` — candidates examined while choosing pivots
      (``|P ∪ X|`` summed), the scan cost of the pivot rule;
    * ``emitted`` — maximal cliques reported.
    """

    calls: int = 0
    branches: int = 0
    pivot_candidates: int = 0
    emitted: int = 0


def maximal_cliques(
    graph: Graph,
    *,
    min_size: int = 1,
    stats: CliqueEnumerationStats | None = None,
) -> list[frozenset[Hashable]]:
    """All maximal cliques of ``graph`` with at least ``min_size`` nodes.

    Deterministic for a given graph construction order.  Isolated nodes
    are themselves maximal 1-cliques (filtered out when min_size > 1).
    Pass a :class:`CliqueEnumerationStats` to count recursion and pivot
    work (used by the observability layer).
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    cliques: list[frozenset[Hashable]] = []
    emit = cliques.append
    order = degeneracy_ordering(graph)
    rank = {node: i for i, node in enumerate(order)}
    for node in order:
        neighbors = graph.neighbors(node)
        later = {v for v in neighbors if rank[v] > rank[node]}
        earlier = {v for v in neighbors if rank[v] < rank[node]}
        _bron_kerbosch_pivot(graph, {node}, later, earlier, min_size, emit, stats)
    if stats is not None:
        stats.emitted = len(cliques)
    return cliques


def _bron_kerbosch_pivot(
    graph: Graph,
    r: set[Hashable],
    p: set[Hashable],
    x: set[Hashable],
    min_size: int,
    emit,
    stats: CliqueEnumerationStats | None = None,
) -> None:
    """Bron–Kerbosch with Tomita pivoting.

    ``r`` is the growing clique, ``p`` candidates, ``x`` excluded
    (already covered) nodes.  Emits frozensets of maximal cliques.
    """
    if stats is not None:
        stats.calls += 1
    if not p and not x:
        if len(r) >= min_size:
            emit(frozenset(r))
        return
    if not p:
        return
    # Pivot: the node of P ∪ X with the most neighbors in P.
    candidates = p | x
    pivot = max(candidates, key=lambda u: len(graph.neighbors(u) & p))
    branch = list(p - graph.neighbors(pivot))
    if stats is not None:
        stats.pivot_candidates += len(candidates)
        stats.branches += len(branch)
    for node in branch:
        neighbors = graph.neighbors(node)
        r.add(node)
        _bron_kerbosch_pivot(graph, r, p & neighbors, x & neighbors, min_size, emit, stats)
        r.remove(node)
        p.remove(node)
        x.add(node)


def maximal_cliques_bitset(
    csr: CSRGraph,
    *,
    min_size: int = 1,
    stats: CliqueEnumerationStats | None = None,
    vertices: Iterable[int] | None = None,
) -> list[tuple[int, ...]]:
    """All maximal cliques of a :class:`CSRGraph`, as dense-id tuples.

    The integer twin of :func:`maximal_cliques`: the same Bron–Kerbosch
    recursion with Tomita pivoting, but P and X are int bitmasks over
    the CSR ids (already in degeneracy order) and every set operation
    is one big-int ``&``/``|``/``^``.  ``b & -b`` isolates the lowest
    set bit, ``bit_count()`` sizes a mask — both run in C.  Two things
    keep the interpreter out of the way:

    * **leaf inlining** — subproblems with ``|P| < 3`` are resolved by
      closed-form maximality tests instead of recursing (they are most
      of the calls on AS-like graphs):

      - ``P = {}`` — ``R`` is maximal iff ``X`` is empty;
      - ``P = {u}`` — ``R ∪ {u}`` is maximal iff no ``X`` node is
        adjacent to ``u`` (a pivot covering ``u`` would itself witness
        non-maximality);
      - ``P = {u, w}`` adjacent — ``R ∪ {u, w}`` is maximal iff
        ``X ∩ N(u) ∩ N(w)`` is empty; non-adjacent — ``R ∪ {u}`` and
        ``R ∪ {w}`` are tested independently.

    * **local rows** — every top-level subtree rooted at ``v`` runs on
      ``S = N(v)`` re-indexed to positions ``0 .. |S| - 1``: the
      forward (higher-id) lists of ``S`` are walked out of the CSR
      arrays and matched into ``S`` with a ``{id: position}`` dict, so
      its masks are ``|S|`` bits wide instead of ``n``.  Only edges
      with an end after ``v`` are gathered: an earlier neighbour's row
      needs no bits of the other earlier neighbours, since excluded
      nodes are only ever tested against candidates.  ``S`` is
      ascending, so local bit order equals global bit order and the
      pivots, branches and emitted tuples are exactly those of the
      recursion over graph-width rows.

    Adjacency is read only through the ``csr.indptr``/``csr.indices``
    arrays and the cached :meth:`~repro.graph.csr.CSRGraph.forward_starts`
    view, so the driver, the shard workers and the incremental session
    all run this one path, with or without numpy.  ``vertices``
    (default: all, ascending) are the top-level subtrees to expand;
    each emitted tuple starts with its subtree's vertex.  Returns one
    tuple of dense ids per maximal clique; map them back with
    ``csr.to_labels``.  ``stats`` counts every resolved subproblem,
    inline leaves included, as a call.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be >= 1, got {min_size}")
    indptr = csr.indptr
    indices = csr.indices
    forward = csr.forward_starts()
    cliques: list[tuple[int, ...]] = []
    emit = cliques.append
    stack: list[int] = []
    append = stack.append
    pop = stack.pop
    counters = [0, 0, 0]  # calls, branches, pivot_candidates
    # small/expand read ``adj`` (the local rows of the subtree being
    # expanded) and ``ids`` (the dense id of each row's bit position),
    # both set per top-level vertex below.

    def small(p: int, x: int, c: int) -> None:
        counters[0] += 1
        if c == 1:
            u = p.bit_length() - 1
            if x & adj[u] == 0 and len(stack) + 1 >= min_size:
                emit((*stack, ids[u]))
        elif c == 0:
            if x == 0 and len(stack) >= min_size:
                emit(tuple(stack))
        else:
            counters[1] += 2
            low = p & -p
            u = low.bit_length() - 1
            w = (p ^ low).bit_length() - 1
            bu = adj[u]
            bw = adj[w]
            if (bu >> w) & 1:
                if x & bu & bw == 0 and len(stack) + 2 >= min_size:
                    emit((*stack, ids[u], ids[w]))
            elif len(stack) + 1 >= min_size:
                if x & bu == 0:
                    emit((*stack, ids[u]))
                if x & bw == 0:
                    emit((*stack, ids[w]))

    def expand(p: int, x: int) -> None:
        counters[0] += 1
        # Pivot: the candidate of P | X with the most neighbors in P.
        cand = p | x
        counters[2] += cand.bit_count()
        best = -1
        pivot_nbrs = 0
        m = cand
        while m:
            low = m & -m
            nb = adj[low.bit_length() - 1]
            count = (nb & p).bit_count()
            if count > best:
                best = count
                pivot_nbrs = nb
            m ^= low
        branch = p & ~pivot_nbrs
        counters[1] += branch.bit_count()
        while branch:
            low = branch & -branch
            u = low.bit_length() - 1
            nu = adj[u]
            np_ = p & nu
            c = np_.bit_count()
            append(ids[u])
            if c < 3:
                small(np_, x & nu, c)
            else:
                expand(np_, x & nu)
            pop()
            p ^= low
            x |= low
            branch ^= low

    for v in range(csr.n) if vertices is None else vertices:
        lo, mid, hi = indptr[v], forward[v], indptr[v + 1]
        ids = indices[lo:hi]
        size = hi - lo
        c = hi - mid
        e = size - c  # earlier neighbours sit at positions [0, e)
        # Every edge of S with an end after v, once: walk each member's
        # forward list from the first id after v; a miss is outside S.
        where = dict(zip(indices[mid:hi], range(e, size))).get
        adj = [0] * size
        for i, w in enumerate(ids):
            stop = indptr[w + 1]
            start = forward[w] if i >= e else bisect_right(indices, v, forward[w], stop)
            bit = 1 << i
            row = 0
            for u in indices[start:stop]:
                j = where(u)
                if j is not None:
                    row |= 1 << j
                    adj[j] |= bit
            adj[i] |= row
        x = (1 << e) - 1
        p = ((1 << size) - 1) ^ x
        append(v)
        if c < 3:
            small(p, x, c)
        else:
            expand(p, x)
        pop()
    if stats is not None:
        stats.calls += counters[0]
        stats.branches += counters[1]
        stats.pivot_candidates += counters[2]
        stats.emitted = len(cliques)
    return cliques


def local_maximal_cliques(
    graph: Graph,
    nodes: set[Hashable],
    *,
    stats: CliqueEnumerationStats | None = None,
) -> list[frozenset[Hashable]]:
    """Maximal cliques of the subgraph ``graph`` induces on ``nodes``.

    The incremental insertion step needs exactly this: after adding
    edge (u, v), every *new* maximal clique of the graph is
    ``{u, v} ∪ C`` for ``C`` a maximal clique of the subgraph induced
    on the common neighborhood ``N(u) ∩ N(v)`` — so enumeration stays
    local to the touched endpoints instead of rescanning the graph.
    Isolated nodes of the induced subgraph count (they extend to
    triangles ``{u, v, w}``), hence ``min_size=1`` semantics.

    Builds a :class:`~repro.graph.csr.CSRGraph` over the induced
    subgraph and runs :func:`maximal_cliques_bitset` — the same code
    path the full pipeline uses, exercised here on neighborhood-sized
    inputs.
    """
    if not nodes:
        return []
    csr = CSRGraph.from_graph(graph.subgraph(nodes))
    dense = maximal_cliques_bitset(csr, min_size=1, stats=stats)
    return [frozenset(csr.to_labels(clique)) for clique in dense]


def max_clique_size(graph: Graph) -> int:
    """Size of the largest clique (the clique number omega(G))."""
    return max((len(c) for c in maximal_cliques(graph)), default=0)


def k_cliques(graph: Graph, k: int) -> Iterator[frozenset[Hashable]]:
    """Yield every complete subgraph on exactly ``k`` nodes.

    This enumerates the raw k-cliques of the community definition
    (Expression 3.3); it is the oracle behind the direct CPM variant.
    The recursion extends partial cliques only with higher-ordered
    common neighbors, so each k-clique is produced exactly once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = degeneracy_ordering(graph)
    rank = {node: i for i, node in enumerate(order)}

    def extend(members: list[Hashable], candidates: set[Hashable]) -> Iterator[frozenset[Hashable]]:
        if len(members) == k:
            yield frozenset(members)
            return
        # Prune: not enough candidates to complete the clique.
        if len(members) + len(candidates) < k:
            return
        for node in sorted(candidates, key=rank.__getitem__):
            later = {v for v in graph.neighbors(node) & candidates if rank[v] > rank[node]}
            members.append(node)
            yield from extend(members, later)
            members.pop()

    if k == 1:
        for node in order:
            yield frozenset((node,))
        return
    for node in order:
        later = {v for v in graph.neighbors(node) if rank[v] > rank[node]}
        yield from extend([node], later)


class CliqueCensus:
    """Summary statistics over a set of maximal cliques.

    Mirrors the paper's Section 3 report: total count, the size
    histogram, and the share of cliques inside a size band (the paper:
    88% of the 2.7M maximal cliques had sizes in [18, 28]).
    """

    def __init__(self, cliques: list[frozenset[Hashable]]) -> None:
        self._histogram = Counter(len(c) for c in cliques)
        self._total = len(cliques)

    @property
    def total(self) -> int:
        return self._total

    @property
    def histogram(self) -> dict[int, int]:
        """Clique size -> number of maximal cliques of that size."""
        return dict(sorted(self._histogram.items()))

    @property
    def max_size(self) -> int:
        return max(self._histogram, default=0)

    def share_in_band(self, lo: int, hi: int) -> float:
        """Fraction of maximal cliques with size in [lo, hi]."""
        if self._total == 0:
            return 0.0
        in_band = sum(count for size, count in self._histogram.items() if lo <= size <= hi)
        return in_band / self._total

    def dominant_band(self, width: int) -> tuple[int, int]:
        """The size window of the given width covering the most cliques.

        One sliding-window pass over ``[1, max_size]``: each step drops
        the size leaving the window and adds the one entering it, so the
        scan is O(max_size) instead of O(max_size × width).  Ties keep
        the lowest window (strictly-greater update), matching how the
        paper reports its [18, 28] band.
        """
        if not self._histogram:
            return (0, 0)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        hist = self._histogram
        cover = sum(hist.get(size, 0) for size in range(1, width + 1))
        best_lo, best_cover = 1, cover
        for lo in range(2, self.max_size + 1):
            cover += hist.get(lo + width - 1, 0) - hist.get(lo - 1, 0)
            if cover > best_cover:
                best_lo, best_cover = lo, cover
        return (best_lo, best_lo + width - 1)


def clique_size_census(graph: Graph) -> CliqueCensus:
    """Convenience: enumerate maximal cliques and summarise their sizes."""
    return CliqueCensus(maximal_cliques(graph))
