"""Integer-relabelled CSR snapshot of a :class:`Graph`.

The integer fast path of the LP-CPM pipeline (``docs/performance.md``)
never touches Python sets or hashable node objects in its hot loops:
it relabels the graph once and runs on dense integers.  A
:class:`CSRGraph` is that immutable snapshot:

* **labels** — dense id → original node object.  Ids are assigned in
  *degeneracy order* (Eppstein–Löffler–Strash), so the Bron–Kerbosch
  outer loop can split each node's neighborhood into "later" (candidate)
  and "earlier" (excluded) ids at one offset into its CSR slice.
* **indptr / indices** — classic compressed-sparse-row adjacency.
  ``indices[indptr[i]:indptr[i+1]]`` are the neighbor ids of ``i``,
  ascending; both are ``array`` objects, so the structure pickles as
  flat memory buffers.

The CSR arrays are the snapshot.  Two derived views are built from
them lazily and cached, like :meth:`~CSRGraph.rank` and
:meth:`~CSRGraph.degrees`:

* :meth:`~CSRGraph.forward_starts` — where each node's forward
  (higher-id) neighbours start in ``indices``; the enumerator builds
  each subtree's local rows from them and the shard planner counts
  forward degrees with them;
* :meth:`~CSRGraph.bitsets` — per-node neighborhood masks as
  arbitrary-precision Python ints (bit ``j`` set iff ``{i, j}`` is an
  edge), ``n`` bits wide each.  Only the analysis popcount sweep reads
  them, so CPM runs, shard workers and incremental sessions never
  build graph-width rows.

The snapshot is derived data: mutate the source :class:`Graph` and
build a new snapshot.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Hashable, Sequence

from .degeneracy import degeneracy_ordering
from .undirected import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Dense-integer CSR view of an undirected simple graph.

    Derived views (:meth:`rank`, :meth:`degrees`, :meth:`forward_starts`,
    :meth:`bitsets`) are built lazily and cached on the snapshot.

    >>> from repro.graph import complete_graph
    >>> csr = CSRGraph.from_graph(complete_graph(4))
    >>> csr.n, csr.degree(0)
    (4, 3)
    >>> bin(csr.bitsets()[0])
    '0b1110'
    """

    __slots__ = (
        "labels", "indptr", "indices", "_rank", "_degrees", "_forward", "_bitsets"
    )

    def __init__(self, labels: Sequence[Hashable], indptr: array, indices: array) -> None:
        self.labels = list(labels)
        self.indptr = indptr
        self.indices = indices
        self._rank: dict | None = None
        self._degrees: list[int] | None = None
        self._forward: list[int] | None = None
        self._bitsets: list[int] | None = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` with ids assigned in degeneracy order."""
        order = degeneracy_ordering(graph)
        rank = {node: i for i, node in enumerate(order)}
        indptr = array("q", [0])
        indices = array("i")
        for node in order:
            indices.extend(sorted(rank[w] for w in graph.neighbors(node)))
            indptr.append(len(indices))
        return cls(order, indptr, indices)

    def to_graph(self) -> Graph:
        """Rebuild the adjacency-set graph this snapshot was taken of."""
        graph = Graph()
        graph.add_nodes_from(self.labels)
        labels = self.labels
        for i in range(self.n):
            u = labels[i]
            for j in self.neighbors(i):
                if i < j:
                    graph.add_edge(u, labels[j])
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    def degree(self, i: int) -> int:
        """Number of neighbors of ``i``."""
        return self.indptr[i + 1] - self.indptr[i]

    def neighbors(self, i: int) -> array:
        """Neighbor ids of ``i``, ascending (a slice of the CSR arrays)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def to_labels(self, ids) -> list[Hashable]:
        """Map dense ids back to the original node objects."""
        labels = self.labels
        return [labels[i] for i in ids]

    def rank(self) -> dict:
        """Original node object → dense id, built lazily and cached.

        The inverse of :attr:`labels`; consumers that translate member
        sets to dense ids (the analysis engine) share one dict per
        snapshot instead of rebuilding it per sweep.
        """
        if self._rank is None:
            self._rank = {node: i for i, node in enumerate(self.labels)}
        return self._rank

    def degrees(self) -> list[int]:
        """Per-node degree list, built lazily from ``indptr`` and cached."""
        if self._degrees is None:
            indptr = self.indptr
            self._degrees = [indptr[i + 1] - indptr[i] for i in range(len(self.labels))]
        return self._degrees

    def forward_starts(self) -> list[int]:
        """Per-node offset into ``indices`` of the first neighbour with a
        higher id, built lazily and cached.

        ``indices[forward_starts()[i]:indptr[i + 1]]`` are the forward
        neighbours of ``i``: the candidates of its Bron–Kerbosch subtree.
        """
        if self._forward is None:
            indptr, indices = self.indptr, self.indices
            self._forward = [
                bisect_right(indices, i, indptr[i], indptr[i + 1])
                for i in range(len(self.labels))
            ]
        return self._forward

    def bitsets(self) -> list[int]:
        """Per-node neighbourhood masks (bit ``j`` set iff ``{i, j}`` is an
        edge), built lazily and cached.

        Graph-width rows: the analysis popcount sweep reads them; the
        enumerator builds its own subtree-local rows instead.
        """
        if self._bitsets is None:
            indptr, indices = self.indptr, self.indices
            rows = []
            for i in range(len(self.labels)):
                mask = 0
                for j in indices[indptr[i] : indptr[i + 1]]:
                    mask |= 1 << j
                rows.append(mask)
            self._bitsets = rows
        return self._bitsets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, edges={self.n_edges})"
