"""Integer-relabelled CSR + bitset snapshot of a :class:`Graph`.

The integer fast path of the LP-CPM pipeline (``docs/performance.md``)
never touches Python sets or hashable node objects in its hot loops:
it relabels the graph once and runs on dense integers.  A
:class:`CSRGraph` is that immutable snapshot:

* **labels** — dense id → original node object.  Ids are assigned in
  *degeneracy order* (Eppstein–Löffler–Strash), so the Bron–Kerbosch
  outer loop can split each node's neighborhood into "later" (candidate)
  and "earlier" (excluded) ids with two shifts instead of set scans.
* **indptr / indices** — classic compressed-sparse-row adjacency.
  ``indices[indptr[i]:indptr[i+1]]`` are the neighbor ids of ``i``,
  ascending; both are ``array`` objects, so the structure pickles as
  flat memory buffers.
* **bitsets** — per-node neighborhood masks as arbitrary-precision
  Python ints (bit ``j`` set iff ``{i, j}`` is an edge).  CPython's
  big-int ``&``/``|``/``bit_count`` run word-at-a-time in C, which is
  what makes the integer Bron–Kerbosch fast without numpy.  A shard
  worker, which receives only the CSR arrays, passes a dict that
  builds each row on first read in place of the list.

These are the only adjacency views: the enumerator's numpy
neighbourhood re-index gathers from the CSR arrays, and the analysis
engine popcounts against the rows, so no dense ``n x ceil(n/64)``
block matrix is ever materialised.

The snapshot is derived data: mutate the source :class:`Graph` and
build a new snapshot.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Sequence

from .degeneracy import degeneracy_ordering
from .undirected import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Dense-integer CSR + bitset view of an undirected simple graph.

    Derived views (:meth:`rank`, :meth:`degrees`) are built lazily and
    cached on the snapshot.

    >>> from repro.graph import complete_graph
    >>> csr = CSRGraph.from_graph(complete_graph(4))
    >>> csr.n, csr.degree(0)
    (4, 3)
    >>> bin(csr.bitsets[0])
    '0b1110'
    """

    __slots__ = ("labels", "indptr", "indices", "bitsets", "_rank", "_degrees")

    def __init__(
        self,
        labels: Sequence[Hashable],
        indptr: array,
        indices: array,
        bitsets: list[int] | dict[int, int],
    ) -> None:
        self.labels = list(labels)
        self.indptr = indptr
        self.indices = indices
        self.bitsets = bitsets
        self._rank: dict | None = None
        self._degrees: list[int] | None = None

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` with ids assigned in degeneracy order."""
        order = degeneracy_ordering(graph)
        rank = {node: i for i, node in enumerate(order)}
        indptr = array("q", [0])
        indices = array("i")
        bitsets: list[int] = []
        for node in order:
            nbrs = sorted(rank[w] for w in graph.neighbors(node))
            indices.extend(nbrs)
            indptr.append(len(indices))
            mask = 0
            for j in nbrs:
                mask |= 1 << j
            bitsets.append(mask)
        return cls(order, indptr, indices, bitsets)

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

    def has_edge(self, i: int, j: int) -> bool:
        """True iff ``{i, j}`` is an edge (one bitset probe)."""
        return bool((self.bitsets[i] >> j) & 1)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, edges={self.n_edges})"
