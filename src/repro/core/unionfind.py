"""Disjoint-set forest (union-find).

The percolation step of CPM is connected components over the k-clique
adjacency graph; union-find gives near-linear merging of clique
adjacencies without materialising that (potentially huge) graph.
:class:`UnionFind` (path halving, union by size, over arbitrary
hashable items) is the reference structure of the set-based oracle;
the pipeline's numpy sweep (:mod:`repro.core.blocks`) orders its
groups like :meth:`UnionFind.groups` does for range-initialised
inputs, which the wire tests check.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

__all__ = ["UnionFind"]


class UnionFind:
    """Union-find over arbitrary hashable items.

    >>> uf = UnionFind()
    >>> uf.union('a', 'b')
    True
    >>> uf.union('b', 'c')
    True
    >>> uf.connected('a', 'c')
    True
    >>> uf.union('a', 'c')   # already merged
    False
    """

    __slots__ = ("_parent", "_size")

    def __init__(self, items: Iterable[Hashable] | None = None) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        if items is not None:
            for item in items:
                self.add(item)

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton set if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, item: Hashable) -> Hashable:
        """Representative of ``item``'s set (auto-registers unseen items)."""
        self.add(item)
        parent = self._parent
        root = item
        while parent[root] != root:
            parent[root] = parent[parent[root]]  # path halving
            root = parent[root]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; True iff they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def set_size(self, item: Hashable) -> int:
        """Size of the set containing ``item``."""
        return self._size[self.find(item)]

    def groups(self) -> list[set[Hashable]]:
        """All disjoint sets, largest first."""
        by_root: dict[Hashable, set[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return sorted(by_root.values(), key=len, reverse=True)
