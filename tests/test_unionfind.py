"""Unit tests for the disjoint-set forest."""

from repro.core import UnionFind


class TestUnionFind:
    def test_initial_items_are_singletons(self):
        uf = UnionFind([1, 2, 3])
        assert len(uf) == 3
        assert not uf.connected(1, 2)

    def test_union_merges(self):
        uf = UnionFind()
        assert uf.union(1, 2)
        assert uf.connected(1, 2)

    def test_union_of_merged_returns_false(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert not uf.union(1, 3)

    def test_transitivity(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("b", "c")
        assert uf.connected("a", "d")

    def test_find_auto_registers(self):
        uf = UnionFind()
        assert uf.find(42) == 42
        assert 42 in uf

    def test_set_size(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.set_size(1) == 3
        assert uf.set_size(9) == 1

    def test_groups_sorted_by_size(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        groups = uf.groups()
        assert [len(g) for g in groups] == [3, 2, 1]
        assert {0, 1, 2} in groups

    def test_large_chain_path_compression(self):
        uf = UnionFind()
        for i in range(1000):
            uf.union(i, i + 1)
        assert uf.connected(0, 1000)
        assert uf.set_size(500) == 1001
