"""Tests for the baseline community-detection methods."""

import random

import pytest

from repro.baselines import (
    EagleConfig,
    GCEConfig,
    KCoreDecomposition,
    KDenseDecomposition,
    eagle,
    extended_modularity,
    greedy_clique_expansion,
    k_dense_communities,
    k_dense_subgraph,
    label_propagation,
)
from repro.core import k_clique_communities
from repro.graph import (
    Graph,
    complete_graph,
    erdos_renyi,
    path_graph,
    ring_of_cliques,
    star_graph,
)


class TestKCore:
    def test_rows_and_partition(self):
        deco = KCoreDecomposition(ring_of_cliques(3, 5))
        assert deco.degeneracy == 4
        assert deco.is_partition()
        rows = deco.rows()
        assert rows[-1].k == 4
        assert rows[-1].core_size == 15

    def test_shells_disjoint(self):
        g = erdos_renyi(40, 0.2, random.Random(0))
        deco = KCoreDecomposition(g)
        seen = set()
        for k in range(deco.degeneracy + 1):
            shell = deco.shell_members(k)
            assert not (shell & seen)
            seen |= shell
        assert seen == set(g.nodes())


class TestKDense:
    def test_k2_drops_only_isolated_nodes(self):
        g = path_graph(4)
        g.add_node(99)
        dense = k_dense_subgraph(g, 2)
        assert 99 not in dense
        assert dense.number_of_edges == 3

    def test_k3_requires_triangles(self):
        assert len(k_dense_subgraph(path_graph(5), 3)) == 0
        triangle = complete_graph(3)
        assert k_dense_subgraph(triangle, 3).number_of_edges == 3

    def test_clique_survives_at_its_order(self):
        g = complete_graph(6)
        # Every edge has 4 common neighbors: survives up to k = 6.
        assert k_dense_subgraph(g, 6).number_of_edges == 15
        assert len(k_dense_subgraph(g, 7)) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_dense_subgraph(Graph(), 1)

    def test_sandwich_property(self):
        """k-clique communities ⊆ k-dense subgraph ⊆ k-core."""
        from repro.graph import k_core

        g = erdos_renyi(35, 0.3, random.Random(1))
        for k in (3, 4):
            dense_nodes = set(k_dense_subgraph(g, k).nodes())
            core_nodes = set(k_core(g, k - 1).nodes())
            cpm_nodes = set()
            for community in k_clique_communities(g, k):
                cpm_nodes |= set(community.members)
            assert cpm_nodes <= dense_nodes <= core_nodes

    def test_communities_and_decomposition(self):
        g = ring_of_cliques(3, 5)
        communities = k_dense_communities(g, 5)
        assert len(communities) == 3
        deco = KDenseDecomposition(g)
        assert deco.max_k == 5
        assert deco.counts_by_k()[5] == 3
        assert deco.communities(99) == []

    def test_nesting_of_levels(self):
        g = erdos_renyi(30, 0.35, random.Random(2))
        deco = KDenseDecomposition(g)
        for k in range(3, deco.max_k + 1):
            assert set(deco.levels[k].nodes()) <= set(deco.levels[k - 1].nodes())


def _recount_expand(graph, seed, alpha):
    """GCE's seed expansion recounting F(S ∪ {v}) from scratch per
    candidate: the reference the running-fitness expansion must match."""

    def fitness(members):
        k_in = 2 * graph.edge_count_within(members)
        k_out = sum(graph.degree(n) for n in members) - k_in
        if k_in + k_out == 0:
            return 0.0
        return k_in / (k_in + k_out) ** alpha

    members = set(seed)
    current = fitness(members)
    while True:
        frontier = set()
        for node in members:
            frontier |= graph.neighbors(node)
        frontier -= members
        best_node, best_fitness = None, current
        for node in frontier:
            members.add(node)
            candidate = fitness(members)
            members.remove(node)
            if candidate > best_fitness:
                best_node, best_fitness = node, candidate
        if best_node is None:
            return frozenset(members)
        members.add(best_node)
        current = best_fitness


class TestGCE:
    def test_finds_ring_cliques(self):
        g = ring_of_cliques(4, 6)
        communities = greedy_clique_expansion(g, GCEConfig(min_clique_size=4))
        # Each 6-clique should appear (possibly grown slightly).
        assert len(communities) == 4
        for c in range(4):
            members = set(range(c * 6, (c + 1) * 6))
            assert any(members <= community for community in communities)

    def test_rejects_tier1_like_mesh(self):
        """The paper's GCE critique: a full mesh whose members have
        dominant external degree is not 'fit', so GCE grows it into a
        blob with the customer cone instead of keeping it crisp."""
        g = complete_graph(4)
        node = 100
        for hub in range(4):
            for _ in range(20):
                g.add_edge(hub, node)
                node += 1
        communities = greedy_clique_expansion(g, GCEConfig(min_clique_size=4))
        # The grown community is not the clean Tier-1 mesh.
        assert all(community != frozenset(range(4)) for community in communities)

    def test_dedupe(self):
        g = complete_graph(8)
        communities = greedy_clique_expansion(g, GCEConfig(min_clique_size=3))
        assert len(communities) == 1

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    @pytest.mark.parametrize("graph_seed", range(3))
    def test_running_fitness_matches_the_recount(self, graph_seed, alpha):
        """Every seed grows exactly as under the recount-per-candidate
        loop (same floats, same frontier order, so the same ties win)."""
        from repro.baselines.gce import _expand
        from repro.core.cliques import maximal_cliques

        g = erdos_renyi(30, 0.2, random.Random(graph_seed))
        for node in range(30, 42):  # pendant fringe: many equal-fitness ties
            g.add_edge(node, node % 7)
        seeds = maximal_cliques(g, min_size=3)
        assert seeds
        for seed in seeds:
            assert _expand(g, seed, alpha) == _recount_expand(g, seed, alpha)


class TestEagle:
    def test_recovers_ring_cliques(self):
        g = ring_of_cliques(4, 5)
        result = eagle(g, EagleConfig(min_clique_size=4))
        assert result.n_initial_cliques == 4
        tops = [c for c in result.communities if len(c) >= 5]
        assert len(tops) >= 4 or result.n_merges > 0

    def test_threshold_discards_small_cliques(self):
        """The paper's EAGLE critique: cliques below the threshold
        become subordinate singletons, losing regional communities."""
        g = ring_of_cliques(2, 6)
        # Attach a separate triangle (a small regional community).
        g.add_edges_from([(100, 101), (101, 102), (100, 102), (100, 0)])
        result = eagle(g, EagleConfig(min_clique_size=4))
        assert result.n_subordinate_vertices >= 3

    def test_extended_modularity_bounds(self):
        g = ring_of_cliques(3, 4)
        cover = [frozenset(range(c * 4, (c + 1) * 4)) for c in range(3)]
        eq = extended_modularity(g, cover)
        assert 0.0 < eq <= 1.0

    def test_extended_modularity_empty(self):
        assert extended_modularity(Graph(), []) == 0.0
        assert extended_modularity(complete_graph(3), []) == 0.0


class TestLabelPropagation:
    def test_partitions_node_set(self):
        g = ring_of_cliques(4, 6)
        communities = label_propagation(g, seed=0)
        nodes = [n for community in communities for n in community]
        assert sorted(nodes) == sorted(g.nodes())
        assert len(nodes) == len(set(nodes))  # no overlap, by construction

    def test_separates_weakly_joined_cliques(self):
        g = ring_of_cliques(4, 8)
        communities = label_propagation(g, seed=1)
        # Strong cliques should not all collapse into one label.
        assert len(communities) >= 2

    def test_isolated_nodes_kept(self):
        g = star_graph(3)
        g.add_node(42)
        communities = label_propagation(g, seed=0)
        assert {42} in communities

    def test_deterministic_for_seed(self):
        g = erdos_renyi(30, 0.2, random.Random(3))
        a = label_propagation(g, seed=5)
        b = label_propagation(g, seed=5)
        assert a == b
