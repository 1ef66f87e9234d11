"""Unit tests for the Lightweight Parallel CPM."""

import random

import pytest

from repro.core import LightweightParallelCPM, extract_hierarchy
from repro.graph import Graph, erdos_renyi, overlapping_cliques, ring_of_cliques


def _signature(hierarchy):
    return {
        k: sorted(sorted(map(repr, c.members)) for c in hierarchy[k])
        for k in hierarchy.orders
    }


class TestCorrectness:
    def test_matches_sequential_extractor_on_ring(self):
        g = ring_of_cliques(4, 5)
        a = LightweightParallelCPM(g).run()
        b = extract_hierarchy(g)
        assert _signature(a) == _signature(b)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential_extractor_on_random(self, seed):
        g = erdos_renyi(30, 0.3, random.Random(seed))
        a = LightweightParallelCPM(g).run()
        b = extract_hierarchy(g)
        assert _signature(a) == _signature(b)

    def test_parent_labels_match_sequential(self):
        g = ring_of_cliques(3, 6)
        a = LightweightParallelCPM(g).run()
        b = extract_hierarchy(g)
        assert a.parent_labels == b.parent_labels

    def test_window_restriction(self):
        h = LightweightParallelCPM(ring_of_cliques(3, 6)).run(min_k=3, max_k=5)
        assert h.orders == [3, 4, 5]


class TestWorkers:
    def test_two_workers_identical_output(self):
        g = ring_of_cliques(4, 5)
        sequential = LightweightParallelCPM(g, workers=1).run()
        parallel = LightweightParallelCPM(g, workers=2).run()
        assert _signature(sequential) == _signature(parallel)
        assert sequential.parent_labels == parallel.parent_labels

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            LightweightParallelCPM(Graph(), workers=0)


class TestStats:
    def test_stats_populated(self):
        g = overlapping_cliques([5, 5, 5], 4)
        cpm = LightweightParallelCPM(g)
        cpm.run()
        stats = cpm.stats
        assert stats.n_cliques == 3
        assert stats.max_clique_size == 5
        assert stats.size_histogram == {5: 3}
        assert stats.n_overlap_pairs == 3  # consecutive pairs + ends share nodes
        assert stats.total_seconds >= 0.0

    def test_errors(self):
        cpm = LightweightParallelCPM(ring_of_cliques(2, 3))
        with pytest.raises(ValueError):
            cpm.run(min_k=1)
        empty = Graph()
        empty.add_node(1)
        with pytest.raises(ValueError):
            LightweightParallelCPM(empty).run()
