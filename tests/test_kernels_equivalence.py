"""Cross-kernel equivalence: the production kernel vs the references.

The acceptance gate of the pipeline: on every test graph, the blocks
kernel must produce *exactly* what the set-based reference produces —
the same maximal cliques, the same k range, the same member sets per
order, and the same parent labels — under both ``workers=1`` and
``workers=4`` (the set oracle is serial).  Both kernels are also
checked against the executable specification (``k_cliques`` percolated
directly), and the numpy percolation sweep against a union-find
reference, group for group.
"""

import random
from array import array

import pytest

from repro.core.cliques import maximal_cliques, maximal_cliques_bitset
from repro.core.lightweight import LightweightParallelCPM
from repro.core.overlap import OverlapWire
from repro.core.percolation import (
    extract_hierarchy,
    k_clique_communities_direct,
    percolate_wire,
)
from repro.graph import CSRGraph, ring_of_cliques
from repro.shard.pipeline import sharded_enumerate_dense
from repro.shard.plan import prefix_count

from .conftest import random_graph, reference_sweep

GRAPHS = {
    "ring-4x5": lambda: ring_of_cliques(4, 5),
    "ring-6x4": lambda: ring_of_cliques(6, 4),
    "gnp-sparse": lambda: random_graph(60, 0.15, seed=11),
    "gnp-medium": lambda: random_graph(50, 0.3, seed=23),
    "gnp-dense": lambda: random_graph(35, 0.5, seed=5),
}

#: The production kernel, verified against the set oracle.
FAST_KERNELS = ["blocks"]
ALL_KERNELS = ["set", *FAST_KERNELS]


def _signature(hierarchy):
    return {
        k: sorted(sorted(map(repr, c.members)) for c in cover)
        for k, cover in hierarchy.items()
    }


def _cover_signature(cover):
    return sorted(sorted(map(repr, c.members)) for c in cover)


@pytest.fixture(params=sorted(GRAPHS), ids=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


class TestCliqueEnumeration:
    def test_bitset_enumerates_the_same_cliques(self, graph):
        """Same maximal cliques (as label sets) from the integer
        enumerator as from the set-based one."""
        reference = {c for c in maximal_cliques(graph, min_size=2)}
        csr = CSRGraph.from_graph(graph)
        dense = maximal_cliques_bitset(csr, min_size=2)
        fast = {frozenset(csr.to_labels(clique)) for clique in dense}
        assert fast == reference

    def test_blocks_enumerates_the_same_cliques(self, graph):
        """The blocks kernel's enumerate phase agrees too, in the driver
        and fanned out over two shards.

        This reaches the integer enumerator through the pipeline phase
        (snapshot, shard plan, label mapping) rather than a direct call.
        """
        reference = {c for c in maximal_cliques(graph, min_size=2)}
        for shards in (1, 2):
            cpm = LightweightParallelCPM(graph, kernel="blocks", workers=shards, shards=shards)
            dense, cliques = sharded_enumerate_dense(cpm, None)
            assert len(dense) == len(reference)
            assert {frozenset(clique) for clique in cliques} == reference

    def test_min_size_filter_agrees(self, graph):
        csr = CSRGraph.from_graph(graph)
        for min_size in (1, 3, 4):
            reference = {c for c in maximal_cliques(graph, min_size=min_size)}
            fast = {
                frozenset(csr.to_labels(clique))
                for clique in maximal_cliques_bitset(csr, min_size=min_size)
            }
            assert fast == reference

    def test_blocks_min_size_filter_agrees(self, graph):
        """The pipeline's size filter — the prefix of the size-descending
        clique list that each order ``k`` percolates — keeps exactly the
        reference's cliques of at least ``k`` nodes."""
        cpm = LightweightParallelCPM(graph, kernel="blocks")
        _dense, cliques = sharded_enumerate_dense(cpm, None)
        sizes = [len(clique) for clique in cliques]
        for min_size in (2, 3, 4):
            reference = {c for c in maximal_cliques(graph, min_size=min_size)}
            kept = {frozenset(clique) for clique in cliques[: prefix_count(sizes, min_size)]}
            assert kept == reference

    def test_dense_ids_are_valid_and_distinct(self, graph):
        csr = CSRGraph.from_graph(graph)
        for clique in maximal_cliques_bitset(csr):
            assert len(set(clique)) == len(clique)
            assert all(0 <= v < csr.n for v in clique)


class TestHierarchyEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_fast_kernels_match_set_kernel(self, graph, kernel, workers):
        fast = LightweightParallelCPM(graph, kernel=kernel, workers=workers).run()
        # The set oracle is serial-only; the fast kernel carries the workers.
        reference = LightweightParallelCPM(graph, kernel="set").run()
        assert sorted(fast.orders) == sorted(reference.orders)
        assert _signature(fast) == _signature(reference)
        assert fast.parent_labels == reference.parent_labels

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_fast_kernels_match_sequential_oracle(self, graph, kernel):
        fast = LightweightParallelCPM(graph, kernel=kernel).run()
        oracle = extract_hierarchy(graph)
        assert _signature(fast) == _signature(oracle)
        assert fast.parent_labels == oracle.parent_labels

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_workers_do_not_change_the_fast_path(self, graph, kernel):
        h1 = LightweightParallelCPM(graph, kernel=kernel, workers=1).run()
        h4 = LightweightParallelCPM(graph, kernel=kernel, workers=4).run()
        assert _signature(h1) == _signature(h4)
        assert h1.parent_labels == h4.parent_labels

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_capped_k_range_agrees(self, graph, kernel):
        fast = LightweightParallelCPM(graph, kernel=kernel).run(min_k=3, max_k=4)
        reference = LightweightParallelCPM(graph, kernel="set").run(min_k=3, max_k=4)
        assert sorted(fast.orders) == sorted(reference.orders)
        assert _signature(fast) == _signature(reference)


class TestDefinitionOracle:
    """All kernels against the literal k-clique percolation definition."""

    @pytest.mark.parametrize(
        "name", ["ring-6x4", "gnp-medium", "gnp-dense"]
    )
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_covers_match_direct_percolation(self, name, kernel):
        graph = GRAPHS[name]()
        hierarchy = LightweightParallelCPM(graph, kernel=kernel).run()
        for k in (3, 4):
            direct = k_clique_communities_direct(graph, k)
            assert _cover_signature(hierarchy[k]) == _cover_signature(direct)


class TestUnionFindEquivalence:
    """The numpy percolation sweep vs a union-find over the same pairs."""

    def test_group_for_group_on_overlap_streams(self):
        rng = random.Random(4242)
        for _ in range(10):
            n = rng.randrange(2, 80)
            pairs = [
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randrange(3 * n))
            ]
            shift = max(1, n.bit_length())
            words = array("q", [(i << shift) | j for i, j in pairs])
            wire = OverlapWire(
                n_cliques=n,
                shift=shift,
                n_pairs=len(words),
                n_chain_pairs=0,
                buckets={3: words.tobytes()} if words else {},
            )
            groups, stats = percolate_wire([3], [n], wire)
            assert (groups, stats["union_merges"]) == reference_sweep([3], [n], wire)
