"""Bitset metric engine vs the set-based reference — exact equality.

The :class:`~repro.analysis.engine.MetricsEngine` promises *bit
identical* numbers to the oracles it replaces: ``core/metrics.py``
(density / ODF) and :meth:`Community.overlap_fraction` (pairwise
overlaps).  Every assertion here is ``==`` — no tolerances — across

* the session generator datasets (tiny + default profile),
* structured and randomized oracle graphs,
* hierarchies whose member sets crossed a pickle boundary, and CPM
  worker pools, and
* the two selectable engines end to end (context switch and
  ``PaperRun`` byte-identity).
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.engine import ENGINES, MetricsEngine
from repro.analysis.overlap import OverlapAnalysis
from repro.api import run_cpm
from repro.core.metrics import average_odf, link_density
from repro.core.tree import CommunityTree
from repro.graph import Graph
from repro.report.paper import PaperRun

from .conftest import random_graph

#: Engine modes, including the removed ``blocks`` engine, whose legs
#: assert that it is refused.
ENGINE_MODES = ["bitset", "blocks", "set"]


def _engine_for(graph: Graph, *, engine: str = "bitset") -> MetricsEngine:
    """Run CPM on ``graph`` and build a metric engine over the result."""
    result = run_cpm(graph)
    tree = CommunityTree(result.hierarchy)
    return MetricsEngine(result.hierarchy, tree, graph, engine=engine, csr=result.csr)


def _assert_blocks_refused(context) -> None:
    """The removed ``blocks`` engine fails fast, naming the valid ones."""
    assert "blocks" not in ENGINES
    with pytest.raises(ValueError, match=r"engine must be one of \('bitset', 'set'\)"):
        MetricsEngine(context.hierarchy, context.tree, context.graph, engine="blocks")


def _assert_rows_match_oracle(engine: MetricsEngine) -> None:
    """Every table row equals the core/metrics.py oracle exactly."""
    rows = engine.rows()
    communities = list(engine.hierarchy.all_communities())
    assert len(rows) == len(communities)
    for row, community in zip(rows, communities):
        assert row.label == community.label
        assert row.k == community.k
        assert row.size == community.size
        assert row.is_main == engine.tree.is_main(community)
        assert row.link_density == link_density(engine.graph, community.members)
        assert row.average_odf == average_odf(engine.graph, community.members)


def _assert_overlaps_match_oracle(engine: MetricsEngine) -> None:
    """Every overlap fraction equals Community.overlap_fraction exactly."""
    from itertools import combinations

    overlaps = engine.order_overlaps()
    for k in engine.hierarchy.orders:
        cover = engine.hierarchy[k]
        if len(cover) < 2:
            assert k not in overlaps
            continue
        order = overlaps[k]
        main = engine.tree.main_community(k)
        parallels = [c for c in cover if c.label != main.label]
        assert order.main_label == main.label
        assert order.parallel_labels == tuple(c.label for c in parallels)
        assert order.main_fractions == tuple(p.overlap_fraction(main) for p in parallels)
        assert order.pair_fractions == tuple(
            a.overlap_fraction(b) for a, b in combinations(parallels, 2)
        )


# ----------------------------------------------------------------------
# Generator datasets (the shapes the paper pipeline actually analyses)
# ----------------------------------------------------------------------
def test_default_dataset_rows_match_oracle(default_context):
    _assert_rows_match_oracle(default_context.engine)


def test_default_dataset_overlaps_match_oracle(default_context):
    _assert_overlaps_match_oracle(default_context.engine)


def test_tiny_dataset_matches_oracle(tiny_context):
    _assert_rows_match_oracle(tiny_context.engine)
    _assert_overlaps_match_oracle(tiny_context.engine)


def test_engines_agree_on_default_dataset(default_context):
    """The bitset table equals the set-based table, row for row."""
    set_context = dataclasses.replace(default_context, analysis_engine="set")
    assert set_context.metrics_rows() == default_context.metrics_rows()
    assert set_context.engine.order_overlaps() == default_context.engine.order_overlaps()


def test_overlap_analysis_matches_pre_engine_reference(default_context):
    """OverlapAnalysis rows equal the pre-engine per-pair recomputation."""
    import statistics
    from itertools import combinations

    analysis = OverlapAnalysis(default_context)
    tree = default_context.tree
    by_k = {row.k: row for row in analysis.rows}
    for k in default_context.hierarchy.orders:
        cover = default_context.hierarchy[k]
        if len(cover) < 2:
            assert k not in by_k
            continue
        main = tree.main_community(k)
        parallels = [c for c in cover if c.label != main.label]
        main_fracs = [p.overlap_fraction(main) for p in parallels]
        pp_fracs = [a.overlap_fraction(b) for a, b in combinations(parallels, 2)]
        row = by_k[k]
        assert row.n_parallel == len(parallels)
        assert row.mean_parallel_main_fraction == statistics.mean(main_fracs)
        assert row.zero_overlap_parallels == sum(1 for f in main_fracs if f == 0.0)
        if pp_fracs:
            assert row.mean_parallel_parallel_fraction == statistics.mean(pp_fracs)
        else:
            assert row.mean_parallel_parallel_fraction is None


def test_overlap_findings_match_re_enumeration(default_context):
    """Findings (b)/(c) equal the re-enumerating implementation they replaced."""
    from itertools import combinations

    analysis = OverlapAnalysis(default_context)
    tree = default_context.tree
    disjoint = False
    strong = 0
    for k in default_context.hierarchy.orders:
        parallels = tree.parallel_communities(k)
        for a, b in combinations(parallels, 2):
            if a.overlap(b) == 0:
                disjoint = True
            if a.overlap_fraction(b) >= 0.5:
                strong += 1
    assert analysis.disjoint_parallel_pairs_exist() == disjoint
    assert analysis.strongly_overlapping_parallel_pairs() == strong


# ----------------------------------------------------------------------
# Oracle graphs: structured and randomized
# ----------------------------------------------------------------------
def test_ring_of_cliques_all_engines(ring_graph):
    for mode in ENGINES:
        engine = _engine_for(ring_graph, engine=mode)
        _assert_rows_match_oracle(engine)
        _assert_overlaps_match_oracle(engine)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_graphs_match_oracle(seed):
    graph = random_graph(80, 0.15, seed)
    reference = _engine_for(graph, engine="set")
    for mode in ENGINES:
        if mode == "set":
            continue
        fast = _engine_for(graph, engine=mode)
        _assert_rows_match_oracle(fast)
        _assert_overlaps_match_oracle(fast)
        assert fast.rows() == reference.rows()
        assert fast.order_overlaps() == reference.order_overlaps()


def test_randomized_hierarchy_shuffled_members():
    """Member sets built in randomized insertion order still match."""
    rng = random.Random(99)
    cliques = [list(range(i * 6, i * 6 + 6)) for i in range(5)]
    graph = Graph()
    for clique in cliques:
        rng.shuffle(clique)
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                graph.add_edge(u, v)
    for a, b in zip(cliques, cliques[1:]):
        graph.add_edge(a[0], b[0])
    for mode in ENGINES:
        engine = _engine_for(graph, engine=mode)
        _assert_rows_match_oracle(engine)
        _assert_overlaps_match_oracle(engine)


# ----------------------------------------------------------------------
# Pickled member sets and CPM workers: results must not depend on either
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_workers_match_serial(default_context, mode):
    """A hierarchy that crossed a pickle boundary sweeps to the same table.

    Unpickling rebuilds each member frozenset, which can change its
    iteration order; the ODF sums run in sorted member order, so the
    floats must not move.
    """
    if mode == "blocks":
        _assert_blocks_refused(default_context)
        return
    graph, csr = default_context.graph, default_context.csr
    serial = MetricsEngine(
        default_context.hierarchy, default_context.tree, graph, engine=mode, csr=csr
    )
    hierarchy = pickle.loads(pickle.dumps(default_context.hierarchy))
    # The round trip really does reorder some member sets.
    assert any(
        list(a.members) != list(b.members)
        for a, b in zip(default_context.hierarchy.all_communities(), hierarchy.all_communities())
    )
    shipped = MetricsEngine(hierarchy, CommunityTree(hierarchy), graph, engine=mode, csr=csr)
    assert shipped.rows() == serial.rows()
    assert shipped.order_overlaps() == serial.order_overlaps()


def test_context_workers_match_serial(default_dataset, default_context):
    """``workers`` parallelises CPM only; the metric table is unchanged."""
    pooled = AnalysisContext.from_dataset(default_dataset, workers=2)
    assert pooled.metrics_rows() == default_context.metrics_rows()
    assert pooled.engine.order_overlaps() == default_context.engine.order_overlaps()


# ----------------------------------------------------------------------
# End to end: both engines render the same report bytes
# ----------------------------------------------------------------------
def test_paper_outputs_engine_independent(tiny_dataset):
    bitset_run = PaperRun(tiny_dataset, analysis_engine="bitset")
    set_run = PaperRun(tiny_dataset, analysis_engine="set")
    assert bitset_run.figure_4_3() == set_run.figure_4_3()
    assert bitset_run.figure_4_4a() == set_run.figure_4_4a()
    assert bitset_run.figure_4_4b() == set_run.figure_4_4b()
    assert bitset_run.overlap_summary() == set_run.overlap_summary()
    assert bitset_run.band_reports() == set_run.band_reports()


def test_engine_rejects_unknown_mode(tiny_context):
    with pytest.raises(ValueError):
        MetricsEngine(
            tiny_context.hierarchy,
            tiny_context.tree,
            tiny_context.graph,
            engine="numpy",
        )
    _assert_blocks_refused(tiny_context)
