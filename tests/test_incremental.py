"""Incremental CPM sessions: byte-identity, persistence, API and CLI.

The load-bearing guarantee of :mod:`repro.incremental` is that a
session advanced by edge deltas is indistinguishable — hierarchy,
community tree, query artifact, byte for byte — from re-running the
batch pipeline on the mutated graph.  The fuzz tests here drive random
insert/delete batches through a session and check exactly that after
every batch.
"""

import json
import pickle
import random

import pytest

from repro.api import open_session, run_cpm
from repro.cli import main
from repro.core.cache import CliqueCache
from repro.core.percolation import CliqueOverlapIndex
from repro.core.serialize import hierarchy_to_dict
from repro.core.tree import CommunityTree
from repro.graph.generators import ring_of_cliques
from repro.graph.undirected import Graph
from repro.incremental import (
    CPMSession,
    CPMUpdate,
    EdgeDelta,
    diff_covers,
    load_session,
)
from repro.runner.checkpoint import CheckpointError, CheckpointMismatchError, CheckpointStore

from .conftest import CORRUPT_PICKLES, WRONG_SHAPE_PICKLES, flip_stored_byte, reference_sweep

#: The kernels a session runs on.
KERNELS = ["blocks"]


def hierarchy_bytes(hierarchy) -> bytes:
    """Canonical serialisation of a hierarchy (None-safe)."""
    if hierarchy is None:
        return b"<empty>"
    return json.dumps(hierarchy_to_dict(hierarchy), sort_keys=True).encode()


def random_graph(n: int, p: float, seed: int) -> Graph:
    """An Erdos-Renyi-ish labelled graph (deterministic per seed)."""
    rng = random.Random(seed)
    graph = Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def random_delta(graph: Graph, rng: random.Random, *, n_ins=3, n_del=3) -> EdgeDelta:
    """A random applicable batch: existing edges out, absent edges in."""
    edges = sorted(tuple(sorted(edge)) for edge in graph.edges())
    deletions = rng.sample(edges, min(n_del, len(edges)))
    nodes = sorted(graph.nodes())
    present = {frozenset(edge) for edge in edges}
    insertions: list[tuple] = []
    for _ in range(200):
        if len(insertions) >= n_ins:
            break
        u, v = rng.sample(nodes, 2)
        key = frozenset((u, v))
        if key not in present and key not in map(frozenset, insertions):
            insertions.append((u, v))
    return EdgeDelta(insertions=insertions, deletions=deletions)


def apply_to_graph(graph: Graph, delta: EdgeDelta) -> None:
    """Mirror a delta onto a plain graph (the fuzz oracle's copy)."""
    for u, v in delta.deletions:
        graph.remove_edge(u, v)
    for u, v in delta.insertions:
        graph.add_edge(u, v)


def fresh_bytes(graph: Graph, kernel: str) -> bytes:
    """Hierarchy bytes of a from-scratch run (empty marker when none)."""
    try:
        return hierarchy_bytes(run_cpm(graph, kernel=kernel).hierarchy)
    except ValueError:
        return b"<empty>"


class TestEdgeDelta:
    def test_normalizes_and_counts(self):
        delta = EdgeDelta(insertions=[(1, 2), (3, 4)], deletions=[(5, 6)])
        assert delta.n_edges == 3
        assert bool(delta)
        assert not EdgeDelta()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeDelta(insertions=[(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            EdgeDelta(deletions=[(1, 2), (2, 1)])

    def test_rejects_contradictory_edge(self):
        with pytest.raises(ValueError, match="both insertions and deletions"):
            EdgeDelta(insertions=[(1, 2)], deletions=[(2, 1)])

    def test_between_is_the_edge_set_difference(self):
        old = random_graph(12, 0.3, seed=1)
        new = old.copy()
        delta0 = random_delta(new, random.Random(2))
        apply_to_graph(new, delta0)
        delta = EdgeDelta.between(old, new)
        rebuilt = old.copy()
        apply_to_graph(rebuilt, delta)
        assert {frozenset(e) for e in rebuilt.edges()} == {
            frozenset(e) for e in new.edges()
        }
        # deterministic: same pair, same delta
        assert delta == EdgeDelta.between(old, new)


class TestDiffCovers:
    def test_identical_covers_produce_nothing(self):
        cover = (frozenset({1, 2, 3}), frozenset({3, 4, 5}))
        assert diff_covers(3, cover, cover) == ()

    def test_birth_and_death(self):
        before = (frozenset({1, 2, 3}),)
        after = (frozenset({7, 8, 9}),)
        kinds = [c.kind for c in diff_covers(3, before, after)]
        assert kinds == ["born", "died"]

    def test_growth_pairs_by_jaccard(self):
        before = (frozenset({1, 2, 3}),)
        after = (frozenset({1, 2, 3, 4}),)
        (change,) = diff_covers(3, before, after)
        assert change.kind == "grown"
        assert change.size_before == 3 and change.size_after == 4
        assert change.jaccard == pytest.approx(0.75)

    def test_merge_and_split(self):
        a, b = frozenset(range(0, 5)), frozenset(range(5, 10))
        merged = a | b
        changes = diff_covers(4, (a, b), (merged,))
        assert "merged" in [c.kind for c in changes]
        changes = diff_covers(4, (merged,), (a, b))
        assert "split" in [c.kind for c in changes]


class TestSessionBasics:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_initial_state_matches_batch_run(self, kernel):
        graph = ring_of_cliques(4, 5)
        session = CPMSession(graph, kernel=kernel)
        fresh = run_cpm(graph, kernel=kernel)
        assert hierarchy_bytes(session.result().hierarchy) == hierarchy_bytes(
            fresh.hierarchy
        )
        assert session.result().stats.n_cliques == fresh.stats.n_cliques
        assert session.result().stats.kernel == kernel

    def test_update_reports_movement(self):
        session = CPMSession(ring_of_cliques(4, 5))
        update = session.apply(EdgeDelta(insertions=[(0, 10)]))
        assert isinstance(update, CPMUpdate)
        assert update.inserted_edges == 1 and update.deleted_edges == 0
        assert update.batch == 0
        assert update.affected_orders and update.affected_orders[0] == 2
        assert "batch 0" in update.summary()
        assert session.applied_batches == 1

    def test_inapplicable_batch_is_atomic(self):
        session = CPMSession(ring_of_cliques(3, 4))
        before = hierarchy_bytes(session.hierarchy)
        with pytest.raises(ValueError, match="already present"):
            session.apply(EdgeDelta(insertions=[(0, 1)]))
        with pytest.raises(ValueError, match="not present"):
            session.apply(EdgeDelta(deletions=[(0, 99)]))
        with pytest.raises(TypeError, match="EdgeDelta"):
            session.apply([(0, 99)])
        assert session.applied_batches == 0
        assert hierarchy_bytes(session.hierarchy) == before

    def test_edgeless_graph_has_no_result(self):
        graph = Graph()
        graph.add_nodes_from(range(4))
        session = CPMSession(graph)
        assert session.hierarchy is None
        with pytest.raises(ValueError, match="no clique of size >= 2"):
            session.result()
        session.apply(EdgeDelta(insertions=[(0, 1), (1, 2), (0, 2)]))
        assert session.result().hierarchy.orders == [2, 3]
        session.apply(EdgeDelta(deletions=[(0, 1), (1, 2), (0, 2)]))
        assert session.hierarchy is None and session.n_cliques == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_edgeless_graph_opens_on_every_kernel(self, kernel):
        """Every kernel's overlap counter accepts zero cliques."""
        graph = Graph()
        graph.add_nodes_from(range(3))
        session = CPMSession(graph, kernel=kernel)
        assert session.n_cliques == 0 and session.n_overlap_pairs == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_reuses_run_cpm_clique_cache(self, tmp_path, kernel):
        graph = ring_of_cliques(4, 5)
        cache = CliqueCache(tmp_path)
        fresh = run_cpm(graph, kernel=kernel, cache=cache)
        session = CPMSession(graph, kernel=kernel, cache=cache)
        assert session.cache_hit
        assert hierarchy_bytes(session.result().hierarchy) == hierarchy_bytes(
            fresh.hierarchy
        )
        # the reused overlap state keeps working through mutations
        session.apply(EdgeDelta(deletions=[(0, 1)]))
        mutated = graph.copy()
        mutated.remove_edge(0, 1)
        assert hierarchy_bytes(session.result().hierarchy) == fresh_bytes(
            mutated, kernel
        )

    def test_describe_reports_census(self):
        session = CPMSession(ring_of_cliques(4, 5))
        info = session.describe()
        assert info["max_clique_size"] == 5
        assert info["orders"] == [2, 3, 4, 5]
        assert info["applied_batches"] == 0
        assert set(info["fingerprint"]) == {"nodes", "edges", "checksum"}


class TestDeltaFuzz:
    """The core guarantee: byte-identity with run_cpm after every batch."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches_on_random_graph(self, kernel, seed):
        rng = random.Random(1000 + seed)
        graph = random_graph(28, 0.22, seed=seed)
        session = CPMSession(graph, kernel=kernel)
        oracle = graph.copy()
        for _ in range(6):
            delta = random_delta(oracle, rng)
            session.apply(delta)
            apply_to_graph(oracle, delta)
            session_bytes = (
                b"<empty>"
                if session.hierarchy is None
                else hierarchy_bytes(session.result().hierarchy)
            )
            assert session_bytes == fresh_bytes(oracle, kernel)
            assert session.n_overlap_pairs == len(oracle_pairs(oracle))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_batches_on_generator_graph(self, kernel):
        rng = random.Random(7)
        graph = ring_of_cliques(6, 6)
        session = CPMSession(graph, kernel=kernel)
        oracle = graph.copy()
        for _ in range(6):
            delta = random_delta(oracle, rng, n_ins=4, n_del=4)
            session.apply(delta)
            apply_to_graph(oracle, delta)
            assert hierarchy_bytes(session.result().hierarchy) == fresh_bytes(
                oracle, kernel
            )

    def test_tree_and_query_artifact_bytes_match(self):
        from repro.api import build_query_artifact

        rng = random.Random(42)
        graph = ring_of_cliques(5, 6)
        session = CPMSession(graph)
        oracle = graph.copy()
        for _ in range(3):
            delta = random_delta(oracle, rng)
            session.apply(delta)
            apply_to_graph(oracle, delta)
            ours, fresh = session.result(), run_cpm(oracle)
            assert CommunityTree(ours.hierarchy).to_dot() == CommunityTree(
                fresh.hierarchy
            ).to_dot()
            assert (
                build_query_artifact(ours, oracle).to_bytes()
                == build_query_artifact(fresh, oracle).to_bytes()
            )

    def test_batches_below_the_top_order_reuse_its_levels(self):
        """Deltas away from a 5-clique leave its top order as built.

        Each batch re-sweeps only the orders up to its largest affected
        clique, so the 5-clique's order keeps its cover object while
        every parent link re-resolves into the rebuilt lower orders (on
        this seed a reused order's parents move to new labels); the
        hierarchy must still match run_cpm after every batch.
        """
        rng = random.Random(15)
        graph = random_graph(30, 0.2, seed=4)
        core = range(30, 35)
        graph.add_edges_from((u, v) for u in core for v in core if u < v)
        graph.add_edges_from([(30, 0), (31, 0), (32, 1), (30, 1)])
        session = CPMSession(graph)
        oracle = graph.copy()
        reused = 0
        for _ in range(8):
            before = session.hierarchy
            delta = random_delta(oracle.subgraph(range(30)), rng, n_ins=3, n_del=2)
            update = session.apply(delta)
            apply_to_graph(oracle, delta)
            assert hierarchy_bytes(session.result().hierarchy) == fresh_bytes(
                oracle, "blocks"
            )
            if max(update.affected_orders, default=0) < 5:
                assert session.hierarchy[5] is before[5]
                reused += 1
        assert reused

    def test_emptying_batch_drops_every_pair(self, tmp_path):
        """A batch deleting the last cliques re-sweeps no order, yet
        leaves no pair behind (in memory or in a save)."""
        graph = Graph()
        for clique in ((0, 1, 2, 3), (2, 3, 4, 5)):
            graph.add_edges_from((u, v) for u in clique for v in clique if u < v)
        session = CPMSession(graph)
        assert session.n_overlap_pairs == 1
        update = session.apply(EdgeDelta(deletions=sorted(graph.edges())))
        assert update.cliques_retired and session.n_cliques == 0
        assert session.n_overlap_pairs == 0 and session.hierarchy is None
        session.save(tmp_path / "sess")
        assert load_session(tmp_path / "sess").n_overlap_pairs == 0

    def test_deletion_only_and_insertion_only_batches(self):
        graph = ring_of_cliques(5, 5)
        session = CPMSession(graph)
        oracle = graph.copy()
        rng = random.Random(3)
        for n_ins, n_del in [(0, 5), (5, 0), (0, 5), (5, 0)]:
            delta = random_delta(oracle, rng, n_ins=n_ins, n_del=n_del)
            session.apply(delta)
            apply_to_graph(oracle, delta)
            assert hierarchy_bytes(session.result().hierarchy) == fresh_bytes(
                oracle, "blocks"
            )


def oracle_pairs(graph: Graph) -> dict[frozenset, int]:
    """Retained pairs by the set oracle: overlap >= 2 at its k_act.

    Keyed by the pair's two member sets, so it compares against any
    session's id-keyed pair state.
    """
    index = CliqueOverlapIndex.from_graph(graph)
    cliques = index.cliques
    return {
        frozenset((cliques[i], cliques[j])): min(o + 1, len(cliques[i]), len(cliques[j]))
        for (i, j), o in index.overlaps().items()
        if o >= 2
    }


def _pair_ids(session: CPMSession) -> dict[tuple[int, int], int]:
    """The session's live wire words decoded to ``(a, b) -> k_act``."""
    return {
        (word >> 32, word & 0xFFFFFFFF): k_act
        for k_act, words in session._wire.items()
        for word in words
    }


def session_pairs(session: CPMSession) -> dict[frozenset, int]:
    """The session's retained pair state, keyed by member sets.

    Decodes the live wire buckets; a word with a retired endpoint
    raises ``KeyError``, and a duplicated word fails the count check.
    """
    members = session._members
    ids = _pair_ids(session)
    assert len(ids) == session.n_overlap_pairs
    pairs = {frozenset((members[a], members[b])): k_act for (a, b), k_act in ids.items()}
    assert len(pairs) == len(ids)
    return pairs


#: The TestDeltaFuzz graphs, built on demand.
PAIR_GRAPHS = {
    **{f"random-{seed}": (lambda s=seed: random_graph(28, 0.22, seed=s)) for seed in (0, 1, 2)},
    "ring": lambda: ring_of_cliques(6, 6),
}


class TestPairState:
    """The session's pair state against the set oracle's overlaps.

    A session opens through the pipeline's overlap counter, from a
    cache payload or freshly; either way the retained pairs must be the
    oracle's overlap >= 2 pairs at ``k_act = min(o + 1, |A|, |B|)``.
    """

    @pytest.mark.parametrize("graph_name", sorted(PAIR_GRAPHS))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_hit_and_miss_open_match_oracle(self, tmp_path, kernel, graph_name):
        graph = PAIR_GRAPHS[graph_name]()
        expected = oracle_pairs(graph)
        miss = CPMSession(graph, kernel=kernel)
        assert not miss.cache_hit
        assert session_pairs(miss) == expected
        delta = random_delta(graph, random.Random(5))
        cache = CliqueCache(tmp_path)
        run_cpm(graph, kernel=kernel, cache=cache)
        hit = CPMSession(graph, kernel=kernel, cache=cache)
        assert hit.cache_hit
        assert session_pairs(hit) == expected
        assert hit.apply(delta) == miss.apply(delta)
        assert session_pairs(hit) == session_pairs(miss)
        mutated = graph.copy()
        apply_to_graph(mutated, delta)
        assert session_pairs(miss) == oracle_pairs(mutated)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        session = CPMSession(ring_of_cliques(4, 5))
        session.apply(EdgeDelta(insertions=[(0, 10)], deletions=[(0, 1)]))
        session.save(tmp_path / "sess")
        loaded = load_session(tmp_path / "sess")
        assert hierarchy_bytes(loaded.result().hierarchy) == hierarchy_bytes(
            session.result().hierarchy
        )
        assert loaded.applied_batches == session.applied_batches
        assert loaded.kernel == session.kernel
        # both copies evolve identically afterwards
        update_a = session.apply(EdgeDelta(insertions=[(2, 12)]))
        update_b = loaded.apply(EdgeDelta(insertions=[(2, 12)]))
        assert update_a == update_b
        assert hierarchy_bytes(loaded.result().hierarchy) == hierarchy_bytes(
            session.result().hierarchy
        )

    def test_parent_layout_session_is_refused(self, tmp_path, capsys):
        """A session saved at session schema 2 (a ``pair_kact`` dict of
        id pairs in place of the ``wire`` buckets) fails with the
        schema-naming error, not the generic payload one, and the CLI
        exits 2 on it."""
        session = CPMSession(random_graph(28, 0.22, seed=0))
        session.save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        payload = store.load_phase("session")
        del payload["wire"]
        store.store_phase("session", {**payload, "schema": 2, "pair_kact": _pair_ids(session)})
        with pytest.raises(CheckpointMismatchError, match="uses schema 2, this build expects 3"):
            load_session(tmp_path / "sess")
        capsys.readouterr()
        assert main(["session", "apply", str(tmp_path / "sess"), "--insert", "0,10"]) == 2
        err = capsys.readouterr().err
        assert "uses schema 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("bucket", ["ragged", "out-of-range"])
    def test_corrupt_wire_is_refused(self, tmp_path, capsys, bucket):
        """A bucket that is not whole <i8 words, or pairs an id at or
        above ``next_id``, is a named CheckpointError (not an
        IndexError), and the CLI exits 2 without a traceback."""
        CPMSession(random_graph(28, 0.22, seed=0)).save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        payload = store.load_phase("session")
        k_act, blob = max(payload["wire"].items())
        if bucket == "ragged":
            blob = blob[:7]
        else:
            blob += payload["next_id"].to_bytes(8, "little")  # the pair (0, next_id)
        store.store_phase("session", {**payload, "wire": {**payload["wire"], k_act: blob}})
        match = "not <i8 words" if bucket == "ragged" else "not saved below next_id"
        with pytest.raises(CheckpointError, match=match):
            load_session(tmp_path / "sess")
        capsys.readouterr()
        assert main(["session", "status", str(tmp_path / "sess")]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_missing_directory_fails_cleanly(self, tmp_path):
        with pytest.raises(CheckpointError, match="META.json is missing"):
            load_session(tmp_path / "nothing")

    def test_pipeline_checkpoint_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.open(checksum="abc", kernel="blocks", resume=False)
        with pytest.raises(CheckpointError, match="pipeline checkpoint"):
            load_session(tmp_path / "ckpt")

    def test_future_schema_is_rejected(self, tmp_path):
        session = CPMSession(ring_of_cliques(3, 4))
        session.save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        payload = store.load_phase("session")
        payload["schema"] = 999
        store.store_phase("session", payload)
        with pytest.raises(CheckpointError, match="schema"):
            load_session(tmp_path / "sess")

    def test_tampered_graph_fails_integrity_check(self, tmp_path):
        session = CPMSession(ring_of_cliques(3, 4))
        session.save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        payload = store.load_phase("session")
        payload["edges"] = payload["edges"][:-1]
        store.store_phase("session", payload)
        with pytest.raises(CheckpointError, match="integrity"):
            load_session(tmp_path / "sess")

    @pytest.mark.parametrize("blob", sorted(CORRUPT_PICKLES))
    def test_corrupt_payload_fails_cleanly(self, tmp_path, blob):
        session = CPMSession(ring_of_cliques(3, 4))
        session.save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        if blob in WRONG_SHAPE_PICKLES:
            store.store_phase("session", pickle.loads(CORRUPT_PICKLES[blob]))
        else:
            store.phase_path("session").write_bytes(CORRUPT_PICKLES[blob])
        with pytest.raises(CheckpointError, match="payload"):
            load_session(tmp_path / "sess")

    def test_flipped_byte_fails_cleanly(self, tmp_path):
        """One flipped bit still unpickles; the frame digest refuses it."""
        session = CPMSession(ring_of_cliques(3, 4))
        session.apply(EdgeDelta(insertions=[(0, 5)]))
        session.save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        flip_stored_byte(store.phase_path("session"), store.load_phase("session"))
        with pytest.raises(CheckpointError, match="payload"):
            load_session(tmp_path / "sess")

    def test_old_schema_directory_is_named(self, tmp_path, capsys):
        CPMSession(ring_of_cliques(3, 4)).save(tmp_path / "sess")
        store = CheckpointStore(tmp_path / "sess")
        meta = store.meta()
        store.meta_path.write_text(json.dumps({**meta, "schema": 1}), encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="checkpoint schema 1.*re-open and save"):
            load_session(tmp_path / "sess")
        capsys.readouterr()
        assert main(["session", "apply", str(tmp_path / "sess"), "--insert", "0,5"]) == 2
        err = capsys.readouterr().err
        assert "checkpoint schema 1" in err and "Traceback" not in err


class TestFacade:
    def test_open_session_from_graph(self):
        graph = ring_of_cliques(4, 5)
        session = open_session(graph)
        assert isinstance(session, CPMSession)
        assert hierarchy_bytes(session.result().hierarchy) == fresh_bytes(
            graph, "blocks"
        )

    def test_open_session_from_result(self):
        graph = ring_of_cliques(4, 5)
        result = run_cpm(graph)
        session = open_session(result)
        assert hierarchy_bytes(session.result().hierarchy) == hierarchy_bytes(
            result.hierarchy
        )

    def test_open_session_needs_a_csr_snapshot(self):
        result = run_cpm(ring_of_cliques(4, 5), kernel="set")
        with pytest.raises(ValueError, match="no CSR snapshot"):
            open_session(result)

    def test_open_session_rejects_other_types(self):
        with pytest.raises(TypeError, match="Graph or CPMResult"):
            open_session("a graph, honest")

    def test_facade_load_session(self, tmp_path):
        from repro.api import load_session as facade_load

        session = open_session(ring_of_cliques(3, 4))
        session.save(tmp_path / "sess")
        loaded = facade_load(tmp_path / "sess")
        assert hierarchy_bytes(loaded.result().hierarchy) == hierarchy_bytes(
            session.result().hierarchy
        )


class TestObservability:
    def test_incr_spans_and_counters(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        tracer, metrics = Tracer(), MetricsRegistry()
        session = CPMSession(ring_of_cliques(4, 5), tracer=tracer, metrics=metrics)
        session.apply(EdgeDelta(insertions=[(0, 10)]))
        tracer.close()
        names = {record.name for record in tracer.records}
        assert {"incr.open", "incr.apply", "incr.mutate", "incr.percolate"} <= names
        counters = metrics.to_dict()["counters"]
        assert counters["incr.sessions_opened"] == 1
        assert counters["incr.batches"] == 1
        assert counters["incr.edges_inserted"] == 1
        assert counters["incr.cliques_born"] >= 1


class TestSessionCLI:
    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ds") / "tiny"
        assert main(["generate", str(out), "--profile", "tiny", "--seed", "5"]) == 0
        return str(out)

    def test_open_apply_status(self, dataset_dir, tmp_path, capsys):
        sess = str(tmp_path / "sess")
        assert main(["session", "open", dataset_dir, sess]) == 0
        assert "opened session" in capsys.readouterr().out
        from repro.topology import ASDataset

        edge = sorted(
            tuple(sorted(e)) for e in ASDataset.load(dataset_dir).graph.edges()
        )[0]
        assert (
            main(
                [
                    "session",
                    "apply",
                    sess,
                    "--insert",
                    "1,2000000",
                    "--delete",
                    f"{edge[0]},{edge[1]}",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "+1/-1 edges" in out
        assert main(["session", "status", sess]) == 0
        out = capsys.readouterr().out
        assert "applied batches" in out and "1" in out

    def test_apply_accepts_delta_file(self, dataset_dir, tmp_path, capsys):
        sess = str(tmp_path / "sess")
        assert main(["session", "open", dataset_dir, sess]) == 0
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"insertions": [[1, 2000000]]}))
        assert main(["session", "apply", sess, "--delta", str(delta_file)]) == 0
        assert "+1/-0 edges" in capsys.readouterr().out

    def test_apply_rejects_empty_delta(self, dataset_dir, tmp_path, capsys):
        sess = str(tmp_path / "sess")
        assert main(["session", "open", dataset_dir, sess]) == 0
        capsys.readouterr()
        assert main(["session", "apply", sess]) == 2
        assert "empty delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--shards", "3"],
            ["--checkpoint-dir", "D"],
            ["--resume"],
            ["--max-retries", "9"],
            ["--batch-timeout", "1"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_open_rejects_batch_run_flags(
        self, dataset_dir, tmp_path, capsys, monkeypatch, flag
    ):
        """``session open`` takes --kernel and --cache, not the run flags."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["session", "open", dataset_dir, "sess", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "sess").exists() and not (tmp_path / "D").exists()

    def test_status_on_missing_session_exits_2(self, tmp_path, capsys):
        assert main(["session", "status", str(tmp_path / "nope")]) == 2
        assert "META.json is missing" in capsys.readouterr().err


class TestQueryBuildGuard:
    @pytest.fixture(scope="class")
    def two_datasets(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("guard")
        a, b = root / "a", root / "b"
        assert main(["generate", str(a), "--profile", "tiny", "--seed", "5"]) == 0
        assert main(["generate", str(b), "--profile", "tiny", "--seed", "6"]) == 0
        return str(a), str(b)

    def test_refuses_stale_overwrite_without_force(
        self, two_datasets, tmp_path, capsys
    ):
        ds_a, ds_b = two_datasets
        artifact = str(tmp_path / "art.rqa")
        assert main(["query", "build", ds_a, artifact]) == 0
        capsys.readouterr()
        # same dataset: rebuild is a refresh, not a clobber
        assert main(["query", "build", ds_a, artifact]) == 0
        capsys.readouterr()
        # different dataset: refuse...
        assert main(["query", "build", ds_b, artifact]) == 2
        err = capsys.readouterr().err
        assert "different graph" in err and "--force" in err
        # ...unless forced
        assert main(["query", "build", ds_b, artifact, "--force"]) == 0

    def test_refuses_unreadable_existing_file(self, two_datasets, tmp_path, capsys):
        ds_a, _ = two_datasets
        bogus = tmp_path / "bogus.rqa"
        bogus.write_bytes(b"not an artifact")
        assert main(["query", "build", ds_a, str(bogus)]) == 2
        assert "not a readable query artifact" in capsys.readouterr().err


class TestBlocksSweepParity:
    """percolate_wire's numpy sweep agrees with a union-find reference.

    The session re-sweeps its persistent wire with the same numpy pass
    as the batch pipeline; this fuzz feeds it and the union-find
    reference identical random wires — prefix *and* explicit-id
    eligible forms, arbitrary member orderings — and requires exactly
    equal group lists at every order (sizes, members, ordering,
    tie-breaks).
    """

    @staticmethod
    def _random_wire(rng, n_cliques, shift=12):
        from array import array

        from repro.core.overlap import OverlapWire

        max_k = rng.randint(3, 9)
        buckets = {}
        n_pairs = 0
        for k_act in range(2, max_k + 1):
            if rng.random() < 0.3:
                continue
            arr = array("q")
            for _ in range(rng.randint(0, 12)):
                a, b = rng.sample(range(n_cliques), 2)
                arr.append((max(a, b) << shift) | min(a, b))
            if arr:
                buckets[k_act] = arr.tobytes()
                n_pairs += len(arr)
        chains = array("q")
        ids = sorted(rng.sample(range(n_cliques), rng.randint(0, n_cliques)))
        for prev, cur in zip(ids, ids[1:]):
            if rng.random() < 0.5:
                chains.append((prev << shift) | cur)
        wire = OverlapWire(
            n_cliques=n_cliques,
            shift=shift,
            n_pairs=n_pairs,
            n_chain_pairs=len(chains),
            buckets=buckets,
            chains=chains.tobytes(),
        )
        return wire, max_k

    @pytest.mark.parametrize("seed", range(8))
    def test_random_wires_explicit_ids(self, seed):
        from repro.core.percolation import percolate_wire

        rng = random.Random(4200 + seed)
        n_cliques = rng.randint(4, 40)
        wire, max_k = self._random_wire(rng, n_cliques)
        orders = sorted(rng.sample(range(2, max_k + 2), rng.randint(1, max_k)),
                        reverse=True)
        # Explicit ids in arbitrary (shuffled) order: the session's
        # stable ids are not size-sorted, and groups_of's tie-breaks
        # depend on first appearance — the twin must replicate both.
        eligibles = []
        for _ in orders:
            ids = rng.sample(range(n_cliques), rng.randint(0, n_cliques))
            eligibles.append(ids)
        expected, merges = reference_sweep(orders, eligibles, wire)
        actual, actual_stats = percolate_wire(orders, eligibles, wire)
        assert actual == expected
        assert actual_stats["union_merges"] == merges

    @pytest.mark.parametrize("seed", range(8))
    def test_random_wires_prefix_counts(self, seed):
        from repro.core.percolation import percolate_wire

        rng = random.Random(8600 + seed)
        n_cliques = rng.randint(4, 40)
        wire, max_k = self._random_wire(rng, n_cliques)
        orders = sorted(rng.sample(range(2, max_k + 2), rng.randint(1, max_k)),
                        reverse=True)
        eligibles = [rng.randint(0, n_cliques) for _ in orders]
        expected, merges = reference_sweep(orders, eligibles, wire)
        actual, actual_stats = percolate_wire(orders, eligibles, wire)
        assert actual == expected
        assert actual_stats["union_merges"] == merges
