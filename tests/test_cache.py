"""Tests for the on-disk clique/overlap cache.

The contract: a second run over the same graph skips enumeration +
overlap entirely (no ``cpm.enumerate``/``cpm.overlap`` spans, a
``cache.hits`` counter instead) while producing the identical
hierarchy; a different graph, kernel, or schema version misses; torn,
corrupt and foreign entries degrade to misses; a cache that cannot be
written costs a counted write error, never the run's result.
"""

import json
import pickle
import shutil

import pytest

from repro.api import run_cpm
from repro.core import CliqueCache
from repro.core.cache import default_cache_dir
from repro.core.lightweight import LightweightParallelCPM
from repro.core.serialize import hierarchy_to_dict
from repro.graph import ring_of_cliques
from repro.incremental import CPMSession
from repro.obs import MetricsRegistry, RunManifest, Tracer
from repro.obs.manifest import graph_fingerprint
from repro.runner.checkpoint import CHECKPOINT_SCHEMA_VERSION
from repro.topology.generator import GeneratorConfig, generate_topology

from .conftest import (
    CORRUPT_PICKLES,
    UNREADABLE_PICKLES,
    WRONG_SHAPE_PICKLES,
    flip_stored_byte,
    random_graph,
)

#: The pipeline kernels that take a cache.
CACHE_KERNELS = ["blocks"]


def _signature(hierarchy):
    return {
        k: sorted(sorted(map(repr, c.members)) for c in cover)
        for k, cover in hierarchy.items()
    }


def _run(graph, cache, kernel="blocks", workers=1):
    tracer = Tracer()
    metrics = MetricsRegistry()
    cpm = LightweightParallelCPM(
        graph, workers=workers, kernel=kernel, cache=cache, tracer=tracer, metrics=metrics
    )
    hierarchy = cpm.run()
    tracer.close()
    return hierarchy, cpm, tracer, metrics


class TestCliqueCacheStore:
    def test_round_trip(self, tmp_path):
        cache = CliqueCache(tmp_path)
        assert cache.load("deadbeef", "blocks") is None
        cache.store("deadbeef", "blocks", {"answer": 42})
        assert cache.load("deadbeef", "blocks") == {"answer": 42}
        entry = cache.entry("deadbeef", "blocks")
        assert entry.load_phase("overlap") == {"answer": 42}
        assert entry.meta()["checksum"] == "deadbeef"

    def test_kernel_and_schema_partition_the_key(self, tmp_path):
        cache = CliqueCache(tmp_path)
        cache.store("abc", "blocks", 1)
        assert cache.load("abc", "set") is None
        entry = cache.entry("abc", "blocks")
        assert f"v{CHECKPOINT_SCHEMA_VERSION}" in entry.root.name
        # An entry whose META names an older schema is a miss.
        meta = entry.meta()
        entry.meta_path.write_text(json.dumps({**meta, "schema": 1}), encoding="utf-8")
        assert cache.load("abc", "blocks") is None

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = CliqueCache(tmp_path)
        path = cache.store("abc", "blocks", [1, 2, 3])
        path.write_bytes(path.read_bytes()[:-4])
        assert cache.load("abc", "blocks") is None

    @pytest.mark.parametrize("blob", UNREADABLE_PICKLES)
    def test_unreadable_entry_is_a_miss(self, tmp_path, blob):
        cache = CliqueCache(tmp_path)
        entry = cache.entry("abc", "blocks")
        entry.open(checksum="abc", kernel="blocks", resume=False)
        entry.phase_path("overlap").write_bytes(CORRUPT_PICKLES[blob])
        assert cache.load("abc", "blocks") is None

    def test_env_var_overrides_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert CliqueCache().root == tmp_path / "alt"


class TestCachedRuns:
    @pytest.mark.parametrize("kernel", ["blocks", "set"])
    def test_second_run_skips_enumeration_and_overlap(self, tmp_path, kernel):
        graph = ring_of_cliques(4, 5)
        cache = CliqueCache(tmp_path)
        if kernel == "set":
            # The serial reference oracle takes no cache, by name.
            with pytest.raises(ValueError, match="serial reference oracle .* a cache"):
                _run(graph, cache, kernel)
            assert not any(tmp_path.iterdir())
            return

        h1, cpm1, t1, m1 = _run(graph, cache, kernel)
        counters1 = m1.to_dict()["counters"]
        assert counters1["cache.misses"] == 1
        assert counters1["cache.writes"] == 1
        assert not cpm1.stats.cache_hit
        assert {"cpm.enumerate", "cpm.overlap"} <= {r.name for r in t1.records}

        h2, cpm2, t2, m2 = _run(graph, cache, kernel)
        counters2 = m2.to_dict()["counters"]
        assert counters2["cache.hits"] == 1
        assert "cache.writes" not in counters2
        assert cpm2.stats.cache_hit
        names2 = {r.name for r in t2.records}
        assert "cpm.enumerate" not in names2
        assert "cpm.overlap" not in names2
        assert {"cpm.percolate", "cpm.hierarchy"} <= names2
        run_span = next(r for r in t2.records if r.name == "cpm.run")
        assert run_span.attrs["cache"] == "hit"

        assert _signature(h1) == _signature(h2)
        assert h1.parent_labels == h2.parent_labels
        assert cpm1.stats.n_cliques == cpm2.stats.n_cliques
        assert cpm1.stats.n_overlap_pairs == cpm2.stats.n_overlap_pairs

    def test_cached_run_matches_uncached_on_random_graph(self, tmp_path):
        graph = random_graph(50, 0.25, seed=17)
        cache = CliqueCache(tmp_path)
        fresh, _, _, _ = _run(graph, None)
        _run(graph, cache)
        cached, cpm, _, _ = _run(graph, cache, workers=4)
        assert cpm.stats.cache_hit
        assert _signature(fresh) == _signature(cached)
        assert fresh.parent_labels == cached.parent_labels

    def test_retired_kernel_entry_is_a_miss(self, tmp_path):
        """An entry an earlier release filed under the pure-Python
        ``bitset`` kernel (``cpm-v<schema>-bitset-<checksum>``) is never
        probed: the run counts a miss and files its own entry."""
        graph = ring_of_cliques(4, 5)
        cache = CliqueCache(tmp_path)
        _run(graph, cache)
        checksum = graph_fingerprint(graph)["checksum"]
        payload = cache.load(checksum, "blocks")
        shutil.rmtree(cache.entry(checksum, "blocks").root)
        cache.store(checksum, "bitset", payload)
        hierarchy, cpm, _, metrics = _run(graph, cache)
        counters = metrics.to_dict()["counters"]
        assert not cpm.stats.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        assert _signature(hierarchy) == _signature(_run(graph, None)[0])
        assert cache.load(checksum, "blocks") is not None

    def test_different_graphs_do_not_collide(self, tmp_path):
        cache = CliqueCache(tmp_path)
        _run(ring_of_cliques(4, 5), cache)
        _, cpm, _, metrics = _run(ring_of_cliques(5, 4), cache)
        assert not cpm.stats.cache_hit
        assert metrics.to_dict()["counters"]["cache.misses"] == 1

    def test_session_fingerprints_inside_its_open(self, tmp_path):
        graph = ring_of_cliques(4, 5)
        cache = CliqueCache(tmp_path)
        tracer = Tracer()
        CPMSession(graph, cache=cache, tracer=tracer)
        tracer.close()
        records = {r.name: r for r in tracer.records}
        assert records["graph.fingerprint"].parent_id == records["incr.open"].span_id

    def test_session_never_creates_an_entry(self, tmp_path):
        metrics = MetricsRegistry()
        CPMSession(ring_of_cliques(4, 5), cache=CliqueCache(tmp_path), metrics=metrics)
        assert list(tmp_path.iterdir()) == []
        assert "cache.writes" not in metrics.to_dict()["counters"]

    def test_no_cache_emits_no_cache_counters(self):
        _, cpm, _, metrics = _run(ring_of_cliques(3, 4), None)
        counters = metrics.to_dict()["counters"]
        assert not any(name.startswith("cache.") for name in counters)
        assert not cpm.stats.cache_hit


@pytest.mark.parametrize("blob", WRONG_SHAPE_PICKLES)
class TestWrongShapeEntry:
    """An entry that unpickles to the wrong shape is a counted miss.

    The batch pipeline and the session share one shape check, so both
    recompute instead of raising on the payload.
    """

    @staticmethod
    def _planted(tmp_path, graph, blob):
        cache = CliqueCache(tmp_path)
        checksum = graph_fingerprint(graph)["checksum"]
        cache.store(checksum, "blocks", pickle.loads(CORRUPT_PICKLES[blob]))
        return cache

    def test_run_cpm_misses_and_repairs(self, tmp_path, blob):
        graph = ring_of_cliques(4, 5)
        cache = self._planted(tmp_path, graph, blob)
        hierarchy, cpm, _, metrics = _run(graph, cache)
        counters = metrics.to_dict()["counters"]
        assert not cpm.stats.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        assert _signature(hierarchy) == _signature(_run(graph, None)[0])
        # The recomputed run rewrote the entry, so the next run hits.
        assert _run(graph, cache)[1].stats.cache_hit

    def test_session_open_misses(self, tmp_path, blob):
        graph = ring_of_cliques(4, 5)
        cache = self._planted(tmp_path, graph, blob)
        metrics = MetricsRegistry()
        session = CPMSession(graph, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not session.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        fresh = LightweightParallelCPM(graph).run()
        assert hierarchy_to_dict(session.hierarchy) == hierarchy_to_dict(fresh)


def _refile(root, source: str, target: str) -> None:
    """Copy every cache entry filed under checksum ``source`` to ``target``."""
    for path in list(root.iterdir()):
        if source in path.name:
            dest = path.with_name(path.name.replace(source, target))
            (shutil.copytree if path.is_dir() else shutil.copy2)(path, dest)


def _entry_file(root, phase):
    """The ``phase`` file of a single-entry cache."""
    (path,) = root.glob(f"cpm-*/{phase}.pickle")
    return path


@pytest.mark.parametrize("kernel", CACHE_KERNELS)
class TestForeignEntry:
    """An entry filed under another graph's key is a counted miss.

    Graph A's entry is copied to graph B's checksum: the META identity
    check refuses it, so B recomputes instead of returning A's
    communities.
    """

    @pytest.fixture(scope="class")
    def graphs(self, tiny_dataset):
        return generate_topology(GeneratorConfig.tiny(), seed=42).graph, tiny_dataset.graph

    @staticmethod
    def _planted(tmp_path, graphs, kernel):
        graph_a, graph_b = graphs
        run_cpm(graph_a, kernel=kernel, cache=tmp_path)
        _refile(
            tmp_path,
            graph_fingerprint(graph_a)["checksum"],
            graph_fingerprint(graph_b)["checksum"],
        )
        return CliqueCache(tmp_path)

    def test_run_cpm_misses(self, tmp_path, graphs, kernel):
        cache = self._planted(tmp_path, graphs, kernel)
        metrics = MetricsRegistry()
        result = run_cpm(graphs[1], kernel=kernel, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not result.stats.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        fresh = run_cpm(graphs[1], kernel=kernel)
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(fresh.hierarchy)

    def test_session_open_misses(self, tmp_path, graphs, kernel):
        cache = self._planted(tmp_path, graphs, kernel)
        metrics = MetricsRegistry()
        session = CPMSession(graphs[1], kernel=kernel, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not session.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        fresh = run_cpm(graphs[1], kernel=kernel)
        assert hierarchy_to_dict(session.hierarchy) == hierarchy_to_dict(fresh.hierarchy)


@pytest.mark.parametrize("kernel", CACHE_KERNELS)
class TestFlippedByteEntry:
    """One flipped bit in an entry's phase file costs that phase, never
    the answer.

    The flipped file still unpickles to a well-shaped payload; only the
    frame digest tells it apart, so the run recomputes the phase (or
    reads it from the wire) instead of trusting it.
    """

    #: Where the flip lands in each phase's pickle: the wire's bytes for
    #: ``overlap``, the last int elsewhere (those payloads hold no bytes).
    IN_BYTES = {"enumerate": False, "overlap": True, "percolate": False}

    @classmethod
    def _flipped(cls, tmp_path, graph, kernel, phase):
        cache = CliqueCache(tmp_path)
        run_cpm(graph, kernel=kernel, cache=cache)
        entry = cache.entry(graph_fingerprint(graph)["checksum"], kernel)
        path = _entry_file(tmp_path, phase)
        flip_stored_byte(path, entry.load_phase(phase), in_bytes=cls.IN_BYTES[phase])
        assert entry.load_phase(phase) is None
        return cache, entry

    def test_run_cpm_misses_and_repairs(self, tmp_path, kernel):
        """A flipped ``enumerate`` file is a counted miss."""
        graph = ring_of_cliques(6, 6)
        cache, entry = self._flipped(tmp_path, graph, kernel, "enumerate")
        metrics = MetricsRegistry()
        result = run_cpm(graph, kernel=kernel, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not result.stats.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        fresh = run_cpm(graph, kernel=kernel)
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(fresh.hierarchy)
        assert result.stats.n_overlap_pairs == fresh.stats.n_overlap_pairs
        # The entry's percolate phase still covers every order.
        assert result.stats.resumed_phases == ("percolate",)
        # The recomputed run rewrote the entry, so the next run hits.
        assert entry.load_phase("enumerate") is not None
        assert run_cpm(graph, kernel=kernel, cache=cache).stats.cache_hit

    def test_session_open_misses(self, tmp_path, kernel):
        """A flipped ``overlap`` file is a miss for a session, which
        counts the wire over the entry's ``enumerate`` cliques and
        repairs the entry with it: the next session hits."""
        graph = ring_of_cliques(6, 6)
        cache = CliqueCache(tmp_path)
        run_cpm(graph, kernel=kernel, cache=cache)
        entry = cache.entry(graph_fingerprint(graph)["checksum"], kernel)
        before = entry.load_phase("overlap")
        flip_stored_byte(_entry_file(tmp_path, "overlap"), before, in_bytes=True)
        assert entry.load_phase("overlap") is None
        metrics = MetricsRegistry()
        session = CPMSession(graph, kernel=kernel, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not session.cache_hit
        assert counters["cache.misses"] == 1 and "cache.hits" not in counters
        assert counters["cache.writes"] == 1 and "cache.write_errors" not in counters
        fresh = run_cpm(graph, kernel=kernel)
        assert hierarchy_to_dict(session.hierarchy) == hierarchy_to_dict(fresh.hierarchy)
        repaired = entry.load_phase("overlap")
        assert repaired["cliques"] == before["cliques"]
        assert repaired["wire"] == before["wire"]
        assert repaired["counted_pairs"] == before["counted_pairs"]
        again = CPMSession(graph, kernel=kernel, cache=cache)
        assert again.cache_hit
        assert hierarchy_to_dict(again.hierarchy) == hierarchy_to_dict(fresh.hierarchy)

    def test_session_repair_write_error_is_counted(self, tmp_path, kernel, monkeypatch):
        """An unwritable entry costs the repair, never the open."""
        graph = ring_of_cliques(6, 6)
        cache, entry = self._flipped(tmp_path, graph, kernel, "overlap")

        def refuse(*_args, **_kwargs):
            raise OSError("read-only cache")

        monkeypatch.setattr(type(entry), "store_phase", refuse)
        metrics = MetricsRegistry()
        session = CPMSession(graph, kernel=kernel, cache=cache, metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert not session.cache_hit
        assert counters["cache.write_errors"] == 1 and "cache.writes" not in counters
        fresh = run_cpm(graph, kernel=kernel)
        assert hierarchy_to_dict(session.hierarchy) == hierarchy_to_dict(fresh.hierarchy)

    @pytest.mark.parametrize("phase", ["overlap", "percolate"])
    def test_hit_survives_a_flipped_phase(self, tmp_path, kernel, phase):
        """A flipped ``percolate`` is a hit that percolates again from the
        wire and rewrites the file; a flipped ``overlap`` is a hit that
        never reads it."""
        graph = ring_of_cliques(6, 6)
        cache, entry = self._flipped(tmp_path, graph, kernel, phase)
        tracer, metrics = Tracer(), MetricsRegistry()
        result = run_cpm(graph, kernel=kernel, cache=cache, tracer=tracer, metrics=metrics)
        tracer.close()
        counters = metrics.to_dict()["counters"]
        fresh = run_cpm(graph, kernel=kernel)
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(fresh.hierarchy)
        assert result.stats.n_overlap_pairs == fresh.stats.n_overlap_pairs
        assert result.stats.cache_hit and counters["cache.hits"] == 1
        assert "cpm.overlap" not in {r.name for r in tracer.records}
        if phase == "overlap":
            assert result.stats.resumed_phases == ("enumerate", "percolate")
            assert "cache.writes" not in counters and "percolate.union_merges" not in counters
        else:
            assert result.stats.resumed_phases == ("enumerate", "overlap")
            assert counters["cache.writes"] == 1 and counters["percolate.union_merges"] > 0
            assert entry.load_phase("percolate") is not None


class TestHitIsAResume:
    """A cache hit loads only what the remaining work needs."""

    def test_complete_entry_never_reads_the_wire(self, tmp_path):
        graph = ring_of_cliques(6, 6)
        cache = CliqueCache(tmp_path)
        cold, _, _, _ = _run(graph, cache)
        _entry_file(tmp_path, "overlap").unlink()
        warm, cpm, tracer, metrics = _run(graph, cache)
        counters = metrics.to_dict()["counters"]
        assert cpm.stats.cache_hit and counters["cache.hits"] == 1
        assert hierarchy_to_dict(warm) == hierarchy_to_dict(cold)
        assert "cpm.overlap" not in {r.name for r in tracer.records}
        assert "percolate.union_merges" not in counters
        assert cpm.stats.resumed_phases == ("enumerate", "percolate")
        assert cpm.stats.n_overlap_pairs == _run(graph, None)[1].stats.n_overlap_pairs

    def test_partial_orders_are_completed(self, tmp_path):
        graph = random_graph(40, 0.3, seed=5)
        cache = CliqueCache(tmp_path)
        run_cpm(graph, k_range=(2, 4), cache=cache)
        result = run_cpm(graph, cache=cache)
        fresh = run_cpm(graph)
        assert result.stats.cache_hit
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(fresh.hierarchy)
        entry = cache.entry(graph_fingerprint(graph)["checksum"], "blocks")
        percolated = entry.load_phase("percolate")
        assert sorted(percolated["groups"]) == list(range(2, fresh.stats.max_clique_size + 1))
        assert percolated["counted_pairs"] == fresh.stats.n_overlap_pairs

    def test_cache_with_checkpoint_resume(self, tmp_path):
        """A cache and a resumed checkpoint in one run, byte-identical."""
        from repro.runner import CheckpointStore, FaultPlan, InjectedFault

        graph = random_graph(40, 0.3, seed=9)
        expected = hierarchy_to_dict(run_cpm(graph).hierarchy)
        cache = CliqueCache(tmp_path / "cache")
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(InjectedFault):
            run_cpm(
                graph, checkpoint=store, fault_plan=FaultPlan.parse("driver:after=overlap:raise")
            )
        resumed = run_cpm(graph, cache=cache, checkpoint=store, resume=True)
        assert hierarchy_to_dict(resumed.hierarchy) == expected
        assert not resumed.stats.cache_hit
        assert resumed.stats.resumed_phases == ("enumerate", "overlap")
        # Both stores now hold every phase: each alone reproduces the run.
        again = run_cpm(graph, cache=cache, checkpoint=store, resume=True)
        assert hierarchy_to_dict(again.hierarchy) == expected
        assert again.stats.cache_hit
        assert again.stats.resumed_phases == ("enumerate", "percolate")
        alone = LightweightParallelCPM(graph, checkpoint=store, resume=True)
        assert hierarchy_to_dict(alone.run()) == expected
        assert alone.stats.resumed_phases == ("enumerate", "percolate")


class TestUnwritableCache:
    """A cache location that cannot be written fails no run.

    The write error is counted in ``cache.write_errors`` and the run
    returns the result it computed.
    """

    @pytest.fixture()
    def blocked(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory", encoding="utf-8")
        return blocker / "sub"

    def test_run_cpm_returns_its_result(self, blocked):
        graph = ring_of_cliques(4, 5)
        metrics = MetricsRegistry()
        result = run_cpm(graph, cache=str(blocked), metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert counters["cache.write_errors"] == 1
        assert counters["cache.misses"] == 1 and "cache.writes" not in counters
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(
            run_cpm(graph).hierarchy
        )

    def test_first_phase_write_error_stops_the_entry_writes(self, tmp_path, monkeypatch):
        """Three phases to write, one counted error: the first failure
        ends the run's writes to the entry."""
        from repro.runner import CheckpointStore

        writes = []

        def failing(store, phase, payload):
            writes.append(phase)
            raise OSError("disk full")

        monkeypatch.setattr(CheckpointStore, "store_phase", failing)
        graph = ring_of_cliques(4, 5)
        metrics = MetricsRegistry()
        result = run_cpm(graph, cache=str(tmp_path), metrics=metrics)
        counters = metrics.to_dict()["counters"]
        assert writes == ["enumerate"]
        assert counters["cache.write_errors"] == 1 and "cache.writes" not in counters
        monkeypatch.undo()
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(
            run_cpm(graph).hierarchy
        )

    def test_cli_prints_the_communities(
        self, blocked, tmp_path, monkeypatch, tiny_dataset, capsys
    ):
        from repro.cli import main

        bundle = tmp_path / "bundle"
        tiny_dataset.save(bundle)
        manifest = tmp_path / "m.json"
        args = ["communities", str(bundle), "--max-k", "5", "--members"]
        assert main(args + ["--metrics", str(manifest)]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocked))
        assert main(args + ["--cache", "--metrics", str(manifest)]) == 0
        assert capsys.readouterr().out == expected
        counters = RunManifest.load(manifest).metrics["counters"]
        assert counters["cache.write_errors"] == 1


class TestCacheCLI:
    @pytest.fixture()
    def saved_dataset(self, tmp_path_factory, tiny_dataset):
        path = tmp_path_factory.mktemp("cache-cli") / "bundle"
        tiny_dataset.save(path)
        return str(path)

    def test_cache_flag_round_trip(self, tmp_path, monkeypatch, saved_dataset, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        manifest1 = tmp_path / "m1.json"
        manifest2 = tmp_path / "m2.json"
        args = ["communities", saved_dataset, "--max-k", "5", "--cache"]

        assert main(args + ["--metrics", str(manifest1)]) == 0
        first = capsys.readouterr().out
        assert "clique cache: hit" not in first
        loaded1 = RunManifest.load(manifest1)
        assert loaded1.metrics["counters"]["cache.misses"] == 1
        assert loaded1.span("cpm.enumerate") is not None

        assert main(args + ["--metrics", str(manifest2)]) == 0
        second = capsys.readouterr().out
        assert "clique cache: hit" in second
        loaded2 = RunManifest.load(manifest2)
        assert loaded2.metrics["counters"]["cache.hits"] == 1
        assert loaded2.span("cpm.enumerate") is None
        assert loaded2.span("cpm.overlap") is None
        assert loaded2.span("cpm.percolate") is not None
        assert loaded2.config["cache"] is True

    def test_manifest_reuses_the_run_fingerprint(
        self, tmp_path, monkeypatch, saved_dataset, capsys
    ):
        """The graph is fingerprinted once per run, inside ``cpm.run``,
        and ``--metrics`` stamps that fingerprint instead of hashing the
        graph again."""
        import repro.obs.manifest as manifest_module
        from repro.cli import main
        from repro.topology.dataset import ASDataset

        real = manifest_module.graph_fingerprint
        manifest_calls = []
        monkeypatch.setattr(
            manifest_module, "graph_fingerprint",
            lambda graph: manifest_calls.append(graph) or real(graph),
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "m.json"
        args = ["communities", saved_dataset, "--max-k", "5", "--cache", "--metrics", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        manifest = RunManifest.load(path)
        assert manifest_calls == []
        assert manifest.fingerprint == real(ASDataset.load(saved_dataset).graph)
        (span,) = [r for r in manifest.spans if r["name"] == "graph.fingerprint"]
        assert span["parent_id"] == manifest.span("cpm.run")["span_id"]

    def test_no_cache_restores_default_behaviour(
        self, tmp_path, monkeypatch, saved_dataset, capsys
    ):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        manifest = tmp_path / "m.json"
        code = main(
            [
                "communities",
                saved_dataset,
                "--max-k",
                "5",
                "--no-cache",
                "--metrics",
                str(manifest),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(manifest.read_text())
        assert not any(
            name.startswith("cache.") for name in payload["metrics"]["counters"]
        )
        assert not cache_dir.exists()
