"""Tests for the on-disk clique/overlap cache.

The contract: a second run over the same graph skips enumeration +
overlap entirely (no ``cpm.enumerate``/``cpm.overlap`` spans, a
``cache.hits`` counter instead) while producing the identical
hierarchy; a different graph, kernel, or schema version misses; torn
entries degrade to misses.
"""

import json
import pickle

import pytest

from repro.core import CliqueCache
from repro.core.cache import CACHE_SCHEMA_VERSION, default_cache_dir
from repro.core.lightweight import LightweightParallelCPM
from repro.core.serialize import hierarchy_to_dict
from repro.graph import ring_of_cliques
from repro.incremental import CPMSession
from repro.obs import MetricsRegistry, RunManifest, Tracer
from repro.obs.manifest import graph_fingerprint

from .conftest import CORRUPT_PICKLES, UNREADABLE_PICKLES, WRONG_SHAPE_PICKLES, random_graph


def _signature(hierarchy):
    return {
        k: sorted(sorted(map(repr, c.members)) for c in cover)
        for k, cover in hierarchy.items()
    }


def _run(graph, cache, kernel="bitset", workers=1):
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
        assert cache.load("deadbeef", "bitset") is None
        cache.store("deadbeef", "bitset", {"answer": 42})
        assert cache.load("deadbeef", "bitset") == {"answer": 42}

    def test_kernel_and_schema_partition_the_key(self, tmp_path):
        cache = CliqueCache(tmp_path)
        cache.store("abc", "bitset", 1)
        assert cache.load("abc", "set") is None
        assert f"v{CACHE_SCHEMA_VERSION}" in cache.path_for("abc", "bitset").name

    def test_torn_entry_is_a_miss(self, tmp_path):
        cache = CliqueCache(tmp_path)
        cache.store("abc", "bitset", [1, 2, 3])
        path = cache.path_for("abc", "bitset")
        path.write_bytes(pickle.dumps([1, 2, 3])[:-4])
        assert cache.load("abc", "bitset") is None

    @pytest.mark.parametrize("blob", UNREADABLE_PICKLES)
    def test_unreadable_entry_is_a_miss(self, tmp_path, blob):
        cache = CliqueCache(tmp_path)
        cache.path_for("abc", "bitset").write_bytes(CORRUPT_PICKLES[blob])
        assert cache.load("abc", "bitset") is None

    def test_env_var_overrides_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert CliqueCache().root == tmp_path / "alt"


class TestCachedRuns:
    @pytest.mark.parametrize("kernel", ["bitset", "set"])
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

    def test_different_graphs_do_not_collide(self, tmp_path):
        cache = CliqueCache(tmp_path)
        _run(ring_of_cliques(4, 5), cache)
        _, cpm, _, metrics = _run(ring_of_cliques(5, 4), cache)
        assert not cpm.stats.cache_hit
        assert metrics.to_dict()["counters"]["cache.misses"] == 1

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
        cache.path_for(checksum, "bitset").write_bytes(CORRUPT_PICKLES[blob])
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
