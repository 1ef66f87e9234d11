"""Tests for the stable programmatic facade (repro.api)."""

import json

import pytest

import repro
from repro.api import CPMResult, load_result, run_cpm, save_result
from repro.core.lightweight import LightweightParallelCPM
from repro.core.serialize import hierarchy_to_dict, load_hierarchy, save_hierarchy
from repro.graph import ring_of_cliques
from repro.runner import CheckpointStore


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 5)


@pytest.fixture(scope="module")
def result(graph):
    return run_cpm(graph)


class TestRunCpm:
    def test_matches_direct_engine_run(self, graph, result):
        direct = LightweightParallelCPM(graph).run()
        assert hierarchy_to_dict(result.hierarchy) == hierarchy_to_dict(direct)

    def test_k_range_tuple(self, graph):
        windowed = run_cpm(graph, k_range=(3, 4))
        assert windowed.orders == [3, 4]

    def test_k_range_bare_int_extracts_single_order(self, graph):
        single = run_cpm(graph, k_range=4)
        assert single.orders == [4]

    def test_result_indexing_delegates_to_hierarchy(self, result):
        assert 4 in result
        assert len(result[4]) == 4  # the four pentagon cliques
        assert 99 not in result

    def test_stats_populated(self, result):
        assert result.stats.n_cliques >= 4
        assert result.stats.kernel == "blocks"
        assert result.degraded is False

    def test_kernel_validation(self, graph):
        with pytest.raises(ValueError, match="kernel"):
            run_cpm(graph, kernel="bogus")

    def test_set_kernel_equivalent(self, graph, result):
        set_result = run_cpm(graph, kernel="set")
        assert hierarchy_to_dict(set_result.hierarchy) == hierarchy_to_dict(result.hierarchy)

    def test_checkpoint_accepts_path(self, graph, tmp_path, result):
        ckpt_dir = tmp_path / "ckpt"
        checkpointed = run_cpm(graph, checkpoint=ckpt_dir)
        assert hierarchy_to_dict(checkpointed.hierarchy) == hierarchy_to_dict(result.hierarchy)
        assert CheckpointStore(ckpt_dir).has_phase("percolate")

    def test_cache_accepts_path(self, graph, tmp_path, result):
        cached = run_cpm(graph, cache=tmp_path / "cache")
        again = run_cpm(graph, cache=tmp_path / "cache")
        assert again.stats.cache_hit
        assert hierarchy_to_dict(again.hierarchy) == hierarchy_to_dict(cached.hierarchy)


class TestRemovedSpellings:
    """The pre-facade keyword shims are gone: plain TypeError now."""

    @pytest.mark.parametrize("kwargs", [
        {"min_k": 3},
        {"max_k": 4},
        {"n_workers": 2},
        {"use_cache": True},
        {"granularity": 3},
    ])
    def test_removed_kwarg_is_a_type_error(self, graph, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_cpm(graph, **kwargs)

    def test_replacement_spellings_work(self, graph):
        result = run_cpm(graph, k_range=(3, 4), workers=1)
        assert result.orders == [3, 4]
        assert result.stats.workers == 1


class TestResultPersistence:
    def test_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert hierarchy_to_dict(loaded.hierarchy) == hierarchy_to_dict(result.hierarchy)
        assert loaded.stats.n_cliques == result.stats.n_cliques
        assert loaded.stats.kernel == result.stats.kernel
        assert loaded.stats.size_histogram == result.stats.size_histogram
        assert loaded.stats.resumed_phases == result.stats.resumed_phases

    def test_file_loads_with_legacy_loader(self, result, tmp_path):
        """save_result files are a superset of the save_hierarchy format."""
        path = tmp_path / "result.json"
        save_result(result, path)
        legacy = load_hierarchy(path)
        assert hierarchy_to_dict(legacy) == hierarchy_to_dict(result.hierarchy)

    def test_legacy_file_loads_with_default_stats(self, result, tmp_path):
        path = tmp_path / "legacy.json"
        save_hierarchy(result.hierarchy, path)
        loaded = load_result(path)
        assert hierarchy_to_dict(loaded.hierarchy) == hierarchy_to_dict(result.hierarchy)
        assert loaded.stats.n_cliques == 0  # defaults: no stats block

    def test_stats_block_is_json(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["stats"]["kernel"] == "blocks"

    def test_to_dict_is_versioned(self, result):
        from repro.api import RESULT_SCHEMA_VERSION

        document = result.to_dict()
        assert document["result_schema"] == RESULT_SCHEMA_VERSION
        rebuilt = CPMResult.from_dict(document)
        assert hierarchy_to_dict(rebuilt.hierarchy) == hierarchy_to_dict(result.hierarchy)
        assert rebuilt.stats == result.stats

    def test_pre_versioning_document_still_loads(self, result):
        document = result.to_dict()
        del document["result_schema"]
        rebuilt = CPMResult.from_dict(document)
        assert rebuilt.stats.n_cliques == result.stats.n_cliques

    def test_future_schema_is_rejected(self, result, tmp_path):
        document = result.to_dict()
        document["result_schema"] = 999
        with pytest.raises(ValueError, match="schema 999"):
            CPMResult.from_dict(document)
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="upgrade repro"):
            load_result(path)


class TestTopLevelExports:
    def test_facade_names_exported(self):
        assert repro.run_cpm is run_cpm
        assert repro.CPMResult is CPMResult
        assert repro.save_result is save_result
        assert repro.load_result is load_result
        for name in ("run_cpm", "CPMResult", "save_result", "load_result"):
            assert name in repro.__all__
