"""Sharded pipeline: planning, shard-count invariance, resilience.

The contract of :mod:`repro.shard` is *byte-identity*: for every
pipeline kernel, running with any shard count — serial dispatch or a
worker pool, interrupted and resumed mid-shard, or degraded by worker
kills — must produce the same hierarchy document, the same community
tree and the same packed query artifact as the single-process
pipeline.  The matrix also pins which implementation ran (only
enumeration fans out, at any shard count), and that the serial set
oracle refuses every fanned-out cell by name.  These
tests pin that contract on a ring-of-cliques oracle small enough to
sweep every combination.
"""

import json

import pytest

from repro.api import build_query_artifact, run_cpm
from repro.core.lightweight import KERNELS, LightweightParallelCPM
from repro.core.serialize import hierarchy_to_dict
from repro.core.tree import CommunityTree
from repro.graph import ring_of_cliques
from repro.obs import MetricsRegistry, Tracer
from repro.obs.inspect import diff_manifests
from repro.runner import CheckpointStore, FaultPlan
from repro.shard import ShardPlan, plan_shards, resolve_shards

from .conftest import random_graph

#: Every kernel.
KERNEL_PARAMS = list(KERNELS)
#: The pipeline kernels: the ones that take workers and shards.
INTEGER_KERNELS = [kernel for kernel in KERNELS if kernel != "set"]


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(6, 6)


@pytest.fixture(scope="module")
def baselines(graph):
    """Serial (shards=1, workers=1) documents, one per kernel."""
    return {
        kernel: hierarchy_to_dict(LightweightParallelCPM(graph, kernel=kernel).run())
        for kernel in KERNELS
    }


class TestResolveShards:
    def test_auto_matches_workers(self):
        assert resolve_shards("auto", 4) == 4
        assert resolve_shards("auto", 1) == 1
        assert resolve_shards("AUTO", 0) == 1

    def test_integer_strings_parse(self):
        assert resolve_shards("3", 8) == 3
        assert resolve_shards(" 2 ", 1) == 2

    def test_integers_pass_through(self):
        assert resolve_shards(5, 1) == 5

    @pytest.mark.parametrize("bad", [0, -1, "0", "none", "1.5"])
    def test_invalid_requests_raise(self, bad):
        with pytest.raises(ValueError):
            resolve_shards(bad, 4)


class TestPlanShards:
    def test_every_vertex_owned_exactly_once(self):
        degrees = [5, 0, 3, 3, 1, 8, 2, 0, 4, 1]
        plan = plan_shards(degrees, 3)
        owned = [v for shard in plan.owners for v in shard]
        assert sorted(owned) == list(range(len(degrees)))
        assert plan.n_shards == 3
        assert plan.n_vertices == len(degrees)

    def test_owners_ascend_within_each_shard(self):
        plan = plan_shards([3, 1, 4, 1, 5, 9, 2, 6], 2)
        for shard in plan.owners:
            assert list(shard) == sorted(shard)

    def test_lpt_balances_uniform_costs(self):
        # 12 equal-cost vertices over 4 shards: a level plan exists and
        # LPT must find it.
        plan = plan_shards([2] * 12, 4)
        assert plan.imbalance() == 1.0
        assert {len(shard) for shard in plan.owners} == {3}

    def test_costs_are_superlinear_in_forward_degree(self):
        # One heavyweight vertex must not drag its shard's cheap
        # vertices along: LPT places it alone when the rest balance.
        plan = plan_shards([10, 1, 1, 1, 1], 2)
        heavy_shard = next(s for s in plan.owners if 0 in s)
        assert heavy_shard == (0,)

    def test_more_shards_than_vertices_clamps(self):
        plan = plan_shards([1, 1], 8)
        assert plan.n_shards == 2

    def test_empty_graph_plans_one_empty_shard(self):
        plan = plan_shards([], 4)
        assert plan.n_shards == 1
        assert plan.owners == ((),)
        assert plan.imbalance() == 1.0

    def test_imbalance_reports_max_over_mean(self):
        plan = ShardPlan(n_shards=2, owners=((0,), (1,)), costs=(3, 1))
        assert plan.imbalance() == pytest.approx(1.5)


def _run_cell(graph, kernel, **options):
    """Run one kernel x shards x workers cell of the matrix, traced.

    Returns ``(document, cpm, span_names)``.  The set kernel is the
    serial reference oracle: for a cell that would fan it out (a pool
    or more than one shard) this asserts the named refusal instead and
    returns ``None``.
    """
    workers = options.get("workers", 1)
    shards = resolve_shards(options.get("shards", "auto"), workers)
    if kernel == "set" and (workers > 1 or shards > 1):
        with pytest.raises(ValueError, match="kernel 'set' is the serial reference oracle"):
            LightweightParallelCPM(graph, kernel=kernel, **options)
        return None
    tracer = Tracer()
    cpm = LightweightParallelCPM(graph, kernel=kernel, tracer=tracer, **options)
    document = hierarchy_to_dict(cpm.run())
    tracer.close()
    return document, cpm, {r.name for r in tracer.records}


def _assert_implementation(kernel, names):
    """The phases ran the kernel's implementation, not another's.

    Only enumeration fans out: no kernel counts overlaps or pre-reduces
    percolation buckets in shard tasks.
    """
    assert ("cpm.blocks.count" in names) == (kernel == "blocks")
    assert "worker.shard.count" not in names
    assert "shard.reduce" not in names


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
@pytest.mark.parametrize("shards", [1, 2, 4, "auto"])
class TestShardCountInvariance:
    def test_hierarchy_is_byte_identical(self, graph, baselines, kernel, shards):
        cell = _run_cell(graph, kernel, shards=shards)
        if cell is None:
            return
        document, cpm, names = cell
        assert document == baselines[kernel]
        _assert_implementation(kernel, names)

    def test_pool_execution_is_byte_identical(self, graph, baselines, kernel, shards):
        cell = _run_cell(graph, kernel, workers=2, shards=shards)
        if cell is None:
            return
        document, cpm, names = cell
        assert document == baselines[kernel]
        assert not cpm.stats.degraded
        _assert_implementation(kernel, names)


class TestShardedEnumeration:
    """Shard workers run the driver's enumerator, tuple for tuple."""

    @pytest.fixture(scope="class")
    def dense_graph(self):
        return random_graph(40, 0.5, seed=5)

    @staticmethod
    def _dense(graph, kernel, path, **options):
        store = CheckpointStore(path)
        LightweightParallelCPM(graph, kernel=kernel, checkpoint=store, **options).run()
        return store.load_phase("enumerate")["dense"]

    @pytest.mark.parametrize("kernel", INTEGER_KERNELS)
    def test_pool_shards_emit_the_serial_tuples(self, dense_graph, kernel, tmp_path):
        """Same dense tuples in the same order, member order included."""
        serial = self._dense(dense_graph, kernel, tmp_path / "serial")
        for shards in (2, 4):
            sharded = self._dense(
                dense_graph, kernel, tmp_path / str(shards), workers=2, shards=shards
            )
            assert sharded == serial


class TestOverlapWire:
    """Overlap counting is serial, so the wire cannot depend on shards."""

    @pytest.mark.parametrize("kernel", INTEGER_KERNELS)
    def test_wire_checksum_is_shard_invariant(self, kernel, tmp_path):
        graph = random_graph(40, 0.3, seed=7)
        wires = []
        for shards in (1, 2, 4):
            store = CheckpointStore(tmp_path / str(shards))
            LightweightParallelCPM(
                graph, kernel=kernel, shards=shards, checkpoint=store
            ).run()
            wires.append(store.load_phase("overlap")["wire"])
        assert wires[0].n_pairs > 0
        assert wires[1:] == [wires[0], wires[0]]


class TestWorkerUtilisation:
    """``worker.max_rss_kib`` samples pool shard tasks, never the driver.

    Overlap counting and one-worker shard tasks run in the driver, so
    they report no worker RSS; the ``cpm.overlap`` span times the count.
    """

    @pytest.mark.parametrize(
        "kernel, shards, workers",
        [
            pytest.param("blocks", 2, 2, id="blocks-numpy"),
            pytest.param("blocks", 1, 2, id="blocks-one-chunk"),
            pytest.param("blocks", 2, 1, id="blocks-in-driver-shards"),
        ],
    )
    def test_in_driver_counting_reads_above_half(
        self, tiny_dataset, kernel, shards, workers
    ):
        metrics = MetricsRegistry()
        cpm = LightweightParallelCPM(
            tiny_dataset.graph, kernel=kernel, workers=workers, shards=shards, metrics=metrics
        )
        cpm.run()
        registry = metrics.to_dict()
        rss = registry["histograms"].get("worker.max_rss_kib", {"count": 0})
        assert rss["count"] == (shards if workers > 1 and shards > 1 else 0)
        assert "overlap.worker_utilisation" not in registry["gauges"]


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
class TestDownstreamArtifacts:
    """Tree and query artifact built from a sharded run match serial.

    The set oracle cannot shard, so its leg checks the oracle's
    artifacts against the sharded blocks pipeline's instead.
    """

    def test_tree_and_artifact_bytes_match(self, graph, kernel):
        serial = run_cpm(graph, kernel=kernel)
        sharded = run_cpm(graph, kernel="blocks" if kernel == "set" else kernel, shards=4)
        assert CommunityTree(serial.hierarchy).to_dot() == (
            CommunityTree(sharded.hierarchy).to_dot()
        )
        a = build_query_artifact(serial, graph)
        b = build_query_artifact(sharded, graph)
        try:
            assert a.to_bytes() == b.to_bytes()
        finally:
            a.close()
            b.close()


class TestShardResume:
    def _sharded(self, graph, store, *, resume=False, shards=4):
        return LightweightParallelCPM(
            graph, kernel="blocks", shards=shards, checkpoint=store, resume=resume
        )

    def test_mid_shard_checkpoint_resumes_byte_identical(
        self, graph, baselines, tmp_path
    ):
        """A shard_enumerate checkpoint holding only *some* shards'
        results is completed, not recomputed from scratch."""
        store = CheckpointStore(tmp_path / "ckpt")
        self._sharded(graph, store).run()
        partial = store.load_phase("shard_enumerate")
        assert partial["signature"] == 4 and len(partial["done"]) == 4
        partial["done"] = dict(sorted(partial["done"].items())[:2])
        store.store_phase("shard_enumerate", partial)
        for phase in ("enumerate", "overlap", "percolate"):
            store.phase_path(phase).unlink(missing_ok=True)

        resumed = self._sharded(graph, store, resume=True)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert "shard_enumerate" in resumed.stats.resumed_phases

    def test_signature_mismatch_discards_partials(self, graph, baselines, tmp_path):
        """Resuming under a different shard count must not trust the
        old partition's partial results."""
        store = CheckpointStore(tmp_path / "ckpt")
        self._sharded(graph, store).run()
        for phase in ("enumerate", "overlap", "percolate"):
            store.phase_path(phase).unlink(missing_ok=True)
        resumed = self._sharded(graph, store, resume=True, shards=2)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert "shard_enumerate" not in resumed.stats.resumed_phases

    def test_serial_and_sharded_share_assembled_checkpoints(
        self, graph, baselines, tmp_path
    ):
        """Assembled phases are stored unprefixed, so a serial run can
        resume from a sharded run's checkpoint and vice versa."""
        store = CheckpointStore(tmp_path / "ckpt")
        self._sharded(graph, store).run()
        resumed = LightweightParallelCPM(
            graph, kernel="blocks", checkpoint=store, resume=True
        )
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert "enumerate" in resumed.stats.resumed_phases


class TestShardFaults:
    def test_worker_kill_retries_byte_identical(self, graph, baselines):
        """Killing shard 0's worker once heals under retry."""
        plan = FaultPlan.parse("enumerate:shard=0:kill:times=1")
        cpm = LightweightParallelCPM(
            graph, kernel="blocks", workers=2, shards=4, fault_plan=plan
        )
        assert hierarchy_to_dict(cpm.run()) == baselines["blocks"]
        assert not cpm.stats.degraded

    def test_permanent_kill_degrades_byte_identical(self, graph, baselines):
        """A permanently killed shard falls back to in-driver execution
        — degraded, but the output does not change."""
        plan = FaultPlan.parse("enumerate:shard=1:kill")
        cpm = LightweightParallelCPM(
            graph, kernel="blocks", workers=2, shards=4, fault_plan=plan
        )
        assert hierarchy_to_dict(cpm.run()) == baselines["blocks"]
        assert cpm.stats.degraded


class TestObsDiffShards:
    def test_shards_mismatch_warns_explicitly(self):
        base = {"settings": {"shards": 1}, "metrics": {"counters": {}}}
        fresh = {"settings": {"shards": 4}, "metrics": {"counters": {}}}
        out = diff_manifests(base, fresh)
        assert "shards mismatch" in out
        assert "not a regression" in out

    def test_matching_shards_do_not_warn(self):
        base = {"settings": {"shards": 4}, "metrics": {"counters": {}}}
        fresh = {"settings": {"shards": 4}, "metrics": {"counters": {}}}
        assert "shards mismatch" not in diff_manifests(base, fresh)


class TestCLISettings:
    @pytest.fixture(scope="class")
    def saved_dataset(self, tmp_path_factory, tiny_dataset):
        path = tmp_path_factory.mktemp("data") / "bundle"
        tiny_dataset.save(path)
        return str(path)

    def test_manifest_records_resolved_shards(self, saved_dataset, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "communities",
                saved_dataset,
                "--shards",
                "2",
                "--metrics",
                str(manifest_path),
            ]
        )
        assert code == 0
        settings = json.loads(manifest_path.read_text())["settings"]
        assert settings["shards"] == 2

    def test_auto_shards_resolve_to_worker_count(self, saved_dataset, tmp_path, capsys):
        from repro.cli import main

        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "communities",
                saved_dataset,
                "--shards",
                "auto",
                "--workers",
                "2",
                "--metrics",
                str(manifest_path),
            ]
        )
        assert code == 0
        settings = json.loads(manifest_path.read_text())["settings"]
        assert settings["shards"] == 2
