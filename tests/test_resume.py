"""Resume semantics: interrupted runs finish byte-identical to clean ones.

The tentpole guarantee of the resilient runner: for every phase at
which a run can die, restarting with ``resume=True`` from the same
checkpoint directory produces a hierarchy *byte-identical* (same
serialised document) to an uninterrupted run — on every pipeline
kernel, serial and sharded.  Interruptions are injected
deterministically with ``driver:after=<phase>:raise`` fault rules, so
each test dies exactly once at a known boundary.  The set kernel is the
serial reference oracle and takes no checkpoint: its legs pin that
refusal by name.
"""

import pickle

import pytest

from repro.core.lightweight import KERNELS, LightweightParallelCPM
from repro.core.serialize import hierarchy_to_dict
from repro.graph import ring_of_cliques
from repro.runner import CheckpointStore, FaultPlan, InjectedFault

from .conftest import CORRUPT_PICKLES, WRONG_SHAPE_PICKLES, flip_stored_byte

#: Every kernel.
KERNEL_PARAMS = list(KERNELS)

#: The kernels that take a checkpoint (the set oracle does not).
PIPELINE_PARAMS = [kernel for kernel in KERNELS if kernel != "set"]


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(6, 6)


@pytest.fixture(scope="module")
def baselines(graph):
    """Uninterrupted-run documents, one per kernel."""
    return {
        kernel: hierarchy_to_dict(LightweightParallelCPM(graph, kernel=kernel).run())
        for kernel in KERNELS
    }


def _interrupt_then_resume(graph, kernel, tmp_path, phase, workers=1, shards="auto"):
    """Kill a run after ``phase``, then resume it; returns (doc, stats)."""
    store = CheckpointStore(tmp_path / "ckpt")
    plan = FaultPlan.parse(f"driver:after={phase}:raise")
    interrupted = LightweightParallelCPM(
        graph,
        kernel=kernel,
        workers=workers,
        shards=shards,
        checkpoint=store,
        fault_plan=plan,
    )
    with pytest.raises(InjectedFault):
        interrupted.run()
    resumed = LightweightParallelCPM(
        graph, kernel=kernel, workers=workers, shards=shards, checkpoint=store, resume=True
    )
    return hierarchy_to_dict(resumed.run()), resumed.stats


def _oracle_refuses_checkpoint(graph, kernel, tmp_path) -> bool:
    """For the set oracle, assert it refuses a checkpoint by name.

    Returns True when ``kernel`` is the oracle (the caller's resume
    scenario does not apply to it), False for the pipeline kernels.
    """
    if kernel != "set":
        return False
    with pytest.raises(ValueError, match="serial reference oracle .* a checkpoint"):
        LightweightParallelCPM(
            graph, kernel=kernel, checkpoint=CheckpointStore(tmp_path / "ckpt")
        )
    return True


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
@pytest.mark.parametrize("phase", ["enumerate", "overlap", "percolate"])
class TestResumeIdentity:
    def test_resume_is_byte_identical(self, graph, baselines, tmp_path, kernel, phase):
        if _oracle_refuses_checkpoint(graph, kernel, tmp_path):
            return
        document, stats = _interrupt_then_resume(graph, kernel, tmp_path, phase)
        assert document == baselines[kernel]
        assert phase in stats.resumed_phases

    def test_resumed_phases_cover_completed_prefix(
        self, graph, baselines, tmp_path, kernel, phase
    ):
        if _oracle_refuses_checkpoint(graph, kernel, tmp_path):
            return
        _, stats = _interrupt_then_resume(graph, kernel, tmp_path, phase)
        pipeline = ("enumerate", "overlap", "percolate")
        expected = pipeline[: pipeline.index(phase) + 1]
        if phase == "percolate":
            # Every order is done, so the wire is never loaded.
            expected = ("enumerate", "percolate")
        assert stats.resumed_phases == expected


@pytest.mark.parametrize("kernel", PIPELINE_PARAMS)
@pytest.mark.parametrize("phase", ["enumerate", "overlap", "percolate"])
def test_sharded_resume_is_byte_identical(graph, baselines, tmp_path, kernel, phase):
    """The resume contract holds across a two-shard fan-out."""
    document, stats = _interrupt_then_resume(graph, kernel, tmp_path, phase, shards=2)
    assert document == baselines[kernel]
    assert phase in stats.resumed_phases


class TestPartialPercolationResume:
    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    def test_partial_percolate_checkpoint_resumes(self, graph, baselines, tmp_path, kernel):
        """A percolate checkpoint holding only *some* orders is completed."""
        if _oracle_refuses_checkpoint(graph, kernel, tmp_path):
            return
        self._resume_from_partial(graph, baselines, tmp_path, kernel, shards=1)

    @pytest.mark.parametrize("kernel", PIPELINE_PARAMS)
    def test_sharded_partial_percolate_checkpoint_resumes(
        self, graph, baselines, tmp_path, kernel
    ):
        self._resume_from_partial(graph, baselines, tmp_path, kernel, shards=2)

    @staticmethod
    def _resume_from_partial(graph, baselines, tmp_path, kernel, shards):
        store = CheckpointStore(tmp_path / "ckpt")
        _interrupt_then_resume(graph, kernel, tmp_path, "percolate", shards=shards)
        # Truncate the percolate checkpoint to a strict subset of orders.
        full = store.load_phase("percolate")
        assert len(full["groups"]) > 2
        kept = dict(sorted(full["groups"].items(), reverse=True)[:2])
        store.store_phase("percolate", {**full, "groups": kept})
        resumed = LightweightParallelCPM(
            graph, kernel=kernel, shards=shards, checkpoint=store, resume=True
        )
        assert hierarchy_to_dict(resumed.run()) == baselines[kernel]
        assert "percolate" in resumed.stats.resumed_phases

    def test_serial_checkpoint_writes_incrementally(self, graph, tmp_path):
        """The serial path persists every percolated order."""
        store = CheckpointStore(tmp_path / "ckpt")
        cpm = LightweightParallelCPM(graph, checkpoint=store)
        cpm.run()
        persisted = store.load_phase("percolate")
        assert persisted is not None
        assert sorted(persisted["groups"]) == list(range(2, cpm.stats.max_clique_size + 1))


class TestResumeWithWorkers:
    @pytest.mark.parametrize("kernel", KERNEL_PARAMS)
    def test_worker_kill_then_resume(self, graph, baselines, tmp_path, kernel):
        """Driver dies after overlap; the resumed run uses two workers."""
        if _oracle_refuses_checkpoint(graph, kernel, tmp_path):
            return
        store = CheckpointStore(tmp_path / "ckpt")
        plan = FaultPlan.parse("driver:after=overlap:raise")
        with pytest.raises(InjectedFault):
            LightweightParallelCPM(graph, kernel=kernel, checkpoint=store, fault_plan=plan).run()
        resumed = LightweightParallelCPM(
            graph, kernel=kernel, workers=2, checkpoint=store, resume=True
        )
        assert hierarchy_to_dict(resumed.run()) == baselines[kernel]


class TestCheckpointHygiene:
    def test_resume_without_checkpoint_content_recomputes(self, graph, baselines, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        cpm = LightweightParallelCPM(graph, checkpoint=store, resume=True)
        assert hierarchy_to_dict(cpm.run()) == baselines["blocks"]
        assert cpm.stats.resumed_phases == ()

    def test_fresh_run_ignores_stale_checkpoint(self, graph, baselines, tmp_path):
        """Without resume=True an old checkpoint is cleared, not reused."""
        store = CheckpointStore(tmp_path / "ckpt")
        store.open(checksum="stale", kernel="blocks", resume=False)
        store.store_phase("enumerate", {"dense": [], "cliques": [], "n_nodes": 0})
        cpm = LightweightParallelCPM(graph, checkpoint=store)
        assert hierarchy_to_dict(cpm.run()) == baselines["blocks"]
        assert cpm.stats.resumed_phases == ()

    def test_torn_overlap_checkpoint_recomputed_on_resume(self, graph, baselines, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        _interrupt_then_resume(graph, "blocks", tmp_path, "overlap")
        store.phase_path("overlap").write_bytes(b"\x80\x04 torn mid-write")
        resumed = LightweightParallelCPM(graph, checkpoint=store, resume=True)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert "overlap" not in resumed.stats.resumed_phases
        assert "enumerate" in resumed.stats.resumed_phases

    @pytest.mark.parametrize("blob", WRONG_SHAPE_PICKLES)
    @pytest.mark.parametrize("phase", ["enumerate", "overlap", "percolate"])
    def test_wrong_shape_phase_recomputed_on_resume(
        self, graph, baselines, tmp_path, phase, blob
    ):
        """A phase file that unpickles to the wrong shape is not done."""
        store = CheckpointStore(tmp_path / "ckpt")
        _interrupt_then_resume(graph, "blocks", tmp_path, "percolate")
        store.store_phase(phase, pickle.loads(CORRUPT_PICKLES[blob]))
        resumed = LightweightParallelCPM(graph, checkpoint=store, resume=True)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert phase not in resumed.stats.resumed_phases

    @pytest.mark.parametrize("blob", WRONG_SHAPE_PICKLES)
    def test_wrong_shape_shard_partials_recomputed_on_resume(
        self, graph, baselines, tmp_path, blob
    ):
        store = CheckpointStore(tmp_path / "ckpt")
        _interrupt_then_resume(graph, "blocks", tmp_path, "percolate", shards=2)
        store.phase_path("enumerate").unlink()
        store.store_phase("shard_enumerate", pickle.loads(CORRUPT_PICKLES[blob]))
        resumed = LightweightParallelCPM(graph, shards=2, checkpoint=store, resume=True)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        # Every order is done, so the wire is never loaded.
        assert resumed.stats.resumed_phases == ("percolate",)

    @pytest.mark.parametrize("phase", ["shard_enumerate", "enumerate", "overlap", "percolate"])
    def test_flipped_byte_phase_recomputed_on_resume(self, graph, baselines, tmp_path, phase):
        """A phase file with one flipped bit still unpickles to a
        well-shaped payload; its frame digest fails, so it is not done."""
        store = CheckpointStore(tmp_path / "ckpt")
        _interrupt_then_resume(graph, "blocks", tmp_path, "percolate", shards=2)
        if phase == "shard_enumerate":
            store.phase_path("enumerate").unlink()
        flip_stored_byte(store.phase_path(phase), store.load_phase(phase))
        resumed = LightweightParallelCPM(graph, shards=2, checkpoint=store, resume=True)
        assert hierarchy_to_dict(resumed.run()) == baselines["blocks"]
        assert phase not in resumed.stats.resumed_phases
        clean = LightweightParallelCPM(graph)
        clean.run()
        assert resumed.stats.n_overlap_pairs == clean.stats.n_overlap_pairs
