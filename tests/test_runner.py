"""Tests for the resilient-runner primitives (repro.runner)."""

import os
import pickle
import time

import pytest

from repro.runner import (
    CHECKPOINT_SCHEMA_VERSION,
    PHASES,
    BatchRetryExhausted,
    CheckpointMismatchError,
    CheckpointStore,
    FaultPlan,
    FaultRule,
    InjectedFault,
    PoolSupervisor,
    RunnerConfig,
)
from repro.obs import MetricsRegistry, Tracer, current_metrics, worker_span
from repro.runner.faults import FAULT_PLAN_ENV

from .conftest import CORRUPT_PICKLES, UNREADABLE_PICKLES, flip_stored_byte


class TestFaultPlanParsing:
    def test_parse_single_rule(self):
        plan = FaultPlan.parse("enumerate:batch=0:kill")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.site == "enumerate"
        assert rule.action == "kill"
        assert rule.index == 0
        assert rule.times is None

    def test_parse_multiple_rules(self):
        plan = FaultPlan.parse("enumerate:shard=1:raise:times=2; driver:after=overlap:kill")
        assert len(plan.rules) == 2
        assert plan.rules[0].times == 2
        assert plan.rules[1].site == "driver"
        assert plan.rules[1].after == "overlap"

    def test_parse_delay(self):
        plan = FaultPlan.parse("enumerate:delay=0.25")
        assert plan.rules[0].action == "delay"
        assert plan.rules[0].seconds == 0.25

    def test_spec_round_trips(self):
        spec = "enumerate:batch=1:raise:times=2;driver:after=percolate:kill"
        assert FaultPlan.parse(spec).spec == spec

    def test_empty_spec_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("enumerate:raise")

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="cannot parse"):
            FaultPlan.parse("enumerate:bogus=3:kill")

    def test_rejects_driver_rule_without_after(self):
        with pytest.raises(ValueError, match="after"):
            FaultPlan.parse("driver:kill")

    def test_rejects_rule_without_action(self):
        with pytest.raises(ValueError, match="needs a site and an action"):
            FaultPlan.parse("enumerate:batch=0")

    @pytest.mark.parametrize(
        "spec", ["percolate:batch=0:kill", "overlap:shard=0:raise:times=1"]
    )
    def test_rejects_worker_rule_outside_enumerate(self, spec):
        # Only enumeration runs on a pool: a rule aimed at any other
        # phase could never fire, and a fault test would pass vacuously.
        with pytest.raises(ValueError, match="'enumerate'"):
            FaultPlan.parse(spec)

    @pytest.mark.parametrize("phase", ["enumerate", "overlap", "percolate"])
    def test_driver_rules_keep_every_phase_boundary(self, phase):
        assert FaultPlan.parse(f"driver:after={phase}:kill").rules[0].after == phase

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "enumerate:batch=0:raise")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.rules[0].site == "enumerate"


class TestFaultPlanFiring:
    def test_raise_rule_fires_at_matching_site(self):
        plan = FaultPlan.parse("enumerate:batch=0:raise")
        with pytest.raises(InjectedFault) as exc:
            plan.fire("enumerate", index=0, attempt=0)
        assert exc.value.site == "enumerate"
        plan.fire("enumerate", index=1, attempt=0)  # other index: no fault
        plan.fire("overlap", index=0, attempt=0)  # other site: no fault

    def test_times_limits_attempts(self):
        plan = FaultPlan.parse("enumerate:raise:times=2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                plan.fire("enumerate", attempt=attempt)
        plan.fire("enumerate", attempt=2)  # healed

    def test_boundary_rule_only_fires_at_its_phase(self):
        plan = FaultPlan.parse("driver:after=overlap:raise")
        plan.fire_boundary("enumerate")
        plan.fire("enumerate", index=0)  # driver rules never fire at worker sites
        with pytest.raises(InjectedFault):
            plan.fire_boundary("overlap")

    def test_delay_rule_sleeps(self):
        plan = FaultPlan.parse("enumerate:delay=0.05")
        t0 = time.perf_counter()
        plan.fire("enumerate", index=0)
        assert time.perf_counter() - t0 >= 0.04

    def test_injected_fault_pickles_round_trip(self):
        # A fault raised in a worker crosses the process boundary as a
        # pickle; a bad reduce turns a task failure into a broken pool.
        fault = InjectedFault("enumerate", 3, 1)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert (clone.site, clone.index, clone.attempt) == ("enumerate", 3, 1)

    def test_rule_matches(self):
        rule = FaultRule(site="enumerate", action="raise", index=2, times=1)
        assert rule.matches("enumerate", 2, 0)
        assert not rule.matches("enumerate", 2, 1)
        assert not rule.matches("enumerate", 0, 0)
        assert not rule.matches("percolate", 2, 0)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        assert not store.has_phase("percolate")
        store.store_phase("percolate", {4: [[0, 1]]})
        assert store.has_phase("percolate")
        assert store.load_phase("percolate") == {4: [[0, 1]]}

    def test_meta_written_on_open(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="set", resume=False)
        assert store.meta_path.exists()
        meta = store.meta()
        assert meta["schema"] == CHECKPOINT_SCHEMA_VERSION
        assert meta["checksum"] == "abc"
        assert meta["kernel"] == "set"

    def test_resume_accepts_matching_meta(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.store_phase("enumerate", {"cliques": []})
        again = CheckpointStore(tmp_path)
        again.open(checksum="abc", kernel="blocks", resume=True)
        assert again.has_phase("enumerate")  # content preserved

    def test_resume_rejects_checksum_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        with pytest.raises(CheckpointMismatchError, match="checksum"):
            CheckpointStore(tmp_path).open(checksum="xyz", kernel="blocks", resume=True)

    def test_resume_rejects_kernel_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        with pytest.raises(CheckpointMismatchError, match="kernel"):
            CheckpointStore(tmp_path).open(checksum="abc", kernel="set", resume=True)

    def test_resume_on_empty_dir_starts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path / "new")
        store.open(checksum="abc", kernel="blocks", resume=True)
        assert store.meta_path.exists()

    def test_non_resume_clears_previous_content(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.store_phase("percolate", {2: []})
        store.open(checksum="other", kernel="blocks", resume=False)
        assert not store.has_phase("percolate")

    def test_torn_phase_file_reads_as_missing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.phase_path("overlap").write_bytes(b"\x80\x04 torn")
        assert store.load_phase("overlap") is None

    @pytest.mark.parametrize("blob", UNREADABLE_PICKLES)
    def test_unreadable_phase_file_reads_as_missing(self, tmp_path, blob):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.phase_path("overlap").write_bytes(CORRUPT_PICKLES[blob])
        assert store.load_phase("overlap") is None

    def test_flipped_byte_reads_as_missing(self, tmp_path):
        """A bit flip that still unpickles fails the frame digest."""
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.store_phase("percolate", {4: [[0, 1]]})
        flip_stored_byte(store.phase_path("percolate"), {4: [[0, 1]]})
        assert store.load_phase("percolate") is None

    def test_holds_checks_identity_read_only(self, tmp_path):
        store = CheckpointStore(tmp_path / "entry")
        assert not store.holds(checksum="abc", kernel="blocks")
        assert not store.root.exists()
        store.open(checksum="abc", kernel="blocks", resume=False)
        assert store.holds(checksum="abc", kernel="blocks")
        assert not store.holds(checksum="xyz", kernel="blocks")
        assert not store.holds(checksum="abc", kernel="set")
        store.meta_path.write_text("[]", encoding="utf-8")
        assert not store.holds(checksum="abc", kernel="blocks")

    def test_corrupt_meta_raises_on_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open(checksum="abc", kernel="blocks", resume=False)
        store.meta_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="unreadable"):
            CheckpointStore(tmp_path).open(checksum="abc", kernel="blocks", resume=True)
        # ...but a fresh (non-resume) open recovers by clearing.
        CheckpointStore(tmp_path).open(checksum="abc", kernel="blocks", resume=False)

    def test_unknown_phase_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoint phase"):
            CheckpointStore(tmp_path).phase_path("bogus")
        assert set(PHASES) == {
            "shard_enumerate",
            "enumerate",
            "overlap",
            "percolate",
            "session",
        }


def _square(x: int) -> int:
    return x * x


class TestPoolSupervisor:
    def _supervisor(self, plan="", **kwargs):
        sleeps = []
        sup = PoolSupervisor(
            workers=2,
            phase="enumerate",
            fault_plan=FaultPlan.parse(plan) if plan else None,
            sleep=sleeps.append,
            **kwargs,
        )
        return sup, sleeps

    def test_clean_run_returns_in_task_order(self):
        sup, _ = self._supervisor()
        assert sup.run(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]
        assert not sup.degraded
        assert sup.restarts == 0

    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            PoolSupervisor(workers=1, phase="enumerate")

    def test_transient_raise_heals_with_backoff(self):
        sup, sleeps = self._supervisor("enumerate:batch=0:raise:times=1")
        assert sup.run(_square, [2, 3]) == [4, 9]
        assert not sup.degraded
        assert len(sleeps) == 1  # one retry round

    def test_permanent_raise_degrades_to_fallback(self):
        sup, _ = self._supervisor(
            "enumerate:batch=1:raise", config=RunnerConfig(max_retries=1)
        )
        assert sup.run(_square, [2, 3], fallback=_square) == [4, 9]
        assert sup.degraded

    def test_permanent_raise_without_fallback_raises(self):
        sup, _ = self._supervisor(
            "enumerate:batch=0:raise", config=RunnerConfig(max_retries=0)
        )
        with pytest.raises(BatchRetryExhausted):
            sup.run(_square, [2, 3])

    def test_worker_kill_restarts_pool(self):
        sup, _ = self._supervisor("enumerate:batch=0:kill:times=1")
        assert sup.run(_square, [2, 3]) == [4, 9]
        assert sup.restarts >= 1
        assert not sup.degraded

    def test_stalled_batch_times_out(self):
        sup, _ = self._supervisor(
            "enumerate:batch=0:delay=30:times=1",
            config=RunnerConfig(batch_timeout=0.5),
        )
        t0 = time.perf_counter()
        assert sup.run(_square, [2, 3]) == [4, 9]
        assert time.perf_counter() - t0 < 20  # did not wait out the delay

    def test_on_result_sees_every_batch(self):
        seen = {}
        sup, _ = self._supervisor("enumerate:batch=0:raise", config=RunnerConfig(max_retries=0))
        sup.run(_square, [2, 3], fallback=_square, on_result=seen.__setitem__)
        assert seen == {0: 4, 1: 9}

    def test_backoff_schedule(self):
        config = RunnerConfig(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        assert config.backoff_seconds(1) == pytest.approx(0.1)
        assert config.backoff_seconds(2) == pytest.approx(0.2)
        assert config.backoff_seconds(5) == pytest.approx(0.3)  # capped


def _counted_square(x: int) -> int:
    """Picklable task that records worker telemetry when captured."""
    registry = current_metrics()
    if registry is not None:
        registry.inc("worker.test.calls")
    with worker_span("worker.test.square", x=x):
        return x * x


class TestWorkerTelemetryUnderFaults:
    """Spans/counters from the pool must survive retries without double-counting."""

    def _observed(self, plan="", **kwargs):
        tracer = Tracer()
        metrics = MetricsRegistry()
        sup = PoolSupervisor(
            workers=2,
            phase="enumerate",
            fault_plan=FaultPlan.parse(plan) if plan else None,
            tracer=tracer,
            metrics=metrics,
            sleep=lambda _s: None,
            **kwargs,
        )
        return sup, tracer, metrics

    def test_clean_run_attributes_every_batch_once(self):
        sup, tracer, metrics = self._observed()
        assert sup.run(_counted_square, [2, 3, 4]) == [4, 9, 16]
        tracer.close()
        assert metrics.to_dict()["counters"]["worker.test.calls"] == 3
        tasks = tracer.find("worker.task")
        assert {r.attrs["batch"] for r in tasks} == {0, 1, 2}
        by_id = {r.span_id: r for r in tracer.records}
        for record in tasks:
            assert record.attrs["pid"] > 0
            assert record.attrs["worker_id"] in (0, 1)
            assert by_id[record.parent_id].name == "runner.supervise"
        # Worker-internal spans re-parent under their task span.
        for record in tracer.find("worker.test.square"):
            assert by_id[record.parent_id].name == "worker.task"

    def test_retried_batch_counts_once(self):
        sup, tracer, metrics = self._observed("enumerate:batch=0:raise:times=1")
        assert sup.run(_counted_square, [2, 3]) == [4, 9]
        tracer.close()
        # The failed attempt shipped nothing: one call per batch, and
        # batch 0's surviving span is the retry that succeeded.
        assert metrics.to_dict()["counters"]["worker.test.calls"] == 2
        assert len(tracer.find("worker.test.square")) == 2
        batch0 = [r for r in tracer.find("worker.task") if r.attrs["batch"] == 0]
        assert len(batch0) == 1
        assert batch0[0].attrs["attempt"] == 1

    def test_degraded_batch_counts_once_in_driver(self):
        sup, tracer, metrics = self._observed(
            "enumerate:batch=1:raise", config=RunnerConfig(max_retries=1)
        )
        assert sup.run(_counted_square, [2, 3], fallback=_counted_square) == [4, 9]
        tracer.close()
        assert sup.degraded
        counters = metrics.to_dict()["counters"]
        assert counters["worker.test.calls"] == 2
        fallbacks = [
            r for r in tracer.find("worker.task") if r.attrs["attempt"] == -1
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0].attrs["batch"] == 1
        # The serial fallback runs in (and attributes to) the driver.
        assert fallbacks[0].attrs["pid"] == os.getpid()

    def test_telemetry_off_ships_bare_results(self):
        sup, tracer, metrics = self._observed(telemetry=False)
        assert sup.run(_counted_square, [2, 3]) == [4, 9]
        tracer.close()
        assert tracer.find("worker.task") == []
        assert "worker.test.calls" not in metrics.to_dict()["counters"]

    def test_uninstrumented_supervisor_defaults_telemetry_off(self):
        sup = PoolSupervisor(workers=2, phase="enumerate")
        assert sup.telemetry is False
        assert sup.run(_counted_square, [3]) == [9]


class TestKillExitCode:
    def test_kill_exit_code_is_distinctive(self):
        from repro.runner.faults import KILL_EXIT_CODE

        assert KILL_EXIT_CODE == 173
        assert KILL_EXIT_CODE != os.EX_OK
