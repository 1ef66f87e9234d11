"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python -m pytest perfbench/tests -q

The tiny profile drives every stage on the ~450-AS test topology, so
each run takes a few seconds, query-server start included.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stages  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def test_benchmark_json_mirrors_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert all(m.moves for m in PER_LAYER), "every layer metric names what it moves"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric.name
        assert f"  {metric.name} " in proc.stdout, "the report prints every metric"
    if trace:
        assert "self s" in proc.stdout
    assert not (ROOT / ".perfbench_work").exists()


# hierarchy_digest calls in a tiny cpm-batch run: 0 serial reference,
# 1 incremental reference, 2 timed run, 3 cached run, 4 live session,
# 5 reloaded session.  Corrupting any one must fail the run.
@pytest.mark.parametrize("corrupt_call", range(6))
def test_corrupted_digest_fails_the_run(monkeypatch, capsys, corrupt_call):
    real = stages.hierarchy_digest
    calls = []

    def digest(hierarchy):
        calls.append(None)
        value = real(hierarchy)
        return "0" * len(value) if len(calls) - 1 == corrupt_call else value

    monkeypatch.setattr(stages, "hierarchy_digest", digest)
    code = run.main(["--workload", "cpm-batch", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--profile", "tiny"])
    out = capsys.readouterr()
    assert code == 1
    assert _result_line(out.out) is None
    assert "CheckFailed" in out.err
    assert len(calls) > corrupt_call


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cpm-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert _result_line(proc.stdout) is None


def test_scaled_time_cancels_host_speed():
    ref = clock.PROBE_SECONDS
    assert clock.scaled(1.0, [ref, ref]) == pytest.approx(1.0)
    # At half speed the call and the probe both take twice as long; one
    # preempted probe does not move the median.
    assert clock.scaled(2.0, [2 * ref, 2 * ref, 9 * ref]) == pytest.approx(1.0)


def test_timed_probes_during_the_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    count = []

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        count.append(len(clock._probes))
        return "out"

    out, seconds = clock.timed(busy)
    assert out == "out" and seconds > 0
    assert count[0] >= 0.2 / clock.INTERVAL / 2, "the timer probes inside the call"
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_the_union_of_children():
    parent = {"name": "p", "span_id": 0, "parent_id": None,
              "start_wall": 0.0, "wall_seconds": 10.0}
    kids = [
        {"name": "c", "span_id": 1, "parent_id": 0, "start_wall": 1.0, "wall_seconds": 3.0},
        {"name": "c", "span_id": 2, "parent_id": 0, "start_wall": 2.0, "wall_seconds": 3.0},
        {"name": "c", "span_id": 3, "parent_id": 0, "start_wall": 9.0, "wall_seconds": 5.0},
    ]
    # Children cover [1, 5] and [9, 10] of the parent's [0, 10].
    assert spans.self_seconds(parent, kids) == pytest.approx(5.0)
    table = {name: (n, wall, own) for name, n, wall, own in spans.self_time_table([parent, *kids])}
    assert table["p"] == (1, 10.0, pytest.approx(5.0))
    assert table["c"] == (3, 11.0, 11.0)
