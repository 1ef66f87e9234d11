"""Fault smoke — the resilient runner under a permanently killed worker.

CI's ``fault-smoke`` job runs the scale-0.5 topology with two workers
(so two enumeration shards) and a fault plan that
SIGKILL-kills the worker holding enumeration shard 0 on *every*
attempt — enumeration is the one phase that runs on a worker pool.
The supervised pool must ride through the broken pools (bounded
retries, pool resurrection) and finally degrade the poisoned shard to
serial in-driver execution — completing the run with
``runner.degraded = 1``, a hierarchy identical to an unfaulted run and
every percolation order checkpointed.  The checkpoint directory used by the run is left under
``benchmarks/output/fault_smoke_ckpt`` so CI can upload it as an
artifact when the assertion fails.

The recorded ``runner.*`` counters land in this test's
``BENCH_*.json`` manifest, so the fault-handling trajectory (restarts,
retries, fallback batches) is archived alongside the perf numbers.
"""

import shutil
from pathlib import Path

from repro.api import run_cpm
from repro.core.serialize import hierarchy_to_dict
from repro.obs import MetricsRegistry
from repro.runner import CheckpointStore, FaultPlan, RunnerConfig
from repro.topology.generator import GeneratorConfig, generate_topology

CKPT_DIR = Path(__file__).parent / "output" / "fault_smoke_ckpt"

#: Enumeration shard 0 dies on every attempt — a permanent fault that
#: must end in serial degradation, not a lost run.
FAULT_PLAN = "enumerate:shard=0:kill"


def test_fault_smoke_degraded_completion(emit, bench_record):
    dataset = generate_topology(GeneratorConfig(scale=0.5), seed=42)
    baseline = run_cpm(dataset.graph)

    shutil.rmtree(CKPT_DIR, ignore_errors=True)
    metrics = MetricsRegistry()
    faulted = run_cpm(
        dataset.graph,
        workers=2,
        checkpoint=CheckpointStore(CKPT_DIR),
        runner=RunnerConfig(max_retries=2, backoff_base=0.01),
        fault_plan=FaultPlan.parse(FAULT_PLAN),
        metrics=metrics,
    )

    snapshot = metrics.to_dict()
    counters = {k: v for k, v in snapshot["counters"].items() if k.startswith("runner.")}
    degraded_gauge = snapshot["gauges"].get("runner.degraded", 0)
    bench_record["runner.degraded"] = degraded_gauge
    bench_record["fault_plan"] = FAULT_PLAN
    for name, value in counters.items():
        bench_record[name] = value

    lines = [
        "Fault smoke: permanent worker kill on enumerate shard 0 (scale 0.5, 2 workers)",
        f"  fault plan          : {FAULT_PLAN}",
        f"  degraded            : {faulted.stats.degraded}",
        f"  runner.degraded     : {degraded_gauge}",
    ] + [f"  {name:<20}: {value}" for name, value in sorted(counters.items())]
    emit("fault_smoke", "\n".join(lines))

    # The run must complete degraded — not crash, not hang — and the
    # degradation must leave the result untouched.
    assert faulted.stats.degraded
    assert degraded_gauge == 1
    assert counters.get("runner.pool_restarts", 0) >= 1
    assert counters.get("runner.fallback_batches", 0) >= 1
    assert hierarchy_to_dict(faulted.hierarchy) == hierarchy_to_dict(baseline.hierarchy)

    # The checkpoint kept pace with the degraded run: every order done.
    persisted = CheckpointStore(CKPT_DIR).load_phase("percolate")
    assert persisted is not None
    assert sorted(persisted) == list(range(2, faulted.stats.max_clique_size + 1))
