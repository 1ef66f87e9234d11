"""Resilient execution engine for the LP-CPM pipeline.

The paper's community extraction ran 93 hours on 48 cores; at that
scale faults are the common case, not the exception.  This package
supplies the three ingredients that make a long LP-CPM run survivable,
consumed by :class:`repro.core.lightweight.LightweightParallelCPM` and
surfaced on the CLI as ``--checkpoint-dir``/``--resume``:

* :mod:`.checkpoint` — phase-level checkpoints (enumeration, overlap
  wire, per-order percolation prefixes) behind atomic writes, so an
  interrupted run resumes from the last completed phase;
* :mod:`.supervise` — a supervised process pool with per-round
  timeouts, bounded exponential-backoff retry, pool resurrection after
  worker death, and graceful degradation to serial in-driver execution
  when a batch fails permanently;
* :mod:`.faults` — deterministic fault injection (``REPRO_FAULT_PLAN``)
  that kills/delays/fails chosen batches or phase boundaries, so every
  recovery path above is testable in CI.

See ``docs/robustness.md`` for the checkpoint layout, the retry and
degradation policy, and the observability surface (``runner.*``
counters and spans).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "checkpoint": [
            "CHECKPOINT_SCHEMA_VERSION", "PHASES", "CheckpointError", "CheckpointMismatchError",
            "CheckpointStore",
        ],
        "faults": ["FAULT_PLAN_ENV", "FaultPlan", "FaultRule", "InjectedFault"],
        "supervise": ["BatchRetryExhausted", "PoolSupervisor", "RunnerConfig"],
    },
)
