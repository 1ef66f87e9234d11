"""Worker-pool supervision: timeouts, bounded retry, serial degradation.

``ProcessPoolExecutor`` has exactly one failure story: a dead worker
breaks the whole pool and every in-flight future raises
``BrokenProcessPool``.  For a multi-hour CPM run that turns one OOM-
killed enumeration shard into a lost run.  :class:`PoolSupervisor`
wraps the pool with the policy a long run actually needs:

* **per-round timeout** — a dispatch round that exceeds its budget
  (``batch_timeout`` scaled by queue depth) is declared stalled, the
  pool is torn down and the unfinished batches are retried;
* **bounded retry with exponential backoff** — a failed or stalled
  batch is retried up to ``max_retries`` times, sleeping
  ``backoff_base * backoff_factor**attempt`` (capped at
  ``backoff_max``) between rounds;
* **pool resurrection** — a broken pool (worker killed) is rebuilt,
  re-running the pool initializer so process-shared payloads survive;
* **graceful degradation** — a batch that keeps failing past its retry
  budget is executed *serially in the driver process* via the caller's
  ``fallback`` callable (which bypasses fault injection and the pool
  entirely), so a poisoned batch degrades throughput instead of
  correctness.  Degradation flips the ``runner.degraded`` gauge to 1
  and counts ``runner.fallback_batches``.

Every decision is observable: the supervisor runs under a
``runner.supervise`` span and maintains the ``runner.*`` counters
documented in ``docs/robustness.md``.  Determinism note: results are
returned in task order regardless of completion order, so supervised
runs produce byte-identical output to unsupervised ones.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable

from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from ..obs.worker import TelemetryEnvelope, capture
from .faults import FaultPlan

#: Structured-log handle (no-op until ``--log-json`` configures one).
_LOG = get_logger(component="runner")

__all__ = ["RunnerConfig", "PoolSupervisor", "BatchRetryExhausted"]


@dataclass(frozen=True)
class RunnerConfig:
    """Supervision policy knobs (all optional; defaults are conservative).

    ``batch_timeout`` is the wall-clock budget of one *wave* of batches
    (None disables stall detection); ``max_retries`` is how many times a
    failed batch is re-dispatched to the pool before the supervisor
    degrades it to the serial fallback.
    """

    batch_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def backoff_seconds(self, attempt: int) -> float:
        """The sleep before re-dispatching a batch on its Nth retry."""
        return min(self.backoff_max, self.backoff_base * self.backoff_factor ** max(0, attempt - 1))


class BatchRetryExhausted(RuntimeError):
    """A batch failed past its retry budget and no fallback was given."""


def _supervised_call(payload: tuple) -> Any:
    """Worker-side trampoline: fire any injected fault, then run the task.

    The fault plan travels as its spec string inside the task tuple, so
    this works identically under fork and spawn start methods and needs
    no shared state beyond the payload itself.

    With ``telemetry`` set, the task body runs inside a
    :func:`repro.obs.worker.capture` context and the bare result is
    replaced by a :class:`~repro.obs.worker.TelemetryEnvelope` carrying
    the worker's spans and counters; the driver unwraps it on receipt.
    Faults fire *before* the capture opens, so a failed attempt ships
    no telemetry and a retried batch is counted exactly once — by the
    attempt that succeeded.
    """
    fn, task, site, index, attempt, spec, telemetry = payload
    if spec:
        FaultPlan.parse(spec).fire(site, index=index, attempt=attempt)
    if not telemetry:
        return fn(task)
    with capture(site, index, attempt) as ctx:
        result = fn(task)
    return TelemetryEnvelope(result, ctx.export())


class PoolSupervisor:
    """Run batches through a supervised process pool (see module docs).

    One supervisor instance drives one phase's dispatch; it owns the
    pool lifecycle (creation, resurrection after breakage, shutdown).
    ``initializer``/``initargs`` are re-applied on every pool rebuild,
    so process-shared payloads (the CSR arrays of a sharded enumeration)
    survive worker death.
    """

    def __init__(
        self,
        *,
        workers: int,
        phase: str,
        config: RunnerConfig | None = None,
        fault_plan: FaultPlan | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        telemetry: bool | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 2:
            raise ValueError("PoolSupervisor needs workers >= 2; run serially instead")
        self.workers = workers
        self.phase = phase
        self.config = config if config is not None else RunnerConfig()
        self.fault_spec = fault_plan.spec if fault_plan else ""
        self.initializer = initializer
        self.initargs = initargs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Worker-side capture defaults to "whenever the driver traces":
        # an instrumented run gets worker spans for free, an
        # uninstrumented one pays nothing (the trampoline's telemetry
        # branch is a falsy check).  Callers can force it either way.
        self.telemetry = telemetry if telemetry is not None else self.tracer.enabled
        self.sleep = sleep
        self.degraded = False
        self.restarts = 0
        #: First-seen ordering of worker pids -> small stable worker ids.
        self._worker_ids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: list,
        *,
        fallback: Callable[[Any], Any] | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list:
        """Execute every task, in order-stable fashion, surviving faults.

        ``fn`` must be a module-level (picklable) callable of one task.
        ``fallback`` runs a permanently-failing task serially in the
        driver; without one, exhaustion raises
        :class:`BatchRetryExhausted`.  ``on_result`` fires in the
        driver as each batch completes (in completion order) — the
        checkpoint-write hook.
        """
        results: dict[int, Any] = {}
        pending: dict[int, Any] = dict(enumerate(tasks))
        attempts: dict[int, int] = {i: 0 for i in pending}
        with self.tracer.span(
            "runner.supervise", phase=self.phase, batches=len(tasks), workers=self.workers
        ) as span:
            pool = self._new_pool()
            try:
                while pending:
                    failed, broken = self._dispatch_round(
                        pool, fn, pending, attempts, results, on_result
                    )
                    if broken:
                        pool = self._restart_pool(pool)
                        failed = sorted(pending)
                    retried = False
                    for index in failed:
                        attempts[index] += 1
                        if attempts[index] > self.config.max_retries:
                            self._degrade(index, pending, results, fallback, on_result)
                        else:
                            retried = True
                            self.metrics.inc("runner.retries")
                            _LOG.warning(
                                "runner.retry",
                                phase=self.phase,
                                batch=index,
                                attempt=attempts[index],
                            )
                    if retried and pending:
                        lowest = min(attempts[i] for i in pending)
                        self.sleep(self.config.backoff_seconds(lowest))
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            span.set("restarts", self.restarts)
            span.set("degraded", int(self.degraded))
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _restart_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        pool.shutdown(wait=False, cancel_futures=True)
        self.restarts += 1
        self.metrics.inc("runner.pool_restarts")
        _LOG.warning("runner.pool_restart", phase=self.phase, restarts=self.restarts)
        return self._new_pool()

    def _round_timeout(self, n_batches: int) -> float | None:
        if self.config.batch_timeout is None:
            return None
        waves = max(1, math.ceil(n_batches / self.workers))
        return self.config.batch_timeout * waves

    def _dispatch_round(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable,
        pending: dict[int, Any],
        attempts: dict[int, int],
        results: dict[int, Any],
        on_result: Callable[[int, Any], None] | None,
    ) -> tuple[list[int], bool]:
        """Submit every pending batch once; returns (failed indices, broken?)."""
        futures = {}
        try:
            for index, task in sorted(pending.items()):
                payload = (
                    fn, task, self.phase, index, attempts[index],
                    self.fault_spec, self.telemetry,
                )
                futures[pool.submit(_supervised_call, payload)] = index
        except (BrokenExecutor, RuntimeError):
            # Pool already broken (e.g. a worker died during initializer).
            return [], True
        failed: list[int] = []
        deadline = None
        timeout = self._round_timeout(len(futures))
        if timeout is not None:
            deadline = time.monotonic() + timeout
        not_done = set(futures)
        while not_done:
            wait_for = None if deadline is None else max(0.0, deadline - time.monotonic())
            done, not_done = wait(not_done, timeout=wait_for, return_when=FIRST_COMPLETED)
            if not done:  # round deadline hit: declare the stragglers stalled
                self.metrics.inc("runner.timeouts")
                _LOG.warning(
                    "runner.timeout", phase=self.phase, stalled=len(not_done)
                )
                return failed, True
            for future in done:
                index = futures[future]
                try:
                    result = future.result()
                except BrokenExecutor:
                    return failed, True
                except Exception:
                    failed.append(index)
                    self.metrics.inc("runner.batch_failures")
                else:
                    result = self._unwrap(result)
                    results[index] = result
                    del pending[index]
                    if on_result is not None:
                        on_result(index, result)
        return failed, False

    def _unwrap(self, result: Any) -> Any:
        """Merge a result's telemetry envelope into the driver's trace.

        Spans are grafted under the open ``runner.supervise`` span with
        ``pid`` / ``worker_id`` attribution (worker ids are assigned in
        first-seen pid order, so they are small and stable within a
        phase); counters/histograms merge into the driver registry.
        Bare results pass through untouched.
        """
        if not isinstance(result, TelemetryEnvelope):
            return result
        telemetry = result.telemetry
        pid = telemetry.get("pid", 0)
        worker_id = self._worker_ids.setdefault(pid, len(self._worker_ids))
        self.tracer.absorb(
            telemetry.get("spans", []), pid=pid, worker_id=worker_id
        )
        self.metrics.merge(telemetry.get("metrics", {}))
        return result.result

    def _degrade(
        self,
        index: int,
        pending: dict[int, Any],
        results: dict[int, Any],
        fallback: Callable[[Any], Any] | None,
        on_result: Callable[[int, Any], None] | None,
    ) -> None:
        """Run a retry-exhausted batch serially in the driver process."""
        task = pending.pop(index)
        if fallback is None:
            raise BatchRetryExhausted(
                f"{self.phase} batch {index} failed past {self.config.max_retries} retries"
            )
        with self.tracer.span("runner.fallback", phase=self.phase, batch=index):
            if self.telemetry:
                # Serial degradation still captures the task's worker
                # spans/counters — they just attribute to the driver
                # pid.  The capture replaces any telemetry the failed
                # pool attempts produced (which was never shipped), so
                # the batch is counted exactly once here too.
                with capture(self.phase, index, -1) as ctx:
                    result = fallback(task)
                result = self._unwrap(TelemetryEnvelope(result, ctx.export()))
            else:
                result = fallback(task)
        results[index] = result
        self.degraded = True
        self.metrics.inc("runner.fallback_batches")
        self.metrics.set_gauge("runner.degraded", 1)
        _LOG.error("runner.degraded", phase=self.phase, batch=index)
        if on_result is not None:
            on_result(index, result)
