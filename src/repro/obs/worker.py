"""Worker-side telemetry: per-task tracer + metrics shipped back with results.

Worker processes cannot share the driver's :class:`~.tracing.Tracer` —
spans live on the wrong side of the pickling boundary — so until now
the only view inside the pool was the handful of scalars each batch
function chose to ship home in a stats dict.  This module gives every
supervised task a *real* capture context instead:

* the :class:`~repro.runner.supervise.PoolSupervisor` trampoline
  activates :func:`capture` around the task body, creating one fresh
  :class:`WorkerTelemetry` (a lightweight Tracer + MetricsRegistry
  stamped with the worker's pid);
* instrumented worker code reaches the active context through
  :func:`worker_span` / :func:`current_metrics` — both collapse to the
  shared no-op handle when no capture is active, so the same functions
  run unchanged (and unobserved) in the driver or in an uninstrumented
  pool;
* the completed spans and counters travel back to the driver inside a
  :class:`TelemetryEnvelope` wrapped around the task result, where the
  supervisor grafts the spans into the driver trace (re-identified,
  parented under the live ``runner.supervise`` span, attributed with
  ``pid``/``worker_id``) and merges the counters.

Retry safety is structural: a capture context is created per *task
invocation* and its envelope only exists on the attempt that returned
a result, so a batch that failed and was re-dispatched contributes its
spans and counters exactly once — the attempt that succeeded.
``tests/test_runner.py`` pins this down under injected faults.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "WorkerTelemetry",
    "TelemetryEnvelope",
    "capture",
    "current_metrics",
    "current_tracer",
    "worker_span",
]


class WorkerTelemetry:
    """One task invocation's capture context inside a worker process."""

    __slots__ = ("tracer", "metrics", "pid")

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.pid = os.getpid()

    def export(self) -> dict:
        """The picklable payload shipped back to the driver."""
        return {
            "pid": self.pid,
            "spans": self.tracer.to_dicts(),
            "metrics": self.metrics.to_dict(),
        }


class TelemetryEnvelope:
    """A task result plus the telemetry its invocation captured.

    The supervisor trampoline returns one of these instead of the bare
    result whenever telemetry is enabled; the driver unwraps it in
    ``_dispatch_round`` so callers never see the wrapper.
    """

    __slots__ = ("result", "telemetry")

    def __init__(self, result, telemetry: dict) -> None:
        self.result = result
        self.telemetry = telemetry


#: The capture context of the task currently executing in this
#: *thread* (unset between tasks, and always unset in uninstrumented
#: runs).  Thread-local rather than a bare module global so a threaded
#: host — the query server capturing per-request telemetry on handler
#: threads — never sees one request's capture bleed into another's.
_ACTIVE = threading.local()


def _active() -> WorkerTelemetry | None:
    return getattr(_ACTIVE, "telemetry", None)


def current_tracer() -> Tracer:
    """The active capture's tracer, or the shared no-op tracer."""
    active = _active()
    return active.tracer if active is not None else NULL_TRACER


def current_metrics() -> MetricsRegistry | None:
    """The active capture's metric registry, or None when unobserved."""
    active = _active()
    return active.metrics if active is not None else None


def worker_span(name: str, **attrs) -> Span:
    """A span on the active capture (the shared no-op handle otherwise).

    This is the one-liner worker functions use::

        with worker_span("worker.shard.enumerate", shard=shard_id) as span:
            ...
            span.set("cliques", len(cliques))

    Outside a capture the call costs one thread-local read and a
    constant return — the same bound the null tracer holds everywhere
    else.
    """
    active = _active()
    if active is None:
        return NULL_TRACER.span(name)
    return active.tracer.span(name, **attrs)


@contextmanager
def capture(phase: str, index: int, attempt: int):
    """Activate a fresh telemetry context around one task invocation.

    Opens a root ``worker.task`` span carrying the dispatch coordinates
    (phase, batch index, attempt number) so every retry is tellable
    apart in the merged trace.  The context is always deactivated on
    exit, even when the task body raises — a failed attempt's telemetry
    simply never ships.
    """
    telemetry = WorkerTelemetry()
    _ACTIVE.telemetry = telemetry
    try:
        with telemetry.tracer.span(
            "worker.task", phase=phase, batch=index, attempt=attempt
        ):
            yield telemetry
    finally:
        _ACTIVE.telemetry = None
