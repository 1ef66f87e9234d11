"""Observability: tracing, metrics and run manifests for the LP-CPM pipeline.

The paper's headline engineering feat is scale — 2.7M maximal cliques
processed in 93 hours on 48 cores — and every optimisation claim since
needs before/after numbers.  This package provides the three layers
that make the enumerate → overlap → percolate → tree pipeline
observable:

* :mod:`repro.obs.tracing` — context-manager :class:`Span`\\ s with
  nesting, wall time, CPU time and peak-memory sampling, collected by a
  :class:`Tracer` and exportable as JSONL.  The default
  :data:`NULL_TRACER` is a no-op with no measurable overhead, so
  un-instrumented runs pay nothing.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges and histograms (cliques enumerated, overlap pairs,
  union-find merges, shard sizes, worker utilisation) with JSON export
  and cross-process merging.
* :mod:`repro.obs.manifest` — a :class:`RunManifest` bundling the graph
  fingerprint, run configuration, library versions and all spans and
  metrics into one JSON artifact per run, the unit of the benchmark
  trajectory under ``benchmarks/output/``.

Telemetry v2 adds the capture-and-inspect layers on top:

* :mod:`repro.obs.worker` — per-task tracer/metrics inside pool worker
  processes, shipped back with each batch result and grafted into the
  driver trace with pid/worker attribution;
* :mod:`repro.obs.resources` — a sampling :class:`ResourceMonitor`
  thread recording an RSS/CPU series into the manifest;
* :mod:`repro.obs.export` — conversion of traces to Chrome/Perfetto
  trace-event JSON (``ui.perfetto.dev``);
* :mod:`repro.obs.inspect` — terminal rendering: ASCII span trees,
  manifest diffs, bench-scalar history (the ``repro obs`` CLI).

The serving plane adds the live-telemetry layers:

* :mod:`repro.obs.exposition` — Prometheus text exposition
  (v0.0.4) of registries and manifest metric blocks: counters,
  gauges, and log-bucketed histograms as summary families with
  p50/p90/p99 quantile series, plus the parser ``repro obs tail``
  uses to difference scrapes into rates;
* :mod:`repro.obs.logging` — structured newline-delimited JSON
  events with run/request-id correlation (``--log-json``), the
  access-log and phase-progress channel for long-lived processes.

Schema and metric-name reference: ``docs/observability.md``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "export": ["to_perfetto", "validate_trace_events", "write_perfetto"],
        "exposition": ["parse_exposition", "render_exposition", "sanitize_metric_name"],
        "inspect": ["diff_manifests", "history", "load_trace", "render_tree"],
        "logging": ["JsonLogger", "configure", "get_logger", "log_event", "new_run_id"],
        "manifest": ["RunManifest", "graph_fingerprint", "library_versions"],
        "metrics": ["AtomicCounter", "Counter", "Gauge", "Histogram", "MetricsRegistry"],
        "resources": ["ResourceMonitor"],
        "tracing": ["NULL_TRACER", "NullTracer", "Span", "SpanRecord", "Tracer"],
        "worker": [
            "TelemetryEnvelope", "WorkerTelemetry", "capture", "current_metrics", "current_tracer",
            "worker_span",
        ],
    },
)
