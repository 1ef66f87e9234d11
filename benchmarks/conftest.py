"""Benchmark fixtures.

Every benchmark consumes the same synthetic April-2010-like dataset
(default profile, seed 42) and the shared CPM run, so fixture cost is
paid once per session and the timed portions measure exactly the
computation each table/figure needs.

Each benchmark *prints and saves* the rows/series it regenerates —
the textual equivalents of the paper's tables and figures land in
``benchmarks/output/<name>.txt``.

Observability: the shared CPM run is instrumented with a session-wide
:class:`repro.obs.Tracer` + :class:`repro.obs.MetricsRegistry`, and an
autouse fixture times every benchmark test and writes one
``benchmarks/output/BENCH_<test>.json`` :class:`repro.obs.RunManifest`
per test (plus ``BENCH__session.json`` with the shared CPM spans at
session end) — the JSON trajectory CI uploads as artifacts so every PR
records its perf numbers.  Set ``REPRO_OBS_MEMORY=1`` to also sample
allocation peaks (tracemalloc slows allocation-heavy code — the
pure-Python enumerator most of all — so it is off by default *and in
CI* to keep the timings that ``check_bench_regression.py`` gates on
honest).
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

# The CPM pipeline's numpy passes load on first use; load them here so
# no timed CPM run (the first point of the scaling sweep, say) pays the
# one-time numpy import.
import repro.core.blocks  # noqa: F401
from repro.analysis.context import AnalysisContext
from repro.obs import MetricsRegistry, RunManifest, Tracer, graph_fingerprint
from repro.report.paper import PaperRun
from repro.topology.generator import GeneratorConfig, generate_topology

OUTPUT_DIR = Path(__file__).parent / "output"

_TRACE_MEMORY = bool(os.environ.get("REPRO_OBS_MEMORY"))
# The CPM kernel the benchmarks exercise; recorded in every manifest
# so the perf trajectory stays attributable across kernel changes.
_KERNEL = "blocks"
_SESSION_TRACER = Tracer(memory=_TRACE_MEMORY)
_SESSION_METRICS = MetricsRegistry()
_SESSION_FINGERPRINT: dict = {}


def _manifest_path(label: str) -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR / f"BENCH_{re.sub(r'[^A-Za-z0-9_.-]+', '_', label)}.json"


def _trace_path(label: str) -> Path:
    """Per-test span trace (JSONL) beside the manifest.

    Not committed (wall-clock timestamps churn every run; see
    .gitignore) — CI uploads these as artifacts so any bench run can be
    opened with ``repro obs view`` / exported to Perfetto after the
    fact.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR / f"BENCH_{re.sub(r'[^A-Za-z0-9_.-]+', '_', label)}.trace.jsonl"


@pytest.fixture(scope="session")
def dataset():
    dataset = generate_topology(GeneratorConfig.default(), seed=42)
    _SESSION_FINGERPRINT.update(graph_fingerprint(dataset.graph))
    return dataset


@pytest.fixture(scope="session")
def context(dataset):
    # REPRO_BENCH_CACHE=1 opts the shared CPM run into the on-disk
    # clique cache ($REPRO_CACHE_DIR or ~/.cache/repro, keyed by the
    # graph fingerprint).  CI sets it with an actions/cache-restored
    # directory so warm runs skip enumeration; committed baselines are
    # recorded without it, so a cache hit can only make the gated
    # timings faster, never mask a regression.
    cache = None
    if os.environ.get("REPRO_BENCH_CACHE"):
        from repro.core.cache import CliqueCache

        cache = CliqueCache()
    return AnalysisContext.from_dataset(
        dataset,
        cache=cache,
        tracer=_SESSION_TRACER,
        metrics=_SESSION_METRICS,
    )


@pytest.fixture(scope="session")
def paper_run(dataset, context):
    run = PaperRun.__new__(PaperRun)
    run.dataset = dataset
    run.context = context
    return run


@pytest.fixture()
def bench_record(request):
    """Mutable mapping of scalar results a benchmark wants persisted.

    Whatever a test stores here (e.g. per-scale CPM seconds) lands in
    its ``BENCH_<test>.json`` manifest's config — the numbers
    ``check_bench_regression.py`` compares across commits.
    """
    record: dict = {}
    request.node._bench_record = record
    return record


@pytest.fixture()
def bench_tracer(request):
    """Per-test tracer whose spans merge into the test's manifest.

    Hand it to the code under benchmark (e.g. a
    :class:`~repro.analysis.engine.MetricsEngine`) and its spans —
    ``analysis.sweep`` and friends — land in ``BENCH_<test>.json``
    alongside the autouse timing span, where
    ``check_bench_regression.py`` can gate on them.
    """
    tracer = Tracer(memory=_TRACE_MEMORY)
    request.node._bench_tracer = tracer
    return tracer


@pytest.fixture()
def bench_metrics(request):
    """Per-test metric registry persisted in the test's manifest."""
    registry = MetricsRegistry()
    request.node._bench_metrics = registry
    return registry


@pytest.fixture(autouse=True)
def bench_manifest(request):
    """Time each benchmark test and archive its manifest under output/.

    The per-test manifest carries one span (the whole test: wall, CPU,
    peak memory), the kernel variant, any ``bench_record`` scalars, and
    the session dataset's fingerprint once known — the accumulating
    ``BENCH_*.json`` perf trajectory.
    """
    tracer = Tracer(memory=_TRACE_MEMORY)
    with tracer.span("bench", nodeid=request.node.nodeid):
        yield
    tracer.close()
    extra_tracer = getattr(request.node, "_bench_tracer", None)
    if extra_tracer is not None:
        extra_tracer.close()
        tracer.records.extend(extra_tracer.records)
    config = {"kernel": _KERNEL}
    config.update(getattr(request.node, "_bench_record", {}))
    manifest = RunManifest.collect(
        label=request.node.name,
        config=config,
        settings={"kernel": _KERNEL, "memory": _TRACE_MEMORY},
        tracer=tracer,
        metrics=getattr(request.node, "_bench_metrics", None),
    )
    manifest.fingerprint = dict(_SESSION_FINGERPRINT) or None
    manifest.save(_manifest_path(request.node.name))
    tracer.write_jsonl(_trace_path(request.node.name))


def pytest_sessionfinish(session):
    """Write the shared CPM run's spans/metrics as the session manifest."""
    if not _SESSION_TRACER.records and not _SESSION_METRICS.to_dict()["counters"]:
        return
    manifest = RunManifest.collect(
        label="session",
        config={"kernel": _KERNEL},
        settings={"kernel": _KERNEL, "memory": _TRACE_MEMORY},
        tracer=_SESSION_TRACER,
        metrics=_SESSION_METRICS,
    )
    manifest.fingerprint = dict(_SESSION_FINGERPRINT) or None
    manifest.save(_manifest_path("_session"))
    _SESSION_TRACER.write_jsonl(_trace_path("_session"))
    _SESSION_TRACER.close()


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated artefact and archive it under output/."""

    OUTPUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit
