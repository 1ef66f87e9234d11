"""What the benchmark measures: workloads, run sizes and metrics.

``BENCHMARK.json`` at the repository root mirrors :data:`WORKLOADS`,
:data:`END_TO_END` and :data:`PER_LAYER`; the harness tests check that
the two agree.  :data:`PER_LAYER` also carries, for every layer metric,
the end-to-end metric it should move and on which workload — the
prediction a change to that layer is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """How a workload runs ``run_cpm``; everything else is the same.

    Every workload runs every stage (batch CPM, warm-cache CPM, query
    artifact, incremental session, HTTP serving) on inputs made from the
    seed, so every end-to-end metric exists on every workload.
    """

    name: str
    why: str
    workers: int = 1
    shards: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cpm-batch",
            "serial run_cpm (auto kernel) on the scale-4 graph: batch layers with no pool; "
            "enumeration is most of it",
        ),
        Workload(
            "cpm-sharded",
            "the same scale-4 graph with workers=2, shards=2: the only workload that "
            "runs shard/runner (pool start, CSR shipping, bucket reduce)",
            workers=2,
            shards=2,
        ),
    )
}


#: Each growth batch adds this share of the opening snapshot's links.
DELTA_FRACTION = 0.01
#: Seed of the evolution the incremental stage is fed from; ``--seed``
#: orders its last transition into growth batches.  Session costs
#: follow the evolution's core (open and flap times differ by ~15%
#: between evolution seeds), so a seeded evolution would put that
#: difference into the spread between runs.
CHURN_SEED = 0
#: Rounds every run makes at least, however long they take; past them the
#: run ends at the first slice boundary after ``--seconds``.
MIN_ROUNDS = 2
#: Keep-alive client connections.  With the server's ~44 ms Nagle stall
#: per reply, two would give ~45 req/s, too few for a 1000-sample p99.
CONNECTIONS = 8


@dataclass(frozen=True)
class Profile:
    """Inputs and how much work each stage does (``full`` is the benchmark)."""

    name: str
    generator: str  # GeneratorConfig classmethod: "default" or "tiny"
    # Population scale of the batch graph; the incremental churn feed is
    # the scale-1 evolution.
    scale: float = 4.0
    snapshots: int = 12
    # Five periphery links and one core link (ranked by shared neighbours).
    flap_quantiles: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 0.9, 0.99)
    # Set-up repetitions (inputs; server starts); the median is reported.
    reps: int = 3
    server_starts: int = 2
    # Seconds each stage gets per round; a stage runs at least one unit.
    slices: dict = field(
        default_factory=lambda: {"cpm": 3.0, "cache": 1.5, "artifact": 1.5, "incr": 5.0}
    )
    # The closed-loop block: at least this long and this many requests
    # (>= 1000, so the p99 has at least ten samples beyond it).
    serve_seconds: float = 14.0
    serve_min_requests: int = 1100
    distinct_requests: int = 512


PROFILES = {
    "full": Profile("full", "default"),
    # Harness tests only: every stage on the ~450-AS test topology.
    "tiny": Profile(
        "tiny",
        "tiny",
        scale=1.0,
        snapshots=6,
        flap_quantiles=(0.5, 0.99),
        reps=1,
        server_starts=1,
        slices={"cpm": 0.0, "cache": 0.0, "artifact": 0.0, "incr": 0.0},
        serve_seconds=0.0,
        serve_min_requests=24,
        distinct_requests=32,
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


#: Seen by a user of the system; ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Times in ``s`` are wall seconds scaled to the reference host speed
#: (``perfbench/clock.py``); the ``serve_*`` metrics are as measured.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "input generation (median of several) plus query-server start"),
    Metric("peak_rss_mib", "MiB", "lower", 0.25, "benchmark process high-water RSS"),
    Metric("cpm_run_s", "s", "lower", 0.25, "run_cpm wall time, graph -> hierarchy"),
    Metric("cpm_cached_run_s", "s", "lower", 0.25, "run_cpm on a warm on-disk cache"),
    Metric("artifact_build_s", "s", "lower", 0.25,
           "build_query_artifact + save + load_query_artifact"),
    Metric("incr_open_s", "s", "lower", 0.25, "open_session on the previous snapshot"),
    Metric("incr_insert_s", "s", "lower", 0.25,
           "total apply time of the <=1%-of-edges growth batches"),
    Metric("incr_flap_s", "s", "lower", 0.25,
           "total delete-then-reinsert time over the sampled live links"),
    Metric("session_roundtrip_s", "s", "lower", 0.25, "CPMSession.save + load_session"),
    Metric("serve_rps", "req/s", "higher", 0.15,
           "completed requests per second, closed loop"),
    Metric("serve_p50_ms", "ms", "lower", 0.15, "client-observed median latency"),
    Metric("serve_p99_ms", "ms", "lower", 0.25,
           "client-observed p99 latency (>= 10 samples beyond it)"),
)

_CPM = "cpm_run_s on both workloads, and incr_open_s; no serve_*"
_SHARD = "cpm_run_s and peak_rss_mib on cpm-sharded only"
_ARTIFACT = "artifact_build_s on both workloads"
_INCR = "incr_insert_s and incr_flap_s on both workloads"
_SERVE = "serve_rps, serve_p50_ms and serve_p99_ms on both workloads"

#: From the traced run (``--trace 1``).  ``moves`` is the end-to-end
#: metric the layer metric should move, and where.
PER_LAYER = (
    Metric("graph.csr_build_s", "s", "lower", moves="cpm_run_s on cpm-batch"),
    Metric("cpm.enumerate_s", "s", "lower", moves=_CPM),
    Metric("cpm.overlap_s", "s", "lower", moves=_CPM),
    Metric("cpm.percolate_s", "s", "lower", moves=_CPM),
    Metric("cpm.hierarchy_s", "s", "lower", moves=_CPM),
    Metric("cpm.cliques", "count", "lower", moves=_CPM),
    Metric("overlap.pairs", "count", "lower", moves=_CPM),
    Metric("overlap.chain_pairs", "count", "lower", moves=_CPM),
    Metric("percolate.union_merges", "count", "lower", moves=_CPM),
    Metric("shard.plan_s", "s", "lower", moves=_SHARD),
    Metric("shard.reduce_s", "s", "lower", moves=_SHARD),
    Metric("shard.imbalance", "ratio", "lower", moves=_SHARD),
    Metric("shard.reduce_yield", "ratio", "lower", moves=_SHARD),
    Metric("overlap.bytes_shipped", "bytes", "lower", moves=_SHARD),
    Metric("runner.retries", "count", "lower", moves=_SHARD),
    Metric("runner.fallback_batches", "count", "lower", moves=_SHARD),
    Metric("shard.worker_peak_rss_mib", "MiB", "lower", moves=_SHARD),
    Metric("tree.build_s", "s", "lower", moves=_ARTIFACT),
    Metric("analysis.sweep_s", "s", "lower", moves=_ARTIFACT),
    Metric("query.build_s", "s", "lower", moves=_ARTIFACT),
    Metric("artifact.bytes", "bytes", "lower", moves=_ARTIFACT),
    Metric("persist.cache_store_s", "s", "lower", moves="cpm_cached_run_s"),
    Metric("persist.cache_load_s", "s", "lower", moves="cpm_cached_run_s"),
    Metric("incr.save_s", "s", "lower", moves="session_roundtrip_s"),
    Metric("incr.load_s", "s", "lower", moves="session_roundtrip_s"),
    Metric("persist.session_bytes", "bytes", "lower", moves="session_roundtrip_s"),
    Metric("incr.mutate_s", "s", "lower", moves=_INCR),
    Metric("incr.percolate_s", "s", "lower", moves=_INCR),
    Metric("incr.diff_s", "s", "lower", moves=_INCR),
    Metric("incr.hierarchy_s", "s", "lower", moves=_INCR),
    Metric("incr.cliques_born", "count", "lower", moves=_INCR),
    Metric("incr.cliques_retired", "count", "lower", moves=_INCR),
    Metric("incr.orders_repercolated", "count", "lower", moves=_INCR),
    Metric("incr.repercolate_yield", "ratio", "higher", moves=_INCR),
    Metric("lookup.us_membership", "us", "lower", moves="floor of serve_p50_ms"),
    Metric("lookup.us_band", "us", "lower", moves="floor of serve_p50_ms"),
    Metric("lookup.us_lca", "us", "lower", moves="floor of serve_p50_ms"),
    Metric("lookup.us_top", "us", "lower", moves="floor of serve_p50_ms"),
    Metric("serve.handler_p50_us", "us", "lower", moves=_SERVE),
    Metric("serve.handler_p99_us", "us", "lower", moves=_SERVE),
    Metric("serve.transport_ms", "ms", "lower", moves=_SERVE),
    Metric("serve.server_cpu_ms_per_req", "ms", "lower", moves=_SERVE),
    Metric("query.errors", "count", "lower", moves=_SERVE),
    Metric("query.rejected", "count", "lower", moves=_SERVE),
    Metric("obs.tracing_overhead", "ratio", "lower",
           moves="none: traced over untraced run_cpm time, minus 1"),
)
