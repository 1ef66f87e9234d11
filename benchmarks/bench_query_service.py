"""Query-service read path: artifact build, load, and point lookups.

The query artifact exists so the read path answers in microseconds with
zero CPM recompute; this bench freezes the session context into an
artifact, round-trips it through save -> mmap load, and times the four
point-query families a served artifact answers (membership, band,
lowest common community, top-N).  Correctness comes first: every timed
lookup family is checked against the live hierarchy/tree objects before
any number is recorded, so the timings measure the same answers.

Persisted measurements (``BENCH_*.json`` config, gated by
``check_bench_regression.py``): ``query_lookup_seconds_*`` are
many-iteration loop totals sized to clear the gate's tiny-baseline
floor (0.05 s) so the latency trajectory is actually enforced; the
per-call ``query_lookup_us_*`` microsecond figures and the build/load
costs ride along ungated.  The build's ``query.build`` span lands in
the manifest via ``bench_tracer``/``bench_metrics``.

``test_query_service_concurrent`` drives the *served* path: a live
:class:`~repro.query.server.QueryServer` hammered over HTTP by
keep-alive client threads.  It records ``query_throughput_rps``
(gated, higher-is-better: served throughput must not silently drop)
and the per-endpoint ``query_p99_seconds_*`` tail latencies straight
from the server's log-bucketed histograms.  Each reply still leaves in
two sends with Nagle on, so every keep-alive request waits ~44 ms for
the client's delayed ACK and the throughput reads ~8 / 44 ms.
"""

from __future__ import annotations

import http.client
import threading
import time

from repro.api import load_query_artifact, make_query_server
from repro.obs.manifest import graph_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.query import LookupEngine, build_artifact
from repro.report.figures import ascii_table

#: Loop counts per lookup family, sized so each loop total clears the
#: regression gate's 0.05 s floor by a wide margin on CI hardware.
_LOOPS = {"membership": 50_000, "band": 40_000, "lca": 20_000, "top": 10_000}

#: Concurrent-load shape: client threads x keep-alive requests each.
_CLIENTS = 8
_REQUESTS_PER_CLIENT = 300


def test_query_service_lookups(
    benchmark, context, emit, bench_record, bench_tracer, bench_metrics, tmp_path
):
    hierarchy = context.hierarchy

    start = time.perf_counter()
    built = build_artifact(
        hierarchy,
        tree=context.tree,
        graph=context.graph,
        csr=context.csr,
        tracer=bench_tracer,
        metrics=bench_metrics,
    )
    bench_record["query_build_seconds"] = round(time.perf_counter() - start, 4)

    path = tmp_path / "bench.rqart"
    built.save(path)
    start = time.perf_counter()
    artifact = load_query_artifact(path)
    bench_record["query_load_seconds"] = round(time.perf_counter() - start, 4)
    bench_record["query_artifact_bytes"] = path.stat().st_size

    engine = LookupEngine(artifact)
    nodes = artifact.nodes
    assert artifact.fingerprint == graph_fingerprint(context.graph)

    # Exactness before timing: the artifact must answer identically to
    # the live objects for every family about to be measured.
    for node in nodes[:50]:
        assert engine.memberships(node) == hierarchy.membership_of(node)
        assert engine.band(node)["max_k"] == max(hierarchy.membership_of(node))
    pair_members = artifact.members(0)
    lca = engine.lowest_common(pair_members[0], pair_members[1])
    assert lca is not None and lca["k"] >= artifact.orders[0]
    top = engine.top("density", n=10)
    densities = [record["link_density"] for record in top]
    assert densities == sorted(densities, reverse=True)

    # Timed loops — each family cycles through real ASes so the postings
    # slices touched vary the way served traffic would.
    n = len(nodes)
    timings: dict[str, tuple[float, float]] = {}

    def _loop(name: str, fn) -> None:
        loops = _LOOPS[name]
        start = time.perf_counter()
        for i in range(loops):
            fn(i)
        total = time.perf_counter() - start
        timings[name] = (total, total / loops)
        bench_record[f"query_lookup_seconds_{name}"] = round(total, 4)
        bench_record[f"query_lookup_us_{name}"] = round(total / loops * 1e6, 2)

    _loop("membership", lambda i: engine.memberships(nodes[i % n]))
    _loop("band", lambda i: engine.band(nodes[i % n]))
    _loop("lca", lambda i: engine.lowest_common(nodes[i % n], nodes[(i * 7 + 1) % n]))
    _loop("top", lambda i: engine.top("density", n=10))

    # The timed target for pytest-benchmark: one membership lookup.
    benchmark(lambda: engine.memberships(nodes[0]))

    table = ascii_table(
        ["lookup", "loops", "total (s)", "per call (us)"],
        [
            [name, _LOOPS[name], round(total, 3), round(per_call * 1e6, 2)]
            for name, (total, per_call) in timings.items()
        ],
        title=(
            f"query-service point lookups "
            f"({artifact.n_communities} communities, {artifact.n_nodes} ASes, "
            f"{path.stat().st_size} byte artifact)"
        ),
    )
    emit("query_service_lookups", table)

    artifact.close()


def _serve_and_hammer(artifact, nodes) -> tuple[float, dict]:
    """Serve ``artifact`` and hammer it; returns (wall, metrics dict).

    ``_CLIENTS`` threads each issue ``_REQUESTS_PER_CLIENT`` requests
    over one keep-alive :class:`http.client.HTTPConnection`, cycling
    membership/band/top paths the way served traffic would.  Every
    response is checked to be 200.
    """
    metrics = MetricsRegistry()
    server = make_query_server(artifact, metrics=metrics)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    n = len(nodes)
    bad: list[int] = []

    def client(t: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for i in range(_REQUESTS_PER_CLIENT):
                node = nodes[(t * _REQUESTS_PER_CLIENT + i) % n]
                path = (
                    f"/membership?as={node}",
                    f"/band?as={node}",
                    "/top?metric=density&n=5",
                )[i % 3]
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    bad.append(response.status)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(t,)) for t in range(_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not bad, f"non-200 responses under load: {bad[:5]}"
    data = metrics.to_dict()
    total = _CLIENTS * _REQUESTS_PER_CLIENT
    assert data["counters"]["query.requests"] == total, "lost counter updates"
    return wall, data


def test_query_service_concurrent(context, emit, bench_record, tmp_path):
    built = build_artifact(
        context.hierarchy, tree=context.tree, graph=context.graph, csr=context.csr
    )
    path = tmp_path / "bench-live.rqart"
    built.save(path)
    artifact = load_query_artifact(path)
    nodes = artifact.nodes
    total = _CLIENTS * _REQUESTS_PER_CLIENT

    wall, data = _serve_and_hammer(artifact, nodes)

    rps = total / wall
    bench_record["query_concurrent_requests"] = total
    bench_record["query_concurrent_clients"] = _CLIENTS
    bench_record["query_throughput_rps"] = round(rps, 1)

    rows = []
    histograms = data["histograms"]
    for endpoint in ("membership", "band", "top"):
        summary = histograms[f'query.request_seconds{{endpoint="{endpoint}"}}']
        bench_record[f"query_p99_seconds_{endpoint}"] = round(summary["p99"], 6)
        bench_record[f"query_p50_seconds_{endpoint}"] = round(summary["p50"], 6)
        rows.append(
            [
                endpoint,
                summary["count"],
                round(summary["p50"] * 1e6, 1),
                round(summary["p99"] * 1e6, 1),
                round(summary["max"] * 1e6, 1),
            ]
        )
        # Sanity on the live histograms: exact counts survived the
        # concurrent writers, and the tail dominates the median.
        assert summary["count"] == total // 3
        assert summary["p99"] >= summary["p50"] > 0.0

    table = ascii_table(
        ["endpoint", "requests", "p50 (us)", "p99 (us)", "max (us)"],
        rows,
        title=(
            f"served lookups under concurrent load "
            f"({_CLIENTS} clients x {_REQUESTS_PER_CLIENT} reqs: {rps:,.0f} rps)"
        ),
    )
    emit("query_service_concurrent", table)

    artifact.close()
