"""Tests for the query subsystem: artifact, lookup engine, server, CLI.

The round-trip contract under test: build an artifact from a live CPM
result, save it, load it back through the mmap path, and every lookup
must be *identical* to the answer computed directly from the
``CommunityHierarchy``/``CommunityTree`` objects — across both kernels.
Plus: corrupted/truncated files fail with a clean :class:`ArtifactError`,
the HTTP server answers every endpoint, and ``repro query lookup``
traces contain no ``cpm.run`` span (zero recompute on the read path).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import build_query_artifact, load_query_artifact, run_cpm
from repro.cli import main
from repro.obs import logging as obs_logging
from repro.obs.exposition import parse_exposition
from repro.obs.manifest import graph_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.query import (
    ARTIFACT_VERSION,
    ArtifactError,
    BandSpec,
    LookupEngine,
    QueryArtifact,
    build_artifact,
    make_server,
)
from repro.query.server import _QueryRequestHandler


# ----------------------------------------------------------------------
# Shared artefacts (module-scoped; CPM on the tiny profile is ~instant)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cpm_result(tiny_dataset):
    return run_cpm(tiny_dataset.graph, k_range=(3, None))


@pytest.fixture(scope="module")
def artifact(cpm_result, tiny_dataset):
    art = build_query_artifact(cpm_result, tiny_dataset.graph)
    yield art
    art.close()


@pytest.fixture(scope="module")
def loaded(artifact, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "tiny.rqart"
    artifact.save(path)
    art = load_query_artifact(path)
    yield art
    art.close()


@pytest.fixture(scope="module")
def engine(loaded):
    return LookupEngine(loaded)


# ----------------------------------------------------------------------
# BandSpec
# ----------------------------------------------------------------------
class TestBandSpec:
    def test_band_of(self):
        bands = BandSpec(13, 29)
        assert bands.band_of(3) == "root"
        assert bands.band_of(13) == "root"
        assert bands.band_of(14) == "trunk"
        assert bands.band_of(28) == "trunk"
        assert bands.band_of(29) == "crown"
        assert bands.band_of(40) == "crown"


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
class TestBuild:
    def test_counts_match_hierarchy(self, artifact, cpm_result):
        hierarchy = cpm_result.hierarchy
        assert artifact.n_communities == sum(
            len(hierarchy[k]) for k in hierarchy.orders
        )
        universe = set()
        for k in hierarchy.orders:
            for community in hierarchy[k]:
                universe.update(community.members)
        assert artifact.n_nodes == len(universe)
        assert artifact.orders == hierarchy.orders

    def test_fingerprint_is_graph_fingerprint(self, artifact, tiny_dataset):
        assert artifact.fingerprint == graph_fingerprint(tiny_dataset.graph)

    def test_kernels_build_identical_bytes(self, tiny_dataset):
        """Both kernels freeze into byte-identical artifacts.

        The set oracle (swept by the set analysis engine) anchors the
        comparison; the blocks kernel, swept by the bitset engine as
        every non-oracle run is, must reproduce its artifact byte for
        byte — hierarchy, tree, metric table and all.
        """
        legs = [("set", "set"), ("blocks", "bitset")]
        blobs = {}
        for kernel, engine in legs:
            result = run_cpm(tiny_dataset.graph, k_range=(3, None), kernel=kernel)
            blobs[kernel] = build_query_artifact(
                result, tiny_dataset.graph, analysis_engine=engine
            ).to_bytes()
        assert len(set(blobs.values())) == 1, sorted(blobs)

    def test_build_emits_span_and_counters(self, cpm_result, tiny_dataset):
        tracer, registry = Tracer(memory=True), MetricsRegistry()
        art = build_query_artifact(
            cpm_result, tiny_dataset.graph, tracer=tracer, metrics=registry
        )
        tracer.close()
        assert tracer.find("query.build")
        counters = registry.to_dict()["counters"]
        assert counters["query.build.communities"] == art.n_communities
        assert counters["query.build.nodes"] == art.n_nodes

    def test_rejects_unserialisable_nodes(self):
        graph_edges = [((1, 2), (3, 4)), ((3, 4), (5, 6)), ((1, 2), (5, 6))]
        from repro.graph import Graph

        result = run_cpm(Graph(graph_edges), k_range=(3, 3), kernel="set")
        with pytest.raises(TypeError, match="int/str"):
            build_artifact(result.hierarchy, graph=Graph(graph_edges))

    def test_needs_table_or_graph(self, cpm_result):
        with pytest.raises(ValueError, match="table or a graph"):
            build_artifact(cpm_result.hierarchy)


# ----------------------------------------------------------------------
# Round-trip: save -> load(mmap) -> identical lookups
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_loaded_bytes_identical(self, artifact, loaded):
        assert artifact.to_bytes() == loaded.to_bytes()

    def test_memberships_match_hierarchy(self, engine, cpm_result):
        hierarchy = cpm_result.hierarchy
        for node in engine.artifact.nodes:
            assert engine.memberships(node) == hierarchy.membership_of(node)

    def test_members_match_hierarchy(self, loaded, cpm_result):
        for ordinal, community in enumerate(cpm_result.hierarchy.all_communities()):
            assert loaded.label(ordinal) == community.label
            assert loaded.members(ordinal) == sorted(community.members)
            assert loaded.ordinal(community.label) == ordinal

    def test_parents_match_tree(self, loaded, cpm_result):
        from repro.core.tree import CommunityTree

        tree = CommunityTree(cpm_result.hierarchy)
        for ordinal, community in enumerate(cpm_result.hierarchy.all_communities()):
            record = loaded.record(ordinal)
            parent = tree.node(community.label).parent
            assert record["parent"] == (parent.label if parent else None)
            assert record["is_main"] == tree.is_main(community.label)

    def test_metric_table_matches_engine(self, loaded, tiny_context):
        table = {
            row["label"]: (row["link_density"], row["average_odf"])
            for row in tiny_context.engine.export_table()["rows"]
        }
        for ordinal in range(loaded.n_communities):
            record = loaded.record(ordinal)
            if record["label"] in table:
                density, odf = table[record["label"]]
                assert record["link_density"] == density
                assert record["average_odf"] == odf

    def test_lca_matches_brute_force(self, engine, cpm_result):
        hierarchy = cpm_result.hierarchy
        nodes = engine.artifact.nodes[:12]
        for a in nodes:
            for b in nodes:
                got = engine.lowest_common(a, b)
                common = []
                for k in hierarchy.orders:
                    for community in hierarchy[k]:
                        if a in community.members and b in community.members:
                            common.append(community)
                if not common:
                    assert got is None
                    continue
                best = max(common, key=lambda c: (c.k, -c.index))
                assert got is not None
                assert got["label"] == best.label

    def test_band_matches_membership_depth(self, engine, cpm_result):
        hierarchy = cpm_result.hierarchy
        bands = engine.artifact.bands
        for node in engine.artifact.nodes:
            info = engine.band(node)
            max_k = max(hierarchy.membership_of(node))
            assert info["max_k"] == max_k
            assert info["band"] == bands.band_of(max_k)

    def test_top_matches_fresh_sort(self, engine, loaded):
        records = [loaded.record(o) for o in range(loaded.n_communities)]
        by_density = sorted(
            records, key=lambda r: (-r["link_density"], r["k"], r["index"])
        )
        got = engine.top("density", n=5)
        assert [r["label"] for r in got] == [r["label"] for r in by_density[:5]]
        by_size = sorted(records, key=lambda r: (-r["size"], r["k"], r["index"]))
        got = engine.top("size", n=3)
        assert [r["label"] for r in got] == [r["label"] for r in by_size[:3]]

    def test_top_restricted_to_order(self, engine, loaded):
        k = loaded.orders[0]
        for record in engine.top("odf", n=4, k=k):
            assert record["k"] == k

    def test_no_mmap_load_identical(self, artifact, tmp_path):
        path = tmp_path / "plain.rqart"
        artifact.save(path)
        plain = load_query_artifact(path, mmap=False)
        assert plain.to_bytes() == artifact.to_bytes()
        plain.close()

    def test_close_is_idempotent(self, artifact, tmp_path):
        path = tmp_path / "closing.rqart"
        artifact.save(path)
        art = load_query_artifact(path)
        members = art.members(0)
        art.close()
        art.close()
        # The bitsets were detached to bytes; lookups still work.
        assert art.members(0) == members

    def test_save_over_a_mapped_artifact_keeps_the_reader_alive(self, tmp_path):
        """Saving over a path replaces the file instead of truncating it
        in place, so a process still reading the old bytes through mmap
        keeps working (in-place truncation killed it with SIGBUS)."""
        script = textwrap.dedent(
            f"""
            from repro.api import build_query_artifact, load_query_artifact, run_cpm
            from repro.graph import ring_of_cliques

            path = {str(tmp_path / "served.rqart")!r}
            big, small = ring_of_cliques(300, 6), ring_of_cliques(3, 4)
            build_query_artifact(run_cpm(big), big).save(path)
            served = load_query_artifact(path, mmap=True)
            before = [served.members(o) for o in range(served.n_communities)]
            build_query_artifact(run_cpm(small), small).save(path)
            after = [served.members(o) for o in range(served.n_communities)]
            assert after == before
            assert load_query_artifact(path).n_communities < served.n_communities
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)


# ----------------------------------------------------------------------
# Corruption
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture()
    def saved(self, artifact, tmp_path):
        path = tmp_path / "victim.rqart"
        artifact.save(path)
        return path

    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_truncated(self, saved, tmp_path, use_mmap):
        raw = saved.read_bytes()
        bad = tmp_path / "truncated.rqart"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactError, match="corrupt or truncated"):
            load_query_artifact(bad, mmap=use_mmap)

    @pytest.mark.parametrize("use_mmap", [True, False])
    def test_flipped_byte(self, saved, tmp_path, use_mmap):
        raw = bytearray(saved.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.rqart"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="corrupt or truncated"):
            load_query_artifact(bad, mmap=use_mmap)

    def test_bad_magic(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        raw[0] ^= 0xFF
        bad = tmp_path / "magic.rqart"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="bad magic"):
            load_query_artifact(bad)

    def test_wrong_version(self, saved, tmp_path):
        raw = bytearray(saved.read_bytes())
        raw[5] = ARTIFACT_VERSION + 1
        bad = tmp_path / "version.rqart"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="artifact version"):
            load_query_artifact(bad)

    def test_empty_file(self, tmp_path):
        bad = tmp_path / "empty.rqart"
        bad.write_bytes(b"")
        with pytest.raises(ArtifactError, match="too small"):
            load_query_artifact(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot open"):
            load_query_artifact(tmp_path / "nope.rqart")

    def test_unverified_load_skips_digest(self, saved, tmp_path):
        """verify=False loads corrupt *payload* bytes without complaint."""
        raw = bytearray(saved.read_bytes())
        raw[-1] ^= 0xFF  # inside the bitset blocks
        bad = tmp_path / "unverified.rqart"
        bad.write_bytes(bytes(raw))
        art = QueryArtifact.load(bad, verify=False)
        assert art.n_communities > 0
        art.close()


# ----------------------------------------------------------------------
# Lookup errors
# ----------------------------------------------------------------------
class TestLookupErrors:
    def test_unknown_as(self, engine):
        with pytest.raises(KeyError, match="unknown AS"):
            engine.memberships(10**9)
        with pytest.raises(KeyError, match="unknown AS"):
            engine.band(10**9)

    def test_unknown_label(self, engine):
        with pytest.raises(KeyError, match="no community"):
            engine.community("k99id0")

    def test_malformed_label(self, engine):
        with pytest.raises(KeyError, match="malformed"):
            engine.community("sideways")

    def test_unknown_metric(self, engine):
        with pytest.raises(KeyError, match="unknown top metric"):
            engine.top("betweenness")

    def test_bad_n(self, engine):
        with pytest.raises(ValueError, match=">= 1"):
            engine.top("density", n=0)

    def test_lookup_counters(self, loaded):
        registry = MetricsRegistry()
        eng = LookupEngine(loaded, metrics=registry)
        node = loaded.nodes[0]
        eng.memberships(node)
        eng.band(node)
        eng.top("density", n=1)
        counters = registry.to_dict()["counters"]
        assert counters["query.lookups"] == 3
        assert counters["query.lookup.membership"] == 1
        assert counters["query.lookup.band"] == 1
        assert counters["query.lookup.top"] == 1


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(loaded):
    server = make_server(loaded, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get_error(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestServer:
    def test_health(self, server, loaded):
        status, body = _get(server, "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["communities"] == loaded.n_communities

    def test_artifact_endpoint(self, server, loaded):
        status, body = _get(server, "/artifact")
        assert status == 200
        assert body["fingerprint"] == loaded.fingerprint
        assert body["orders"] == loaded.orders

    def test_membership(self, server, loaded, cpm_result):
        node = loaded.nodes[0]
        status, body = _get(server, f"/membership?as={node}")
        assert status == 200
        expected = cpm_result.hierarchy.membership_of(node)
        assert body["memberships"] == {str(k): v for k, v in expected.items()}

    def test_band(self, server, loaded):
        node = loaded.nodes[0]
        status, body = _get(server, f"/band?as={node}")
        assert status == 200
        assert body["band"] in ("root", "trunk", "crown")

    def test_lca(self, server, loaded):
        a, b = loaded.members(0)[:2]
        status, body = _get(server, f"/lca?a={a}&b={b}")
        assert status == 200
        assert body["lca"] is not None
        assert body["lca"]["label"].startswith("k")

    def test_top(self, server):
        status, body = _get(server, "/top?metric=size&n=3")
        assert status == 200
        assert len(body["communities"]) == 3
        sizes = [record["size"] for record in body["communities"]]
        assert sizes == sorted(sizes, reverse=True)

    def test_community_with_members(self, server, loaded):
        label = loaded.label(0)
        status, body = _get(server, f"/community?label={label}&members=1")
        assert status == 200
        assert body["members"] == loaded.members(0)

    def test_unknown_as_404(self, server):
        status, body = _get_error(server, "/membership?as=999999999")
        assert status == 404
        assert "unknown AS" in body["error"]

    def test_unknown_path_404(self, server):
        status, body = _get_error(server, "/teapot")
        assert status == 404

    def test_missing_param_400(self, server):
        status, body = _get_error(server, "/membership")
        assert status == 400
        assert "as" in body["error"]

    def test_bad_n_400(self, server):
        status, body = _get_error(server, "/top?n=zero")
        assert status == 400

    def test_metrics_endpoint(self, server):
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_query_requests_total counter" in text
        assert "repro_process_uptime_seconds" in text
        samples = parse_exposition(text)
        assert samples[("repro_query_requests_total", ())] >= 1


# ----------------------------------------------------------------------
# Concurrent serving: no global lock, no lost telemetry
# ----------------------------------------------------------------------
N_CLIENTS = 8
PER_CLIENT = 25


def _fresh_server(loaded, **kwargs):
    tracer = Tracer()
    metrics = MetricsRegistry()
    server = make_server(loaded, port=0, tracer=tracer, metrics=metrics, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, tracer, metrics


class TestConcurrentServing:
    def _hammer(self, server, loaded, failures):
        """One client: PER_CLIENT rounds of health + band + a 404."""
        node = loaded.nodes[0]
        for _ in range(PER_CLIENT):
            try:
                with urllib.request.urlopen(server.url + "/health", timeout=10) as r:
                    assert json.loads(r.read())["status"] == "ok"
                with urllib.request.urlopen(
                    server.url + f"/band?as={node}", timeout=10
                ) as r:
                    assert json.loads(r.read())["band"] in ("root", "trunk", "crown")
                try:
                    urllib.request.urlopen(server.url + "/nope", timeout=10)
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

    def test_zero_lost_updates_and_exact_histograms(self, loaded):
        server, thread, tracer, metrics = _fresh_server(loaded)
        failures: list = []
        try:
            clients = [
                threading.Thread(target=self._hammer, args=(server, loaded, failures))
                for _ in range(N_CLIENTS)
            ]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert failures == []
        total = N_CLIENTS * PER_CLIENT
        counters = metrics.to_dict()["counters"]
        # Every update landed: no lost increments without the global lock.
        assert counters["query.requests"] == 3 * total
        assert counters["query.errors"] == total
        assert counters["query.lookup.band"] == total
        # Exact per-endpoint histogram counts, request_seconds summed
        # under concurrent observers.
        histograms = metrics.to_dict()["histograms"]
        assert histograms['query.request_seconds{endpoint="health"}']["count"] == total
        assert histograms['query.request_seconds{endpoint="band"}']["count"] == total
        assert histograms['query.request_seconds{endpoint="other"}']["count"] == total
        for summary in histograms.values():
            assert summary["p99"] >= summary["p50"] > 0.0
        assert server.served == 3 * total

    def test_per_request_spans_absorbed_with_request_ids(self, loaded):
        server, thread, tracer, metrics = _fresh_server(loaded)
        try:
            for _ in range(5):
                with urllib.request.urlopen(server.url + "/health", timeout=10):
                    pass
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        spans = [s for s in tracer.to_dicts() if s["name"] == "query.request"]
        assert len(spans) == 5
        ids = [s["attrs"]["request_id"] for s in spans]
        assert sorted(ids) == [1, 2, 3, 4, 5]
        assert all(s["attrs"]["status"] == 200 for s in spans)

    def test_concurrent_drain_is_exact(self, loaded):
        """max_requests with racing clients serves exactly N then stops."""
        server, thread, tracer, metrics = _fresh_server(loaded)
        limit = 20
        server.max_requests = limit
        statuses: list = []
        lock = threading.Lock()

        def client():
            while True:
                try:
                    with urllib.request.urlopen(
                        server.url + "/health", timeout=2
                    ) as r:
                        with lock:
                            statuses.append(r.status)
                except urllib.error.HTTPError as exc:
                    assert exc.code == 503  # rejected past the limit
                    return
                except (urllib.error.URLError, OSError, http.client.HTTPException):
                    return  # server drained

        clients = [threading.Thread(target=client) for _ in range(4)]
        for c in clients:
            c.start()
        thread.join(timeout=30)  # serve_forever returns on drain
        server.server_close()
        for c in clients:
            c.join(timeout=10)
        assert not thread.is_alive()
        assert server.served == limit
        assert metrics.counter("query.requests").value == limit
        assert all(s == 200 for s in statuses)

    def test_blocked_request_does_not_stall_others(self, loaded, monkeypatch):
        """A handler stuck inside a lookup leaves other connections served."""
        entered, release = threading.Event(), threading.Event()
        band = LookupEngine.band

        def blocking_band(self, node):
            entered.set()
            release.wait(timeout=30)
            return band(self, node)

        monkeypatch.setattr(LookupEngine, "band", blocking_band)
        server, thread, tracer, metrics = _fresh_server(loaded)
        statuses: list = []

        def blocked_client():
            url = server.url + f"/band?as={loaded.nodes[0]}"
            with urllib.request.urlopen(url, timeout=30) as r:
                statuses.append(r.status)

        client = threading.Thread(target=blocked_client)
        try:
            client.start()
            assert entered.wait(timeout=10)
            # A global request lock would hold this until the timeout.
            with urllib.request.urlopen(server.url + "/health", timeout=5) as r:
                assert r.status == 200
        finally:
            release.set()
            client.join(timeout=10)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not client.is_alive()
        assert statuses == [200]

    def test_access_log_events(self, loaded):
        stream = io.StringIO()
        obs_logging.configure(stream, run_id="srvrun1234ab")
        try:
            server, thread, tracer, metrics = _fresh_server(loaded)
            try:
                for _ in range(3):
                    with urllib.request.urlopen(server.url + "/health", timeout=10):
                        pass
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
        finally:
            obs_logging.shutdown()
        events = [
            json.loads(line)
            for line in stream.getvalue().strip().splitlines()
            if json.loads(line)["event"] == "query.access"
        ]
        assert len(events) == 3
        assert sorted(e["request_id"] for e in events) == [1, 2, 3]
        for event in events:
            assert event["run_id"] == "srvrun1234ab"
            assert event["endpoint"] == "health"
            assert event["status"] == 200
            assert event["seconds"] >= 0.0
            assert event["component"] == "query.server"

    def test_idle_connection_is_closed(self, loaded, monkeypatch):
        """A connection that sends nothing is closed after the handler's timeout."""
        timeout = _QueryRequestHandler.timeout
        assert timeout is not None and 0 < timeout <= 300
        monkeypatch.setattr(_QueryRequestHandler, "timeout", 0.5)
        server, thread, tracer, metrics = _fresh_server(loaded)
        try:
            with socket.create_connection(server.server_address[:2], timeout=10) as sock:
                start = time.perf_counter()
                assert sock.recv(1) == b""  # EOF: the server hung up
                assert time.perf_counter() - start < 5
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# CLI + acceptance: the read path never re-runs CPM
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def saved_dataset_dir(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("query-data") / "bundle"
    tiny_dataset.save(path)
    return str(path)


@pytest.fixture(scope="module")
def cli_artifact(tmp_path_factory, saved_dataset_dir):
    path = tmp_path_factory.mktemp("query-cli") / "tiny.rqart"
    assert main(["query", "build", saved_dataset_dir, str(path), "--min-k", "3"]) == 0
    return str(path)


class TestCLI:
    def test_build_reports_fingerprint(self, tmp_path, saved_dataset_dir, capsys):
        out = tmp_path / "a.rqart"
        assert main(["query", "build", saved_dataset_dir, str(out), "--min-k", "3"]) == 0
        stdout = capsys.readouterr().out
        assert "wrote query artifact" in stdout
        assert "fingerprint" in stdout
        assert out.exists()

    @pytest.mark.parametrize("engine", ["bitset", "set"])
    def test_build_span_names_the_sweeping_engine(
        self, tmp_path, saved_dataset_dir, capsys, engine
    ):
        """``query.build`` carries the engine that swept the frozen table."""
        trace = tmp_path / "build-trace.jsonl"
        args = [
            "query", "build", saved_dataset_dir, str(tmp_path / "a.rqart"),
            "--min-k", "3", "--analysis-engine", engine, "--trace", str(trace),
        ]
        assert main(args) == 0
        capsys.readouterr()
        spans = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        engines = {
            span["name"]: span["attrs"]["engine"]
            for span in spans
            if span["name"] in ("analysis.sweep", "query.build")
        }
        assert engines == {"analysis.sweep": engine, "query.build": engine}

    def test_lookup_info(self, cli_artifact, capsys):
        assert main(["query", "lookup", cli_artifact, "--info"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["info"]["format"] == "repro.query-artifact"

    def test_lookup_member_band_top(self, cli_artifact, loaded, capsys):
        node = str(loaded.nodes[0])
        args = [
            "query", "lookup", cli_artifact,
            "--member", node, "--band", node, "--top", "density", "--n", "2",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["band"]["band"] in ("root", "trunk", "crown")
        assert len(payload["top"]["communities"]) == 2

    def test_lookup_nothing_requested(self, cli_artifact, capsys):
        assert main(["query", "lookup", cli_artifact]) == 2
        assert "nothing to look up" in capsys.readouterr().err

    def test_lookup_trace_has_no_cpm_span(self, cli_artifact, loaded, tmp_path, capsys):
        """Acceptance: lookups answer from the artifact with zero recompute."""
        trace = tmp_path / "lookup-trace.jsonl"
        node = str(loaded.nodes[0])
        args = ["query", "lookup", cli_artifact, "--member", node, "--trace", str(trace)]
        assert main(args) == 0
        capsys.readouterr()
        names = [
            json.loads(line)["name"]
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert "query.lookup" in names
        assert not any(name.startswith("cpm.") for name in names)
        assert not any(name.startswith("analysis.") for name in names)

    def test_serve_max_requests(self, cli_artifact, capsys):
        """--max-requests N serves N requests then exits cleanly."""
        import io
        import re
        import sys
        import time

        results: dict = {}

        def drive():
            # Wait for the "serving ... at URL" line, then hit endpoints.
            for _ in range(200):
                stdout = buffer.getvalue()
                match = re.search(r"at (http://[\S]+)", stdout)
                if match:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - server never came up
                results["error"] = "server did not start"
                return
            url = match.group(1)
            for path in ("/health", "/artifact"):
                with urllib.request.urlopen(url + path, timeout=10) as response:
                    results[path] = response.status

        real_stdout = sys.stdout
        buffer = io.StringIO()
        sys.stdout = buffer
        try:
            client = threading.Thread(target=drive, daemon=True)
            client.start()
            code = main(["query", "serve", cli_artifact, "--port", "0", "--max-requests", "2"])
            client.join(timeout=10)
        finally:
            sys.stdout = real_stdout
        assert code == 0
        assert results.get("/health") == 200
        assert results.get("/artifact") == 200

    def test_serve_log_json_access_log(self, cli_artifact, tmp_path, capsys):
        """--log-json on `query serve` writes correlated NDJSON events."""
        import io
        import re
        import sys
        import time

        log_path = tmp_path / "serve.log.jsonl"
        results: dict = {}

        def drive():
            for _ in range(200):
                stdout = buffer.getvalue()
                match = re.search(r"at (http://[\S]+)", stdout)
                if match:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - server never came up
                results["error"] = "server did not start"
                return
            url = match.group(1)
            for path in ("/health", "/metrics"):
                with urllib.request.urlopen(url + path, timeout=10) as response:
                    results[path] = response.status

        real_stdout = sys.stdout
        buffer = io.StringIO()
        sys.stdout = buffer
        try:
            client = threading.Thread(target=drive, daemon=True)
            client.start()
            code = main(
                [
                    "query", "serve", cli_artifact, "--port", "0",
                    "--max-requests", "2", "--log-json", str(log_path),
                ]
            )
            client.join(timeout=10)
        finally:
            sys.stdout = real_stdout
        assert code == 0
        assert results.get("/health") == 200
        assert results.get("/metrics") == 200
        events = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").strip().splitlines()
        ]
        names = [e["event"] for e in events]
        assert "cli.start" in names
        assert "query.serve.start" in names
        assert names.count("query.access") == 2
        assert "query.serve.stop" in names
        run_ids = {e["run_id"] for e in events}
        assert len(run_ids) == 1  # one run_id correlates the whole invocation

    def test_lookup_manifest_carries_fingerprint(self, cli_artifact, loaded, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        args = ["query", "lookup", cli_artifact, "--info", "--metrics", str(manifest_path)]
        assert main(args) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["fingerprint"]["checksum"] == loaded.fingerprint["checksum"]


# ----------------------------------------------------------------------
# The export_table hook feeding the artifact build
# ----------------------------------------------------------------------
class TestExportTable:
    def test_rows_match_metrics_rows(self, tiny_context):
        exported = tiny_context.engine.export_table()
        assert exported["engine"] == tiny_context.engine.engine
        rows = {row["label"]: row for row in exported["rows"]}
        for row in tiny_context.metrics_rows():
            exported_row = rows[row.label]
            assert exported_row["link_density"] == row.link_density
            assert exported_row["average_odf"] == row.average_odf
            assert exported_row["k"] == row.k
            assert exported_row["size"] == row.size
