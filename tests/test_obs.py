"""Tests for the observability subsystem (tracing, metrics, manifests).

Covers the contract the rest of the pipeline relies on: the no-op
tracer really is free, spans nest, manifests survive a JSON round
trip, the instrumented LP-CPM run is oblivious to worker count (same
hierarchy, complete trace either way), and the percolation sweep skips
exactly the pairs that cannot merge anything at the swept orders.

Telemetry v2 contracts live here too: failed runs still flush complete
traces (dangling spans close), worker captures graft into the driver
trace with pid/worker attribution, the Perfetto export round-trips
through its own schema validator, manifest diffs print every shared
scalar and warn on incomparable settings, and the resource monitor
samples a consistent series.
"""

import json
import os
import time
from array import array
from pathlib import Path

import pytest

from repro.choices import KERNELS
from repro.cli import main
from repro.core.lightweight import LightweightParallelCPM
from repro.core.overlap import OverlapWire
from repro.core.percolation import percolate_wire
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    ResourceMonitor,
    RunManifest,
    Tracer,
    capture,
    current_metrics,
    diff_manifests,
    graph_fingerprint,
    load_trace,
    render_tree,
    to_perfetto,
    validate_trace_events,
    worker_span,
    write_perfetto,
)
from repro.obs.inspect import manifest_scalars


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("obs-data") / "bundle"
    tiny_dataset.save(path)
    return str(path)


def _hierarchy_signature(hierarchy):
    return {
        k: sorted(sorted(c.members) for c in cover)
        for k, cover in hierarchy.items()
    }


class TestNullTracer:
    def test_span_is_singleton_noop(self):
        a = NULL_TRACER.span("anything", attr=1)
        b = NULL_TRACER.span("else")
        assert a is b
        with a as span:
            span.set("x", 1)
            span.add("y")
        assert NULL_TRACER.records == []
        assert not NULL_TRACER.enabled

    def test_fresh_instance_also_noop(self):
        tracer = NullTracer()
        with tracer.span("phase"):
            pass
        assert tracer.records == []

    def test_no_measurable_overhead(self):
        """10⁵ no-op spans must cost ~nothing (well under a second)."""
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            with NULL_TRACER.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        # A real tracer does ~1-2 µs of bookkeeping per span; the no-op
        # path is an order of magnitude cheaper.  The bound is generous
        # so a loaded CI machine cannot flake it.
        assert elapsed < 2.0


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b") as b:
                b.add("count", 3)
            outer.set("phases", 2)
        records = {r.name: r for r in tracer.records}
        assert set(records) == {"outer", "inner.a", "inner.b"}
        outer_rec = records["outer"]
        assert outer_rec.parent_id is None
        assert outer_rec.depth == 0
        for name in ("inner.a", "inner.b"):
            assert records[name].parent_id == outer_rec.span_id
            assert records[name].depth == 1
        # Children close before the parent, and the parent's wall time
        # covers both children.
        assert tracer.records[-1].name == "outer"
        child_wall = records["inner.a"].wall_seconds + records["inner.b"].wall_seconds
        assert outer_rec.wall_seconds >= child_wall
        assert outer_rec.attrs["phases"] == 2
        assert records["inner.b"].attrs["count"] == 3

    def test_memory_peaks_fold_into_parent(self):
        tracer = Tracer(memory=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                blob = [0] * 200_000  # ~1.6 MB of list payload
                del blob
        tracer.close()
        records = {r.name: r for r in tracer.records}
        assert records["child"].peak_alloc_bytes > 1_000_000
        # The child's peak happened while the parent was open too.
        assert records["parent"].peak_alloc_bytes >= records["child"].peak_alloc_bytes

    def test_write_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", k=5):
            pass
        out = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "a"
        assert record["attrs"] == {"k": 5}
        assert record["wall_seconds"] >= 0

    def test_find(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        with tracer.span("x"):
            pass
        assert len(tracer.find("x")) == 2
        assert tracer.find("missing") == []


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.set_gauge("g", 7.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        payload = registry.to_dict()
        assert payload["counters"]["c"] == 3
        assert payload["gauges"]["g"] == 7.5
        hist = payload["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.observe("h", 5.0)
        b.observe("h", 1.0)
        a.merge(b)
        merged = a.to_dict()
        assert merged["counters"]["c"] == 3
        assert merged["gauges"]["g"] == 9.0
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 1.0

    def test_repr_smoke(self):
        assert "c" in repr(Counter("c"))
        assert "g" in repr(Gauge("g"))
        assert "h" in repr(Histogram("h"))

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("done")
        out = registry.write_json(tmp_path / "metrics.json")
        assert json.loads(out.read_text())["counters"]["done"] == 1


class TestRunManifest:
    def test_round_trip(self, tmp_path, ring_graph):
        tracer = Tracer()
        with tracer.span("cpm.run"):
            with tracer.span("cpm.enumerate"):
                pass
        registry = MetricsRegistry()
        registry.inc("cliques.enumerated", 4)
        manifest = RunManifest.collect(
            label="test",
            graph=ring_graph,
            config={"workers": 2, "max_k": 6},
            tracer=tracer,
            metrics=registry,
        )
        path = manifest.save(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.label == "test"
        assert loaded.config["workers"] == 2
        assert loaded.fingerprint == graph_fingerprint(ring_graph)
        assert loaded.metrics["counters"]["cliques.enumerated"] == 4
        assert loaded.span("cpm.enumerate")["name"] == "cpm.enumerate"
        names = [name for name, _, _, _ in loaded.phase_table()]
        assert names == ["cpm.enumerate"]

    def test_fingerprint_is_order_independent(self, ring_graph):
        fp = graph_fingerprint(ring_graph)
        assert fp["nodes"] == 20
        assert fp["edges"] == 44
        again = graph_fingerprint(ring_graph)
        assert fp == again

    def test_committed_manifests_name_a_current_kernel(self):
        """A committed BENCH manifest records a kernel this build runs, so
        ``repro obs diff`` against a fresh run warns only on a real switch."""
        output = Path(__file__).parents[1] / "benchmarks" / "output"
        manifests = sorted(output.glob("BENCH_*.json"))
        assert manifests
        for path in manifests:
            document = json.loads(path.read_text(encoding="utf-8"))
            for block in ("config", "settings"):
                kernel = document.get(block, {}).get("kernel")
                assert kernel is None or kernel in KERNELS, (path.name, block, kernel)


class TestInstrumentedRun:
    EXPECTED_SPANS = {
        "cpm.run",
        "cpm.enumerate",
        "cpm.overlap",
        "cpm.percolate",
        "cpm.hierarchy",
        "hierarchy.build",
    }

    def _run(self, graph, workers, kernel="blocks"):
        tracer = Tracer()
        metrics = MetricsRegistry()
        cpm = LightweightParallelCPM(
            graph, workers=workers, kernel=kernel, tracer=tracer, metrics=metrics
        )
        hierarchy = cpm.run(max_k=6)
        tracer.close()
        return hierarchy, tracer, metrics

    @pytest.mark.parametrize("kernel", ["blocks", "set"])
    def test_worker_count_is_invisible(self, ring_graph, kernel):
        runs = [self._run(ring_graph, 1, kernel)]
        if kernel == "set":
            # The serial oracle has no pool: it refuses workers by name.
            with pytest.raises(ValueError, match="serial reference oracle"):
                self._run(ring_graph, 2, kernel)
        else:
            runs.append(self._run(ring_graph, 2, kernel))
        h1 = runs[0][0]
        # The overlap counter's own span: the numpy pass, or the
        # oracle's inverted-index build.
        counter = "cpm.overlap.index" if kernel == "set" else "cpm.blocks.count"
        for hierarchy, tracer, metrics in runs:
            assert _hierarchy_signature(hierarchy) == _hierarchy_signature(h1)
            assert hierarchy.parent_labels == h1.parent_labels
            assert self.EXPECTED_SPANS | {counter} <= {r.name for r in tracer.records}
            counters = metrics.to_dict()["counters"]
            # 4 pentagons + 4 connecting-edge cliques.
            assert counters["cliques.enumerated"] == 8
            if kernel == "set":
                # Every clique pair sharing a node is counted.
                assert counters["overlap.pairs"] == 12
            else:
                # The pentagons share no nodes with each other, so all 12
                # co-occurring pairs involve a 2-clique connector — excluded
                # from truncated counting; order-2 connectivity is carried
                # by the chain pairs instead (docs/performance.md).
                assert counters["overlap.pairs"] == 0
                assert counters["overlap.chain_pairs"] == 8
            assert counters["hierarchy.communities"] > 0

    def test_kernels_emit_identical_hierarchies(self, ring_graph):
        hb, _, _ = self._run(ring_graph, 1, "blocks")
        hs, _, _ = self._run(ring_graph, 1, "set")
        assert _hierarchy_signature(hb) == _hierarchy_signature(hs)
        assert hb.parent_labels == hs.parent_labels

    def test_run_span_records_kernel(self, ring_graph):
        for kernel in ("blocks", "set"):
            _, tracer, _ = self._run(ring_graph, 1, kernel)
            run_record = next(r for r in tracer.records if r.name == "cpm.run")
            assert run_record.attrs["kernel"] == kernel

    def test_default_run_is_unobserved(self, ring_graph):
        cpm = LightweightParallelCPM(ring_graph)
        assert cpm.tracer is NULL_TRACER
        hierarchy = cpm.run(max_k=6)
        assert len(hierarchy[5]) == 4


def _wire(sizes, pairs):
    """A packed wire over (i, j, overlap) triples: overlap >= 2 pairs in
    their activation-order buckets, overlap-1 pairs as k=2 chains."""
    shift = max(1, len(sizes).bit_length())
    buckets, chains = {}, []
    for i, j, overlap in pairs:
        word = (i << shift) | j
        if overlap >= 2:
            buckets.setdefault(min(sizes[j], overlap + 1), []).append(word)
        else:
            chains.append(word)
    return OverlapWire(
        n_cliques=len(sizes),
        shift=shift,
        n_pairs=sum(map(len, buckets.values())),
        n_chain_pairs=len(chains),
        buckets={k: array("q", words).tobytes() for k, words in buckets.items()},
        chains=array("q", chains).tobytes(),
    )


class TestPercolatePrefilter:
    def test_matches_unfiltered_reference(self):
        # 6 cliques, overlaps spanning 1..4 so several thresholds bite.
        sizes = [6, 6, 5, 5, 4, 4]
        pairs = [
            (0, 1, 4),
            (0, 2, 3),
            (1, 2, 2),
            (2, 3, 2),
            (3, 4, 1),
            (4, 5, 1),
        ]

        def reference(order):
            # Direct per-order union-find over all pairs, no prefilter.
            parent = list(range(len(sizes)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            members = [i for i, s in enumerate(sizes) if s >= order]
            alive = set(members)
            for i, j, ov in pairs:
                if ov >= order - 1 and i in alive and j in alive:
                    parent[find(i)] = find(j)
            groups = {}
            for i in members:
                groups.setdefault(find(i), []).append(i)
            return sorted(sorted(g) for g in groups.values())

        orders = [5, 4, 3]
        eligibles = [sum(1 for s in sizes if s >= k) for k in orders]
        result, stats = percolate_wire(orders, eligibles, _wire(sizes, pairs))
        for order in orders:
            assert sorted(sorted(g) for g in result[order]) == reference(order)
        # Orders >= 3 never reach the k=2 chains: the two overlap-1
        # pairs are skipped.
        assert stats["skipped_pairs"] == 2
        assert stats["pairs_in"] == len(pairs)

    def test_low_order_batch_skips_nothing(self):
        sizes = [3, 3]
        pairs = [(0, 1, 1)]
        result, stats = percolate_wire([2], [2], _wire(sizes, pairs))
        assert stats["skipped_pairs"] == 0
        assert result[2] == [[0, 1]]


class TestCLIObservability:
    def test_trace_and_metrics_flags(self, tmp_path, saved_dataset, capsys):
        trace = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "communities",
                saved_dataset,
                "--max-k",
                "5",
                "--trace",
                str(trace),
                "--metrics",
                str(manifest_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        span_names = {json.loads(line)["name"] for line in trace.read_text().splitlines()}
        assert "cpm.run" in span_names
        assert "cpm.enumerate" in span_names
        manifest = RunManifest.load(manifest_path)
        assert manifest.label == "cli.communities"
        assert manifest.fingerprint is not None
        assert manifest.metrics["counters"]["cliques.enumerated"] > 0
        phases = manifest.phase_table()
        assert phases, "expected depth-1 phase spans in the manifest"

    def test_metrics_flag_alone(self, tmp_path, saved_dataset, capsys):
        manifest_path = tmp_path / "manifest.json"
        assert main(["tree", saved_dataset, "--metrics", str(manifest_path)]) == 0
        capsys.readouterr()
        manifest = RunManifest.load(manifest_path)
        assert manifest.metrics["counters"]["tree.nodes"] > 0


class TestTracerLifecycle:
    def test_error_attr_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.records[0].attrs["error"] == "RuntimeError"

    def test_context_manager_closes_dangling_spans(self):
        with Tracer() as tracer:
            tracer.span("left.open", k=4).__enter__()  # never exited
        assert [r.name for r in tracer.records] == ["left.open"]
        record = tracer.records[0]
        assert record.attrs["dangling"] is True
        assert record.attrs["k"] == 4
        assert record.wall_seconds >= 0.0

    def test_dangling_spans_close_innermost_first(self):
        tracer = Tracer()
        tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        tracer.close()
        assert [r.name for r in tracer.records] == ["inner", "outer"]
        records = {r.name: r for r in tracer.records}
        assert records["inner"].parent_id == records["outer"].span_id

    def test_close_is_idempotent(self):
        tracer = Tracer()
        tracer.span("open").__enter__()
        tracer.close()
        tracer.close()
        assert len(tracer.records) == 1

    def test_closed_trace_is_flushable(self, tmp_path):
        tracer = Tracer()
        tracer.span("phase").__enter__()
        tracer.close()
        out = tracer.write_jsonl(tmp_path / "crash.jsonl")
        record = json.loads(out.read_text().splitlines()[0])
        assert record["attrs"]["dangling"] is True


class TestAbsorb:
    def _worker_spans(self):
        worker = Tracer()
        with worker.span("worker.task", batch=0):
            with worker.span("worker.percolate.orders", orders=3):
                pass
        return worker.to_dicts()

    def test_grafts_under_open_span(self):
        driver = Tracer()
        with driver.span("runner.supervise"):
            driver.absorb(self._worker_spans(), pid=4242, worker_id=0)
        driver.close()
        records = {r.name: r for r in driver.records}
        supervise = records["runner.supervise"]
        task = records["worker.task"]
        child = records["worker.percolate.orders"]
        # Re-parented: worker roots hang off the open driver span, and
        # the worker-internal parent link survives re-identification.
        assert task.parent_id == supervise.span_id
        assert child.parent_id == task.span_id
        assert task.depth == 1 and child.depth == 2
        # Attribution is stamped on every grafted record.
        for record in (task, child):
            assert record.attrs["pid"] == 4242
            assert record.attrs["worker_id"] == 0
        assert child.attrs["orders"] == 3
        # Ids stay unique across native and absorbed spans.
        ids = [r.span_id for r in driver.records]
        assert len(ids) == len(set(ids))

    def test_absorb_without_open_span_makes_roots(self):
        driver = Tracer()
        driver.absorb(self._worker_spans(), pid=7)
        records = {r.name: r for r in driver.records}
        assert records["worker.task"].parent_id is None
        assert records["worker.percolate.orders"].parent_id == records["worker.task"].span_id

    def test_absorb_two_batches_keeps_ids_distinct(self):
        driver = Tracer()
        with driver.span("runner.supervise"):
            driver.absorb(self._worker_spans(), pid=1001, worker_id=0)
            driver.absorb(self._worker_spans(), pid=1002, worker_id=1)
        driver.close()
        ids = [r.span_id for r in driver.records]
        assert len(ids) == len(set(ids))
        tasks = driver.find("worker.task")
        assert {r.attrs["pid"] for r in tasks} == {1001, 1002}

    def test_null_tracer_absorb_is_noop(self):
        NULL_TRACER.absorb(self._worker_spans(), pid=1)
        assert NULL_TRACER.records == []


class TestWorkerTelemetryContext:
    def test_unobserved_helpers_are_noop(self):
        assert current_metrics() is None
        span = worker_span("worker.anything", n=1)
        assert span is NULL_TRACER.span("other")
        with span:
            span.set("ignored", 1)

    def test_capture_activates_and_exports(self):
        with capture("percolate", 3, 1) as ctx:
            registry = current_metrics()
            assert registry is ctx.metrics
            with worker_span("worker.inner", n=1):
                registry.inc("worker.test.calls")
        assert current_metrics() is None
        payload = ctx.export()
        assert payload["pid"] == os.getpid()
        names = {s["name"] for s in payload["spans"]}
        assert names == {"worker.task", "worker.inner"}
        task = next(s for s in payload["spans"] if s["name"] == "worker.task")
        assert task["attrs"] == {"phase": "percolate", "batch": 3, "attempt": 1}
        assert payload["metrics"]["counters"]["worker.test.calls"] == 1

    def test_capture_deactivates_on_error(self):
        with pytest.raises(RuntimeError):
            with capture("overlap", 0, 0):
                raise RuntimeError("boom")
        assert current_metrics() is None


class TestWorkerAttribution:
    @pytest.mark.parametrize("kernel", ["blocks", "set"])
    def test_parallel_run_ships_worker_spans(self, ring_graph, kernel):
        tracer = Tracer()
        metrics = MetricsRegistry()
        if kernel == "set":
            # The serial oracle has no pool to ship spans from: it
            # refuses workers by name (blocks below covers attribution).
            with pytest.raises(ValueError, match="serial reference oracle"):
                LightweightParallelCPM(ring_graph, workers=2, kernel=kernel)
            return
        cpm = LightweightParallelCPM(
            ring_graph, workers=2, kernel=kernel, tracer=tracer, metrics=metrics
        )
        cpm.run(max_k=6)
        tracer.close()
        by_id = {r.span_id: r for r in tracer.records}
        tasks = tracer.find("worker.task")
        assert tasks, "expected worker.task spans grafted from the pool"
        for record in tasks:
            assert record.attrs["pid"] != os.getpid()
            assert record.attrs["worker_id"] >= 0
            assert by_id[record.parent_id].name == "runner.supervise"
        # Worker-internal spans parent to their task span, never float.
        for record in tracer.records:
            if record.name.startswith("worker.") and record.name != "worker.task":
                assert by_id[record.parent_id].name == "worker.task"
        # workers=2 alone means two shards: enumeration fans out through
        # the pool, and overlap counting stays in the driver.
        names = {r.name for r in tracer.records}
        assert "worker.shard.enumerate" in names
        assert "worker.shard.count" not in names
        # Worker counters merged into the driver registry under the
        # worker.* namespace (distinct from the stats-dict aggregates).
        counters = metrics.to_dict()["counters"]
        assert counters.get("worker.shard.cliques", 0) > 0

    def test_serial_run_has_no_worker_spans(self, ring_graph):
        tracer = Tracer()
        cpm = LightweightParallelCPM(ring_graph, workers=1, tracer=tracer)
        cpm.run(max_k=6)
        tracer.close()
        assert tracer.find("worker.task") == []


class TestResourceMonitor:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            ResourceMonitor(interval=0)
        with pytest.raises(ValueError, match="interval"):
            ResourceMonitor(interval=-1.0)

    def test_samples_and_series(self):
        with ResourceMonitor(interval=0.01) as monitor:
            time.sleep(0.06)
        series = monitor.series()
        assert series["interval"] == 0.01
        samples = series["samples"]
        assert len(samples) >= 2  # one leading + one trailing at minimum
        for sample in samples:
            assert set(sample) == {"wall", "rss_kib", "max_rss_kib", "cpu_seconds"}
        walls = [s["wall"] for s in samples]
        assert walls == sorted(walls)
        # Linux always reports a positive high-water RSS.
        assert samples[-1]["max_rss_kib"] > 0

    def test_stop_is_idempotent(self):
        monitor = ResourceMonitor(interval=0.01).start()
        monitor.stop()
        count = len(monitor.samples)
        monitor.stop()
        assert len(monitor.samples) == count


class TestManifestV2:
    def test_settings_and_resources_round_trip(self, tmp_path):
        monitor = ResourceMonitor(interval=0.01).start()
        monitor.stop()
        manifest = RunManifest.collect(
            label="v2",
            settings={"kernel": "bitset", "workers": 4},
            resources=monitor.series(),
        )
        loaded = RunManifest.load(manifest.save(tmp_path / "m.json"))
        assert loaded.schema_version == 2
        assert loaded.settings == {"kernel": "bitset", "workers": 4}
        assert loaded.resources["interval"] == 0.01
        assert loaded.resources["samples"]
        assert loaded.to_dict() == manifest.to_dict()

    def test_v1_document_loads_with_empty_blocks(self):
        loaded = RunManifest.from_dict({"schema_version": 1, "label": "old"})
        assert loaded.settings == {}
        assert loaded.resources == {}
        assert loaded.schema_version == 1


class TestPerfettoExport:
    def _spans(self):
        driver = Tracer()
        with driver.span("cpm.run", kernel="bitset"):
            with driver.span("runner.supervise", phase="percolate"):
                worker = Tracer()
                with worker.span("worker.task", phase="percolate", batch=0, attempt=0):
                    pass
                driver.absorb(worker.to_dicts(), pid=4242, worker_id=0)
        driver.close()
        return driver.to_dicts()

    def test_round_trip_validates(self, tmp_path):
        spans = self._spans()
        resources = {
            "interval": 0.01,
            "samples": [
                {
                    "wall": spans[-1]["start_wall"],
                    "rss_kib": 100,
                    "max_rss_kib": 200,
                    "cpu_seconds": 0.5,
                }
            ],
        }
        out = write_perfetto(
            spans, tmp_path / "t.perfetto.json", resources=resources, label="t"
        )
        # The written file must survive a JSON round trip *and* the
        # trace-event schema check — what ui.perfetto.dev will parse.
        document = json.loads(out.read_text())
        validate_trace_events(document)
        events = document["traceEvents"]
        assert {e["ph"] for e in events} == {"X", "C", "M"}
        track_names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "t driver" in track_names
        assert "t worker 4242 (w0)" in track_names
        spans_x = [e for e in events if e["ph"] == "X"]
        # Timestamps rebase to the earliest span: the trace starts at 0.
        assert min(e["ts"] for e in spans_x) == 0.0
        worker_events = [e for e in spans_x if e["pid"] == 4242]
        assert [e["name"] for e in worker_events] == ["worker.task"]
        assert worker_events[0]["args"]["worker_id"] == 0
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert counters == {"rss_kib", "max_rss_kib", "cpu_seconds"}

    def test_driver_spans_stay_on_driver_track(self):
        document = to_perfetto(self._spans())
        run = next(
            e for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "cpm.run"
        )
        assert run["pid"] == 1
        assert run["args"]["kernel"] == "bitset"

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace_events({})
        with pytest.raises(ValueError, match="object"):
            validate_trace_events([])
        with pytest.raises(ValueError, match="unknown phase"):
            validate_trace_events(
                {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 0}]}
            )
        with pytest.raises(ValueError, match="name"):
            validate_trace_events(
                {"traceEvents": [{"ph": "X", "name": "", "pid": 1, "tid": 0,
                                  "ts": 0, "dur": 0}]}
            )
        with pytest.raises(ValueError, match="integer pid"):
            validate_trace_events(
                {"traceEvents": [{"ph": "M", "name": "n", "pid": "one", "tid": 0}]}
            )
        with pytest.raises(ValueError, match="non-negative numeric ts"):
            validate_trace_events(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                                  "ts": -1.0, "dur": 0}]}
            )
        with pytest.raises(ValueError, match="dur"):
            validate_trace_events(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                                  "ts": 0}]}
            )


class TestInspect:
    def test_load_trace_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tracer.write_jsonl(tmp_path / "t.jsonl")
        spans, document = load_trace(path)
        assert [s["name"] for s in spans] == ["a"]
        assert document is None

    def test_load_trace_manifest(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cpm.run"):
            pass
        manifest = RunManifest.collect(label="m", tracer=tracer)
        path = manifest.save(tmp_path / "m.json")
        spans, document = load_trace(path)
        assert [s["name"] for s in spans] == ["cpm.run"]
        assert document["schema_version"] == 2

    def test_render_tree_structure(self):
        tracer = Tracer()
        with tracer.span("cpm.run"):
            with tracer.span("cpm.enumerate"):
                pass
            with pytest.raises(ValueError):
                with tracer.span("cpm.overlap"):
                    raise ValueError("boom")
        tracer.close()
        lines = render_tree(tracer.to_dicts(), hot_count=1).splitlines()
        assert lines[0].startswith("cpm.run")  # roots carry no connector
        assert lines[1].startswith("|- cpm.enumerate")
        assert lines[2].startswith("`- cpm.overlap [error=ValueError]")
        for line in lines:
            assert "total=" in line and "self=" in line
        assert sum("<== hot" in line for line in lines) == 1

    def test_render_tree_orphan_becomes_root(self):
        spans = [
            {"name": "orphan", "span_id": 9, "parent_id": 12345,
             "start_wall": 0.0, "wall_seconds": 0.5},
        ]
        assert render_tree(spans).startswith("orphan")

    def test_render_tree_empty(self):
        assert render_tree([]) == "(empty trace)"

    def test_manifest_scalars_namespacing(self):
        manifest = {
            "spans": [
                {"name": "cpm.run", "wall_seconds": 2.0},
                {"name": "cpm.run", "wall_seconds": 9.0},  # dup: first wins
            ],
            "config": {"workers": 2, "kernel": "bitset", "flag": True},
            "metrics": {
                "counters": {"cliques.enumerated": 8},
                "gauges": {"runner.degraded": 0.0},
            },
        }
        assert manifest_scalars(manifest) == {
            "span:cpm.run.wall": 2.0,
            "config:workers": 2.0,
            "counter:cliques.enumerated": 8.0,
            "gauge:runner.degraded": 0.0,
        }

    def test_diff_prints_every_shared_scalar_and_warns(self):
        base = {
            "schema_version": 2,
            "settings": {"kernel": "bitset"},
            "spans": [{"name": "cpm.run", "wall_seconds": 1.0}],
            "config": {"workers": 2},
            "metrics": {"counters": {"c": 10}},
        }
        fresh = {
            "schema_version": 3,
            "settings": {"kernel": "set"},
            "spans": [{"name": "cpm.run", "wall_seconds": 1.5}],
            "config": {"workers": 2},
            "metrics": {"counters": {"c": 5, "d": 1}},
        }
        text = diff_manifests(base, fresh, names=("base", "fresh"))
        assert "WARNING: schema_version mismatch" in text
        # Kernel gets its own message: the timing deltas measure the
        # kernel swap itself, not a regression.
        assert "WARNING: kernel mismatch" in text
        assert "not a regression" in text
        for scalar in ("span:cpm.run.wall", "config:workers", "counter:c"):
            assert scalar in text
        assert "+50.0%" in text  # the span regressed by half
        assert "only in fresh: counter:d" in text

    def test_diff_identical_manifests_has_no_warnings(self):
        doc = {
            "schema_version": 2,
            "settings": {"kernel": "bitset"},
            "spans": [{"name": "cpm.run", "wall_seconds": 1.0}],
        }
        text = diff_manifests(doc, doc)
        assert "WARNING" not in text
        assert "span:cpm.run.wall" in text


class TestObsCLI:
    @pytest.fixture()
    def artifacts(self, tmp_path, saved_dataset, capsys):
        """One instrumented 2-worker CLI run's trace + manifest."""
        trace = tmp_path / "trace.jsonl"
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "communities", saved_dataset, "--max-k", "5", "--workers", "2",
                "--trace", str(trace), "--metrics", str(manifest),
                "--resource-interval", "0.01",
            ]
        )
        capsys.readouterr()
        assert code == 0
        return trace, manifest

    def test_run_records_settings_resources_and_worker_spans(self, artifacts):
        trace, manifest_path = artifacts
        manifest = RunManifest.load(manifest_path)
        assert manifest.settings["workers"] == 2
        assert manifest.settings["kernel"]
        assert manifest.resources["samples"], "resource monitor recorded no samples"
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        workers = {
            s["attrs"]["pid"] for s in spans if s["name"] == "worker.task"
        }
        assert workers, "expected worker-attributed spans in the CLI trace"

    def test_obs_view(self, artifacts, capsys):
        trace, _ = artifacts
        assert main(["obs", "view", str(trace), "--hot", "1"]) == 0
        out = capsys.readouterr().out
        assert "cpm.run" in out
        assert "worker.task" in out
        assert "<== hot" in out

    def test_obs_view_reads_manifests_too(self, artifacts, capsys):
        _, manifest_path = artifacts
        assert main(["obs", "view", str(manifest_path)]) == 0
        assert "cpm.run" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["view", "{trace}"],
            ["view", "{manifest}"],
            ["export", "{trace}", "--out", "{out}"],
            ["export", "{manifest}", "--out", "{out}"],
            ["export", "{manifest}", "--format", "prometheus"],
        ],
        ids=["view-trace", "view-manifest", "export-trace", "export-manifest", "prometheus"],
    )
    def test_obs_commands_leave_their_input_alone(self, artifacts, tmp_path, capsys, argv):
        """The positional ``trace`` of ``obs view``/``obs export`` is an
        input, not a ``--trace`` output: the command must not rewrite it."""
        trace, manifest_path = artifacts
        paths = {"trace": trace, "manifest": manifest_path, "out": tmp_path / "out.json"}
        before = {path: path.read_bytes() for path in (trace, manifest_path)}
        assert main(["obs"] + [arg.format(**paths) for arg in argv]) == 0
        assert "wrote trace" not in capsys.readouterr().out
        assert {path: path.read_bytes() for path in before} == before

    def test_obs_diff(self, artifacts, tmp_path, capsys):
        _, manifest_path = artifacts
        assert main(["obs", "diff", str(manifest_path), str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "WARNING" not in out
        assert "span:cpm.run.wall" in out
        assert "counter:cliques.enumerated" in out

    def test_obs_export(self, artifacts, tmp_path, capsys):
        trace, _ = artifacts
        out_path = tmp_path / "out.perfetto.json"
        assert main(["obs", "export", str(trace), "--out", str(out_path)]) == 0
        assert "perfetto" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        validate_trace_events(document)
        worker_pids = {
            e["pid"] for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "worker.task"
        }
        assert worker_pids and 1 not in worker_pids

    def test_obs_history_worktree_fallback(self, artifacts, tmp_path, capsys):
        _, manifest_path = artifacts
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        (bench_dir / "BENCH_sample.json").write_text(manifest_path.read_text())
        assert main(["obs", "history", str(bench_dir)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_sample.json" in out
        assert "worktree" in out
        assert "span:cpm.run.wall" in out
