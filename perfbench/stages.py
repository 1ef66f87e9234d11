"""The benchmark's stages: seeded inputs, then timed calls into each layer.

Every stage calls the program's public functions (``run_cpm``,
``build_query_artifact``, ``open_session``, ``repro query serve`` ...)
and checks what they return before its time counts.  Untraced runs pass
no tracer.  A traced run passes one :class:`~repro.obs.Tracer` (plus a
fresh :class:`~repro.obs.MetricsRegistry` per call) into the same
functions and wraps each call in a ``bench.*`` span of its own; the
per-layer metrics come from those spans and counters.

End-to-end times go through :func:`clock.timed` (wall time scaled to the
reference host speed); per-layer times are raw wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import serving
import spans as span_math
from clock import timed
from repro.api import (
    build_query_artifact,
    load_query_artifact,
    load_session,
    open_session,
    run_cpm,
)
from repro.core.cache import CliqueCache
from repro.core.serialize import hierarchy_to_dict
from repro.core.tree import verify_nesting
from repro.evolution import TopologyEvolution
from repro.graph.csr import CSRGraph
from repro.incremental import EdgeDelta
from repro.obs import MetricsRegistry, Tracer
from repro.obs.manifest import graph_fingerprint
from repro.query import LookupEngine
from repro.topology.generator import GeneratorConfig, generate_topology
from spec import CHURN_SEED, CONNECTIONS, DELTA_FRACTION, MIN_ROUNDS, Profile, Workload


class CheckFailed(RuntimeError):
    """An output of the program was wrong; the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def hierarchy_digest(hierarchy) -> str:
    """A digest of the hierarchy's canonical JSON document."""
    document = json.dumps(hierarchy_to_dict(hierarchy), sort_keys=True)
    return hashlib.blake2b(document.encode("utf-8"), digest_size=16).hexdigest()


def _timed(fn):
    """``(fn(), wall seconds)``."""
    started = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - started


def _median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a run feeds the program, made from the seed alone."""

    graph: object  # the batch graph
    prev: object  # churn: the snapshot a session opens on ...
    final: object  # ... and the graph after the growth batches
    batches: list  # growth batches turning prev into final
    flaps: list  # live links of final to delete and reinsert
    paths: list  # HTTP request paths


def make_inputs(profile: Profile, seed: int) -> Inputs:
    base = getattr(GeneratorConfig, profile.generator)()
    graph = generate_topology(replace(base, scale=profile.scale), seed=seed).graph
    evolution = TopologyEvolution(base, seed=CHURN_SEED, n_snapshots=profile.snapshots)
    *_, t_prev, t_last = evolution.snapshot_times()
    prev = evolution.snapshot(t_prev)
    delta = EdgeDelta.between(prev, evolution.snapshot(t_last))
    check(not delta.deletions, "the evolution's last transition deletes links")
    # The whole transition in <=1% batches, in a seeded order: every seed
    # feeds the session the same links and ends at the same graph.
    cap = max(1, int(prev.number_of_edges * DELTA_FRACTION))
    grow = list(delta.insertions)
    random.Random(f"{seed}:growth").shuffle(grow)
    final = prev.copy()
    final.add_edges_from(grow)
    return Inputs(
        graph=graph,
        prev=prev,
        final=final,
        batches=[EdgeDelta(insertions=grow[i : i + cap]) for i in range(0, len(grow), cap)],
        flaps=_flap_sample(final, profile.flap_quantiles),
        paths=_request_paths(graph, profile.distinct_requests, seed),
    )


def _flap_sample(graph, quantiles) -> list:
    """The live links at fixed quantiles of their shared-neighbour count.

    Shared neighbours track how many cliques cover a link, and a flap's
    cost follows that count (a core link costs ~6x a periphery one).
    The links are the same for every seed: core links at neighbouring
    ranks differ by up to 40% in flap cost, so a seeded pick would put
    that into the spread between runs.
    """
    ranked = sorted(
        (len(graph.neighbors(u) & graph.neighbors(v)), u, v) for u, v in graph.edges()
    )
    picked = {ranked[round(q * (len(ranked) - 1))][1:]: None for q in quantiles}
    return list(picked)


def _request_paths(graph, n: int, seed: int) -> list[str]:
    """A seeded 1:1:1:1 membership/band/lca/top mix over random ASes."""
    rng = random.Random(f"{seed}:requests")
    nodes = sorted(node for node in graph.nodes() if graph.degree(node))
    kinds = ["membership", "band", "lca", "top"] * max(1, n // 4)
    rng.shuffle(kinds)
    paths = []
    for kind in kinds:
        if kind == "lca":
            paths.append(f"/lca?a={rng.choice(nodes)}&b={rng.choice(nodes)}")
        elif kind == "top":
            metric = rng.choice(("density", "odf", "size"))
            paths.append(f"/top?metric={metric}&n={rng.randint(1, 20)}")
        else:
            paths.append(f"/{kind}?as={rng.choice(nodes)}")
    return paths


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
#: Stage order within a round; serving follows the rounds as one block.
STAGES = ("cpm", "cache", "artifact", "incr")


class Bench:
    """One run of one workload: :meth:`run` fills ``e2e`` and ``layer``.

    The run is a sequence of rounds; each round gives every stage a
    slice of time, so every metric's samples are spread over the whole
    run rather than bunched in one stretch of it.  Each metric is the
    median of its samples.
    Serving comes last, as one closed-loop block over keep-alive
    connections against a freshly started server.
    """

    def __init__(
        self,
        *,
        root: Path,
        workdir: Path,
        workload: Workload,
        profile: Profile,
        seed: int,
        seconds: float,
        traced: bool,
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.profile = profile
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer() if traced else None
        self.registries: dict[str, MetricsRegistry] = {}
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.props: dict[str, object] = {}
        self.attempted = 0
        self.server_spans: list[dict] = []
        # Per stage, the values each unit of work returned; ``plain``
        # holds the untraced half of a traced run's run_cpm calls.
        self.rows: dict[str, list[dict]] = {stage: [] for stage in STAGES}
        self.plain: dict[str, list[dict]] = {"cpm": []}
        self._setup: list[float] = []
        self._cpm_kwargs = {
            "kernel": "auto",
            "workers": workload.workers,
            "shards": workload.shards,
        }

    # -- helpers -------------------------------------------------------
    def _obs(self, stage: str, traced: bool) -> dict:
        """Tracer + a fresh registry for a traced call; nothing otherwise."""
        if not traced:
            return {}
        registry = self.registries[stage] = MetricsRegistry()
        return {"tracer": self.tracer, "metrics": registry}

    def _span(self, name: str, traced: bool):
        return self.tracer.span(name) if traced else nullcontext()

    def _trees(self, name: str) -> list[list[dict]]:
        return span_math.subtrees(self.tracer.to_dicts(), name)

    def _span_median(self, root: str, name: str) -> float:
        trees = self._trees(root)
        return _median([span_math.wall(tree, name) for tree in trees]) if trees else 0.0

    def _counters(self, stage: str) -> dict:
        return self.registries[stage].to_dict()["counters"]

    # -- the run -------------------------------------------------------
    def run(self) -> None:
        self.setup()
        self.prepare()
        # Inputs and references live to the end: move them out of the
        # collector's reach, so a collection costs the same in every unit.
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        slices = 0
        while (slices < MIN_ROUNDS * len(STAGES)
               or time.perf_counter() - started < self.seconds):
            self._slice(STAGES[slices % len(STAGES)])
            slices += 1
        self.props["rounds"] = f"{slices / len(STAGES):g}"
        self.serve()
        self.summarize()
        if self.traced:
            self.layers()

    def _slice(self, stage: str) -> None:
        """Units of ``stage`` for one slice of time (at least one unit)."""
        seconds = self.profile.slices[stage]
        arms = [(self.traced, self.rows)]
        if self.traced and stage == "cpm":
            arms = [(False, self.plain), (True, self.rows)]
        for traced, sink in arms:
            unit = getattr(self, f"unit_{stage}")
            deadline = time.perf_counter() + seconds / len(arms)
            while True:
                gc.collect()  # each unit starts with no garbage of the last
                sink[stage].append(unit(traced))
                self.attempted += 1
                if time.perf_counter() >= deadline:
                    break

    def setup(self) -> None:
        """Make the inputs several times; the median is set-up's first part."""
        times = []
        for _ in range(self.profile.reps):
            self.inputs, seconds = timed(lambda: make_inputs(self.profile, self.seed))
            times.append(seconds)
        self._setup.append(_median(times))
        inputs = self.inputs
        self.props.update(
            batch_graph=f"{inputs.graph.number_of_nodes} ASes, "
            f"{inputs.graph.number_of_edges} links (scale {self.profile.scale:g})",
            churn=f"{inputs.prev.number_of_edges} -> {inputs.final.number_of_edges} links "
            f"in {len(inputs.batches)} batches",
            request_mix=_mix(inputs.paths),
        )

    def prepare(self) -> None:
        """Untimed references, and the artifact the server will map."""
        inputs = self.inputs
        graph = inputs.graph
        # The serial reference every timed run must reproduce byte for
        # byte; it also fills the on-disk cache the cache stage reads.
        cold = run_cpm(graph, kernel="auto", cache=str(self.workdir / "cache"))
        check(not cold.stats.cache_hit, "the reference run hit a cache")
        verify_nesting(cold.hierarchy)  # raises NestingViolation on a counterexample
        self.reference = hierarchy_digest(cold.hierarchy)
        self.result = cold
        self.props.update(
            cliques=cold.stats.n_cliques,
            max_clique=cold.stats.max_clique_size,
            kernel=cold.stats.kernel,
            numpy=_numpy_version(),
            nproc=os.cpu_count(),
            python=platform.python_version(),
        )
        # What every session must end at: run_cpm on the final graph.
        self.incr_reference = hierarchy_digest(run_cpm(inputs.final, kernel="auto").hierarchy)

        # The served artifact; the artifact stage writes elsewhere, never
        # over the file the server has mapped.
        served = self.workdir / "served.rqart"
        build_query_artifact(cold, graph).save(served)
        self.served = load_query_artifact(served)
        self.served_bytes = self.served.to_bytes()
        self.props["communities"] = self.served.n_communities
        self.engine = LookupEngine(self.served)
        self.expected = serving.expected_replies(self.engine, inputs.paths)

        self.served_path = served

    # -- units of work -------------------------------------------------
    def unit_cpm(self, traced: bool) -> dict:
        graph = self.inputs.graph
        with self._span("bench.cpm_run", traced):
            result, seconds = timed(
                lambda: run_cpm(graph, **self._cpm_kwargs, **self._obs("cpm", traced))
            )
        digest = hierarchy_digest(result.hierarchy)
        check(digest == self.reference,
              f"run_cpm hierarchy {digest} != serial reference {self.reference}")
        self.result = result
        return {"cpm_run_s": seconds}

    def unit_cache(self, traced: bool) -> dict:
        with self._span("bench.cached_run", traced):
            result, seconds = timed(
                lambda: run_cpm(
                    self.inputs.graph, **self._cpm_kwargs,
                    cache=str(self.workdir / "cache"), **self._obs("cache", traced),
                )
            )
        check(result.stats.cache_hit, "the warm cache run missed")
        check(hierarchy_digest(result.hierarchy) == self.reference,
              "the cached run's hierarchy differs from the serial reference")
        return {"cpm_cached_run_s": seconds}

    def unit_artifact(self, traced: bool) -> dict:
        path = self.workdir / "query.rqart"

        def build():
            built = build_query_artifact(
                self.result, self.inputs.graph, **self._obs("artifact", traced)
            )
            built.save(path)
            return built, load_query_artifact(path)

        with self._span("bench.artifact", traced):
            (built, loaded), seconds = timed(build)
        try:
            check(path.read_bytes() == self.served_bytes,
                  "saved artifact differs from the serial reference's")
            check(loaded.to_bytes() == self.served_bytes, "artifact save/load changed it")
        finally:
            loaded.close()
        del built
        return {"artifact_build_s": seconds}

    def unit_incr(self, traced: bool) -> dict:
        inputs = self.inputs
        obs = self._obs("incr", traced)
        with self._span("bench.incr_open", traced):
            session, open_s = timed(lambda: open_session(inputs.prev, kernel="auto", **obs))
        with self._span("bench.incr_insert", traced):
            _, insert_s = timed(lambda: [session.apply(b) for b in inputs.batches])

        covering = []

        def flap():
            for link in inputs.flaps:
                down = session.apply(EdgeDelta(deletions=[link]))
                session.apply(EdgeDelta(insertions=[link]))
                covering.append(down.cliques_retired)

        with self._span("bench.incr_flap", traced):
            _, flap_s = timed(flap)
        self.props["flap_covering_cliques"] = covering
        self.attempted += len(inputs.batches) + 2 * len(inputs.flaps)
        check(hierarchy_digest(session.result().hierarchy) == self.incr_reference,
              "session hierarchy differs from run_cpm on the final graph")

        session_dir = self.workdir / "session"

        def roundtrip():
            shutil.rmtree(session_dir, ignore_errors=True)
            session.save(session_dir)
            return load_session(session_dir, **obs)

        with self._span("bench.session_roundtrip", traced):
            loaded, roundtrip_s = timed(roundtrip)
        check(hierarchy_digest(loaded.result().hierarchy) == self.incr_reference,
              "reloaded session hierarchy differs from run_cpm on the final graph")
        return {
            "incr_open_s": open_s,
            "incr_insert_s": insert_s,
            "incr_flap_s": flap_s,
            "session_roundtrip_s": roundtrip_s,
        }

    def serve(self) -> None:
        """Start the server (set-up's second part), then one closed-loop block."""
        def start(trace: Path | None) -> serving.ServerProcess:
            self.attempted += 1
            return serving.ServerProcess(
                self.root, self.served_path, log=self.workdir / "serve.log", trace=trace
            )

        starts = []
        for _ in range(self.profile.server_starts - 1):
            server, seconds = timed(lambda: start(None))
            starts.append(seconds)
            server.stop()
        trace = self.workdir / "serve.trace.jsonl" if self.traced else None
        server, seconds = timed(lambda: start(trace))
        starts.append(seconds)
        self._setup.append(_median(starts))
        try:
            before = server.scrape() if self.traced else {}
            # The client threads share this process with every earlier
            # stage's objects: freeze them so collections stay young-only.
            gc.collect()
            gc.freeze()
            self.load = serving.closed_loop(
                server, self.inputs.paths, self.expected,
                connections=CONNECTIONS,
                min_requests=self.profile.serve_min_requests,
                min_seconds=self.profile.serve_seconds,
            )
            self.attempted += self.load.requests
            if self.traced:
                self.scrape = server.scrape()
                self.server_cpu = (
                    self.scrape["repro_process_cpu_seconds"] - before["repro_process_cpu_seconds"]
                )
        finally:
            server.stop()

    # -- results -------------------------------------------------------
    def summarize(self) -> None:
        for stage in ("cpm", "cache", "artifact", "incr"):
            rows = self.rows[stage]
            for key in rows[0]:
                self.e2e[key] = _median([row[key] for row in rows])
        load = self.load
        self.e2e.update(
            serve_rps=load.rps, serve_p50_ms=load.p50_ms, serve_p99_ms=load.p99_ms
        )
        self.props["requests"] = (
            f"{load.requests} over {CONNECTIONS} connections"
        )
        self.e2e["setup_s"] = sum(self._setup)
        self.e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.traced:
            self.layer["obs.tracing_overhead"] = _median(
                [row["cpm_run_s"] for row in self.rows["cpm"]]
            ) / _median([row["cpm_run_s"] for row in self.plain["cpm"]]) - 1.0

    def layers(self) -> None:
        """Per-layer metrics from the traced run's spans and counters."""
        graph = self.inputs.graph
        csr_times = []
        for _ in range(self.profile.reps):
            with self._span("bench.csr_build", True):
                _, seconds = _timed(lambda: CSRGraph.from_graph(graph))
            csr_times.append(seconds)
        self.layer["graph.csr_build_s"] = _median(csr_times)
        self._cpm_layers()
        self._persist_layers()
        self._incr_layers()
        self._serve_layers()

    def _cpm_layers(self) -> None:
        for metric, span in (
            ("cpm.enumerate_s", "cpm.enumerate"),
            ("cpm.overlap_s", "cpm.overlap"),
            ("cpm.percolate_s", "cpm.percolate"),
            ("cpm.hierarchy_s", "cpm.hierarchy"),
            ("shard.plan_s", "shard.plan"),
            ("shard.reduce_s", "shard.reduce"),
        ):
            self.layer[metric] = self._span_median("bench.cpm_run", span)
        for tree in self._trees("bench.cpm_run"):
            phases = sum(
                span_math.wall(tree, f"cpm.{p}")
                for p in ("enumerate", "overlap", "percolate", "hierarchy")
            )
            check(phases <= tree[0]["wall_seconds"], "cpm.* phases outlast their run_cpm call")
        registry = self.registries["cpm"].to_dict()
        count = registry["counters"].get
        for metric, name in (
            ("cpm.cliques", "cliques.enumerated"),
            ("overlap.pairs", "overlap.pairs"),
            ("overlap.chain_pairs", "overlap.chain_pairs"),
            ("percolate.union_merges", "percolate.union_merges"),
            ("overlap.bytes_shipped", "overlap.bytes_shipped"),
            ("runner.retries", "runner.retries"),
            ("runner.fallback_batches", "runner.fallback_batches"),
        ):
            self.layer[metric] = count(name, 0)
        pairs_in = count("shard.reduced_pairs_in", 0)
        self.layer["shard.reduce_yield"] = (
            count("shard.reduced_pairs_out", 0) / pairs_in if pairs_in else 0.0
        )
        self.layer["shard.imbalance"] = registry["gauges"].get("shard.imbalance", 0.0)
        # Pool workers report their own high-water RSS; without a pool
        # the "worker" is this process, already in peak_rss_mib.
        worker_rss = registry["histograms"].get("worker.max_rss_kib", {}).get("max", 0)
        self.layer["shard.worker_peak_rss_mib"] = (
            worker_rss / 1024 if self.workload.workers > 1 else 0.0
        )

    def _persist_layers(self) -> None:
        for metric, span in (
            ("tree.build_s", "tree.build"),
            ("analysis.sweep_s", "analysis.sweep"),
            ("query.build_s", "query.build"),
        ):
            self.layer[metric] = self._span_median("bench.artifact", span)
        self.layer["artifact.bytes"] = (self.workdir / "query.rqart").stat().st_size
        cache = CliqueCache(self.workdir / "cache")
        checksum = graph_fingerprint(self.inputs.graph)["checksum"]
        kernel = self.result.stats.kernel
        with self._span("bench.cache_load", True):
            payload, load_s = _timed(lambda: cache.load(checksum, kernel))
        check(payload is not None, "the cache holds no entry for this graph")
        store = CliqueCache(self.workdir / "cache-store")
        with self._span("bench.cache_store", True):
            _, store_s = _timed(lambda: store.store(checksum, kernel, payload))
        self.layer["persist.cache_load_s"] = load_s
        self.layer["persist.cache_store_s"] = store_s
        self.layer["incr.save_s"] = self._span_median("bench.session_roundtrip", "incr.save")
        self.layer["incr.load_s"] = self._span_median("bench.session_roundtrip", "incr.load")
        self.layer["persist.session_bytes"] = sum(
            f.stat().st_size for f in (self.workdir / "session").rglob("*") if f.is_file()
        )

    def _incr_layers(self) -> None:
        applies = [
            a + b for a, b in zip(self._trees("bench.incr_insert"), self._trees("bench.incr_flap"))
        ]
        for phase in ("mutate", "percolate", "diff", "hierarchy"):
            self.layer[f"incr.{phase}_s"] = _median(
                [span_math.wall(tree, f"incr.{phase}") for tree in applies]
            )
        counters = self._counters("incr")
        for name in ("cliques_born", "cliques_retired", "orders_repercolated"):
            self.layer[f"incr.{name}"] = counters.get(f"incr.{name}", 0)
        orders = counters.get("incr.orders_repercolated", 0)
        changes = counters.get("incr.community_changes", 0)
        self.layer["incr.repercolate_yield"] = changes / orders if orders else 0.0

    def _serve_layers(self) -> None:
        load = self.load
        with open(self.workdir / "serve.trace.jsonl", encoding="utf-8") as handle:
            self.server_spans = [json.loads(line) for line in handle if line.strip()]
        handler = [
            span["wall_seconds"]
            for span in self.server_spans
            if span["name"] == "query.request"
            and span["attrs"].get("path") in ("/membership", "/band", "/lca", "/top")
        ]
        check(len(handler) == load.requests, "the server traced a different request count")
        self.layer["serve.handler_p50_us"] = statistics.median(handler) * 1e6
        self.layer["serve.handler_p99_us"] = statistics.quantiles(handler, n=100)[98] * 1e6
        self.layer["serve.transport_ms"] = load.p50_ms - self.layer["serve.handler_p50_us"] / 1e3
        self.layer["serve.server_cpu_ms_per_req"] = self.server_cpu / load.requests * 1e3
        for metric in ("query.errors", "query.rejected"):
            key = "repro_" + metric.replace(".", "_") + "_total"
            self.layer[metric] = self.scrape.get(key, 0.0)
        for family, calls in serving.lookup_calls(self.engine, self.inputs.paths).items():
            with self._span(f"bench.lookup.{family}", True):
                n, seconds = 0, 0.0
                while seconds < 0.2:
                    started = time.perf_counter()
                    for call in calls:
                        call()
                    seconds += time.perf_counter() - started
                    n += len(calls)
            self.layer[f"lookup.us_{family}"] = seconds / n * 1e6


def _mix(paths: list[str]) -> str:
    counts: dict[str, int] = {}
    for path in paths:
        route = path.split("?", 1)[0].strip("/")
        counts[route] = counts.get(route, 0) + 1
    return ", ".join(f"{route} {n}" for route, n in sorted(counts.items()))


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "none"
    return numpy.__version__
