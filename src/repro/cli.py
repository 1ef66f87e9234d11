"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — build a synthetic April-2010-like dataset and save it;
* ``communities`` — run LP-CPM on a dataset (or edge list) and dump the
  per-k census and community members;
* ``tree`` — print the k-clique community tree (ASCII or DOT);
* ``paper`` — regenerate every table and figure of the paper.

Every CPM-running command accepts ``--trace PATH`` (JSONL span trace,
including worker-attributed spans shipped back from pool processes)
and ``--metrics PATH`` (JSON :class:`repro.obs.RunManifest` with the
graph fingerprint, per-phase wall/CPU/peak-memory, the core counters
and — at ``--resource-interval`` seconds — a sampled RSS/CPU series) —
the observability artifacts described in ``docs/observability.md`` —
plus ``--kernel {auto,blocks,set}`` to pick the CPM kernel and
``--cache/--no-cache`` to reuse the clique, overlap and percolation
phases across runs (``docs/performance.md``).  Observability files are
flushed even when the run fails, so a crashed pipeline still leaves a
valid trace.
``tree``, ``paper`` and ``query build`` also take ``--analysis-engine
{bitset,set}`` to choose between the one-pass bitset metric engine and
the set-based reference oracle for the Chapter-4 analyses; both sweep
serially, so ``--workers`` only parallelises CPM.  ``--checkpoint-dir DIR``
(with ``--resume`` on the restart) makes interrupted runs resumable,
and ``--batch-timeout``/``--max-retries`` tune the worker supervision
policy (``docs/robustness.md``).  CPM execution routes through the
:mod:`repro.api` facade.

The ``query`` family is the serveable read path (``docs/query-service
.md``): ``query build`` runs CPM once and freezes the hierarchy +
metric table into an immutable, fingerprint-keyed artifact; ``query
lookup`` answers membership/band/LCA/top-N point queries from that
artifact with zero CPM recompute; ``query serve`` exposes the same
lookups as JSON endpoints from a long-lived stdlib HTTP server.

The ``obs`` family inspects the artifacts after the fact:
``obs view`` renders a trace as an ASCII span tree, ``obs diff``
prints signed scalar deltas between two manifests, ``obs export
--format perfetto`` converts a trace for ``ui.perfetto.dev``
(``--format prometheus`` renders a manifest's metrics block as
Prometheus text), ``obs history`` charts committed ``BENCH_*.json``
scalars across git history, and ``obs tail URL`` polls a running
query server's ``/health`` + ``/metrics`` into a live per-endpoint
rate/err/p99 view.  Every instrumented command also accepts
``--log-json PATH|-`` for structured NDJSON event logs stamped with a
``run_id`` that the manifest records too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis.context import AnalysisContext
from .analysis.engine import ENGINES
from .query.engine import TOP_METRICS
from .api import run_cpm, save_result
from .core.cache import CliqueCache
from .core.lightweight import KERNELS, resolve_kernel
from .graph.io import read_edgelist
from .incremental.session import SESSION_KERNELS
from .obs import (
    NULL_TRACER,
    MetricsRegistry,
    ResourceMonitor,
    RunManifest,
    Tracer,
    diff_manifests,
    history,
    load_trace,
    render_tree,
    write_perfetto,
)
from .obs import logging as obs_logging
from .report.paper import PaperRun
from .runner import CheckpointStore, RunnerConfig
from .topology.dataset import ASDataset
from .topology.generator import GeneratorConfig, generate_topology

__all__ = ["main"]


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --trace / --metrics observability flags."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL span trace of the run here",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write a JSON run manifest (fingerprint, spans, metrics) here",
    )
    parser.add_argument(
        "--resource-interval", type=float, default=0.25, metavar="SECONDS",
        help=(
            "RSS/CPU sampling interval for the manifest's resources series "
            "(used with --metrics; 0 disables the sampler)"
        ),
    )
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help=(
            "emit newline-delimited JSON events (run_id-stamped; '-' for "
            "stderr) — phase progress, retries, and for `query serve` the "
            "per-request access log"
        ),
    )


def _add_kernel_arguments(
    parser: argparse.ArgumentParser, kernels: tuple[str, ...], kernel_help: str
) -> None:
    """Attach the CPM kernel and cache flags (all a session open takes).

    ``--kernel`` takes ``auto`` or a name in ``kernels``; anything else
    exits 2 with :func:`~repro.core.lightweight.resolve_kernel`'s error.
    """

    def kernel_name(value: str) -> str:
        try:
            resolve_kernel(value, kernels)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parser.add_argument(
        "--kernel", type=kernel_name, default="blocks",
        metavar="{" + ",".join(("auto", *kernels)) + "}", help=kernel_help,
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help=(
            "reuse/store the clique, overlap and percolation phases on disk, keyed "
            "by the graph fingerprint ($REPRO_CACHE_DIR or ~/.cache/repro); a hit "
            "loads only the phases the run still needs; --no-cache disables"
        ),
    )


def _add_cpm_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the kernel/cache flags plus the batch run's shard/runner flags."""
    _add_kernel_arguments(
        parser,
        KERNELS,
        "CPM kernel: blocks (default; auto is blocks) or set, the serial "
        "set-based reference oracle (no --workers/--shards > 1, --cache or "
        "--checkpoint-dir)",
    )
    parser.add_argument(
        "--shards", default="auto", metavar="N",
        help=(
            "split maximal-clique enumeration into N shards fanned out across "
            "--workers (default 'auto' = one shard per worker); overlap counting "
            "and percolation run serially at any N, and output is byte-identical"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist each phase's output here so an interrupted run can be resumed",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the phases already completed in --checkpoint-dir",
    )
    parser.add_argument(
        "--batch-timeout", type=float, default=None, metavar="SECONDS",
        help="declare a worker batch stalled after this many seconds (workers > 1)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per failed worker batch before degrading to serial execution",
    )


def _make_cache(args: argparse.Namespace) -> CliqueCache | None:
    """The on-disk clique cache, iff ``--cache`` was requested."""
    return CliqueCache() if getattr(args, "cache", False) else None


def _make_runner(args: argparse.Namespace) -> dict:
    """The facade kwargs carrying the resilient-runner CLI flags."""
    if getattr(args, "resume", False) and not getattr(args, "checkpoint_dir", None):
        raise ValueError("--resume requires --checkpoint-dir")
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    runner = None
    timeout = getattr(args, "batch_timeout", None)
    retries = getattr(args, "max_retries", None)
    if timeout is not None or retries is not None:
        defaults = RunnerConfig()
        runner = RunnerConfig(
            batch_timeout=timeout,
            max_retries=defaults.max_retries if retries is None else retries,
        )
    return {
        "checkpoint": CheckpointStore(checkpoint_dir) if checkpoint_dir else None,
        "resume": getattr(args, "resume", False),
        "runner": runner,
        "shards": getattr(args, "shards", "auto"),
    }


def _make_observability(
    args: argparse.Namespace,
) -> tuple[Tracer, MetricsRegistry | None, ResourceMonitor | None]:
    """Tracer + registry + resource sampler: real ones iff a flag asked.

    The :class:`ResourceMonitor` starts only for manifest-producing
    runs with a positive ``--resource-interval`` — uninstrumented runs
    never spawn the sampling thread.
    """
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return NULL_TRACER, None, None
    monitor = None
    interval = getattr(args, "resource_interval", 0.0) or 0.0
    if getattr(args, "metrics", None) and interval > 0:
        monitor = ResourceMonitor(interval=interval).start()
    return Tracer(memory=True), MetricsRegistry(), monitor


def _run_settings(args: argparse.Namespace) -> dict:
    """The comparability-critical settings stamped into the manifest.

    The kernel is recorded *resolved* (``auto`` → the kernel that
    actually ran) together with the numpy version, so two manifests can
    be told apart by the numerical stack — ``repro obs diff`` warns
    when the kernels disagree.
    """
    settings = {
        key: value
        for key, value in vars(args).items()
        if key in ("kernel", "workers", "analysis_engine", "min_k", "max_k")
        and value is not None
    }
    if getattr(args, "shards", None) is not None:
        from .shard.plan import resolve_shards

        try:
            # Recorded *resolved* ("auto" -> the count that actually ran),
            # like the kernel below — ``repro obs diff`` warns on mismatch.
            settings["shards"] = resolve_shards(
                args.shards, getattr(args, "workers", 1) or 1
            )
        except ValueError:
            settings["shards"] = args.shards
    if "kernel" in settings:
        import numpy

        settings["kernel"] = resolve_kernel(settings["kernel"])
        settings["numpy"] = numpy.__version__
    return settings


def _write_observability(
    args: argparse.Namespace,
    tracer: Tracer,
    metrics: MetricsRegistry | None,
    *,
    graph=None,
    monitor: ResourceMonitor | None = None,
    fingerprint: dict | None = None,
) -> None:
    """Emit the trace/manifest files requested on the command line.

    Called from the commands' ``finally`` blocks, so it also runs on
    failures: the tracer is closed *first* (finalising any spans an
    exception left open), making the flushed trace complete and valid.
    ``fingerprint`` stamps a precomputed graph fingerprint into the
    manifest instead of fingerprinting ``graph`` again: the one a CPM
    run with a cache or checkpoint computed, or the one the query
    family reads out of the artifact.
    """
    if monitor is not None:
        monitor.stop()
    tracer.close()
    if getattr(args, "trace", None):
        tracer.write_jsonl(args.trace)
        print(f"wrote trace ({len(tracer.records)} spans) to {args.trace}")
    if getattr(args, "metrics", None):
        config = {
            key: value
            for key, value in vars(args).items()
            if key != "func" and isinstance(value, (str, int, float, bool, type(None)))
        }
        run_id = obs_logging.current_run_id()
        if run_id is not None:
            # Same id every --log-json event carries: a manifest and a
            # log stream from one invocation join on it.
            config["run_id"] = run_id
        manifest = RunManifest.collect(
            label=f"cli.{args.command}",
            graph=graph if fingerprint is None else None,
            config=config,
            settings=_run_settings(args),
            tracer=tracer,
            metrics=metrics,
            resources=monitor.series() if monitor is not None else None,
        )
        if fingerprint is not None:
            manifest.fingerprint = dict(fingerprint)
        manifest.save(args.metrics)
        print(f"wrote run manifest to {args.metrics}")


def _load_dataset(path: str) -> ASDataset:
    target = Path(path)
    if not target.exists():
        raise FileNotFoundError(f"dataset path does not exist: {target}")
    if target.is_dir():
        return ASDataset.load(target)
    # Bare edge list: wrap it with empty side datasets.
    from .topology.geography import GeoRegistry
    from .topology.ixp import IXPRegistry

    return ASDataset(
        graph=read_edgelist(target),
        ixps=IXPRegistry(),
        geography=GeoRegistry(),
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.config:
        from .topology.configio import load_config

        config = load_config(args.config)
    else:
        config = {
            "default": GeneratorConfig.default,
            "tiny": GeneratorConfig.tiny,
            "paper-scale": GeneratorConfig.paper_scale,
        }[args.profile]()
    dataset = generate_topology(config, seed=args.seed)
    dataset.save(args.out)
    print(f"wrote {dataset!r} to {args.out}")
    return 0


def _cmd_communities(args: argparse.Namespace) -> int:
    runner_kwargs = _make_runner(args)
    dataset = _load_dataset(args.dataset)
    tracer, metrics, monitor = _make_observability(args)
    result = None
    try:
        result = run_cpm(
            dataset.graph,
            k_range=(args.min_k, args.max_k),
            workers=args.workers,
            kernel=args.kernel,
            cache=_make_cache(args),
            tracer=tracer,
            metrics=metrics,
            **runner_kwargs,
        )
        hierarchy = result.hierarchy
        loaded = ", ".join(result.stats.resumed_phases)
        if result.stats.cache_hit:
            print(f"clique cache: hit (loaded {loaded})")
        elif loaded and args.resume:
            print(f"resumed from checkpoint: {loaded}")
        if result.degraded:
            print("warning: run degraded to serial execution for some batches")
        print(f"maximal cliques: {result.stats.n_cliques} (max size {result.stats.max_clique_size})")
        print(f"total communities: {hierarchy.total_communities}")
        for k in hierarchy.orders:
            print(f"k={k}: {len(hierarchy[k])} communities")
            if args.members:
                for community in hierarchy[k]:
                    members = ",".join(map(str, sorted(community.members)))
                    print(f"  {community.label} ({community.size}): {members}")
    finally:
        _write_observability(
            args, tracer, metrics, graph=dataset.graph, monitor=monitor,
            fingerprint=result.fingerprint if result is not None else None,
        )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    runner_kwargs = _make_runner(args)
    dataset = _load_dataset(args.dataset)
    tracer, metrics, monitor = _make_observability(args)
    context = None
    try:
        context = AnalysisContext.from_dataset(
            dataset,
            workers=args.workers,
            kernel=args.kernel,
            cache=_make_cache(args),
            analysis_engine=args.analysis_engine,
            tracer=tracer,
            metrics=metrics,
            **runner_kwargs,
        )
        if args.format == "dot":
            band_of = None
            if args.bands:
                from .analysis.bands import derive_bands
                from .analysis.ixp_share import IXPShareAnalysis

                boundaries = derive_bands(IXPShareAnalysis(context))
                band_of = boundaries.band_of
            print(context.tree.to_dot(band_of=band_of))
        else:
            print(context.tree.to_ascii(max_children=args.max_children))
    finally:
        _write_observability(
            args, tracer, metrics, graph=dataset.graph, monitor=monitor,
            fingerprint=context.fingerprint if context is not None else None,
        )
    return 0


def _cmd_graphml(args: argparse.Namespace) -> int:
    from .analysis.bands import derive_bands
    from .analysis.ixp_share import IXPShareAnalysis
    from .report.graphml import write_graphml

    dataset = _load_dataset(args.dataset)
    context = AnalysisContext.from_dataset(dataset, workers=args.workers)
    bands = derive_bands(IXPShareAnalysis(context))
    write_graphml(context, args.out, k=args.k, bands=bands)
    print(f"wrote GraphML with k={args.k} memberships to {args.out}")
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    if args.dataset:
        dataset = _load_dataset(args.dataset)
    else:
        dataset = generate_topology(seed=args.seed)
    tracer, metrics, monitor = _make_observability(args)
    run = None
    try:
        run = PaperRun(
            dataset,
            workers=args.workers,
            kernel=args.kernel,
            analysis_engine=args.analysis_engine,
            cache=_make_cache(args),
            tracer=tracer,
            metrics=metrics,
            **_make_runner(args),
        )
        wrote_artifacts = False
        if args.html:
            from .report.html import render_html_report

            Path(args.html).write_text(render_html_report(run), encoding="utf-8")
            print(f"wrote HTML report to {args.html}")
            wrote_artifacts = True
        if args.csv_dir:
            from .report.csvdata import write_figure_csvs

            files = write_figure_csvs(run, args.csv_dir)
            print(f"wrote {len(files)} CSV/manifest files to {args.csv_dir}")
            wrote_artifacts = True
        if not wrote_artifacts:
            print(run.full_report())
    finally:
        _write_observability(
            args, tracer, metrics, graph=dataset.graph, monitor=monitor,
            fingerprint=run.context.fingerprint if run is not None else None,
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .graph.stats import summarize_graph
    from .report.figures import ascii_table

    dataset = _load_dataset(args.dataset)
    summary = summarize_graph(dataset.graph)
    print(
        ascii_table(
            ["metric", "value"],
            [
                ["nodes", summary.n_nodes],
                ["edges", summary.n_edges],
                ["mean degree", round(summary.mean_degree, 3)],
                ["max degree", summary.max_degree],
                ["power-law alpha (MLE)", round(summary.powerlaw_alpha, 3)],
                ["global clustering", round(summary.global_clustering, 4)],
                ["avg local clustering", round(summary.average_local_clustering, 4)],
                ["degree assortativity", round(summary.assortativity, 4)],
                ["top-1% degree density", round(summary.top_degree_density, 4)],
            ],
            title="Topology statistics",
        )
    )
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from .evolution import EventKind, EvolutionTracker, TopologyEvolution
    from .topology.generator import GeneratorConfig

    profile = {
        "default": GeneratorConfig.default,
        "tiny": GeneratorConfig.tiny,
    }[args.profile]()
    strategy = "incremental" if args.incremental else args.strategy
    evolution = TopologyEvolution(profile, seed=args.seed, n_snapshots=args.snapshots)
    print("growth:")
    for t, nodes, edges in evolution.growth_series():
        print(f"  t={t:.2f}  {nodes} ASes  {edges} links")
    tracker = EvolutionTracker(evolution.snapshots(), k=args.k, strategy=strategy)
    counts = tracker.event_counts()
    print(f"community events at k={args.k}:")
    for kind in EventKind:
        print(f"  {kind.value}: {counts[kind]}")
    # Update records are strategy-independent by construction, so this
    # output diffs clean between --strategy runs (the CI smoke relies
    # on that).
    print("per-snapshot updates:")
    for update in tracker.updates:
        print(f"  {update.summary()}")
    longest = tracker.longest_timeline()
    print(f"longest timeline: born at snapshot {longest.born_at}, sizes {longest.sizes()}")
    return 0


def _parse_edge(value: str) -> tuple:
    """One CLI edge spec ``U,V`` (or ``U:V``) -> an endpoint pair."""
    from .query.server import parse_as

    separator = "," if "," in value else ":"
    parts = value.split(separator)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"bad edge {value!r}; expected the form U,V (e.g. 64512,64513)")
    return (parse_as(parts[0].strip()), parse_as(parts[1].strip()))


def _session_delta(args: argparse.Namespace):
    """Assemble the EdgeDelta of a ``session apply`` invocation."""
    import json as _json

    from .incremental import EdgeDelta

    insertions = [_parse_edge(edge) for edge in args.insert or []]
    deletions = [_parse_edge(edge) for edge in args.delete or []]
    if args.delta:
        document = _json.loads(Path(args.delta).read_text(encoding="utf-8"))
        if not isinstance(document, dict):
            raise ValueError(f"delta file {args.delta} must hold a JSON object")
        insertions += [tuple(edge) for edge in document.get("insertions", [])]
        deletions += [tuple(edge) for edge in document.get("deletions", [])]
    if not insertions and not deletions:
        raise ValueError(
            "empty delta: give --insert/--delete edges or a --delta file"
        )
    return EdgeDelta(insertions=insertions, deletions=deletions)


def _print_session_status(session) -> None:
    """Render one session's ``describe()`` block as the status table."""
    from .report.figures import ascii_table

    info = session.describe()
    fingerprint = info["fingerprint"]
    print(
        ascii_table(
            ["field", "value"],
            [
                ["kernel", info["kernel"]],
                ["nodes", fingerprint["nodes"]],
                ["edges", fingerprint["edges"]],
                ["checksum", fingerprint["checksum"]],
                ["maximal cliques", info["n_cliques"]],
                ["largest clique", info["max_clique_size"]],
                ["counted overlaps", info["n_overlap_pairs"]],
                ["orders", f"{min(info['orders'])}..{max(info['orders'])}" if info["orders"] else "-"],
                ["communities", info["total_communities"]],
                ["applied batches", info["applied_batches"]],
            ],
            title="Incremental CPM session",
        )
    )


def _cmd_session_open(args: argparse.Namespace) -> int:
    from .api import open_session

    dataset = _load_dataset(args.dataset)
    tracer, metrics, monitor = _make_observability(args)
    try:
        session = open_session(
            dataset.graph,
            kernel=args.kernel,
            cache=_make_cache(args),
            tracer=tracer,
            metrics=metrics,
        )
        session.save(args.session_dir)
        if session.cache_hit:
            print("clique cache: hit (loaded overlap)")
        print(f"opened session in {args.session_dir}")
        _print_session_status(session)
    finally:
        _write_observability(args, tracer, metrics, graph=dataset.graph, monitor=monitor)
    return 0


def _cmd_session_apply(args: argparse.Namespace) -> int:
    from .api import load_session

    delta = _session_delta(args)
    tracer, metrics, monitor = _make_observability(args)
    session = None
    try:
        session = load_session(args.session_dir, tracer=tracer, metrics=metrics)
        update = session.apply(delta)
        session.save(args.session_dir)
        print(update.summary())
        for change in update.changes:
            arrow = f"{list(change.old_labels)} -> {list(change.new_labels)}"
            print(
                f"  k={change.k} {change.kind}: {arrow} "
                f"(size {change.size_before} -> {change.size_after})"
            )
    finally:
        graph = session.graph if session is not None else None
        _write_observability(args, tracer, metrics, graph=graph, monitor=monitor)
    return 0


def _cmd_session_status(args: argparse.Namespace) -> int:
    from .api import load_session

    session = load_session(args.session_dir)
    _print_session_status(session)
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from .report.atlas import build_atlas

    dataset = _load_dataset(args.dataset)
    context = AnalysisContext.from_dataset(dataset, workers=args.workers)
    atlas = build_atlas(context)
    print(atlas.render(top=args.top))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    runner_kwargs = _make_runner(args)
    dataset = _load_dataset(args.dataset)
    tracer, metrics, monitor = _make_observability(args)
    result = None
    try:
        result = run_cpm(
            dataset.graph,
            k_range=(args.min_k, args.max_k),
            workers=args.workers,
            kernel=args.kernel,
            cache=_make_cache(args),
            tracer=tracer,
            metrics=metrics,
            **runner_kwargs,
        )
        save_result(result, args.out)
        hierarchy = result.hierarchy
        print(
            f"wrote {hierarchy.total_communities} communities "
            f"(k in [{hierarchy.min_k}, {hierarchy.max_k}]) to {args.out}"
        )
    finally:
        _write_observability(
            args, tracer, metrics, graph=dataset.graph, monitor=monitor,
            fingerprint=result.fingerprint if result is not None else None,
        )
    return 0


def _guard_stale_artifact(out: Path, dataset, *, force: bool) -> None:
    """Refuse to overwrite an artifact built from a *different* graph.

    ``query build`` used to clobber whatever sat at the output path,
    silently replacing an artifact another dataset's pipeline produced.
    Now the existing artifact's stored fingerprint is compared with the
    current dataset's before the (expensive) CPM run: a mismatch — or
    an unreadable existing file — aborts unless ``--force``.  Matching
    fingerprints rebuild freely: that is a refresh, not a clobber.
    """
    if force or not out.exists():
        return
    from .api import load_query_artifact
    from .obs.manifest import graph_fingerprint
    from .query.artifact import ArtifactError

    try:
        existing = load_query_artifact(out, mmap=False).fingerprint
    except ArtifactError as exc:
        raise ValueError(
            f"refusing to overwrite {out}: the existing file is not a readable "
            f"query artifact ({exc}); re-run with --force to replace it"
        ) from exc
    current = graph_fingerprint(dataset.graph)
    if existing.get("checksum") != current["checksum"]:
        raise ValueError(
            f"refusing to overwrite {out}: it was built from a different graph "
            f"(stored fingerprint {existing.get('checksum')!r}, this dataset is "
            f"{current['checksum']!r}); re-run with --force to replace it"
        )


def _cmd_query_build(args: argparse.Namespace) -> int:
    runner_kwargs = _make_runner(args)
    dataset = _load_dataset(args.dataset)
    _guard_stale_artifact(Path(args.out), dataset, force=args.force)
    tracer, metrics, monitor = _make_observability(args)
    context = artifact = None
    try:
        from .analysis.bands import derive_bands
        from .analysis.ixp_share import IXPShareAnalysis
        from .query.artifact import build_artifact

        context = AnalysisContext.from_dataset(
            dataset,
            workers=args.workers,
            kernel=args.kernel,
            cache=_make_cache(args),
            min_k=args.min_k,
            max_k=args.max_k,
            analysis_engine=args.analysis_engine,
            tracer=tracer,
            metrics=metrics,
            **runner_kwargs,
        )
        bands = derive_bands(IXPShareAnalysis(context))
        export = context.engine.export_table()
        table = {
            row["label"]: (row["link_density"], row["average_odf"])
            for row in export["rows"]
        }
        artifact = build_artifact(
            context.hierarchy,
            tree=context.tree,
            graph=dataset.graph,
            table=table,
            bands=bands,
            analysis_engine=export["engine"],
            fingerprint=context.fingerprint,
            tracer=tracer,
            metrics=metrics,
        )
        target = artifact.save(args.out)
        checksum = artifact.fingerprint.get("checksum", "?")
        print(
            f"wrote query artifact ({artifact.n_communities} communities, "
            f"{artifact.n_nodes} ASes, fingerprint {checksum}) to {target}"
        )
    finally:
        # The artifact's fingerprint is the CPM run's (with a cache) or
        # the one build_artifact hashed: the run's only hash.
        source = artifact if artifact is not None else context
        _write_observability(
            args, tracer, metrics, graph=dataset.graph, monitor=monitor,
            fingerprint=source.fingerprint if source is not None else None,
        )
    return 0


def _cmd_query_lookup(args: argparse.Namespace) -> int:
    import json

    from .api import load_query_artifact
    from .query.engine import LookupEngine
    from .query.server import parse_as

    tracer, metrics, monitor = _make_observability(args)
    artifact = None
    try:
        artifact = load_query_artifact(args.artifact)
        engine = LookupEngine(artifact, tracer=tracer, metrics=metrics)
        results: dict = {}
        if args.info:
            results["info"] = engine.info()
        if args.member is not None:
            node = parse_as(args.member)
            results["membership"] = {
                "as": node,
                "memberships": {
                    str(k): labels for k, labels in engine.memberships(node).items()
                },
            }
        if args.band is not None:
            results["band"] = engine.band(parse_as(args.band))
        if args.lca is not None:
            a, b = (parse_as(value) for value in args.lca)
            results["lca"] = {"a": a, "b": b, "lca": engine.lowest_common(a, b)}
        if args.top is not None:
            results["top"] = {
                "metric": args.top,
                "k": args.k,
                "communities": engine.top(args.top, args.n, args.k),
            }
        if args.community is not None:
            results["community"] = engine.community(
                args.community, members=args.members
            )
        if not results:
            raise ValueError(
                "nothing to look up: pass --info, --member, --band, --lca, "
                "--top and/or --community"
            )
        print(json.dumps(results, indent=2, sort_keys=True))
    finally:
        if artifact is not None:
            fingerprint = artifact.fingerprint or None
            artifact.close()
        else:
            fingerprint = None
        _write_observability(
            args, tracer, metrics, monitor=monitor, fingerprint=fingerprint
        )
    return 0


def _cmd_query_serve(args: argparse.Namespace) -> int:
    from .api import load_query_artifact
    from .query.server import make_server

    tracer, metrics, monitor = _make_observability(args)
    # A server always keeps a live registry (it feeds /metrics) and —
    # unlike batch commands — always samples resources while serving:
    # /metrics exposes RSS/CPU as process gauges even when no manifest
    # was requested.  0 still disables the sampler.
    if metrics is None:
        metrics = MetricsRegistry()
    interval = getattr(args, "resource_interval", 0.0) or 0.0
    if monitor is None and interval > 0:
        monitor = ResourceMonitor(interval=interval).start()
    artifact = None
    try:
        artifact = load_query_artifact(args.artifact)
        server = make_server(
            artifact,
            host=args.host,
            port=args.port,
            tracer=tracer,
            metrics=metrics,
            monitor=monitor,
            serialize_requests=args.serialize_requests,
        )
        server.max_requests = args.max_requests
        print(
            f"serving query artifact {args.artifact} "
            f"({artifact.n_communities} communities) at {server.url}",
            flush=True,
        )
        obs_logging.log_event(
            "query.serve.start",
            url=server.url,
            artifact=str(args.artifact),
            communities=artifact.n_communities,
            max_requests=args.max_requests,
            serialize_requests=args.serialize_requests,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("interrupted; shutting down")
        finally:
            server.server_close()
            obs_logging.log_event("query.serve.stop", served=server.served)
    finally:
        fingerprint = artifact.fingerprint or None if artifact is not None else None
        if artifact is not None:
            artifact.close()
        _write_observability(
            args, tracer, metrics, monitor=monitor, fingerprint=fingerprint
        )
    return 0


def _cmd_obs_view(args: argparse.Namespace) -> int:
    spans, _document = load_trace(args.trace)
    print(render_tree(spans, hot_count=args.hot))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    base = json.loads(Path(args.a).read_text(encoding="utf-8"))
    fresh = json.loads(Path(args.b).read_text(encoding="utf-8"))
    # Full paths, not basenames: a fingerprint/settings warning in a CI
    # log must name which manifest files disagreed.
    print(diff_manifests(base, fresh, names=(str(args.a), str(args.b))))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    if args.format == "prometheus":
        import json

        from .obs import RunManifest

        document = json.loads(Path(args.trace).read_text(encoding="utf-8"))
        if not isinstance(document, dict) or "metrics" not in document:
            raise ValueError(
                f"{args.trace} is not a run manifest (no metrics block); "
                "prometheus export needs a --metrics manifest, not a trace"
            )
        text = RunManifest.from_dict(document).to_prometheus()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote prometheus exposition to {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    spans, document = load_trace(args.trace)
    resources = (document or {}).get("resources") or None
    out = args.out or str(Path(args.trace).with_suffix(f".{args.format}.json"))
    label = Path(args.trace).stem
    target = write_perfetto(spans, out, resources=resources, label=label)
    print(
        f"wrote {args.format} trace ({len(spans)} spans) to {target} "
        f"— open it at ui.perfetto.dev"
    )
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    from .obs import parse_exposition
    from .obs.inspect import render_tail_frame

    base = args.url.rstrip("/")

    def fetch(path: str) -> str:
        with urllib.request.urlopen(base + path, timeout=args.timeout) as response:
            return response.read().decode("utf-8")

    previous: dict | None = None
    previous_at: float | None = None
    frames = 0
    try:
        while True:
            import json

            try:
                health = json.loads(fetch("/health"))
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"-- {base} unreachable: {exc}", flush=True)
                health = None
            try:
                current = parse_exposition(fetch("/metrics"))
            except (urllib.error.URLError, OSError) as exc:
                print(f"-- scrape failed: {exc}", flush=True)
                current = None
            now = time.monotonic()
            if current is not None:
                elapsed = (now - previous_at) if previous_at is not None else 0.0
                print(
                    render_tail_frame(current, previous, elapsed, health=health),
                    flush=True,
                )
                previous, previous_at = current, now
            frames += 1
            if args.count is not None and frames >= args.count:
                return 0
            print(f"-- next scrape in {args.interval:g}s --", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    print(history(args.directory, max_commits=args.max_commits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "k-clique communities in the Internet AS-level topology (ICDCS 2011 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build and save a synthetic dataset")
    p_gen.add_argument("out", help="output directory")
    p_gen.add_argument("--profile", choices=["default", "tiny", "paper-scale"], default="default")
    p_gen.add_argument("--config", default=None, help="GeneratorConfig JSON (overrides --profile)")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(func=_cmd_generate)

    p_com = sub.add_parser("communities", help="extract k-clique communities")
    p_com.add_argument("dataset", help="dataset directory or edge-list file")
    p_com.add_argument("--min-k", type=int, default=2)
    p_com.add_argument("--max-k", type=int, default=None)
    p_com.add_argument("--workers", type=int, default=1)
    p_com.add_argument("--members", action="store_true", help="print community members")
    _add_cpm_arguments(p_com)
    _add_obs_arguments(p_com)
    p_com.set_defaults(func=_cmd_communities)

    p_tree = sub.add_parser("tree", help="print the k-clique community tree")
    p_tree.add_argument("dataset", help="dataset directory or edge-list file")
    p_tree.add_argument("--format", choices=["ascii", "dot"], default="ascii")
    p_tree.add_argument("--max-children", type=int, default=8)
    p_tree.add_argument("--workers", type=int, default=1)
    p_tree.add_argument("--bands", action="store_true", help="colour DOT layers by band")
    p_tree.add_argument(
        "--analysis-engine",
        choices=list(ENGINES),
        default="bitset",
        help=(
            "metric engine for the Chapter-4 analyses: the serial bitset popcount "
            "sweep or the set-based oracle (--workers parallelises CPM only)"
        ),
    )
    _add_cpm_arguments(p_tree)
    _add_obs_arguments(p_tree)
    p_tree.set_defaults(func=_cmd_tree)

    p_gml = sub.add_parser("graphml", help="export topology + communities as GraphML")
    p_gml.add_argument("dataset", help="dataset directory or edge-list file")
    p_gml.add_argument("out", help="output .graphml path")
    p_gml.add_argument("-k", type=int, default=4, help="order for membership attributes")
    p_gml.add_argument("--workers", type=int, default=1)
    p_gml.set_defaults(func=_cmd_graphml)

    p_paper = sub.add_parser("paper", help="regenerate the paper's tables and figures")
    p_paper.add_argument("--dataset", default=None, help="dataset directory (default: generate)")
    p_paper.add_argument("--seed", type=int, default=42)
    p_paper.add_argument("--workers", type=int, default=1)
    p_paper.add_argument("--html", default=None, help="write a standalone HTML report here")
    p_paper.add_argument("--csv-dir", default=None, help="write figure data as CSVs here")
    p_paper.add_argument(
        "--analysis-engine",
        choices=list(ENGINES),
        default="bitset",
        help=(
            "metric engine for the Chapter-4 analyses: the serial bitset popcount "
            "sweep or the set-based oracle (--workers parallelises CPM only)"
        ),
    )
    _add_cpm_arguments(p_paper)
    _add_obs_arguments(p_paper)
    p_paper.set_defaults(func=_cmd_paper)

    p_stats = sub.add_parser("stats", help="structural statistics of a topology")
    p_stats.add_argument("dataset", help="dataset directory or edge-list file")
    p_stats.set_defaults(func=_cmd_stats)

    p_evolve = sub.add_parser("evolve", help="track communities over a growing topology")
    p_evolve.add_argument("--profile", choices=["default", "tiny"], default="tiny")
    p_evolve.add_argument("--seed", type=int, default=42)
    p_evolve.add_argument("--snapshots", type=int, default=5)
    p_evolve.add_argument("-k", type=int, default=4)
    p_evolve.add_argument(
        "--strategy", choices=["incremental", "replay"], default="incremental",
        help=(
            "cover extraction: one incremental session advanced by edge deltas "
            "(default) or an independent CPM run per snapshot; output is identical"
        ),
    )
    p_evolve.add_argument(
        "--incremental", action="store_true",
        help="shorthand for --strategy incremental",
    )
    p_evolve.set_defaults(func=_cmd_evolve)

    p_session = sub.add_parser(
        "session", help="open, mutate and inspect incremental CPM sessions"
    )
    session_sub = p_session.add_subparsers(dest="session_command", required=True)

    p_sopen = session_sub.add_parser(
        "open", help="run CPM once and persist the live session state"
    )
    p_sopen.add_argument("dataset", help="dataset directory or edge-list file")
    p_sopen.add_argument("session_dir", help="directory to persist the session into")
    _add_kernel_arguments(
        p_sopen, SESSION_KERNELS, "CPM kernel: blocks (default; auto is blocks)"
    )
    _add_obs_arguments(p_sopen)
    p_sopen.set_defaults(func=_cmd_session_open)

    p_sapply = session_sub.add_parser(
        "apply", help="apply an edge delta to a persisted session"
    )
    p_sapply.add_argument("session_dir", help="directory holding a saved session")
    p_sapply.add_argument(
        "--insert", action="append", metavar="U,V", default=[],
        help="insert one AS link (repeatable)",
    )
    p_sapply.add_argument(
        "--delete", action="append", metavar="U,V", default=[],
        help="delete one AS link (repeatable)",
    )
    p_sapply.add_argument(
        "--delta", default=None, metavar="PATH",
        help='JSON file {"insertions": [[u, v], ...], "deletions": [...]}',
    )
    _add_obs_arguments(p_sapply)
    p_sapply.set_defaults(func=_cmd_session_apply)

    p_sstatus = session_sub.add_parser(
        "status", help="show a persisted session's census and fingerprint"
    )
    p_sstatus.add_argument("session_dir", help="directory holding a saved session")
    p_sstatus.set_defaults(func=_cmd_session_status)

    p_atlas = sub.add_parser("atlas", help="per-IXP and per-country community profiles")
    p_atlas.add_argument("dataset", help="dataset directory or edge-list file")
    p_atlas.add_argument("--top", type=int, default=12)
    p_atlas.add_argument("--workers", type=int, default=1)
    p_atlas.set_defaults(func=_cmd_atlas)

    p_export = sub.add_parser("export", help="extract communities and save them as JSON")
    p_export.add_argument("dataset", help="dataset directory or edge-list file")
    p_export.add_argument("out", help="output JSON path")
    p_export.add_argument("--min-k", type=int, default=2)
    p_export.add_argument("--max-k", type=int, default=None)
    p_export.add_argument("--workers", type=int, default=1)
    _add_cpm_arguments(p_export)
    _add_obs_arguments(p_export)
    p_export.set_defaults(func=_cmd_export)

    p_query = sub.add_parser(
        "query", help="build, serve and query the community query artifact"
    )
    query_sub = p_query.add_subparsers(dest="query_command", required=True)

    p_qbuild = query_sub.add_parser(
        "build", help="run CPM once and freeze the hierarchy into a query artifact"
    )
    p_qbuild.add_argument("dataset", help="dataset directory or edge-list file")
    p_qbuild.add_argument("out", help="output artifact path (e.g. communities.rqa)")
    p_qbuild.add_argument("--min-k", type=int, default=2)
    p_qbuild.add_argument("--max-k", type=int, default=None)
    p_qbuild.add_argument("--workers", type=int, default=1)
    p_qbuild.add_argument(
        "--force", action="store_true",
        help=(
            "overwrite an existing artifact even when its stored graph "
            "fingerprint does not match this dataset"
        ),
    )
    p_qbuild.add_argument(
        "--analysis-engine",
        choices=list(ENGINES),
        default="bitset",
        help=(
            "metric engine that sweeps the frozen density/ODF table: the serial "
            "bitset popcount sweep or the set-based oracle (--workers parallelises "
            "CPM only)"
        ),
    )
    _add_cpm_arguments(p_qbuild)
    _add_obs_arguments(p_qbuild)
    p_qbuild.set_defaults(func=_cmd_query_build)

    p_qlookup = query_sub.add_parser(
        "lookup", help="point queries against a saved artifact (no CPM recompute)"
    )
    p_qlookup.add_argument("artifact", help="query artifact written by `repro query build`")
    p_qlookup.add_argument(
        "--info", action="store_true", help="print artifact metadata (fingerprint, bands)"
    )
    p_qlookup.add_argument(
        "--member", default=None, metavar="AS",
        help="communities containing this AS, per order k",
    )
    p_qlookup.add_argument(
        "--band", default=None, metavar="AS",
        help="crown/trunk/root band of this AS",
    )
    p_qlookup.add_argument(
        "--lca", nargs=2, default=None, metavar=("A", "B"),
        help="lowest common community of two ASes",
    )
    p_qlookup.add_argument(
        "--top", default=None, choices=list(TOP_METRICS),
        help="rank communities by this metric",
    )
    p_qlookup.add_argument(
        "--n", type=int, default=10, help="how many communities --top returns"
    )
    p_qlookup.add_argument(
        "-k", type=int, default=None, help="restrict --top to one order"
    )
    p_qlookup.add_argument(
        "--community", default=None, metavar="LABEL",
        help="one community's record by k<k>id<n> label",
    )
    p_qlookup.add_argument(
        "--members", action="store_true",
        help="expand the member list with --community",
    )
    _add_obs_arguments(p_qlookup)
    p_qlookup.set_defaults(func=_cmd_query_lookup)

    p_qserve = query_sub.add_parser(
        "serve", help="long-lived JSON lookup server over a saved artifact"
    )
    p_qserve.add_argument("artifact", help="query artifact written by `repro query build`")
    p_qserve.add_argument("--host", default="127.0.0.1")
    p_qserve.add_argument("--port", type=int, default=8091)
    p_qserve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="shut down after N requests (smoke tests; default: serve forever)",
    )
    p_qserve.add_argument(
        "--serialize-requests", action="store_true",
        help=(
            "legacy mode: serve one request at a time under a global lock "
            "(benchmark baseline / concurrency bisection; not for production)"
        ),
    )
    _add_obs_arguments(p_qserve)
    p_qserve.set_defaults(func=_cmd_query_serve)

    p_obs = sub.add_parser(
        "obs", help="inspect observability artifacts (traces, manifests, bench history)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_view = obs_sub.add_parser(
        "view", help="render a trace (JSONL) or manifest as an ASCII span tree"
    )
    p_view.add_argument("trace", help="trace .jsonl or run-manifest .json file")
    p_view.add_argument(
        "--hot", type=int, default=3, metavar="N",
        help="flag the N spans with the largest self time (default 3)",
    )
    p_view.set_defaults(func=_cmd_obs_view)

    p_diff = obs_sub.add_parser(
        "diff", help="signed scalar deltas between two run manifests"
    )
    p_diff.add_argument("a", help="baseline manifest JSON")
    p_diff.add_argument("b", help="comparison manifest JSON")
    p_diff.set_defaults(func=_cmd_obs_diff)

    p_oexp = obs_sub.add_parser(
        "export", help="convert a trace to a standard viewer format"
    )
    p_oexp.add_argument("trace", help="trace .jsonl or run-manifest .json file")
    p_oexp.add_argument(
        "--format", choices=["perfetto", "prometheus"], default="perfetto",
        help=(
            "output format: Chrome/Perfetto trace-event JSON from a trace, "
            "or Prometheus text exposition from a manifest's metrics block"
        ),
    )
    p_oexp.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default: <trace>.perfetto.json; prometheus prints to stdout)",
    )
    p_oexp.set_defaults(func=_cmd_obs_export)

    p_tail = obs_sub.add_parser(
        "tail", help="live per-endpoint rate/err/p99 view of a running query server"
    )
    p_tail.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8091")
    p_tail.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between scrapes (default 2)",
    )
    p_tail.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    p_tail.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request HTTP timeout (default 5)",
    )
    p_tail.set_defaults(func=_cmd_obs_tail)

    p_hist = obs_sub.add_parser(
        "history", help="bench scalar trajectories across committed BENCH manifests"
    )
    p_hist.add_argument(
        "directory", nargs="?", default="benchmarks/output",
        help="directory holding BENCH_*.json manifests (default benchmarks/output)",
    )
    p_hist.add_argument(
        "--max-commits", type=int, default=10, metavar="N",
        help="how many commits of history to walk (default 10)",
    )
    p_hist.set_defaults(func=_cmd_obs_history)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input failures (missing files, malformed datasets) print one
    clean error line and return 2 instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    log_target = getattr(args, "log_json", None)
    if log_target:
        logger = obs_logging.configure(log_target, command=args.command)
        logger.info("cli.start", argv=list(argv) if argv is not None else sys.argv[1:])
    try:
        code = args.func(args)
        if log_target:
            obs_logging.log_event("cli.exit", code=code)
        return code
    except (FileNotFoundError, NotADirectoryError) as exc:
        obs_logging.log_event("cli.error", level="error", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        obs_logging.log_event("cli.error", level="error", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0
    finally:
        obs_logging.shutdown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
