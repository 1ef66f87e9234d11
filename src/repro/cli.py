"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — build a synthetic April-2010-like dataset and save it;
* ``communities`` — run LP-CPM on a dataset (or edge list) and dump the
  per-k census and community members;
* ``tree`` — print the k-clique community tree (ASCII or DOT);
* ``paper`` — regenerate every table and figure of the paper.

Every command is one row of :data:`_COMMANDS` (name, help, flag
groups, ``configure(parser)``, ``run(args, run)``); its flag groups
decide both the shared flags :func:`build_parser` attaches and what
:func:`main` builds.  The observability group adds ``--trace PATH``
(JSONL span trace, worker-attributed spans included) and ``--metrics
PATH`` (a :class:`repro.obs.RunManifest`; ``docs/observability.md``):
:func:`main` alone builds the tracer, registry and resource sampler
and writes both files once the command returns, also when it fails.
The CPM group adds ``--kernel {auto,blocks,set}``, ``--cache``
(``docs/performance.md``), ``--shards``, ``--checkpoint-dir``/
``--resume`` and ``--batch-timeout``/``--max-retries``
(``docs/robustness.md``); ``--analysis-engine {bitset,set}`` picks the
Chapter-4 metric engine (both sweep serially).  Every CPM-consuming
command runs LP-CPM through :class:`_Run`, which routes it through the
:mod:`repro.api` facade's extraction and holds the graph's one
fingerprint.

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
from .api import CPMResult, save_result
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
from .query.engine import TOP_METRICS
from .report.paper import PaperRun
from .runner import CheckpointStore, RunnerConfig
from .topology.dataset import ASDataset
from .topology.generator import GeneratorConfig, generate_topology

__all__ = ["main"]

_DATASET_HELP = "dataset directory or edge-list file"
_ANALYSIS_HELP = (
    "metric engine for the Chapter-4 analyses: the serial bitset popcount "
    "sweep or the set-based oracle (--workers parallelises CPM only)"
)


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


def _add_k_range(parser: argparse.ArgumentParser) -> None:
    """Attach --min-k/--max-k (the run's k range) and --workers."""
    parser.add_argument("--min-k", type=int, default=2)
    parser.add_argument("--max-k", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)


def _add_analysis_engine(parser: argparse.ArgumentParser, engine_help: str) -> None:
    parser.add_argument(
        "--analysis-engine", choices=list(ENGINES), default="bitset", help=engine_help
    )


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


class _Run:
    """One command invocation: what :func:`main` hands the command body.

    It is the one path from the flags to LP-CPM: :meth:`cpm` and
    :meth:`context` run the :mod:`repro.api` facade's extraction on
    :meth:`dataset` with :attr:`keywords`, built once from the flags
    (defaults for a flag the command does not take); :meth:`session`
    and :meth:`artifact` give out what the other commands read.  It
    holds the observability :func:`main` owns, built on first use by
    :meth:`observe` (so a run refused on its inputs writes nothing),
    and :meth:`fingerprint`, the graph's one hash.
    """

    def __init__(self, args: argparse.Namespace, observed: bool) -> None:
        self.args = args
        #: True iff the command's row takes the observability flags:
        #: only then do ``--trace``/``--metrics`` name files to write.
        self.observed = observed
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        resume = getattr(args, "resume", False)
        if resume and not checkpoint_dir:
            raise ValueError("--resume requires --checkpoint-dir")
        retries = getattr(args, "max_retries", None)
        self.keywords = {
            "workers": getattr(args, "workers", 1),
            "kernel": getattr(args, "kernel", "blocks"),
            "shards": getattr(args, "shards", "auto"),
            "cache": CliqueCache() if getattr(args, "cache", False) else None,
            "checkpoint": CheckpointStore(checkpoint_dir) if checkpoint_dir else None,
            "resume": resume,
            "runner": RunnerConfig(
                batch_timeout=getattr(args, "batch_timeout", None),
                max_retries=RunnerConfig.max_retries if retries is None else retries,
            ),
        }
        self._obs: tuple | None = None
        self._fingerprint: dict | None = None
        self._dataset: ASDataset | None = None
        self._session = None
        self._artifact = None

    def observe(self, *, serving: bool = False) -> tuple:
        """``(tracer, registry, sampler)``, built on the first call.

        Real ones iff the command is observed and ``--trace`` or
        ``--metrics`` was given; the sampler only for a manifest with a
        positive ``--resource-interval``.  ``serving`` (``query serve``)
        always keeps a registry and sampler: ``/metrics`` serves them.
        """
        if self._obs is None:
            args = self.args
            tracer, metrics, monitor = NULL_TRACER, None, None
            traced = self.observed and bool(args.trace or args.metrics)
            if traced:
                tracer, metrics = Tracer(memory=True), MetricsRegistry()
            elif serving:
                metrics = MetricsRegistry()
            if (serving or traced and args.metrics) and args.resource_interval > 0:
                monitor = ResourceMonitor(interval=args.resource_interval).start()
            self._obs = (tracer, metrics, monitor)
        return self._obs

    @property
    def tracer(self) -> Tracer:
        return self.observe()[0]

    @property
    def metrics(self) -> MetricsRegistry | None:
        return self.observe()[1]

    def dataset(self) -> ASDataset:
        """The command's dataset, loaded once (``paper`` without
        ``--dataset`` generates one from ``--seed``)."""
        if self._dataset is None:
            path = self.args.dataset
            self._dataset = _load_dataset(path) if path else generate_topology(seed=self.args.seed)
        return self._dataset

    def fingerprint(self) -> dict | None:
        """The graph's one fingerprint: the held session's or artifact's,
        else the one the stale-artifact guard or the run's stores took,
        else the dataset graph hashed now (``None`` with no dataset)."""
        if self._session is not None:
            return self._session.fingerprint()
        if self._artifact is not None:
            return self._artifact.fingerprint or None
        if self._fingerprint is None and self._dataset is not None:
            from .obs.manifest import graph_fingerprint

            self._fingerprint = graph_fingerprint(self._dataset.graph)
        return self._fingerprint

    def cpm(self) -> CPMResult:
        """Run LP-CPM on the dataset over the flags' k range (if any);
        a fingerprint taken before keys its stores instead of a rehash."""
        from .api import _extract

        result = _extract(
            self.dataset().graph,
            (getattr(self.args, "min_k", 2), getattr(self.args, "max_k", None)),
            self._fingerprint,
            **self.keywords,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._fingerprint = result.fingerprint
        return result

    def context(self) -> AnalysisContext:
        """:meth:`cpm` wrapped for the Chapter-4 analyses."""
        return AnalysisContext.from_result(
            self.dataset(),
            self.cpm(),
            analysis_engine=getattr(self.args, "analysis_engine", "bitset"),
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def session(self):
        """``session open``'s session over the dataset (kernel and cache
        flags), or the one saved in ``session_dir``."""
        from .api import load_session, open_session

        if self.args.session_command == "open":
            self._session = open_session(
                self.dataset().graph,
                kernel=self.args.kernel,
                cache=self.keywords["cache"],
                tracer=self.tracer,
                metrics=self.metrics,
            )
        else:
            self._session = load_session(
                self.args.session_dir, tracer=self.tracer, metrics=self.metrics
            )
        return self._session

    def artifact(self):
        """The command's query artifact (observability starts first, so a
        missing artifact still leaves a trace and manifest)."""
        from .api import load_query_artifact

        self.observe()
        self._artifact = load_query_artifact(self.args.artifact)
        return self._artifact

    def close(self) -> None:
        """Write the trace and manifest the flags asked for, if the
        command is observed and some step used the observability.

        The tracer is closed *first* (finalising any spans a failure
        left open), so a trace flushed after a crash is complete.
        """
        args = self.args
        if self._artifact is not None:
            self._artifact.close()
        if self._obs is None or not self.observed:
            return
        tracer, metrics, monitor = self._obs
        if monitor is not None:
            monitor.stop()
        tracer.close()
        if args.trace:
            tracer.write_jsonl(args.trace)
            print(f"wrote trace ({len(tracer.records)} spans) to {args.trace}")
        if args.metrics:
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
                config=config,
                settings=_run_settings(args),
                tracer=tracer,
                metrics=metrics,
                resources=monitor.series() if monitor is not None else None,
            )
            manifest.fingerprint = self.fingerprint()
            manifest.save(args.metrics)
            print(f"wrote run manifest to {args.metrics}")


def _cmd_generate(args: argparse.Namespace, run: _Run) -> int:
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


def _cmd_communities(args: argparse.Namespace, run: _Run) -> int:
    result = run.cpm()
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
    return 0


def _cmd_tree(args: argparse.Namespace, run: _Run) -> int:
    context = run.context()
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
    return 0


def _cmd_graphml(args: argparse.Namespace, run: _Run) -> int:
    from .analysis.bands import derive_bands
    from .analysis.ixp_share import IXPShareAnalysis
    from .report.graphml import write_graphml

    context = run.context()
    bands = derive_bands(IXPShareAnalysis(context))
    write_graphml(context, args.out, k=args.k, bands=bands)
    print(f"wrote GraphML with k={args.k} memberships to {args.out}")
    return 0


def _cmd_paper(args: argparse.Namespace, run: _Run) -> int:
    paper = PaperRun(run.context())
    wrote_artifacts = False
    if args.html:
        from .report.html import render_html_report

        Path(args.html).write_text(render_html_report(paper), encoding="utf-8")
        print(f"wrote HTML report to {args.html}")
        wrote_artifacts = True
    if args.csv_dir:
        from .report.csvdata import write_figure_csvs

        files = write_figure_csvs(paper, args.csv_dir)
        print(f"wrote {len(files)} CSV/manifest files to {args.csv_dir}")
        wrote_artifacts = True
    if not wrote_artifacts:
        print(paper.full_report())
    return 0


def _cmd_stats(args: argparse.Namespace, run: _Run) -> int:
    from .graph.stats import summarize_graph
    from .report.figures import ascii_table

    summary = summarize_graph(run.dataset().graph)
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


def _cmd_evolve(args: argparse.Namespace, run: _Run) -> int:
    from .evolution import EventKind, EvolutionTracker, TopologyEvolution

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
                [
                    "orders",
                    f"{min(info['orders'])}..{max(info['orders'])}" if info["orders"] else "-",
                ],
                ["communities", info["total_communities"]],
                ["applied batches", info["applied_batches"]],
            ],
            title="Incremental CPM session",
        )
    )


def _cmd_session_open(args: argparse.Namespace, run: _Run) -> int:
    session = run.session()
    session.save(args.session_dir)
    if session.cache_hit:
        print("clique cache: hit (loaded overlap)")
    print(f"opened session in {args.session_dir}")
    _print_session_status(session)
    return 0


def _cmd_session_apply(args: argparse.Namespace, run: _Run) -> int:
    delta = _session_delta(args)
    session = run.session()
    update = session.apply(delta)
    session.save(args.session_dir)
    print(update.summary())
    for change in update.changes:
        arrow = f"{list(change.old_labels)} -> {list(change.new_labels)}"
        print(
            f"  k={change.k} {change.kind}: {arrow} "
            f"(size {change.size_before} -> {change.size_after})"
        )
    return 0


def _cmd_session_status(args: argparse.Namespace, run: _Run) -> int:
    _print_session_status(run.session())
    return 0


def _cmd_atlas(args: argparse.Namespace, run: _Run) -> int:
    from .report.atlas import build_atlas

    print(build_atlas(run.context()).render(top=args.top))
    return 0


def _cmd_export(args: argparse.Namespace, run: _Run) -> int:
    result = run.cpm()
    save_result(result, args.out)
    hierarchy = result.hierarchy
    print(
        f"wrote {hierarchy.total_communities} communities "
        f"(k in [{hierarchy.min_k}, {hierarchy.max_k}]) to {args.out}"
    )
    return 0


def _guard_stale_artifact(out: Path, run: _Run, *, force: bool) -> None:
    """Refuse to overwrite an artifact built from a *different* graph.

    ``query build`` used to clobber whatever sat at the output path,
    silently replacing an artifact another dataset's pipeline produced.
    Now the existing artifact's stored fingerprint is compared with the
    current dataset's before the (expensive) CPM run: a mismatch — or
    an unreadable existing file — aborts unless ``--force``.  Matching
    fingerprints rebuild freely: that is a refresh, not a clobber, and
    the run and the artifact reuse the fingerprint taken here.
    """
    if force or not out.exists():
        return
    from .api import load_query_artifact
    from .query.artifact import ArtifactError

    try:
        existing = load_query_artifact(out, mmap=False).fingerprint
    except ArtifactError as exc:
        raise ValueError(
            f"refusing to overwrite {out}: the existing file is not a readable "
            f"query artifact ({exc}); re-run with --force to replace it"
        ) from exc
    current = run.fingerprint()
    if existing.get("checksum") != current["checksum"]:
        raise ValueError(
            f"refusing to overwrite {out}: it was built from a different graph "
            f"(stored fingerprint {existing.get('checksum')!r}, this dataset is "
            f"{current['checksum']!r}); re-run with --force to replace it"
        )


def _cmd_query_build(args: argparse.Namespace, run: _Run) -> int:
    from .analysis.bands import derive_bands
    from .analysis.ixp_share import IXPShareAnalysis
    from .query.artifact import build_artifact

    run.dataset()
    _guard_stale_artifact(Path(args.out), run, force=args.force)
    context = run.context()
    bands = derive_bands(IXPShareAnalysis(context))
    export = context.engine.export_table()
    table = {
        row["label"]: (row["link_density"], row["average_odf"])
        for row in export["rows"]
    }
    artifact = build_artifact(
        context.hierarchy,
        tree=context.tree,
        graph=context.graph,
        table=table,
        bands=bands,
        analysis_engine=export["engine"],
        fingerprint=run.fingerprint(),
        tracer=run.tracer,
        metrics=run.metrics,
    )
    target = artifact.save(args.out)
    checksum = artifact.fingerprint.get("checksum", "?")
    print(
        f"wrote query artifact ({artifact.n_communities} communities, "
        f"{artifact.n_nodes} ASes, fingerprint {checksum}) to {target}"
    )
    return 0


def _cmd_query_lookup(args: argparse.Namespace, run: _Run) -> int:
    import json

    from .query.engine import LookupEngine
    from .query.server import parse_as

    engine = LookupEngine(run.artifact(), tracer=run.tracer, metrics=run.metrics)
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
    return 0


def _cmd_query_serve(args: argparse.Namespace, run: _Run) -> int:
    from .query.server import make_server

    # A server always keeps a live registry (it feeds /metrics) and —
    # unlike batch commands — always samples resources while serving:
    # /metrics exposes RSS/CPU as process gauges even when no manifest
    # was requested.  0 still disables the sampler.
    tracer, metrics, monitor = run.observe(serving=True)
    artifact = run.artifact()
    server = make_server(
        artifact,
        host=args.host,
        port=args.port,
        tracer=tracer,
        metrics=metrics,
        monitor=monitor,
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
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        server.server_close()
        obs_logging.log_event("query.serve.stop", served=server.served)
    return 0


def _cmd_obs_view(args: argparse.Namespace, run: _Run) -> int:
    spans, _document = load_trace(args.trace)
    print(render_tree(spans, hot_count=args.hot))
    return 0


def _cmd_obs_diff(args: argparse.Namespace, run: _Run) -> int:
    import json

    base = json.loads(Path(args.a).read_text(encoding="utf-8"))
    fresh = json.loads(Path(args.b).read_text(encoding="utf-8"))
    # Full paths, not basenames: a fingerprint/settings warning in a CI
    # log must name which manifest files disagreed.
    print(diff_manifests(base, fresh, names=(str(args.a), str(args.b))))
    return 0


def _cmd_obs_export(args: argparse.Namespace, run: _Run) -> int:
    if args.format == "prometheus":
        import json

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


def _cmd_obs_tail(args: argparse.Namespace, run: _Run) -> int:
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


def _cmd_obs_history(args: argparse.Namespace, run: _Run) -> int:
    print(history(args.directory, max_commits=args.max_commits))
    return 0


def _configure_generate(p: argparse.ArgumentParser) -> None:
    p.add_argument("out", help="output directory")
    p.add_argument("--profile", choices=["default", "tiny", "paper-scale"], default="default")
    p.add_argument("--config", default=None, help="GeneratorConfig JSON (overrides --profile)")
    p.add_argument("--seed", type=int, default=42)


def _configure_communities(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    _add_k_range(p)
    p.add_argument("--members", action="store_true", help="print community members")


def _configure_tree(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("--format", choices=["ascii", "dot"], default="ascii")
    p.add_argument("--max-children", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--bands", action="store_true", help="colour DOT layers by band")
    _add_analysis_engine(p, _ANALYSIS_HELP)


def _configure_graphml(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("out", help="output .graphml path")
    p.add_argument("-k", type=int, default=4, help="order for membership attributes")
    p.add_argument("--workers", type=int, default=1)


def _configure_paper(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default=None, help="dataset directory (default: generate)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--html", default=None, help="write a standalone HTML report here")
    p.add_argument("--csv-dir", default=None, help="write figure data as CSVs here")
    _add_analysis_engine(p, _ANALYSIS_HELP)


def _configure_evolve(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", choices=["default", "tiny"], default="tiny")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--snapshots", type=int, default=5)
    p.add_argument("-k", type=int, default=4)
    p.add_argument(
        "--strategy", choices=["incremental", "replay"], default="incremental",
        help=(
            "cover extraction: one incremental session advanced by edge deltas "
            "(default) or an independent CPM run per snapshot; output is identical"
        ),
    )
    p.add_argument(
        "--incremental", action="store_true",
        help="shorthand for --strategy incremental",
    )


def _configure_session_open(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("session_dir", help="directory to persist the session into")


def _configure_session_apply(p: argparse.ArgumentParser) -> None:
    p.add_argument("session_dir", help="directory holding a saved session")
    p.add_argument(
        "--insert", action="append", metavar="U,V", default=[],
        help="insert one AS link (repeatable)",
    )
    p.add_argument(
        "--delete", action="append", metavar="U,V", default=[],
        help="delete one AS link (repeatable)",
    )
    p.add_argument(
        "--delta", default=None, metavar="PATH",
        help='JSON file {"insertions": [[u, v], ...], "deletions": [...]}',
    )


def _configure_atlas(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("--top", type=int, default=12)
    p.add_argument("--workers", type=int, default=1)


def _configure_export(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("out", help="output JSON path")
    _add_k_range(p)


def _configure_query_build(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help=_DATASET_HELP)
    p.add_argument("out", help="output artifact path (e.g. communities.rqa)")
    _add_k_range(p)
    p.add_argument(
        "--force", action="store_true",
        help=(
            "overwrite an existing artifact even when its stored graph "
            "fingerprint does not match this dataset"
        ),
    )
    _add_analysis_engine(
        p,
        "metric engine that sweeps the frozen density/ODF table: the serial "
        "bitset popcount sweep or the set-based oracle (--workers parallelises "
        "CPM only)",
    )


def _configure_query_lookup(p: argparse.ArgumentParser) -> None:
    p.add_argument("artifact", help="query artifact written by `repro query build`")
    p.add_argument(
        "--info", action="store_true", help="print artifact metadata (fingerprint, bands)"
    )
    p.add_argument(
        "--member", default=None, metavar="AS",
        help="communities containing this AS, per order k",
    )
    p.add_argument(
        "--band", default=None, metavar="AS",
        help="crown/trunk/root band of this AS",
    )
    p.add_argument(
        "--lca", nargs=2, default=None, metavar=("A", "B"),
        help="lowest common community of two ASes",
    )
    p.add_argument(
        "--top", default=None, choices=list(TOP_METRICS),
        help="rank communities by this metric",
    )
    p.add_argument(
        "--n", type=int, default=10, help="how many communities --top returns"
    )
    p.add_argument(
        "-k", type=int, default=None, help="restrict --top to one order"
    )
    p.add_argument(
        "--community", default=None, metavar="LABEL",
        help="one community's record by k<k>id<n> label",
    )
    p.add_argument(
        "--members", action="store_true",
        help="expand the member list with --community",
    )


def _configure_query_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument("artifact", help="query artifact written by `repro query build`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8091)
    p.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="shut down after N requests (smoke tests; default: serve forever)",
    )


def _configure_obs_diff(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", help="baseline manifest JSON")
    p.add_argument("b", help="comparison manifest JSON")


def _configure_obs_export(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="trace .jsonl or run-manifest .json file")
    p.add_argument(
        "--format", choices=["perfetto", "prometheus"], default="perfetto",
        help=(
            "output format: Chrome/Perfetto trace-event JSON from a trace, "
            "or Prometheus text exposition from a manifest's metrics block"
        ),
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default: <trace>.perfetto.json; prometheus prints to stdout)",
    )


def _configure_obs_tail(p: argparse.ArgumentParser) -> None:
    p.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8091")
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between scrapes (default 2)",
    )
    p.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    p.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-request HTTP timeout (default 5)",
    )


def _configure_obs_view(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="trace .jsonl or run-manifest .json file")
    p.add_argument(
        "--hot", type=int, default=3, metavar="N",
        help="flag the N spans with the largest self time (default 3)",
    )


def _configure_obs_history(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "directory", nargs="?", default="benchmarks/output",
        help="directory holding BENCH_*.json manifests (default benchmarks/output)",
    )
    p.add_argument(
        "--max-commits", type=int, default=10, metavar="N",
        help="how many commits of history to walk (default 10)",
    )


#: The flag groups a command row can take, attached after its own
#: arguments in this order: the batch CPM flags (kernel, cache, shards,
#: checkpoint, runner), a session's kernel and cache flags, and the
#: observability flags (which also make main() build the tracer).
CPM, SESSION_KERNEL, OBS = "cpm", "session-kernel", "obs"

#: Help of the command families whose rows are named "<family> <command>".
_FAMILIES = {
    "session": "open, mutate and inspect incremental CPM sessions",
    "query": "build, serve and query the community query artifact",
    "obs": "inspect observability artifacts (traces, manifests, bench history)",
}

#: One row per command, in help order: (name, help, flag groups,
#: configure(parser), run(args, run)).
_COMMANDS = (
    ("generate", "build and save a synthetic dataset", (), _configure_generate, _cmd_generate),
    ("communities", "extract k-clique communities", (CPM, OBS),
     _configure_communities, _cmd_communities),
    ("tree", "print the k-clique community tree", (CPM, OBS), _configure_tree, _cmd_tree),
    ("graphml", "export topology + communities as GraphML", (),
     _configure_graphml, _cmd_graphml),
    ("paper", "regenerate the paper's tables and figures", (CPM, OBS),
     _configure_paper, _cmd_paper),
    ("stats", "structural statistics of a topology", (),
     lambda p: p.add_argument("dataset", help=_DATASET_HELP), _cmd_stats),
    ("evolve", "track communities over a growing topology", (), _configure_evolve, _cmd_evolve),
    ("session open", "run CPM once and persist the live session state", (SESSION_KERNEL, OBS),
     _configure_session_open, _cmd_session_open),
    ("session apply", "apply an edge delta to a persisted session", (OBS,),
     _configure_session_apply, _cmd_session_apply),
    ("session status", "show a persisted session's census and fingerprint", (),
     lambda p: p.add_argument("session_dir", help="directory holding a saved session"),
     _cmd_session_status),
    ("atlas", "per-IXP and per-country community profiles", (), _configure_atlas, _cmd_atlas),
    ("export", "extract communities and save them as JSON", (CPM, OBS),
     _configure_export, _cmd_export),
    ("query build", "run CPM once and freeze the hierarchy into a query artifact", (CPM, OBS),
     _configure_query_build, _cmd_query_build),
    ("query lookup", "point queries against a saved artifact (no CPM recompute)", (OBS,),
     _configure_query_lookup, _cmd_query_lookup),
    ("query serve", "long-lived JSON lookup server over a saved artifact", (OBS,),
     _configure_query_serve, _cmd_query_serve),
    ("obs view", "render a trace (JSONL) or manifest as an ASCII span tree", (),
     _configure_obs_view, _cmd_obs_view),
    ("obs diff", "signed scalar deltas between two run manifests", (),
     _configure_obs_diff, _cmd_obs_diff),
    ("obs export", "convert a trace to a standard viewer format", (),
     _configure_obs_export, _cmd_obs_export),
    ("obs tail", "live per-endpoint rate/err/p99 view of a running query server", (),
     _configure_obs_tail, _cmd_obs_tail),
    ("obs history", "bench scalar trajectories across committed BENCH manifests", (),
     _configure_obs_history, _cmd_obs_history),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "k-clique communities in the Internet AS-level topology (ICDCS 2011 reproduction)"
        ),
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, groups, configure, command in _COMMANDS:
        family, _, leaf = name.rpartition(" ")
        if family not in subparsers:
            subparsers[family] = subparsers[""].add_parser(
                family, help=_FAMILIES[family]
            ).add_subparsers(dest=f"{family}_command", required=True)
        p = subparsers[family].add_parser(leaf, help=help_text)
        configure(p)
        if CPM in groups:
            _add_cpm_arguments(p)
        if SESSION_KERNEL in groups:
            _add_kernel_arguments(
                p, SESSION_KERNELS, "CPM kernel: blocks (default; auto is blocks)"
            )
        if OBS in groups:
            _add_obs_arguments(p)
        p.set_defaults(func=(command, OBS in groups))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Builds the command's :class:`_Run`, runs the command and writes its
    trace and manifest — after a failure too, but a failure to write
    them never hides the command's own error.  User-input failures
    (missing files, malformed datasets, an unwritable output path)
    print one clean error line and return 2 instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    command, observed = args.func
    log_target = getattr(args, "log_json", None)
    if log_target:
        logger = obs_logging.configure(log_target, command=args.command)
        logger.info("cli.start", argv=list(argv) if argv is not None else sys.argv[1:])
    try:
        run = _Run(args, observed)
        try:
            code = command(args, run)
        except BaseException:
            try:
                run.close()
            except OSError:
                pass
            raise
        run.close()
        if log_target:
            obs_logging.log_event("cli.exit", code=code)
        return code
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0
    except (OSError, KeyError, ValueError) as exc:
        obs_logging.log_event("cli.error", level="error", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        obs_logging.shutdown()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
