"""One JSON artifact per run: fingerprint, config, versions, spans, metrics.

A :class:`RunManifest` is the unit of the performance trajectory: every
instrumented CLI run and every benchmark writes one, and comparing two
manifests answers "did this PR make the pipeline faster / leaner and on
the same input?".  It bundles:

* ``fingerprint`` — node/edge counts plus a content checksum of the
  graph, so before/after comparisons are provably about the same input;
* ``config`` — the run's parameters (CLI arguments, generator profile,
  worker count …), free-form JSON;
* ``settings`` — the *comparability-critical* subset of the config
  (which kernel, which analysis engine, how many workers): ``repro obs
  diff`` refuses to silently compare manifests whose settings differ,
  because a blocks-vs-set delta is a kernel change, not a regression;
* ``versions`` — Python, platform and ``repro`` versions;
* ``spans`` — the closed spans of the run's :class:`~repro.obs.tracing.
  Tracer` (per-phase wall/CPU/peak-memory);
* ``metrics`` — the ``to_dict`` export of the run's
  :class:`~repro.obs.metrics.MetricsRegistry`;
* ``resources`` — the :class:`~repro.obs.resources.ResourceMonitor`
  sample series (RSS / CPU over the run), when one was attached.

Manifests round-trip losslessly through JSON
(:meth:`RunManifest.save` / :meth:`RunManifest.load`).  Schema history:
version 1 had neither ``settings`` nor ``resources``; version 2 added
both (old files load fine — the new blocks default to empty).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunManifest", "graph_fingerprint", "library_versions"]

#: Version of the manifest JSON layout, bumped on breaking changes.
SCHEMA_VERSION = 2


def graph_fingerprint(graph) -> dict:
    """Node/edge counts plus an order-independent content checksum.

    The checksum is a BLAKE2b digest over the sorted ``repr`` forms of
    all edges (endpoints sorted within each edge), so two graphs built
    in different insertion orders — or in different processes — get the
    same fingerprint iff they have the same edge set.
    """
    digest = hashlib.blake2b(digest_size=16)
    edge_keys = sorted(
        "|".join(sorted((repr(u), repr(v)))) for u, v in graph.edges()
    )
    for key in edge_keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return {
        "nodes": graph.number_of_nodes,
        "edges": graph.number_of_edges,
        "checksum": digest.hexdigest(),
    }


def library_versions() -> dict:
    """Python / platform / repro versions, for manifest comparability."""
    from .. import __version__

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "repro": __version__,
        "argv0": Path(sys.argv[0]).name if sys.argv else "",
    }


@dataclass
class RunManifest:
    """All observability artifacts of one run, as one JSON document."""

    label: str = ""
    fingerprint: dict | None = None
    config: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    versions: dict = field(default_factory=library_versions)
    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def collect(
        cls,
        *,
        label: str = "",
        graph=None,
        config: dict | None = None,
        settings: dict | None = None,
        tracer=None,
        metrics=None,
        resources: dict | None = None,
    ) -> "RunManifest":
        """Assemble a manifest from live objects.

        ``graph`` (fingerprinted), ``tracer`` (its closed spans),
        ``metrics`` (its ``to_dict``), ``settings`` (the recording
        kernel/engine configuration) and ``resources`` (a
        :class:`~repro.obs.resources.ResourceMonitor` series) are each
        optional, so partial manifests — e.g. a benchmark that only
        times itself — are valid.
        """
        return cls(
            label=label,
            fingerprint=graph_fingerprint(graph) if graph is not None else None,
            config=dict(config or {}),
            settings=dict(settings or {}),
            spans=tracer.to_dicts() if tracer is not None else [],
            metrics=metrics.to_dict() if metrics is not None else {},
            resources=dict(resources or {}),
        )

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The manifest as a JSON-serialisable dict."""
        return {
            "schema_version": self.schema_version,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "settings": self.settings,
            "versions": self.versions,
            "spans": self.spans,
            "metrics": self.metrics,
            "resources": self.resources,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from its ``to_dict`` form."""
        return cls(
            label=data.get("label", ""),
            fingerprint=data.get("fingerprint"),
            config=dict(data.get("config", {})),
            settings=dict(data.get("settings", {})),
            versions=dict(data.get("versions", {})),
            spans=list(data.get("spans", [])),
            metrics=dict(data.get("metrics", {})),
            resources=dict(data.get("resources", {})),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    def save(self, path) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_dict(), indent=2, default=repr) + "\n", encoding="utf-8"
        )
        return target

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_prometheus(self, *, namespace: str = "repro") -> str:
        """The manifest's metrics block as Prometheus exposition text.

        The same rendering the live server's ``/metrics`` endpoint
        uses (:func:`~repro.obs.exposition.render_exposition`), so a
        batch run's frozen counters/gauges/histogram summaries and a
        served artifact's scrape speak identical metric names.
        """
        from .exposition import render_exposition

        return render_exposition(self.metrics, namespace=namespace)

    # ------------------------------------------------------------------
    # Reading helpers
    # ------------------------------------------------------------------
    def span(self, name: str) -> dict | None:
        """The first span with the given name, or None."""
        for record in self.spans:
            if record.get("name") == name:
                return record
        return None

    def phase_table(self) -> list[tuple[str, float, float, int]]:
        """(name, wall, cpu, peak_alloc) for every top-level phase span.

        Top-level means depth 1 — the direct children of the run span —
        which for LP-CPM are the enumerate / overlap / percolate /
        hierarchy phases.
        """
        return [
            (
                record["name"],
                record["wall_seconds"],
                record["cpu_seconds"],
                record["peak_alloc_bytes"],
            )
            for record in self.spans
            if record.get("depth") == 1
        ]
