"""Point lookups over a :class:`~repro.query.artifact.QueryArtifact`.

A :class:`LookupEngine` answers the questions the paper's hierarchy
exists to answer — without touching CPM, the analysis engine, or the
source graph:

* :meth:`memberships` — which communities contain AS X, per order
  (the node's full position in the community tree);
* :meth:`band` — the crown/trunk/root band of AS X (the band of the
  highest order at which X still belongs to a community);
* :meth:`lowest_common` — the lowest common community of X and Y: the
  deepest (maximum-k) community containing both, i.e. their meet in
  the containment tree;
* :meth:`top` — the top-N communities by link density, average ODF or
  size, optionally restricted to one order;
* :meth:`community` — one community's stored record (and, on request,
  its member list expanded from the packed bitset).

Everything reads from the artifact's postings/index sections — a
membership query is one offset subtraction and a contiguous slice;
community bitsets are only touched when a caller asks for member
expansion.  Each call runs inside a ``query.lookup`` span (attribute
``op``) and bumps the ``query.lookups`` / ``query.lookup.<op>``
counters, so a served artifact's traffic shows up in the standard
``repro.obs`` artifacts.
"""

from __future__ import annotations

from ..choices import TOP_METRICS
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from .artifact import QueryArtifact

__all__ = ["LookupEngine", "TOP_METRICS"]


class LookupEngine:
    """Query front-end over one loaded artifact."""

    def __init__(
        self,
        artifact: QueryArtifact,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.artifact = artifact
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def with_observability(
        self,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "LookupEngine":
        """A clone over the same artifact with different telemetry sinks.

        Construction is three attribute assignments — cheap enough
        that the query server builds one per *request*, giving each
        handler thread a private tracer (span stacks don't survive
        sharing) while the thread-safe registry stays shared.
        """
        return LookupEngine(
            self.artifact,
            tracer=tracer if tracer is not None else self.tracer,
            metrics=metrics if metrics is not None else self.metrics,
        )

    def _count(self, op: str) -> None:
        self.metrics.inc("query.lookups")
        self.metrics.inc(f"query.lookup.{op}")

    def _node_id(self, node) -> int:
        artifact = self.artifact
        try:
            return artifact.node_id(node)
        except KeyError:
            raise KeyError(f"unknown AS {node!r} (not in any community)") from None

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def memberships(self, node) -> dict[int, list[str]]:
        """Order k -> labels of the communities containing ``node``.

        Same shape and ordering as
        :meth:`~repro.core.communities.CommunityHierarchy.membership_of`.
        """
        with self.tracer.span("query.lookup", op="membership"):
            self._count("membership")
            artifact = self.artifact
            node_id = self._node_id(node)
            out: dict[int, list[str]] = {}
            for ordinal in artifact.postings_of(node_id):
                out.setdefault(artifact._ks[ordinal], []).append(artifact.label(ordinal))
            return out

    def band(self, node) -> dict:
        """The crown/trunk/root position of ``node``.

        The band is that of the *highest* order at which the node still
        belongs to a community — the deepest layer of the tree it
        reaches (Sections 4.1-4.3 classify ASes exactly this way).
        """
        with self.tracer.span("query.lookup", op="band"):
            self._count("band")
            artifact = self.artifact
            node_id = self._node_id(node)
            ordinals = artifact.postings_of(node_id)
            if not len(ordinals):
                return {"as": node, "band": None, "max_k": None}
            deepest = ordinals[-1]  # postings ascend in (k, index)
            max_k = artifact._ks[deepest]
            return {
                "as": node,
                "band": artifact.bands.band_of(max_k),
                "max_k": max_k,
                "deepest_community": artifact.label(deepest),
            }

    def lowest_common(self, a, b) -> dict | None:
        """The deepest community containing both ``a`` and ``b``.

        By the nesting theorem the communities containing a node form a
        chain of main/parallel memberships up the tree; the lowest
        common community is the maximum-k community both chains share
        (smallest index on ties — the largest community of that order).
        Returns ``None`` when the two ASes share no community.
        """
        with self.tracer.span("query.lookup", op="lca"):
            self._count("lca")
            artifact = self.artifact
            common = set(artifact.postings_of(self._node_id(a))) & set(
                artifact.postings_of(self._node_id(b))
            )
            if not common:
                return None
            ks = artifact._ks
            best = max(common, key=lambda o: (ks[o], -artifact._indices[o]))
            record = artifact.record(best)
            record["band"] = artifact.bands.band_of(record["k"])
            return record

    def top(self, metric: str = "density", n: int = 10, k: int | None = None) -> list[dict]:
        """The top ``n`` communities by ``metric``, optionally at order ``k``.

        ``metric`` is one of :data:`TOP_METRICS`; rankings were frozen
        at build time (descending value, ties by ``(k, index)``), so
        this is a slice of a precomputed table, not a sort.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        with self.tracer.span("query.lookup", op="top"):
            self._count("top")
            artifact = self.artifact
            ranked = artifact.top_ordinals(metric)
            out: list[dict] = []
            for ordinal in ranked:
                if k is not None and artifact._ks[ordinal] != k:
                    continue
                out.append(artifact.record(ordinal))
                if len(out) == n:
                    break
            return out

    def community(self, label: str, *, members: bool = False) -> dict:
        """One community's stored record; ``members=True`` expands the bitset."""
        with self.tracer.span("query.lookup", op="community"):
            self._count("community")
            artifact = self.artifact
            ordinal = artifact.ordinal(label)
            record = artifact.record(ordinal)
            record["band"] = artifact.bands.band_of(record["k"])
            if members:
                record["members"] = artifact.members(ordinal)
            return record

    def info(self) -> dict:
        """Artifact metadata: fingerprint, bands, orders, counts."""
        with self.tracer.span("query.lookup", op="info"):
            self._count("info")
            meta = self.artifact.meta
            return {
                "format": meta.get("format"),
                "version": meta.get("version"),
                "fingerprint": self.artifact.fingerprint,
                "bands": self.artifact.bands.to_dict(),
                "orders": self.artifact.orders,
                "n_nodes": self.artifact.n_nodes,
                "n_communities": self.artifact.n_communities,
            }
