"""Community query service: serveable artifact + lookup engine + server.

The batch pipeline (``run_cpm`` -> analysis) computes the paper's
community hierarchy; this package *serves* it.  Three layers:

* :mod:`repro.query.artifact` — the immutable, mmap-friendly
  :class:`QueryArtifact`: community tree, per-community membership
  bitsets, per-node posting lists and the memoized Chapter-4 metric
  table, packed into one binary file keyed by the source graph's
  fingerprint;
* :mod:`repro.query.engine` — :class:`LookupEngine` point queries
  (memberships per k, crown/trunk/root band, lowest common community,
  top-N by density/ODF/size) with zero CPM recompute;
* :mod:`repro.query.server` — a stdlib HTTP server exposing those
  lookups as JSON endpoints, instrumented with ``query.*`` spans and
  counters.

CLI: ``repro query build | lookup | serve`` (see
``docs/query-service.md``); facade: :func:`repro.api
.build_query_artifact` / :func:`repro.api.load_query_artifact`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "artifact": [
            "ARTIFACT_VERSION", "ArtifactError", "BandSpec", "QueryArtifact", "build_artifact",
        ],
        "engine": ["TOP_METRICS", "LookupEngine"],
        "server": ["QueryServer", "make_server"],
    },
)
