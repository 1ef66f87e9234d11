"""Long-lived JSON lookup server over a query artifact.

The read path of the ROADMAP's "millions of users" north star: a
process that loads one immutable :class:`~repro.query.artifact
.QueryArtifact` (mmapped, so N processes share one page cache copy)
and answers the point queries of :class:`~repro.query.engine
.LookupEngine` over plain HTTP.  Pure stdlib — ``http.server`` with a
threading mixin — because the repo bakes in no third-party runtime
dependencies.

Endpoints (all ``GET``)::

    /health                        liveness + artifact identity
    /metrics                       Prometheus text exposition
    /artifact                      full metadata (fingerprint, bands,
                                   orders, counts)
    /membership?as=X               k -> community labels containing X
    /band?as=X                     crown/trunk/root position of X
    /lca?a=X&b=Y                   lowest common community of X and Y
    /top?metric=M&n=N[&k=K]        top-N by density / odf / size
    /community?label=L[&members=1] one community record (+ members)

Errors are JSON too: 400 for malformed parameters, 404 for unknown
ASes/labels/paths, never a traceback page.  AS parameters are parsed
as integers when possible (AS numbers are ints), falling back to the
raw string for string-labelled graphs.

Concurrency model (the artifact is immutable, so reads need no
coordination at all):

* requests run **concurrently**: the threaded listener hands each
  connection its own handler thread, and the handler reads the shared
  mmap directly;
* an idle connection is closed after ``_QueryRequestHandler.timeout``
  seconds, so a client that opens a socket and sends nothing does not
  pin a handler thread forever;
* shared telemetry is safe by construction: the
  :class:`~repro.obs.metrics.MetricsRegistry` takes fine-grained
  per-instrument locks, and spans are captured on a **per-request**
  tracer (one fresh :class:`~repro.obs.tracing.Tracer` plus a cheap
  :meth:`~repro.query.engine.LookupEngine.with_observability` clone of
  the engine) and absorbed into the server tracer under its merge
  lock, stamped with the request id — the PR-5 worker-envelope
  pattern, applied to handler threads;
* every request lands in the ``query.request_seconds`` histogram of
  its endpoint (inline-label convention, bounded cardinality: known
  routes plus ``"other"``), which is what ``/metrics`` exposes as
  per-endpoint p50/p90/p99;
* ``max_requests`` draining is an :class:`~repro.obs.metrics
  .AtomicCounter`: the *add-and-get* that lands exactly on the limit
  owns the shutdown, so N concurrent final requests trigger exactly
  one shutdown and smoke tests stay deterministic.

Access logging: the default stderr log stays silenced, but when the
process has a configured :mod:`repro.obs.logging` logger (``--log-json``)
every request emits one ``query.access`` event carrying the request
id, endpoint, status and latency — the same ``request_id`` stamped
onto the request's absorbed spans, so log lines join span subtrees
exactly.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..obs.exposition import render_exposition
from ..obs.logging import get_logger
from ..obs.metrics import AtomicCounter, MetricsRegistry
from ..obs.resources import ResourceMonitor
from ..obs.tracing import NULL_TRACER, Tracer
from .artifact import QueryArtifact
from .engine import LookupEngine

__all__ = ["QueryServer", "make_server", "ENDPOINTS"]

#: Known endpoint names — the label universe of the per-endpoint
#: request histograms.  Anything else is folded into ``"other"`` so a
#: path-scanning client cannot explode series cardinality.
ENDPOINTS = (
    "health",
    "metrics",
    "artifact",
    "membership",
    "band",
    "lca",
    "top",
    "community",
)

_LOG = get_logger(component="query.server")


def parse_as(value: str):
    """An AS query parameter: int when it looks like one, else the string."""
    try:
        return int(value)
    except ValueError:
        return value


class _BadRequest(ValueError):
    """Malformed query parameters -> HTTP 400."""


def _single(params: dict, name: str) -> str:
    values = params.get(name)
    if not values or not values[0]:
        raise _BadRequest(f"missing required query parameter {name!r}")
    if len(values) > 1:
        raise _BadRequest(f"query parameter {name!r} given more than once")
    return values[0]


class QueryServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one lookup engine."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: LookupEngine,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        monitor: ResourceMonitor | None = None,
    ) -> None:
        super().__init__(address, _QueryRequestHandler)
        self.engine = engine
        self.tracer = tracer if tracer is not None else engine.tracer
        self.metrics = metrics if metrics is not None else engine.metrics
        #: Optional process resource monitor; when attached (the CLI
        #: starts one for ``repro query serve``) its latest sample
        #: surfaces as ``process_*`` gauges on ``/metrics``.
        self.monitor = monitor
        #: When set, the server shuts itself down after this many
        #: requests — a deterministic stop for smoke tests and CI.
        self.max_requests: int | None = None
        self._served = AtomicCounter()
        self._request_ids = AtomicCounter()
        self._started_at = time.monotonic()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def served(self) -> int:
        """Requests fully handled so far (atomic snapshot)."""
        return self._served.value

    # ------------------------------------------------------------------
    # Scrape-time process gauges
    # ------------------------------------------------------------------
    def process_gauges(self) -> dict:
        """Gauges computed at scrape time for ``/metrics``.

        Always includes uptime and the served-request count; when a
        :class:`ResourceMonitor` is attached, its most recent sample
        adds RSS and cumulative CPU.
        """
        gauges = {
            "process.uptime_seconds": time.monotonic() - self._started_at,
            "query.requests_served": self._served.value,
        }
        monitor = self.monitor
        if monitor is not None:
            samples = monitor.series().get("samples") or []
            if samples:
                latest = samples[-1]
                gauges["process.rss_kib"] = latest.get("rss_kib", 0)
                gauges["process.max_rss_kib"] = latest.get("max_rss_kib", 0)
                gauges["process.cpu_seconds"] = latest.get("cpu_seconds", 0.0)
        return gauges


class _QueryRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-query"
    protocol_version = "HTTP/1.1"
    #: Seconds a connection may sit idle before the handler closes it.
    timeout = 30
    server: QueryServer

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self._handle_request():
            # shutdown() blocks until serve_forever exits; hop threads
            # so this response finishes first.
            threading.Thread(target=self.server.shutdown, daemon=True).start()

    def _handle_request(self) -> bool:
        """Serve one request; True when this request drained the server."""
        server = self.server
        url = urlparse(self.path)
        params = parse_qs(url.query)
        endpoint = url.path.strip("/").replace("-", "_")
        route = getattr(self, f"_route_{endpoint}", None)
        label = endpoint if endpoint in ENDPOINTS else "other"
        request_id = server._request_ids.next()

        # Admission gate for the drain: request ids are atomic, so when
        # a limit is set exactly ``max_requests`` requests are admitted
        # — racing latecomers get 503 and are never counted as served,
        # keeping --max-requests deterministic under concurrency.
        if server.max_requests is not None and request_id > server.max_requests:
            server.metrics.inc("query.rejected")
            self._reply(503, {"error": "server draining"})
            return False

        # Per-request capture: a private tracer (span stacks are not
        # shareable across threads) over the shared thread-safe
        # registry; absorbed under the server tracer's merge lock with
        # the request id stamped on every span.
        if server.tracer.enabled:
            tracer = Tracer()
            engine = server.engine.with_observability(tracer=tracer, metrics=server.metrics)
        else:
            tracer = NULL_TRACER
            engine = server.engine

        started = time.perf_counter()
        server.metrics.inc("query.requests")
        with tracer.span("query.request", path=url.path) as span:
            try:
                if route is None:
                    raise KeyError(f"no such endpoint: {url.path}")
                status, payload = 200, route(params, engine)
            except _BadRequest as exc:
                status, payload = 400, {"error": str(exc)}
            except KeyError as exc:
                status, payload = 404, {"error": str(exc).strip("'\"")}
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            if status != 200:
                server.metrics.inc("query.errors")
            span.set("status", status)
        elapsed = time.perf_counter() - started

        server.metrics.observe(f'query.request_seconds{{endpoint="{label}"}}', elapsed)
        if tracer is not NULL_TRACER:
            server.tracer.absorb(tracer.to_dicts(), request_id=request_id)

        self._reply(status, payload)

        _LOG.info(
            "query.access",
            request_id=request_id,
            endpoint=label,
            path=url.path,
            status=status,
            seconds=round(elapsed, 6),
        )

        # Atomic drain: exactly one request observes served == limit.
        served = server._served.next()
        return server.max_requests is not None and served == server.max_requests

    def _reply(self, status: int, payload: dict | list | str) -> None:
        """Send one reply: JSON, or Prometheus text for a ``str`` payload."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr access log; ``query.access``
        structured events (when logging is configured) carry traffic."""

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _route_health(self, params: dict, engine: LookupEngine) -> dict:
        artifact = engine.artifact
        return {
            "status": "ok",
            "communities": artifact.n_communities,
            "nodes": artifact.n_nodes,
            "checksum": artifact.fingerprint.get("checksum"),
            "served": self.server.served,
        }

    def _route_metrics(self, params: dict, engine: LookupEngine) -> str:
        server = self.server
        return render_exposition(server.metrics, extra_gauges=server.process_gauges())

    def _route_artifact(self, params: dict, engine: LookupEngine) -> dict:
        return engine.info()

    def _route_membership(self, params: dict, engine: LookupEngine) -> dict:
        node = parse_as(_single(params, "as"))
        memberships = engine.memberships(node)
        return {
            "as": node,
            "memberships": {str(k): labels for k, labels in memberships.items()},
        }

    def _route_band(self, params: dict, engine: LookupEngine) -> dict:
        return engine.band(parse_as(_single(params, "as")))

    def _route_lca(self, params: dict, engine: LookupEngine) -> dict:
        a = parse_as(_single(params, "a"))
        b = parse_as(_single(params, "b"))
        record = engine.lowest_common(a, b)
        return {"a": a, "b": b, "lca": record}

    def _route_top(self, params: dict, engine: LookupEngine) -> dict:
        metric = _single(params, "metric") if "metric" in params else "density"
        try:
            n = int(_single(params, "n")) if "n" in params else 10
            k = int(_single(params, "k")) if "k" in params else None
        except ValueError as exc:
            raise _BadRequest(f"n and k must be integers: {exc}") from exc
        return {"metric": metric, "k": k, "communities": engine.top(metric, n, k)}

    def _route_community(self, params: dict, engine: LookupEngine) -> dict:
        label = _single(params, "label")
        members = params.get("members", ["0"])[0] not in ("", "0", "false")
        return engine.community(label, members=members)


def make_server(
    artifact: QueryArtifact | LookupEngine,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    monitor: ResourceMonitor | None = None,
) -> QueryServer:
    """Bind a :class:`QueryServer` (``port=0`` picks a free port).

    ``artifact`` may be a loaded :class:`QueryArtifact` or an existing
    :class:`LookupEngine`.  ``monitor`` attaches a running
    :class:`ResourceMonitor` whose samples surface as ``process_*``
    gauges on ``/metrics``.  Requests run concurrently, one handler
    thread per connection.  The caller drives ``serve_forever()`` /
    ``shutdown()``; the server is also a context manager (from
    ``socketserver``), closing its socket on exit.
    """
    if isinstance(artifact, LookupEngine):
        engine = artifact
    else:
        engine = LookupEngine(
            artifact,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics,
        )
    return QueryServer(
        (host, port),
        engine,
        tracer=tracer,
        metrics=metrics,
        monitor=monitor,
    )
