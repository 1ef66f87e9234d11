"""The query server in its own process, and a closed-loop HTTP client.

The server is ``python -m repro query serve`` on a saved artifact, bound
to a free port; the client keeps ``connections`` keep-alive connections
from this process, each sending its next request only after the
previous reply arrived (a closed loop).  Every reply body is compared
with the in-process :class:`~repro.query.engine.LookupEngine` answer.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

_START_TIMEOUT = 60.0


class ServeError(RuntimeError):
    """The server did not start, or a request failed."""


def _request(path: str) -> tuple[str, dict]:
    route, _, query = path.partition("?")
    return route.strip("/"), dict(part.split("=", 1) for part in query.split("&"))


def lookup_calls(engine, paths: list[str]) -> dict[str, list]:
    """Per endpoint, a zero-argument :class:`LookupEngine` call per request."""
    from repro.query.server import parse_as

    calls: dict[str, list] = {"membership": [], "band": [], "lca": [], "top": []}
    for path in paths:
        route, q = _request(path)
        if route == "membership":
            call = partial(engine.memberships, parse_as(q["as"]))
        elif route == "band":
            call = partial(engine.band, parse_as(q["as"]))
        elif route == "lca":
            call = partial(engine.lowest_common, parse_as(q["a"]), parse_as(q["b"]))
        else:
            call = partial(engine.top, q["metric"], int(q["n"]), None)
        calls[route].append(call)
    return calls


def expected_replies(engine, paths: list[str]) -> dict[str, object]:
    """The JSON each request path must return, computed in-process.

    Mirrors the server's route wrappers around the engine calls; the
    round trip through ``json`` makes keys and tuples compare the way
    a parsed reply does.
    """
    from repro.query.server import parse_as

    out = {}
    for path in paths:
        route, q = _request(path)
        if route == "membership":
            node = parse_as(q["as"])
            memberships = engine.memberships(node)
            payload = {"as": node, "memberships": {str(k): v for k, v in memberships.items()}}
        elif route == "band":
            payload = engine.band(parse_as(q["as"]))
        elif route == "lca":
            a, b = parse_as(q["a"]), parse_as(q["b"])
            payload = {"a": a, "b": b, "lca": engine.lowest_common(a, b)}
        else:
            payload = {"metric": q["metric"], "k": None,
                       "communities": engine.top(q["metric"], int(q["n"]), None)}
        out[path] = json.loads(json.dumps(payload))
    return out


class ServerProcess:
    """``repro query serve`` on ``artifact``; stop it with :meth:`stop`."""

    def __init__(self, root: Path, artifact: Path, *, log: Path, trace: Path | None = None):
        cmd = [sys.executable, "-m", "repro", "query", "serve", str(artifact),
               "--port", "0", "--resource-interval", "0.05"]
        if trace is not None:
            cmd += ["--trace", str(trace), "--metrics", str(trace.with_suffix(".manifest.json"))]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(log, "ab")
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
            )
        except OSError:
            self._log.close()
            raise
        try:
            line = self._first_line()
            if " at http://" not in line:
                raise ServeError(f"query server did not start (said {line!r}); see {log}")
            self.host, port = line.strip().rsplit("http://", 1)[1].rsplit(":", 1)
            self.port = int(port)
            status, _ = self.get("/health")
            if status != 200:
                raise ServeError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise

    def _first_line(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(_START_TIMEOUT):
                raise ServeError(f"query server printed nothing in {_START_TIMEOUT:.0f} s")
        return self.proc.stdout.readline()

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def scrape(self) -> dict:
        """``/metrics`` as ``{name: value}`` (label sets kept inline)."""
        from repro.obs.exposition import parse_exposition

        status, body = self.get("/metrics")
        if status != 200:
            raise ServeError(f"/metrics answered {status}")
        samples = parse_exposition(body.decode("utf-8"))
        return {
            name + ("{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}" if labels else ""): value
            for (name, labels), value in samples.items()
        }

    def stop(self) -> None:
        """Interrupt the server (it flushes any trace), then reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._log.close()


@dataclass
class LoadResult:
    requests: int
    seconds: float
    latencies: list[float]

    @property
    def rps(self) -> float:
        return self.requests / self.seconds

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3

    @property
    def p99_ms(self) -> float:
        """The 99th percentile (meaningful from 1000 samples: ten beyond it)."""
        return statistics.quantiles(self.latencies, n=100)[98] * 1e3


def closed_loop(
    server: ServerProcess,
    paths: list[str],
    expected: dict[str, object],
    *,
    connections: int,
    min_requests: int,
    min_seconds: float,
) -> LoadResult:
    """Drive ``server`` until both minimums are met; check every reply."""
    stop = threading.Event()
    lock = threading.Lock()
    done = [0]
    latencies: list[list[float]] = [[] for _ in range(connections)]
    errors: list[str] = []
    started = time.perf_counter()

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        mine = latencies[slot]
        i = slot
        try:
            while not stop.is_set():
                path = paths[i % len(paths)]
                i += connections
                t0 = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                mine.append(time.perf_counter() - t0)
                if response.status != 200:
                    raise ServeError(f"{path} answered {response.status}")
                if json.loads(body) != expected[path]:
                    raise ServeError(f"{path} answered differently from LookupEngine")
                with lock:
                    done[0] += 1
                    if (done[0] >= min_requests
                            and time.perf_counter() - started >= min_seconds):
                        stop.set()
        except Exception as exc:  # reported by the caller after join
            errors.append(f"{type(exc).__name__}: {exc}")
            stop.set()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(s,)) for s in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    elapsed = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise ServeError("client threads did not finish")
    if errors:
        raise ServeError(errors[0])
    merged = [x for per in latencies for x in per]
    return LoadResult(requests=len(merged), seconds=elapsed, latencies=merged)
