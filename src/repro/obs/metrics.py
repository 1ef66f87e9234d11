"""Named counters, gauges and histograms for CPM runs *and* live serving.

A :class:`MetricsRegistry` is a flat namespace of instruments:

* :class:`Counter` — monotonically increasing totals (cliques
  enumerated, overlap pair updates, union-find merges, HTTP requests);
* :class:`Gauge` — last-value-wins observations (worker utilisation,
  eligible cliques at the minimum order, process RSS);
* :class:`Histogram` — quantile summaries over repeated observations
  (per-shard wall times, per-endpoint request latencies), keeping the
  exact count/sum/min/max plus *log-bucketed* counts so p50/p90/p99
  are answerable without retaining raw samples — a registry stays
  O(instruments + occupied buckets) regardless of run length.

Thread safety: every instrument guards its mutation with its own tiny
lock, and the registry guards instrument *creation* (plus snapshot /
merge) with one registry lock — fine-grained, so two handler threads
bumping different counters never contend, and two bumping the *same*
counter serialise only for the duration of one integer add.  This is
what lets ``repro query serve`` answer requests concurrently instead
of serialising every request behind a global lock just to keep the
telemetry coherent.

Histograms use logarithmic buckets (growth factor ``2**0.25``, i.e.
~19% wide): an observation ``v > 0`` lands in the bucket whose upper
bound is the smallest power ``growth**i >= v``, so a reported quantile
is off by at most half a bucket (< 10% relative error) while exact
count/sum/min/max are preserved alongside.  Buckets are sparse dicts
and **mergeable**: :meth:`MetricsRegistry.merge` folds bucket counts
across worker processes or handler threads exactly, so a merged p99
is the p99 of the union of observations (to bucket resolution).

Registries are cheap plain-Python objects; worker processes report raw
dicts back to the parent, which folds them in with :meth:`
MetricsRegistry.merge`.  Canonical metric names are documented in
``docs/observability.md``; the resilient runner adds its own
``runner.*`` family (``docs/robustness.md``), and the query server's
``query.request_seconds{endpoint="..."}`` family uses the inline-label
naming convention understood by :mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

__all__ = [
    "AtomicCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BUCKET_GROWTH",
]

#: Growth factor between consecutive histogram bucket bounds.  With
#: ``2**0.25`` four buckets cover one octave, bounding the relative
#: error of a bucketed quantile below ~9.5% (half a bucket width).
BUCKET_GROWTH = 2.0 ** 0.25

#: Precomputed ``log(BUCKET_GROWTH)`` for the bucket-index computation.
_LOG_GROWTH = math.log(BUCKET_GROWTH)


class AtomicCounter:
    """A lock-guarded integer counter with an atomic increment-and-get.

    CPython's GIL does not make ``x += 1`` atomic (it is a read, an
    add and a write that another thread can interleave), so shared
    tallies — the query server's ``max_requests`` drain, request-id
    assignment — go through this instead.  ``next()`` returns the
    *post*-increment value, so exactly one caller observes any given
    total: the thread whose ``next()`` returns ``max_requests`` owns
    the shutdown.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, start: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = start

    def next(self, amount: int = 1) -> int:
        """Atomically add ``amount`` and return the new value."""
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        """The current value (a snapshot; may be stale immediately)."""
        with self._lock:
            return self._value


class Counter:
    """A monotonically increasing integer total (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins observation (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value, replacing the previous one."""
        with self._lock:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


def bucket_index(value: float) -> int:
    """The log-bucket index of a positive observation.

    Bucket ``i`` covers ``(growth**(i-1), growth**i]``; values land in
    the smallest bucket whose upper bound is >= the value, so bucket
    bounds are exact upper bounds (the Prometheus ``le`` convention).
    """
    # round() guards the exact-power case: log(growth**i)/log(growth)
    # can float to i - 1e-16, which ceil would misplace one bucket up.
    raw = math.log(value) / _LOG_GROWTH
    nearest = round(raw)
    if math.isclose(raw, nearest, rel_tol=0.0, abs_tol=1e-9):
        return nearest
    return math.ceil(raw)


def bucket_upper(index: int) -> float:
    """The (exclusive-below, inclusive-above) upper bound of bucket ``index``."""
    return BUCKET_GROWTH ** index


class Histogram:
    """Streaming quantile summary over log-spaced buckets (thread-safe).

    Exact ``count`` / ``sum`` / ``min`` / ``max`` are kept alongside a
    sparse dict of log-bucket counts; quantiles interpolate within the
    resolved bucket (geometric midpoint) and clamp to the observed
    ``[min, max]``, so small-sample quantiles are never outside the
    data.  Non-positive observations (a zero-duration span rounds to
    0.0) count in a dedicated ``zeros`` bin at value 0.0.

    Two histograms merge losslessly at bucket resolution: counts,
    sums and bucket tallies add; min/max extremise — the algebra
    ``tests/test_exposition.py`` pins down.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "zeros", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: Sparse log-bucket counts: bucket index -> observations.
        self.buckets: dict[int, int] = {}
        #: Observations <= 0 (counted at value 0.0).
        self.zeros = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if value > 0.0:
                index = bucket_index(value)
                self.buckets[index] = self.buckets.get(index, 0) + 1
            else:
                self.zeros += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """The q-quantile (0 < q <= 1) to bucket resolution; None when empty.

        Resolution: the observation of rank ``ceil(q * count)`` is
        located in the ordered bucket sequence; the reported value is
        that bucket's geometric midpoint, clamped to the exact
        ``[min, max]`` — so p100 is exactly ``max``, and a one-sample
        histogram reports that sample for every quantile.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float | None:
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank >= self.count:
            # The rank lands on the largest observation, which is
            # tracked exactly: p100 is always the true max, and high
            # quantiles of small histograms are exact too.
            return self.max
        if rank <= self.zeros:
            return max(0.0, self.min if self.min is not None else 0.0)
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                midpoint = BUCKET_GROWTH ** (index - 0.5)
                low = self.min if self.min is not None else midpoint
                high = self.max if self.max is not None else midpoint
                return min(max(midpoint, low), high)
        # Rank beyond the recorded buckets (possible only on summaries
        # merged from a pre-bucket payload): fall back to the maximum.
        return self.max

    def summary(self) -> dict:
        """The summary as a plain dict (exact scalars + quantiles + buckets).

        The ``buckets`` keys are strings (the dict crosses JSON
        boundaries in worker envelopes and manifests); ``p50`` /
        ``p90`` / ``p99`` ride along precomputed so manifest readers
        need no bucket arithmetic.
        """
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count if self.count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
                "zeros": self.zeros,
                "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
            }

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's :meth:`summary` dict into this one.

        Exact under bucket algebra: counts/sums/bucket tallies add,
        min/max extremise.  Payloads from the pre-bucket summary shape
        (no ``buckets`` key) still merge their exact scalars.
        """
        with self._lock:
            self.count += summary.get("count", 0)
            self.total += summary.get("sum", 0.0)
            self.zeros += summary.get("zeros", 0)
            for bound, pick in (("min", min), ("max", max)):
                incoming = summary.get(bound)
                if incoming is not None:
                    current = getattr(self, bound)
                    setattr(self, bound, incoming if current is None else pick(current, incoming))
            for key, n in (summary.get("buckets") or {}).items():
                index = int(key)
                self.buckets[index] = self.buckets.get(index, 0) + n

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.6g})"


class MetricsRegistry:
    """Get-or-create namespace of counters, gauges and histograms.

    Safe for concurrent writers: instrument creation is guarded by the
    registry lock (double-checked, so the hot path is one dict read)
    and every instrument locks its own mutation — see the module
    docstring for why this replaced the query server's global request
    lock.

    >>> metrics = MetricsRegistry()
    >>> metrics.inc("cliques.enumerated", 3)
    >>> metrics.observe("shard.enumerate_seconds", 0.5)
    >>> metrics.counter("cliques.enumerated").value
    3
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created at 0 on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created at 0.0 on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created empty on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(name)
        return instrument

    # ------------------------------------------------------------------
    # Convenience forms
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Export / merge
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All instruments as one JSON-serialisable dict."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {name: c.value for name, c in sorted(counters)},
            "gauges": {name: g.value for name, g in sorted(gauges)},
            "histograms": {name: h.summary() for name, h in sorted(histograms)},
        }

    def merge(self, payload: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its ``to_dict`` form) into this one.

        Counters add, gauges take the incoming value, histogram
        summaries combine exactly (count/sum/buckets add, min/max
        extremise) — the operation used to aggregate worker-process
        reports and per-request handler captures.
        """
        data = payload.to_dict() if isinstance(payload, MetricsRegistry) else payload
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in data.get("histograms", {}).items():
            self.histogram(name).merge_summary(summary)

    def write_json(self, path) -> Path:
        """Write :meth:`to_dict` as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return target

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
