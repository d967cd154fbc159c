"""Metrics registry: counters, gauges, and histograms for solve runs.

One :class:`MetricsRegistry` per solve.  The registry is flat-keyed
(``"store.commit_s"``, ``"shard.retries"``) and serializes with
:meth:`MetricsRegistry.as_dict` into the ``DPResult.metrics`` block the
CLI exposes under ``--json``.  :func:`zeroed_metrics` defines the
*standard key set*: every backend — including the single-process numpy
and reference paths — returns a metrics dict with at least these keys,
zero-valued when the backend cannot measure them, so downstream
consumers never branch on key presence.

Instruments are deliberately minimal: the solve loop is single-threaded
on the parent side, so counter increments are plain ``+=`` (GIL-atomic)
and only registry-level get-or-create takes a lock.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "zeroed_metrics",
    "zeroed_recovery",
    "METRIC_COUNTERS",
    "METRIC_GAUGES",
    "METRIC_HISTOGRAMS",
]


class Counter:
    """Monotonically increasing count (or accumulated seconds/bytes)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, v):
        self.value = v

    def snapshot(self):
        return self.value


class Histogram:
    """Streaming summary: count / total / min / max / mean.

    Full quantile sketches are overkill for per-layer latencies (tens of
    observations per solve); the five-number summary round-trips through
    JSON and is enough for the trace-report tables.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, v):
        v = float(v)
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def snapshot(self):
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min, 6) if self.min is not None else 0.0,
            "max": round(self.max, 6) if self.max is not None else 0.0,
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
        }


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name, cls):
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.setdefault(name, cls())
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name) -> Histogram:
        return self._get(name, Histogram)

    # Conveniences used at instrumentation sites.
    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def set_gauge(self, name, v):
        self.gauge(name).set(v)

    def observe(self, name, v):
        self.histogram(name).observe(v)

    def as_dict(self) -> dict:
        """Flat JSON-safe snapshot over the standard (zeroed) key set."""
        out = zeroed_metrics()
        for name, inst in sorted(self._instruments.items()):
            out[name] = inst.snapshot()
        return out


class NullMetrics:
    """Disabled registry: accepts every call, records nothing."""

    def counter(self, name):
        return _NULL_COUNTER

    def gauge(self, name):
        return _NULL_GAUGE

    def histogram(self, name):
        return _NULL_HISTOGRAM

    def inc(self, name, n=1):
        return None

    def set_gauge(self, name, v):
        return None

    def observe(self, name, v):
        return None

    def as_dict(self):
        return zeroed_metrics()


class _NullInstrument:
    __slots__ = ()

    def inc(self, n=1):
        return None

    def set(self, v):
        return None

    def observe(self, v):
        return None

    def snapshot(self):
        return 0


_NULL_COUNTER = _NullInstrument()
_NULL_GAUGE = _NullInstrument()
_NULL_HISTOGRAM = _NullInstrument()

NULL_METRICS = NullMetrics()


# The standard key set.  Every DPResult.metrics dict contains at least
# these keys; backends that cannot measure one leave it zeroed.
METRIC_COUNTERS = (
    "layers.total",
    "layers.computed",
    "layers.skipped",
    "shard.dispatched",
    "shard.retries",
    "shard.timeouts",
    "shard.crashes",
    "shard.fallbacks",
    "pool.respawns",
    "time.kernel_s",
    "time.barrier_s",
    "store.commits",
    "store.bytes_written",
    "store.rederived",
    "commit.async",
    "cache.weights_hits",
    "cache.weights_misses",
    "cache.plan_hits",
    "cache.plan_misses",
    "arena.grows",
    "engine.pool_reuses",
    "engine.table_rebuilds",
)

METRIC_GAUGES = ("time.solve_s", "commit.overlap_s", "commit.blocked_s")

METRIC_HISTOGRAMS = (
    "layer.seconds",
    "shard.seconds",
    "store.commit_s",
    "commit.async_s",
    "store.fsync_s",
    "store.rehash_s",
)


def zeroed_metrics() -> dict:
    """A fresh metrics dict with every standard key zero-valued."""
    out: dict = {name: 0 for name in METRIC_COUNTERS}
    for name in METRIC_GAUGES:
        out[name] = 0
    for name in METRIC_HISTOGRAMS:
        out[name] = {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
    return out


def zeroed_recovery() -> dict:
    """Zeroed recovery counters shaped like ``RecoveryLog.as_dict()``.

    Single-process backends attach this stub so ``DPResult.recovery``
    has uniform keys across backends (the shape is pinned against the
    real :class:`~repro.core.supervisor.RecoveryLog` by a test; it lives
    here because :mod:`repro.obs` must not import :mod:`repro.core`).
    """
    return {
        "retries": 0,
        "timeouts": 0,
        "crashes": 0,
        "respawns": 0,
        "fallback_shards": 0,
        "rederived": 0,
        "degraded": False,
        "resumed_from_layer": None,
        "checkpoint": None,
        "store": None,
        "layers": [],
        "events": [],
    }
