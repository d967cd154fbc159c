"""Metrics registry: counters, gauges, and histograms for solve runs.

One :class:`MetricsRegistry` per solve.  The registry is flat-keyed
(``"store.commit_s"``, ``"shard.retries"``) and serializes with
:meth:`MetricsRegistry.as_dict` into the ``DPResult.metrics`` block the
CLI exposes under ``--json``.  :func:`zeroed_metrics` defines the
*standard key set*: every backend returns a metrics dict with at least
these keys, zero-valued when the backend cannot measure them (the
reference oracle measures none), so downstream consumers never branch
on key presence.

The registry is three plain dicts, one per kind, so each recording call
is one dict update on the solve's hot path.
"""

from __future__ import annotations

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "zeroed_metrics",
    "zeroed_recovery",
    "METRIC_COUNTERS",
    "METRIC_GAUGES",
    "METRIC_HISTOGRAMS",
]


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use.

    A name keeps the kind of its first use; using it as another kind
    raises ``TypeError``.  Histograms are streaming five-number summaries
    (count / total / min / max / mean): per-layer latencies are tens of
    observations per solve, and the summary round-trips through JSON.

    No lock: the async layer committer records only ``commit.async``,
    ``commit.async_s``, ``store.commits``, ``store.bytes_written``,
    ``store.commit_s`` and ``store.fsync_s``, and no other thread writes
    those names, so each name has one writer and every dict update is
    atomic under the GIL.
    """

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}  # name -> [count, total, min, max]

    def _claim(self, name, table: dict) -> None:
        """A name's first use in ``table``: refuse it if another kind holds it."""
        for kind, other in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other is not table and name in other:
                raise TypeError(f"metric {name!r} already registered as a {kind}")

    def inc(self, name, n=1):
        try:
            self._counters[name] += n
        except KeyError:
            self._claim(name, self._counters)
            self._counters[name] = n

    def set_gauge(self, name, v):
        if name not in self._gauges:
            self._claim(name, self._gauges)
        self._gauges[name] = v

    def observe(self, name, v):
        v = float(v)
        try:
            h = self._histograms[name]
        except KeyError:
            self._claim(name, self._histograms)
            # A total starts at +0.0, so a first -0.0 sums to +0.0.
            self._histograms[name] = [1, 0.0 + v, v, v]
            return
        h[0] += 1
        h[1] += v
        if v < h[2]:
            h[2] = v
        if v > h[3]:
            h[3] = v

    def as_dict(self) -> dict:
        """Flat JSON-safe snapshot over the standard (zeroed) key set."""
        recorded = {**self._counters, **self._gauges}
        for name, (count, total, lo, hi) in self._histograms.items():
            recorded[name] = {
                "count": count,
                "total": round(total, 6),
                "min": round(lo, 6),
                "max": round(hi, 6),
                "mean": round(total / count, 6),
            }
        out = zeroed_metrics()
        for name in sorted(recorded):
            out[name] = recorded[name]
        return out


class NullMetrics:
    """Disabled registry: accepts every call, records nothing."""

    def inc(self, name, n=1):
        return None

    def set_gauge(self, name, v):
        return None

    def observe(self, name, v):
        return None

    def as_dict(self):
        return zeroed_metrics()


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

    The reference oracle attaches this stub so ``DPResult.recovery``
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
