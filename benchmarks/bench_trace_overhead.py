"""TRACE — telemetry overhead floors on the reference parallel solve.

The observability contract has a price ceiling, not just a determinism
clause: tracing *disabled* must cost ≤2% of solve wall time, tracing
*enabled* ≤10%.  Two measurements enforce it:

* **Disabled** — the instrumented code path differs from an
  uninstrumented build only by per-layer/per-shard no-op work: NULL
  tracer calls, ``collecting`` gate checks, metrics-registry updates and
  a few ``time.monotonic()`` reads.  No uninstrumented build exists in
  the tree to diff against, so the bench prices that bundle directly
  (micro-timing many iterations) and multiplies by a *generous*
  overcount of how often the solve executes it, derived from the solve's
  own metrics (layers, shard dispatches, store commits).  The resulting
  upper bound is asserted ≤2% of measured solve wall time.
* **Enabled** — paired wall-clock: best-of-``R`` traced solve over
  best-of-``R`` untraced solve on the same instance, same workers,
  worker event flush included.  Asserted ≤10%.

Instance size comes from ``REPRO_BENCH_TRACE_K`` (default 18, the
reference solve; CI's bench-smoke runs a smaller k).  Output: a
``BENCH_JSON`` line, a table, and — from a run at the committed k=18,
two workers only — ``BENCH_TRACE.json``.
"""

import json
import os
import pathlib
import time

import pytest

from benchmarks.conftest import bench_payload, print_table
from repro.core import random_instance
from repro.core.parallel import solve_dp_parallel
from repro.obs import NULL, MetricsRegistry, Tracer

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_REPEATS = int(os.environ.get("REPRO_BENCH_TRACE_REPEATS", "3"))
# The committed (k, workers): only such a run rewrites BENCH_TRACE.json.
FULL_SIZE = (18, 2)


def _disabled_bundle_cost_s(iters: int = 200_000) -> float:
    """Seconds per one disabled-path instrumentation bundle.

    One bundle deliberately over-represents a single instrumentation
    site: a counter inc, a histogram observe, a NULL-tracer complete,
    two ``collecting`` gate reads and two monotonic clock reads.
    """
    reg = MetricsRegistry()
    t0 = time.perf_counter()
    for _ in range(iters):
        if NULL.collecting:
            pass
        reg.inc("layers.computed")
        reg.observe("layer.seconds", 0.001)
        NULL.complete("layer", "layer", 0.0, 1.0, layer=0)
        if NULL.collecting:
            pass
        time.monotonic()
        time.monotonic()
    return (time.perf_counter() - t0) / iters


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_trace_overhead_floors():
    k = int(os.environ.get("REPRO_BENCH_TRACE_K", str(FULL_SIZE[0])))
    workers = int(os.environ.get("REPRO_BENCH_TRACE_WORKERS", str(FULL_SIZE[1])))
    problem = random_instance(k, n_tests=10, n_treatments=6, seed=k)

    # Warm the per-k plan cache and the fork machinery out of the timing.
    result = solve_dp_parallel(problem, workers=workers)

    plain_s = _best_wall(
        lambda: solve_dp_parallel(problem, workers=workers), _REPEATS
    )
    traced_s = _best_wall(
        lambda: solve_dp_parallel(problem, workers=workers, tracer=Tracer()),
        _REPEATS,
    )

    # Disabled floor: generous overcount of bundle executions per solve.
    m = result.metrics
    bundles = (
        int(m["layers.computed"]) * 8
        + int(m["shard.dispatched"]) * 6
        + int(m["store.commits"]) * 6
        + 100
    )
    bundle_s = _disabled_bundle_cost_s()
    disabled_pct = 100.0 * (bundles * bundle_s) / plain_s
    enabled_pct = max(0.0, 100.0 * (traced_s / plain_s - 1.0))

    payload = bench_payload("TRACE", {
        "k": k,
        "workers": workers,
        "repeats": _REPEATS,
        "plain_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "bundle_us": round(bundle_s * 1e6, 4),
        "bundles": bundles,
        "disabled_overhead_pct": round(disabled_pct, 4),
        "enabled_overhead_pct": round(enabled_pct, 3),
        "floor_disabled_pct": 2.0,
        "floor_enabled_pct": 10.0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"telemetry overhead, k={k}, workers={workers} (best of {_REPEATS})",
        ["mode", "wall", "overhead", "floor"],
        [
            ["tracing off", f"{plain_s:.3f} s", f"{disabled_pct:.3f}%", "2%"],
            ["tracing on", f"{traced_s:.3f} s", f"{enabled_pct:.2f}%", "10%"],
        ],
    )
    if (k, workers) == FULL_SIZE:
        (_REPO_ROOT / "BENCH_TRACE.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert disabled_pct <= 2.0, (
        f"disabled-path telemetry bound {disabled_pct:.3f}% exceeds the 2% floor"
    )
    assert enabled_pct <= 10.0, (
        f"enabled tracing overhead {enabled_pct:.2f}% exceeds the 10% floor"
    )
