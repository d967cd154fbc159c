"""FAULT-RECOVER — overhead and recovery cost of the supervised engine.

The supervisor turns a bare per-layer barrier into monitored dispatch
to owned workers (per-shard deadlines, process sentinels, retry
bookkeeping).  That vigilance must be close to free on the happy path,
and a recovery drill — a worker killed mid-layer — must cost roughly one
re-executed shard, not a restarted solve.  This bench measures both and
emits one machine-readable `BENCH_JSON` line:

    BENCH_JSON {"bench": "FAULT-RECOVER", "k": ...,
                "clean_s": ..., "baseline_s": ..., "overhead": ...,
                "drills": [{"fault": "kill:...", "seconds": ...,
                            "ratio": ...}, ...]}

Instance size comes from `REPRO_BENCH_K` (default 10 — big enough that a
layer re-execution is visible, small enough to stay in the seconds
range).  Every drill result is checked bit-for-bit against the clean
solve: recovery must never cost correctness.
"""

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import random_instance
from repro.core.parallel import solve_dp_parallel
from repro.core.supervisor import ResiliencePolicy

pytestmark = pytest.mark.slow


def _bench_k() -> int:
    return int(os.environ.get("REPRO_BENCH_K", "10"))


def _timed_solve(problem, policy, fault=None):
    if fault is not None:
        os.environ["REPRO_FAULT_SPEC"] = fault
    try:
        t0 = time.perf_counter()
        # min_shard=1 keeps every layer on the pool so drills always land.
        result = solve_dp_parallel(problem, workers=2, min_shard=1, policy=policy)
        return result, time.perf_counter() - t0
    finally:
        os.environ.pop("REPRO_FAULT_SPEC", None)


def test_supervised_overhead_and_recovery_drills():
    k = _bench_k()
    mid = k // 2
    problem = random_instance(k, n_tests=10, n_treatments=6, seed=k)
    policy = ResiliencePolicy(timeout=60.0, max_retries=2, backoff=0.01)

    # Happy path: supervised dispatch vs the same engine, no supervision
    # events possible (the dispatch machinery itself is the only delta).
    clean, clean_s = _timed_solve(problem, policy)
    base, baseline_s = _timed_solve(problem, None)
    assert np.array_equal(clean.cost, base.cost)
    overhead = clean_s / baseline_s if baseline_s > 0 else float("inf")

    drills = []
    rows = [["(clean)", f"{clean_s * 1e3:.0f}", "1.00x", "-"]]
    for fault, must_fire in (
        (f"kill:layer={mid}:shard=0", True),
        (f"exc:layer={mid}:shard=0", True),
        (f"slow:ms=50:layer={mid}", False),  # slow shards finish, no retry
    ):
        recovered, dt = _timed_solve(problem, policy, fault=fault)
        # Recovery must reproduce the clean tables exactly.
        assert np.array_equal(recovered.cost, clean.cost), fault
        assert np.array_equal(recovered.best_action, clean.best_action), fault
        ratio = dt / clean_s if clean_s > 0 else float("inf")
        events = sum(
            recovered.recovery[key]
            for key in ("retries", "crashes", "timeouts", "fallback_shards")
        )
        # The drill is only a drill if the fault actually fired.
        if must_fire:
            assert events > 0, f"fault {fault!r} never reached a worker"
        drills.append(
            {"fault": fault, "seconds": round(dt, 4), "ratio": round(ratio, 3)}
        )
        rows.append([fault, f"{dt * 1e3:.0f}", f"{ratio:.2f}x", events])

    print_table(
        f"FAULT-RECOVER (k={k}, workers=2)",
        ["fault", "ms", "vs clean", "events"],
        rows,
    )
    print(
        "BENCH_JSON "
        + json.dumps(
            {
                "bench": "FAULT-RECOVER",
                "k": k,
                "clean_s": round(clean_s, 4),
                "baseline_s": round(baseline_s, 4),
                "overhead": round(overhead, 3),
                "drills": drills,
            }
        )
    )

    # Loose shape assertions: drills recover, they do not restart from
    # scratch — a full re-solve would show up as ratio >> layer share.
    for drill in drills:
        assert drill["ratio"] < 25.0, drill
