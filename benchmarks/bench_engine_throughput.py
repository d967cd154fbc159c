"""ENGINE-THROUGHPUT — warm ``SolverEngine.solve_many`` vs cold per-call solves.

The ROADMAP's serving regime is a *stream* of instances, where the
one-shot ``solve(backend="parallel")`` path pays pool fork + shared-
segment setup + teardown on every call.  The warm engine creates that
state once per ``k`` and amortizes it across the stream, pipelining each
next instance's ``subset_weights`` against the in-flight solve.  This
bench solves the same stream both ways, proves every result bit-for-bit
identical, and reports the throughput ratio.

Knobs: ``REPRO_BENCH_ENGINE_K`` (default 16), ``REPRO_BENCH_ENGINE_COUNT``
(default 8), ``REPRO_BENCH_ENGINE_WORKERS`` (default 2 — both paths use
the same worker count, so only the *lifetime* of the pool differs),
``REPRO_BENCH_ENGINE_MIN`` (minimum acceptable warm/cold ratio, default
1.0 — CI's regression floor; the committed ``BENCH_THROUGHPUT.json``
from the full run shows the >= 1.5x result).

Output: a ``BENCH_JSON`` line, a table, and — from a run at the
committed size (the defaults) only — ``BENCH_THROUGHPUT.json`` written
next to the repo root:

    BENCH_JSON {"bench": "ENGINE-THROUGHPUT", "k": ..., "count": ...,
                "cold_s": ..., "warm_s": ..., "speedup": ...}
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from benchmarks._kernel_timer import summarize_pairs, timed
from benchmarks.conftest import bench_payload, print_table
from repro.core import SolverEngine, solve
from repro.core.dispatch import _clear_weights_cache
from repro.core.generators import random_instance

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# The committed (k, count, workers): only such a run rewrites the file.
FULL_SIZE = (16, 8, 2)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def test_engine_throughput():
    k = _env_int("REPRO_BENCH_ENGINE_K", FULL_SIZE[0])
    count = _env_int("REPRO_BENCH_ENGINE_COUNT", FULL_SIZE[1])
    workers = _env_int("REPRO_BENCH_ENGINE_WORKERS", FULL_SIZE[2])
    min_speedup = float(os.environ.get("REPRO_BENCH_ENGINE_MIN", "1.0"))

    stream = [
        random_instance(k, n_tests=10, n_treatments=6, seed=seed)
        for seed in range(count)
    ]

    # Cold: the pre-engine serving story — every call forks a pool,
    # allocates shared segments, tears both down.  The weights cache is
    # cleared so neither path inherits the other's precompute.
    cold_results = []

    def _cold_stream():
        for problem in stream:
            cold_results.append(
                solve(problem, backend="parallel", workers=workers)
            )

    warm_results = []

    def _warm_stream():
        with SolverEngine(workers=workers, backend="parallel") as engine:
            warm_results.extend(engine.solve_many(stream))

    _clear_weights_cache()
    cold_s = timed(_cold_stream)
    _clear_weights_cache()
    warm_s = timed(_warm_stream)

    # Amortization must never cost correctness.
    for cold, warm in zip(cold_results, warm_results):
        assert np.array_equal(cold.cost, warm.cost)
        assert np.array_equal(cold.best_action, warm.best_action)
        assert cold.op_count == warm.op_count

    # One adjacent (cold, warm) pair: the two sides each stream all
    # `count` instances back to back, so summarize_pairs degenerates to
    # the single ratio — but the summary path is the shared one.
    stats = summarize_pairs([(cold_s, warm_s)])
    speedup = stats["speedup"]
    payload = bench_payload("ENGINE-THROUGHPUT", {
        "k": k,
        "count": count,
        "workers": workers,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 3),
        "cold_per_solve_s": round(cold_s / count, 4),
        "warm_per_solve_s": round(warm_s / count, 4),
        "bit_identical": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"engine throughput, k={k}, {count} instances, {workers} workers",
        ["path", "total", "per solve", "speedup"],
        [
            ["cold solve()", f"{cold_s:.2f} s", f"{cold_s / count:.3f} s", "1.00x"],
            [
                "warm solve_many()",
                f"{warm_s:.2f} s",
                f"{warm_s / count:.3f} s",
                f"{speedup:.2f}x",
            ],
        ],
    )
    if (k, count, workers) == FULL_SIZE:
        (_REPO_ROOT / "BENCH_THROUGHPUT.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    assert speedup >= min_speedup, (
        f"warm engine speedup {speedup:.2f}x below the {min_speedup:.2f}x floor"
    )
