"""LADDER — where the parallel path starts to beat single-process numpy.

``backend="auto"`` (:mod:`repro.core.dispatch`) chooses between the
single-process numpy solver and the parallel path by ``k`` alone.  This
bench measures that choice on the host it runs on: for every
``k = 14 … 22`` it solves the same instances three ways —

* ``numpy``: ``solve(problem, backend="numpy")``;
* ``warm``: a :class:`~repro.core.engine.SolverEngine` with
  ``backend="parallel"`` whose workers and tables already exist (one
  untimed solve of the same ``k`` starts them);
* ``cold``: ``solve(problem, backend="parallel")``, which starts its
  workers and tables on every call —

at ``workers = 1`` and at ``workers = nproc``, and records absolute
seconds per solve: the median over the instances.  Each instance runs
every path back to back, in an order that reverses from one instance to
the next, so a phase of the host's clock lands on all paths alike.
Every table is checked against the numpy one.  Subset weights are
computed before timing, so all three paths read them from the same
cache.

From the ``nproc`` rows it derives the two crossovers ``auto`` uses
(``PARALLEL_MIN_K_COLD`` / ``PARALLEL_MIN_K_WARM`` in
:mod:`repro.core.parallel`): the smallest ``k`` from which the cold (or
warm) path beat numpy at every larger ``k`` of the ladder.
``tests/core/test_dispatch.py`` holds the committed constants to the
committed ``BENCH_LADDER.json``.

Knobs: ``REPRO_BENCH_LADDER_KMAX`` (default 22) and
``REPRO_BENCH_LADDER_REPS`` (instances per ``k``, default 15).  Only the
full ladder writes ``BENCH_LADDER.json``; a shorter one (CI runs
``KMAX=16``) checks the tables and prints its rows.

Output: a ``BENCH_JSON`` line, a table, and ``BENCH_LADDER.json`` at the
repo root::

    BENCH_JSON {"bench": "LADDER", "host": {...}, "rows": [{"k": ...,
                "workers": ..., "numpy_s": ..., "warm_s": ...,
                "cold_s": ...}, ...], "crossover": {"cold": ..., "warm": ...}}
"""

import json
import os
import pathlib
import platform
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_payload, print_table
from repro.core import SolverEngine, solve
from repro.core.dispatch import cached_subset_weights
from repro.core.generators import random_instance

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
K_MIN, K_MAX = 14, 22
PATHS = ("numpy", "warm", "cold")


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


def _host_shape() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": _nproc(),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _instance(k: int, i: int):
    return random_instance(k, n_tests=k, n_treatments=k // 2, seed=1000 * k + i)


def crossover(rows: list, path: str, workers: int, k_max: int) -> int:
    """Smallest ``k`` from which ``path`` beat numpy at every larger ``k``.

    ``k_max + 1`` when the path did not win at the top of the ladder.
    """
    wins = {r["k"]: r[f"{path}_s"] < r["numpy_s"] for r in rows if r["workers"] == workers}
    k = k_max + 1
    while k - 1 in wins and wins[k - 1]:
        k -= 1
    return k


def _ladder_rows(k: int, workers: tuple, reps: int) -> list:
    """One row per worker count: median seconds per solve of each path.

    Every instance runs numpy once and the warm and cold paths at each
    worker count, back to back, in an order that reverses from one
    instance to the next; the numpy samples are shared by the rows.
    """
    engines = {w: SolverEngine(workers=w, backend="parallel") for w in workers}
    try:
        for engine in engines.values():
            engine.solve(_instance(k, reps))  # starts the warm workers and tables
        runs = {("numpy", 1): lambda p: solve(p, backend="numpy")}
        for w, engine in engines.items():
            runs["warm", w] = engine.solve
            runs["cold", w] = lambda p, w=w: solve(p, backend="parallel", workers=w)
        times = {key: [] for key in runs}
        for i in range(reps):
            problem = _instance(k, i)
            cached_subset_weights(problem)
            results = {}
            for key in list(runs) if i % 2 == 0 else list(runs)[::-1]:
                t0 = time.perf_counter()
                results[key] = runs[key](problem)
                times[key].append(time.perf_counter() - t0)
            want = results["numpy", 1]
            for key, got in results.items():
                assert np.array_equal(got.cost, want.cost), (k, key)
                assert np.array_equal(got.best_action, want.best_action), (k, key)
    finally:
        for engine in engines.values():
            engine.close()
    rows = []
    for w in workers:
        samples = {path: times[path, 1 if path == "numpy" else w] for path in PATHS}
        row = {"k": k, "workers": w}
        row.update({f"{path}_s": round(statistics.median(samples[path]), 5) for path in PATHS})
        row.update({
            f"{path}_samples_s": [round(t, 5) for t in samples[path]] for path in PATHS
        })
        rows.append(row)
    return rows


def test_ladder():
    k_max = _env_int("REPRO_BENCH_LADDER_KMAX", K_MAX)
    reps = _env_int("REPRO_BENCH_LADDER_REPS", 15)
    workers = tuple(sorted({1, _nproc()}))

    rows = [row for k in range(K_MIN, k_max + 1) for row in _ladder_rows(k, workers, reps)]
    top = max(workers)
    payload = bench_payload("LADDER", {
        "host": _host_shape(),
        "reps": reps,
        "instances": "random_instance(k, n_tests=k, n_treatments=k // 2)",
        "statistic": "median seconds per solve; path order alternates per instance",
        "workers": list(workers),
        "rows": rows,
        "crossover": {
            "workers": top,
            "cold": crossover(rows, "cold", top, k_max),
            "warm": crossover(rows, "warm", top, k_max),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"k-ladder, median of {reps} instances per k (seconds per solve)",
        ["k", "workers", "numpy", "warm", "cold"],
        [
            [r["k"], r["workers"], f"{r['numpy_s']:.4f}", f"{r['warm_s']:.4f}",
             f"{r['cold_s']:.4f}"]
            for r in rows
        ],
    )
    print(f"crossover at {top} workers: {payload['crossover']}")
    if k_max == K_MAX:
        (_REPO_ROOT / "BENCH_LADDER.json").write_text(json.dumps(payload, indent=2) + "\n")
