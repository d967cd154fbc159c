"""PIPELINE — how much commit time the async committer hides.

Every persisted layer commits on the async committer: layer ``j``'s slab
write + sha256 + fsync + rename + manifest run on a background thread
while the solve computes layer ``j + 1``.  This bench runs a
``workers=1`` mmap solve ``REPS`` times and reports the share of commit
seconds that overlapped compute, ``commit.overlap_s / commit.async_s``.
Floor: **>= 50%** in every rep, enforced outside quick mode.  Each
rep's tables must be bit-identical to a numpy solve of the instance.

Knobs: ``REPRO_BENCH_PIPELINE_K_MMAP`` (default 22),
``REPRO_BENCH_PIPELINE_REPS`` (default 3), and
``REPRO_BENCH_PIPELINE_QUICK=1`` for a CI-sized smoke run (k=14, floor
recorded but not enforced — the overheads being amortized are
table-sized, so tiny tables cannot show them).  Output: a ``BENCH_JSON``
line, a table, and — from a full (not quick) k=22 run only —
``BENCH_PIPELINE.json`` at the repo root, with the host shape the
numbers come from.
"""

import json
import os
import pathlib
import shutil
import statistics
import tempfile
import time

import pytest

from benchmarks.bench_ladder import _host_shape
from benchmarks.conftest import bench_payload, merge_bench_json, print_table
from repro.core import random_instance, solve
from repro.core.parallel import solve_dp_parallel
from repro.store import StoreSpec

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_OUT = _REPO_ROOT / "BENCH_PIPELINE.json"

QUICK = os.environ.get("REPRO_BENCH_PIPELINE_QUICK", "").strip() == "1"
REPS = int(os.environ.get("REPRO_BENCH_PIPELINE_REPS", "2" if QUICK else "3"))

OVERLAP_FLOOR = 0.5
# The committed size: only a full run at K_FULL rewrites the file.
K_FULL = 22


def test_commit_overlap_mmap():
    k = int(
        os.environ.get("REPRO_BENCH_PIPELINE_K_MMAP", "14" if QUICK else str(K_FULL))
    )
    # Few actions: the commit bytes are fixed by k while the kernel work
    # scales with the action count, so a small action set gives the
    # commit a large share of the solve — the hardest case to hide.
    problem = random_instance(k, n_tests=3, n_treatments=2, seed=k)
    want = solve(problem, backend="numpy")
    tmp = tempfile.mkdtemp(prefix="repro-bench-pipeline-")
    walls, commits, fracs = [], [], []
    try:
        for rep in range(REPS):
            spill = os.path.join(tmp, f"spill-{rep}")
            # Quiesce writeback from the previous rep's slab traffic so
            # no rep inherits its predecessor's deferred IO.
            os.sync()
            time.sleep(0.2)
            t0 = time.perf_counter()
            result = solve_dp_parallel(
                problem, workers=1, store=StoreSpec(kind="mmap", spill_dir=spill)
            )
            walls.append(time.perf_counter() - t0)
            assert result.cost.tobytes() == want.cost.tobytes()
            assert result.best_action.tobytes() == want.best_action.tobytes()
            commit_s = result.metrics["commit.async_s"]["total"]
            commits.append(commit_s)
            overlap_s = result.metrics["commit.overlap_s"]
            fracs.append(overlap_s / commit_s if commit_s else 0.0)
            del result
            shutil.rmtree(spill, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    payload = bench_payload(
        "PIPELINE-ASYNC",
        {
            "k": k,
            "host": _host_shape(),
            "reps": REPS,
            "wall_s": round(statistics.median(walls), 4),
            "walls_s": [round(w, 4) for w in walls],
            "commit_s": round(statistics.median(commits), 4),
            "overlap_frac": round(statistics.median(fracs), 3),
            "overlap_fracs": [round(f, 3) for f in fracs],
            "overlap_floor": OVERLAP_FLOOR,
            "enforced": not QUICK,
            "bit_identical": True,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    )
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"commit pipeline, k={k}, mmap store, workers=1, {REPS} reps (medians)",
        ["wall", "commit", "overlapped", "lowest rep"],
        [[
            f"{payload['wall_s']:.3f} s",
            f"{payload['commit_s']:.3f} s",
            f"{payload['overlap_frac']:.0%}",
            f"{min(fracs):.0%}",
        ]],
    )
    if QUICK:
        return
    if k == K_FULL:
        merge_bench_json(_OUT, "async", payload)
    # The committer exists to move commit seconds off the layer barrier:
    # in every rep, most of them must have run alongside compute.
    assert min(fracs) >= OVERLAP_FLOOR, (
        f"only {min(fracs):.0%} of commit time overlapped compute in one "
        f"rep (floor {OVERLAP_FLOOR:.0%})"
    )
