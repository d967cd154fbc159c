"""KERNEL-FUSION — fused zero-allocation layer kernel vs the legacy kernel.

The inner loop of every host backend evaluates one popcount layer per
action scan; the legacy ``solve_layer_kernel`` materializes ~8 full-layer
temporaries per action while ``solve_layer_kernel_fused`` runs entirely
in a preallocated :class:`~repro.core.kernels.LayerArena` (see the
memory-traffic model in DESIGN.md).  This bench measures both on the
*middle layers* of a ``k = 18, N = 32`` reference instance — the layers
that dominate a real solve — and proves the outputs bit-for-bit
identical first.

Methodology: each rep is **one fresh subprocess** that times both
variants *adjacently per layer*, single-shot, alternating which
variant goes first between reps; the reported speedup is the **median
of the per-rep ratios** over ``REPRO_BENCH_KERNEL_REPS`` (default 5)
reps.  Fresh processes keep the comparison honest (in-process repeat
timing would understate the legacy kernel's dominant cost — glibc
adapts its mmap threshold to the allocation churn — and single-shot
is the production profile: one kernel call per layer per solve);
per-layer adjacency means a host-wide slow burst lands on both sides
of a ratio instead of one; and the alternating order cancels the
residual warm-cache advantage of going second.

Knobs: ``REPRO_BENCH_KERNEL_K`` (default 18; CI's quick variant uses a
smaller k), ``REPRO_BENCH_KERNEL_MIN`` (minimum acceptable speedup,
default 1.0 — the regression guard CI enforces; the committed
``BENCH_KERNEL.json`` from the full k=18 run shows the >= 2x result).

Output: a ``BENCH_JSON`` line, a table, and — from a run at the
committed k=18 only — the ``"fusion"`` section of ``BENCH_KERNEL.json``
at the repo root:

    BENCH_JSON {"bench": "KERNEL-FUSION", "k": ..., "legacy_s": ...,
                "fused_s": ..., "speedup": ...}
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from benchmarks._kernel_timer import alternate, summarize_pairs
from benchmarks.conftest import bench_payload, merge_bench_json, print_table
from repro.core.generators import random_instance
from repro.core.kernels import LayerArena, layer_plan, solve_layer_kernel_fused
from repro.core.sequential import solve_layer_kernel, subset_weights

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

N_TESTS = 20
N_TREATMENTS = 12
# The committed size: only a run at K_FULL rewrites BENCH_KERNEL.json.
K_FULL = 18


def _bench_k() -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_K", str(K_FULL)))


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_KERNEL_REPS", "5"))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_KERNEL_MIN", "1.0"))


def _time_rep(order: str, k: int) -> dict:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "benchmarks._kernel_timer",
            "--order",
            order,
            "--k",
            str(k),
            "--n-tests",
            str(N_TESTS),
            "--n-treatments",
            str(N_TREATMENTS),
        ],
        capture_output=True,
        text=True,
        cwd=_REPO_ROOT,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_kernel_fusion():
    k = _bench_k()
    problem = random_instance(k, N_TESTS, N_TREATMENTS, seed=k)
    p = subset_weights(problem)
    plan = layer_plan(k)
    subsets, costs, is_test = (
        problem.subset_array,
        problem.cost_array,
        problem.test_mask_array,
    )

    # Correctness first: bit-for-bit over EVERY layer, tiled and untiled.
    cost = np.full(1 << k, np.inf)
    cost[0] = 0.0
    arena = LayerArena()
    for j in range(1, k + 1):
        layer = plan.layer(j)
        legacy_best, legacy_arg = solve_layer_kernel(
            layer, p[layer], cost, subsets, costs, is_test
        )
        for tile in (None, 0):
            fused_best, fused_arg = solve_layer_kernel_fused(
                layer, p[layer], cost, subsets, costs, is_test, arena=arena, tile=tile
            )
            assert np.array_equal(legacy_best, fused_best), f"layer {j} cost"
            assert np.array_equal(legacy_arg, fused_arg), f"layer {j} arg"
        cost[layer] = legacy_best

    # Timing: one fresh subprocess per rep, both variants timed
    # adjacently per layer inside it, order alternating between reps.
    # The speedup is the median of the per-rep ratios, so host-wide
    # drift (which lands on both sides of a ratio) cancels instead of
    # skewing the comparison.
    pairs = []
    for rep in range(_reps()):
        order, _ = alternate(rep, "legacy-first", "fused-first")
        res = _time_rep(order, k)
        pairs.append((res["legacy_s"], res["fused_s"]))
    stats = summarize_pairs(pairs)
    speedup = stats["speedup"]
    legacy_s, fused_s = stats["baseline_s"], stats["candidate_s"]

    middle = [
        j for j in range(1, k + 1) if plan.layer(j).size >= plan.max_layer_size // 2
    ]
    payload = bench_payload("KERNEL-FUSION", {
        "k": k,
        "n_actions": problem.n_actions,
        "middle_layers": middle,
        "legacy_s": round(legacy_s, 6),
        "fused_s": round(fused_s, 6),
        "speedup": round(speedup, 3),
        "reps": _reps(),
        "pair_ratios": stats["ratios"],
        "methodology": (
            "fresh process per rep, variants timed adjacently per layer "
            "single-shot, order alternating; median of per-rep ratios"
        ),
        "bit_identical": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"kernel fusion, k={k}, N={problem.n_actions} (middle layers)",
        ["kernel", "seconds", "speedup"],
        [
            ["legacy", f"{legacy_s * 1e3:.1f} ms", "1.00x"],
            ["fused", f"{fused_s * 1e3:.1f} ms", f"{speedup:.2f}x"],
        ],
    )
    if k == K_FULL:
        merge_bench_json(_REPO_ROOT / "BENCH_KERNEL.json", "fusion", payload)

    assert speedup >= _min_speedup(), (
        f"fused kernel speedup {speedup:.2f}x below the "
        f"{_min_speedup():.2f}x floor"
    )

