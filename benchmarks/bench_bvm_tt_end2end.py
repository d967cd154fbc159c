"""E2E-BVM — the bit-level TT program end to end.

Runs the full §7 realization — processor-ID, control-bit generation,
in-machine p(S)/TP arithmetic, e-loop lateral sweeps, bit-serial tagged
minimization — on the cycle-accurate simulator, verifies exact agreement
with the sequential DP, and reports the machine-cycle budget per phase
of the machine-size table.

``test_e2e_backend_speedup`` additionally races the two BVM backends on
the same instance — full ``solve_tt_bvm`` including program build,
compile and table decode, not just replay — asserts their tables and
cycle counts bit-identical, and — from a run at the committed k=4 only —
records the measured ratio in the ``"end2end"`` section of
``BENCH_BVM.json``.  The correctness gate
warms the shape's §6 loop cache, so each timed build is the instance
prologue plus a splice, and each compile lowers the prologue only.  Knobs:
``REPRO_BENCH_E2E_K`` (default 4, the 2048-PE CCC(3) reference size),
``REPRO_BENCH_E2E_REPS`` (default 5), ``REPRO_BENCH_E2E_MIN`` (speedup
floor; default 5.0 at the reference size, 1.0 at quick sizes).
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from benchmarks._kernel_timer import alternate, summarize_pairs, timed
from benchmarks.conftest import bench_payload, merge_bench_json, print_table
from repro.core import Action, TTProblem, solve_dp
from repro.ttpar.bvm_tt import solve_tt_bvm

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def integral_instance(k, seed, n_tests=2, n_treats=2):
    rng = np.random.default_rng(seed)
    full = (1 << k) - 1
    weights = rng.integers(1, 6, k).astype(float)
    acts = []
    for _ in range(n_tests):
        acts.append(Action.test(int(rng.integers(1, full)), float(rng.integers(0, 6))))
    cov = 0
    for _ in range(n_treats):
        s = int(rng.integers(1, full + 1))
        acts.append(Action.treatment(s, float(rng.integers(1, 6))))
        cov |= s
    if cov != full:
        acts.append(Action.treatment(full & ~cov, 3.0))
    return TTProblem.build(weights, acts)


def test_e2e_table():
    rows = []
    for k, seed in ((2, 3), (3, 1), (4, 7)):
        problem = integral_instance(k, seed)
        res = solve_tt_bvm(problem, width=16)
        dp = solve_dp(problem)
        exact = np.allclose(res.cost, dp.cost) and (
            res.best_action == dp.best_action
        ).all()
        assert exact
        rows.append(
            [
                k,
                problem.n_actions,
                res.r,
                (1 << res.r) * (1 << (1 << res.r)),
                res.cycles,
                "exact",
            ]
        )
    print_table(
        "E2E-BVM: bit-level TT vs sequential DP",
        ["k", "N", "CCC r", "n PEs", "machine cycles", "agreement"],
        rows,
    )


def test_tree_roundtrip():
    problem = integral_instance(3, 5)
    res = solve_tt_bvm(problem, width=16)
    tree = res.tree()
    tree.validate()
    assert tree.expected_cost() == pytest.approx(res.optimal_cost)


def test_e2e_benchmark_k3(benchmark):
    problem = integral_instance(3, 2)
    res = benchmark(solve_tt_bvm, problem, 16)
    assert res.feasible


@pytest.mark.slow
def test_e2e_benchmark_k4_2048pes(benchmark):
    problem = integral_instance(4, 11, n_tests=3, n_treats=3)
    res = benchmark(solve_tt_bvm, problem, 16)
    assert res.feasible
    print(f"\nE2E-BVM: k=4 on CCC(3) (2048 PEs): {res.cycles} machine cycles")


# The committed size: only a run at K_FULL rewrites BENCH_BVM.json.
K_FULL = 4


def _e2e_k() -> int:
    return int(os.environ.get("REPRO_BENCH_E2E_K", str(K_FULL)))


def _e2e_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_E2E_REPS", "5"))


def _e2e_min(k: int) -> float:
    default = "5.0" if k >= 4 else "1.0"
    return float(os.environ.get("REPRO_BENCH_E2E_MIN", default))


@pytest.mark.slow
def test_e2e_backend_speedup():
    """Boolean vs word-packed backend on the same instance, end to end."""
    k = _e2e_k()
    problem = integral_instance(k, seed=7)

    # Correctness gate: the packed run must be indistinguishable.
    ref = solve_tt_bvm(problem, width=16, backend="bool")
    fast = solve_tt_bvm(problem, width=16, backend="packed")
    assert (ref.cost == fast.cost).all()
    assert (ref.best_action == fast.best_action).all()
    assert ref.cycles == fast.cycles

    # Adjacent full-solve timings, order alternating between reps;
    # speedup = median of the per-rep ratios (cf. bench_kernel_fusion).
    pairs = []
    for rep in range(_e2e_reps()):
        sides = {}
        for backend in alternate(rep, "bool", "packed"):
            sides[backend] = timed(
                solve_tt_bvm, problem, width=16, backend=backend
            )
        pairs.append((sides["bool"], sides["packed"]))
    stats = summarize_pairs(pairs)
    speedup = stats["speedup"]
    bool_s, packed_s = stats["baseline_s"], stats["candidate_s"]

    payload = bench_payload("E2E-BVM", {
        "k": k,
        "r": ref.r,
        "n_pes": (1 << ref.r) * (1 << (1 << ref.r)),
        "cycles": ref.cycles,
        "bool_s": round(bool_s, 6),
        "packed_s": round(packed_s, 6),
        "speedup": round(speedup, 3),
        "reps": _e2e_reps(),
        "pair_ratios": stats["ratios"],
        "methodology": (
            "full solve_tt_bvm per side (build + compile + run + decode), "
            "timed adjacently, order alternating; median of per-rep ratios; "
            "build is the instance prologue spliced onto the shape's cached "
            "§6 loop (the cache is warmed by the correctness gate), so "
            "compile lowers the prologue only"
        ),
        "bit_identical": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"E2E-BVM backends, k={k} on CCC({ref.r}) ({payload['n_pes']} PEs)",
        ["backend", "seconds", "speedup"],
        [
            ["bool", f"{bool_s * 1e3:.1f} ms", "1.00x"],
            ["packed", f"{packed_s * 1e3:.1f} ms", f"{speedup:.2f}x"],
        ],
    )
    if k == K_FULL:
        merge_bench_json(_REPO_ROOT / "BENCH_BVM.json", "end2end", payload)

    floor = _e2e_min(k)
    assert speedup >= floor, (
        f"end-to-end packed speedup {speedup:.2f}x below the {floor:.2f}x floor"
    )
