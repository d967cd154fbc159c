"""BVM-BATCH — one B-lane replay against B one-lane replays.

The paper's §5 sizing claim is that one machine runs many TT candidates
*simultaneously*; :func:`~repro.ttpar.bvm_tt.solve_tt_bvm_batch` makes
that real by replaying one shape-generic compiled program on a
:class:`~repro.bvm.packed.PackedBVM` with one lane per instance: each
register row is one big int of ``B`` lanes of ``n`` bits.  This bench
measures what the lanes buy against solving alone: one ``B``-lane
replay against ``B`` one-lane ``PackedBVM`` replays of the *same*
compiled program — the engine :func:`~repro.ttpar.bvm_tt.solve_tt_bvm`
replays on.  Host pokes and table decodes happen outside the timed
region on both sides (they are the paper's zero-cycle host load).

Methodology (cf. ``bench_kernel_fusion``): fresh poked machines per
rep, the two sides timed adjacently, order alternating between reps,
speedup = median of the per-rep ratios.  Before any timing, every lane
of a batched run is checked bit-for-bit against its own ``B = 1`` run —
tables, feasibility and the replay cycle count.

Knobs: ``REPRO_BENCH_BVM_BATCH_K`` (default 4 — with 6 actions the
2048-PE CCC(3) reference shape; CI's quick variant uses 3),
``REPRO_BENCH_BVM_BATCH_B`` (batch width, default 16),
``REPRO_BENCH_BVM_BATCH_REPS`` (default 5),
``REPRO_BENCH_BVM_BATCH_MIN`` (speedup floor; default 1.5 at B >= 16:
batching must beat solving alone; 1.0 at smaller widths).

Output: a ``BENCH_JSON`` line, a table, and — from a run at the
committed size (k=4, B=16) only — the ``"batch"`` section of
``BENCH_BVM.json`` at the repo root.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from benchmarks._kernel_timer import alternate, summarize_pairs, timed
from benchmarks.bench_bvm_tt_end2end import integral_instance
from benchmarks.bench_ladder import _host_shape
from benchmarks.conftest import bench_payload, merge_bench_json, print_table
from repro.ttpar.bvm_tt import (
    _choose_r,
    _encode_instance,
    _lane_machine,
    build_bvm_tt_batch,
    solve_tt_bvm_batch,
)
from repro.ttpar.layout import TTLayout, pad_actions

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

WIDTH = 16
# The committed size: only a run at (K_FULL, B_FULL) rewrites BENCH_BVM.json.
K_FULL, B_FULL = 4, 16


def _bench_k() -> int:
    return int(os.environ.get("REPRO_BENCH_BVM_BATCH_K", str(K_FULL)))


def _bench_b() -> int:
    return int(os.environ.get("REPRO_BENCH_BVM_BATCH_B", str(B_FULL)))


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_BVM_BATCH_REPS", "5"))


def _min_speedup(b: int) -> float:
    default = "1.5" if b >= 16 else "1.0"
    return float(os.environ.get("REPRO_BENCH_BVM_BATCH_MIN", default))


def _same_shape_instances(k: int, count: int, n_actions: int = 6) -> list:
    """``count`` instances sharing one ``(r, k, p)`` shape group — a
    lockstep batch only forms among instances of the same machine shape,
    and the action count pins the padded ``p``."""
    out, seed = [], 0
    while len(out) < count:
        problem = integral_instance(k, seed, n_tests=3, n_treats=3)
        if problem.n_actions == n_actions:
            out.append(problem)
        seed += 1
    return out


def test_bvm_batch_replay():
    k, B = _bench_k(), _bench_b()
    problems = _same_shape_instances(k, B)
    layout = TTLayout.for_problem(problems[0])
    rr = _choose_r(layout.dims)
    plan = build_bvm_tt_batch(rr, layout.k, layout.p, WIDTH)

    # Compile before the correctness gate warms the per-shape cache, so
    # the reported once-per-shape cost is the real one.
    t0 = time.perf_counter()
    compiled = plan.prog.compiled()
    compile_s = time.perf_counter() - t0

    # Correctness gate: every lane of the B-wide run must be bit-for-bit
    # its own B = 1 run — tables AND the lockstep cycle count.
    batched = solve_tt_bvm_batch(problems, width=WIDTH)
    singles = [solve_tt_bvm_batch([p], width=WIDTH)[0] for p in problems]
    for lane, (got, want) in enumerate(zip(batched, singles)):
        assert np.array_equal(got.cost, want.cost), f"lane {lane} cost"
        assert np.array_equal(got.best_action, want.best_action), f"lane {lane} arg"
        assert got.cycles == want.cycles, f"lane {lane} cycles"

    encs = []
    for problem in problems:
        padded = pad_actions(problem)
        scale, enc_costs, enc_weights = _encode_instance(
            problem, padded, layout.k, WIDTH
        )
        encs.append((padded, scale, enc_costs, enc_weights))

    def _run_batched() -> float:
        m = _lane_machine(plan, encs)  # built outside the timed region
        return timed(compiled.run, m)

    def _run_singles() -> float:
        machines = [_lane_machine(plan, [enc]) for enc in encs]
        total = 0.0
        for m in machines:
            total += timed(compiled.run, m)
        return total

    sides = {"singles": _run_singles, "batched": _run_batched}
    pairs = []
    for rep in range(_reps()):
        rep_times = {}
        for name in alternate(rep, "singles", "batched"):
            rep_times[name] = sides[name]()
        pairs.append((rep_times["singles"], rep_times["batched"]))

    stats = summarize_pairs(pairs)
    speedup = stats["speedup"]
    singles_s, batched_s = stats["baseline_s"], stats["candidate_s"]

    payload = bench_payload("BVM-BATCH", {
        "host": _host_shape(),
        "r": rr,
        "n_pes": (1 << rr) * (1 << (1 << rr)),
        "k": k,
        "p": layout.p,
        "batch": B,
        "instructions": len(plan.prog.instructions),
        "cycles": batched[0].cycles,
        "singles_s": round(singles_s, 6),
        "batched_s": round(batched_s, 6),
        "compile_s": round(compile_s, 6),
        "per_instance_batched_ms": round(batched_s / B * 1e3, 3),
        "per_instance_single_ms": round(singles_s / B * 1e3, 3),
        "speedup": round(speedup, 3),
        "reps": _reps(),
        "pair_ratios": stats["ratios"],
        "methodology": (
            "B sequential one-lane PackedBVM replays vs one B-lane "
            "PackedBVM replay of the same compiled program; fresh poked "
            "machines per rep, sides timed adjacently, order alternating; "
            "median of per-rep ratios; per-lane bit-identity vs B=1 "
            "verified before timing"
        ),
        "bit_identical": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"BVM batch replay, CCC({rr}) ({payload['n_pes']} PEs), "
        f"B={B}, {payload['instructions']} instructions",
        ["side", "seconds", "per instance", "speedup"],
        [
            [
                f"{B} x 1 lane",
                f"{singles_s * 1e3:.1f} ms",
                f"{singles_s / B * 1e3:.2f} ms",
                "1.00x",
            ],
            [
                f"{B} lanes",
                f"{batched_s * 1e3:.1f} ms",
                f"{batched_s / B * 1e3:.2f} ms",
                f"{speedup:.2f}x",
            ],
            ["(compile)", f"{compile_s * 1e3:.1f} ms", "-", "once per shape"],
        ],
    )
    if (k, B) == (K_FULL, B_FULL):
        merge_bench_json(_REPO_ROOT / "BENCH_BVM.json", "batch", payload)

    floor = _min_speedup(B)
    assert speedup >= floor, (
        f"B={B} lockstep replay speedup {speedup:.2f}x below the "
        f"{floor:.2f}x floor"
    )
