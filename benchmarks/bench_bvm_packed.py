"""BVM-PACKED — word-packed replay vs the boolean oracle.

Times the *execution* of the full §7 TT instruction stream — the same
program the end-to-end bench solves — on both BVM backends: the boolean
byte-per-bit interpreter and the word-packed bit-plane engine
(:mod:`repro.bvm.packed`, 64 PEs per machine word).  The packed side
replays a :class:`~repro.bvm.program.CompiledProgram` (compile time is
reported separately; the end-to-end bench charges it).

Methodology (cf. ``bench_kernel_fusion``): each rep times both backends
**adjacently** on fresh machines, alternating which backend goes first
between reps, and the reported speedup is the **median of the per-rep
ratios** — a host-wide slow burst lands on both sides of a ratio instead
of one, and alternation cancels the second runner's warm-cache edge.
Before any timing, one differential pass asserts the two machines end
bit-for-bit identical: every live register plane, the output log, and
the cycle count.

Knobs: ``REPRO_BENCH_BVM_R`` (CCC size, default 3 — the 2048-PE
reference machine; CI's quick variant uses 2), ``REPRO_BENCH_BVM_REPS``
(default 5), ``REPRO_BENCH_BVM_MIN`` (speedup floor, default 1.0 — the
regression guard; the committed ``BENCH_BVM.json`` from the full r=3
run shows the >= 10x replay result).

Output: a ``BENCH_JSON`` line, a table, and — from a run at the
committed size (r=3) only — the ``"replay"`` section of
``BENCH_BVM.json`` at the repo root.
"""

import json
import os
import pathlib
import time

import pytest

from benchmarks._kernel_timer import alternate, summarize_pairs, timed
from benchmarks.bench_bvm_tt_end2end import integral_instance
from benchmarks.conftest import bench_payload, merge_bench_json, print_table
from repro.bvm.isa import A, B, E, Reg
from repro.bvm.topology import pack_row
from repro.ttpar.bvm_tt import build_bvm_tt

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# CCC size -> the largest integral instance whose §7 layout fits it.
_K_FOR_R = {2: 3, 3: 4}
# The committed size: only a run at R_FULL rewrites BENCH_BVM.json.
R_FULL = 3


def _bench_r() -> int:
    return int(os.environ.get("REPRO_BENCH_BVM_R", str(R_FULL)))


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_BVM_REPS", "5"))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_BVM_MIN", "1.0"))


def _fresh(plan, backend):
    m = plan.prog.build_machine(backend=backend)
    m.feed_input(plan.input_bits())
    return m


def _assert_identical(plan, ref, fast):
    L = plan.prog.pool.high_water
    for reg in [Reg("R", j) for j in range(L)] + [A, B, E]:
        assert fast.plane(reg) == pack_row(ref.read(reg)), f"plane {reg} differs"
    assert [bool(x) for x in fast.output_log] == [bool(x) for x in ref.output_log]
    assert fast.cycles == ref.cycles


def test_bvm_packed_replay():
    r = _bench_r()
    if r not in _K_FOR_R:
        pytest.skip(f"no reference instance mapped for r={r}")
    problem = integral_instance(_K_FOR_R[r], seed=7)
    plan = build_bvm_tt(problem, width=16)
    assert plan.r == r, f"instance landed on CCC({plan.r}), wanted CCC({r})"
    instructions = plan.prog.instructions

    t0 = time.perf_counter()
    compiled = plan.prog.compiled()
    compile_s = time.perf_counter() - t0

    # Differential pass first: the speedup claim is only meaningful if
    # the packed machine is bit-for-bit the boolean machine.
    ref, fast = _fresh(plan, "bool"), _fresh(plan, "packed")
    ref.run(instructions)
    compiled.run(fast)
    _assert_identical(plan, ref, fast)

    pairs = []
    for rep in range(_reps()):
        sides = {}
        for backend in alternate(rep, "bool", "packed"):
            m = _fresh(plan, backend)
            if backend == "packed":
                sides[backend] = timed(compiled.run, m)
            else:
                sides[backend] = timed(m.run, instructions)
        pairs.append((sides["bool"], sides["packed"]))

    stats = summarize_pairs(pairs)
    speedup = stats["speedup"]
    bool_s, packed_s = stats["baseline_s"], stats["candidate_s"]

    payload = bench_payload("BVM-PACKED", {
        "r": r,
        "n_pes": (1 << r) * (1 << (1 << r)),
        "k": _K_FOR_R[r],
        "instructions": len(instructions),
        "bool_s": round(bool_s, 6),
        "packed_s": round(packed_s, 6),
        "compile_s": round(compile_s, 6),
        "speedup": round(speedup, 3),
        "reps": _reps(),
        "pair_ratios": stats["ratios"],
        "methodology": (
            "fresh machines per rep, backends timed adjacently, order "
            "alternating; median of per-rep ratios; bit-identical state "
            "verified before timing"
        ),
        "bit_identical": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"BVM replay, CCC({r}) ({payload['n_pes']} PEs), "
        f"{len(instructions)} instructions",
        ["backend", "seconds", "speedup"],
        [
            ["bool", f"{bool_s * 1e3:.1f} ms", "1.00x"],
            ["packed", f"{packed_s * 1e3:.1f} ms", f"{speedup:.2f}x"],
            ["(compile)", f"{compile_s * 1e3:.1f} ms", "once per program"],
        ],
    )
    if r == R_FULL:
        merge_bench_json(_REPO_ROOT / "BENCH_BVM.json", "replay", payload)

    assert speedup >= _min_speedup(), (
        f"packed replay speedup {speedup:.2f}x below the "
        f"{_min_speedup():.2f}x floor"
    )
