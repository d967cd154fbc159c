"""SPILL — out-of-core solve under a RAM budget the tables cannot fit.

The mmap layer store exists so the ``k`` ceiling is set by disk, not by
RAM: the four ``2^k`` tables become ``MAP_SHARED`` file mappings whose
pages are reclaimable page cache, and every table-sized pass (order
generation, slab commit, the in-parent kernel) streams through fixed
chunks.  This bench proves the budget story end to end and prices the
durability tax:

* under ``REPRO_RAM_BUDGET_BYTES`` set *below the cost table alone*,
  the in-RAM store must refuse the solve (loudly, pointing at the spill
  store) — and the spill store must complete it;
* the spilled tables must be bit-for-bit the unbudgeted in-RAM tables;
* the slowdown vs the in-RAM solve is recorded, not asserted tightly —
  it is dominated by slab checksumming and fsync, both of which scale
  with table bytes, not with ``k``'s combinatorics.

Instance size comes from ``REPRO_BENCH_SPILL_K`` (default 16; the
committed ``BENCH_SPILL.json`` was produced at ``k=24``, where the cost
table alone is 128 MiB and the budget was 48 MiB).  Output: a
``BENCH_JSON`` line, a table, and — from a k=24 run only —
``BENCH_SPILL.json``.
"""

import json
import os
import pathlib
import shutil
import tempfile
import time

import pytest

from benchmarks.conftest import bench_payload, print_table
from repro.core import random_instance
from repro.core.errors import SolverError
from repro.core.parallel import solve_dp_parallel
from repro.store import StoreSpec, tables_nbytes

pytestmark = pytest.mark.slow

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# The committed size: only a run at K_FULL rewrites BENCH_SPILL.json.
K_FULL = 24


def test_spill_solve_under_ram_budget():
    k = int(os.environ.get("REPRO_BENCH_SPILL_K", "16"))
    problem = random_instance(k, n_tests=10, n_treatments=6, seed=k)
    tables = tables_nbytes(k)
    # An eighth of the table footprint: strictly below even the cost
    # table alone (8 * 2^k of the 24 * 2^k total).
    budget = tables // 8

    # Truth: the unbudgeted in-RAM solve.
    t0 = time.perf_counter()
    base = solve_dp_parallel(problem, workers=1)
    ram_s = time.perf_counter() - t0

    tmp = tempfile.mkdtemp(prefix="repro-bench-spill-")
    old = os.environ.get("REPRO_RAM_BUDGET_BYTES")
    os.environ["REPRO_RAM_BUDGET_BYTES"] = str(budget)
    try:
        # Under the budget the RAM store must refuse, not thrash.
        with pytest.raises(SolverError) as excinfo:
            solve_dp_parallel(problem, workers=1)
        assert "mmap" in str(excinfo.value)

        # The spill store must complete the same solve under the budget.
        spec = StoreSpec(kind="mmap", spill_dir=os.path.join(tmp, "spill"))
        t0 = time.perf_counter()
        spilled = solve_dp_parallel(problem, workers=1, store=spec)
        spill_s = time.perf_counter() - t0

        identical = (
            base.cost.tobytes() == spilled.cost.tobytes()
            and base.best_action.tobytes() == spilled.best_action.tobytes()
        )
        spill_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(tmp)
            for name in names
        )
    finally:
        if old is None:
            os.environ.pop("REPRO_RAM_BUDGET_BYTES", None)
        else:
            os.environ["REPRO_RAM_BUDGET_BYTES"] = old
        shutil.rmtree(tmp, ignore_errors=True)

    assert identical, "spilled tables diverged from the in-RAM tables"
    slowdown = spill_s / ram_s if ram_s > 0 else float("inf")

    payload = bench_payload("SPILL", {
        "k": k,
        "tables_bytes": tables,
        "budget_bytes": budget,
        "spill_dir_bytes": spill_bytes,
        "ram_s": round(ram_s, 4),
        "spill_s": round(spill_s, 4),
        "slowdown": round(slowdown, 3),
        "bit_identical": True,
        "store": str(spilled.recovery.get("store")),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    print(f"\nBENCH_JSON {json.dumps(payload)}")
    print_table(
        f"out-of-core solve, k={k}, budget {budget >> 20} MiB "
        f"(tables {tables >> 20} MiB)",
        ["store", "total", "vs ram", "on disk"],
        [
            ["ram (no budget)", f"{ram_s:.2f} s", "1.00x", "-"],
            [
                "mmap (budgeted)",
                f"{spill_s:.2f} s",
                f"{slowdown:.2f}x",
                f"{spill_bytes >> 20} MiB",
            ],
        ],
    )
    if k == K_FULL:
        (_REPO_ROOT / "BENCH_SPILL.json").write_text(json.dumps(payload, indent=2) + "\n")

    # Durability tax, not a different algorithm: the spilled solve does
    # the same kernel work plus one hash+write pass per layer.
    assert slowdown < 30.0, f"spill slowdown {slowdown:.1f}x is pathological"
