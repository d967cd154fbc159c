"""The strict shard discipline on every store-driven path.

The kernel's own poisoned-table differential lives in
``tests/core/test_kernels.py::TestStrictMode``; these tests pin the
paths that run it: ``LayerStore.run_parent_slice`` over both stores, in
one chunk per layer and in many, the sharded ``solve()`` entry point, and
the warm engine.
"""

import numpy as np
import pytest

from repro.core import solve
from repro.core.engine import SolverEngine
from repro.core.generators import random_instance
from repro.core.kernels import LayerArena
from repro.core.sequential import solve_dp_reference
from repro.store import MmapStore, RamStore
from repro.store import base as store_base

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=61)
REF = solve_dp_reference(PROBLEM)

GARBAGE = [np.nan, -np.inf, 0.0, -1e300, 3.25]

# (store kind, PARENT_CHUNK): no layer of a k <= 6 problem reaches the
# default chunk, so only the override of 3 runs the multi-chunk branch.
LAYOUTS = [
    ("ram", store_base.PARENT_CHUNK),
    ("ram", 3),
    ("mmap", store_base.PARENT_CHUNK),
    ("mmap", 3),
]


def _open(kind, spill_dir=None):
    if kind == "ram":
        store = RamStore(PROBLEM, use_shm=False)
    else:
        store = MmapStore(PROBLEM, spill_dir=spill_dir, fsync=False)
    store.open()
    return store


class TestRamStoreStrict:
    """``run_parent_slice`` reads the live table — own-layer garbage
    must not leak into the results."""

    def _run_layers(self, store, poison=None):
        args = (
            PROBLEM.subset_array,
            PROBLEM.cost_array,
            PROBLEM.test_mask_array,
        )
        arena = LayerArena()
        for j in range(1, PROBLEM.k + 1):
            lo, hi = store.bounds(j)
            if poison is not None:
                store.cost[store.order[lo:hi]] = poison
            assert store.run_parent_slice(lo, hi, *args, arena) == hi - lo
        return store

    @pytest.mark.parametrize("garbage", GARBAGE)
    def test_own_layer_garbage_does_not_leak(self, garbage, monkeypatch, tmp_path):
        # The layouts loop inside the test, so each garbage value keeps
        # one test id.
        for kind, chunk in LAYOUTS:
            monkeypatch.setattr(store_base, "PARENT_CHUNK", chunk)
            store = _open(kind, tmp_path / f"{kind}-{chunk}")
            where = f"{kind} store, PARENT_CHUNK={chunk}"
            try:
                self._run_layers(store, poison=garbage)
                np.testing.assert_array_equal(store.cost, REF.cost, err_msg=where)
                np.testing.assert_array_equal(
                    store.best, REF.best_action, err_msg=where
                )
            finally:
                store.close()

    def test_clean_tables_match_reference(self):
        store = _open("ram")
        try:
            self._run_layers(store)
            np.testing.assert_array_equal(store.cost, REF.cost)
            np.testing.assert_array_equal(store.best, REF.best_action)
        finally:
            store.close()


class TestSolveLevelDiscipline:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identity(self, workers):
        result = solve(PROBLEM, backend="parallel", workers=workers)
        np.testing.assert_array_equal(result.cost, REF.cost)
        np.testing.assert_array_equal(result.best_action, REF.best_action)


class TestEngineDiscipline:
    def test_engine_sharded_matches_reference(self):
        with SolverEngine(backend="parallel", workers=2, min_shard=1) as engine:
            result = engine.solve(PROBLEM)
        np.testing.assert_array_equal(result.cost, REF.cost)
        np.testing.assert_array_equal(result.best_action, REF.best_action)
