"""Every store-driven slice resets its own masks before the kernel reads them.

The fused kernel needs ``cost[S] == INF`` inside the layer it computes
(the table-state invariant of ``core/kernels.py``); ``solve_slice``, the
kernel's one caller, restores it for every pool shard, parent slice and
``solve_dp`` layer.  These tests start layers on poisoned masks and hold
the tables to ``solve_dp_reference``: ``solve_slice`` over both stores'
tables, in one chunk per layer and in many; pool children and the
parent's shard over both stores; the sharded ``solve()`` entry point;
and the warm engine.  ``tests/core/test_kernels.py`` chunks
``solve_dp``'s own layers.
"""

import numpy as np
import pytest

from repro.core import kernels, solve
from repro.core.engine import SolverEngine
from repro.core.generators import random_instance
from repro.core.kernels import LayerArena, solve_slice
from repro.core.parallel import solve_dp_parallel
from repro.core.problem import Action
from repro.core.sequential import solve_dp_reference
from repro.store import MmapStore, RamStore

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=61)
REF = solve_dp_reference(PROBLEM)

GARBAGE = [np.nan, -np.inf, 0.0, -1e300, 3.25]

# Action 0 is a zero-cost test.  On a mask S it does not split, its
# candidate reads cost[S] itself, so the reference value a killed
# attempt leaves there ties the optimum and action 0, scanned first,
# wins the tie: best_action goes wrong while cost stays right.
TIE_PROBLEM = PROBLEM.with_actions((Action.test(0b000111, 0.0),) + PROBLEM.actions)
TIE_REF = solve_dp_reference(TIE_PROBLEM)

# Each garbage value, plus "leftover": the reference values themselves.
POISONS = GARBAGE + ["leftover"]

# (store kind, PARENT_CHUNK): no layer of a k <= 6 problem reaches the
# default chunk, so only the override of 3 runs the multi-chunk branch.
LAYOUTS = [
    ("ram", kernels.PARENT_CHUNK),
    ("ram", 3),
    ("mmap", kernels.PARENT_CHUNK),
    ("mmap", 3),
]


def _case(poison):
    """``(problem, reference, values for a mask array)`` of one poison."""
    if isinstance(poison, str):
        return TIE_PROBLEM, TIE_REF, lambda masks: TIE_REF.cost[masks]
    return PROBLEM, REF, lambda masks: poison


def _open(kind, problem=PROBLEM, spill_dir=None):
    if kind == "ram":
        store = RamStore(problem, use_shm=False)
    else:
        store = MmapStore(problem, spill_dir=spill_dir, fsync=False)
    store.open()
    return store


def _assert_reference(cost, best, ref, where=""):
    np.testing.assert_array_equal(cost, ref.cost, err_msg=where)
    np.testing.assert_array_equal(best, ref.best_action, err_msg=where)


class TestRamStoreStrict:
    """``solve_slice`` reads the live table — own-layer garbage must not
    leak into the results."""

    def _run_layers(self, store, problem=PROBLEM, poison=None):
        args = (
            problem.subset_array,
            problem.cost_array,
            problem.test_mask_array,
        )
        arena = LayerArena()
        for j in range(1, problem.k + 1):
            lo, hi = store.bounds(j)
            if poison is not None:
                masks = np.asarray(store.order[lo:hi])
                store.cost[masks] = poison(masks)
            assert solve_slice(store.cost, store.best, store.p, store.order,
                               lo, hi, *args, arena) == hi - lo
        return store

    @pytest.mark.parametrize("garbage", POISONS)
    def test_own_layer_garbage_does_not_leak(self, garbage, monkeypatch, tmp_path):
        problem, ref, poison = _case(garbage)
        # The layouts loop inside the test, so each garbage value keeps
        # one test id.
        for kind, chunk in LAYOUTS:
            monkeypatch.setattr(kernels, "PARENT_CHUNK", chunk)
            store = _open(kind, problem, tmp_path / f"{kind}-{chunk}")
            try:
                self._run_layers(store, problem, poison)
                _assert_reference(store.cost, store.best, ref,
                                  f"{kind} store, PARENT_CHUNK={chunk}")
            finally:
                store.close()

    def test_clean_tables_match_reference(self):
        store = _open("ram")
        try:
            self._run_layers(store)
            _assert_reference(store.cost, store.best, REF)
        finally:
            store.close()


class _Poisoning:
    """A store whose every layer starts on poisoned masks: ``open()``
    poisons layers ``1..k``.  A slice reads only lower layers and its own
    masks, so each layer still holds its poison when it starts."""

    poison = None

    def open(self):
        report = super().open()
        lo, hi = self.bounds(1)[0], self.bounds(self.k)[1]
        masks = np.asarray(self.order[lo:hi])
        self.cost[masks] = self.poison(masks)
        return report


class PoisonedRamStore(_Poisoning, RamStore):
    pass


class PoisonedMmapStore(_Poisoning, MmapStore):
    pass


class TestPoolShards:
    """Two children and the parent's shard each reset their own masks."""

    @pytest.mark.parametrize("garbage", POISONS)
    def test_poisoned_layers_match_reference(self, garbage, tmp_path):
        problem, ref, poison = _case(garbage)
        for store in (
            PoisonedRamStore(problem),
            PoisonedMmapStore(problem, spill_dir=tmp_path / "spill", fsync=False),
        ):
            store.poison = poison
            result = solve_dp_parallel(problem, workers=3, min_shard=1, store=store)
            _assert_reference(result.cost, result.best_action, ref, store.kind)
            modes = [e["mode"] for e in result.recovery["layers"]]
            assert modes == ["pool"] * (problem.k - 1) + ["parent"], store.kind


class TestSolveLevelDiscipline:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identity(self, workers):
        result = solve(PROBLEM, backend="parallel", workers=workers)
        _assert_reference(result.cost, result.best_action, REF)


class TestEngineDiscipline:
    def test_engine_sharded_matches_reference(self):
        with SolverEngine(backend="parallel", workers=2, min_shard=1) as engine:
            result = engine.solve(PROBLEM)
        _assert_reference(result.cost, result.best_action, REF)
