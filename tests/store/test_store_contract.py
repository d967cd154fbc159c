"""The LayerStore contract: spec routing, budgets, cold-solve identity.

Both store backends sit behind one solve loop, so the observable
contract is simple: any store, any worker count, same bytes as the
reference oracle — and every misconfiguration (unknown kind, missing
spill dir, checkpoint on the mmap store, tables over the RAM budget)
fails loudly before any work is dispatched.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core import solve
from repro.core.errors import InvalidProblem, SolverError
from repro.core.generators import random_instance
from repro.core.kernels import layer_plan
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp_reference, subset_weights
from repro.core.supervisor import ResiliencePolicy, _close_live_tables
from repro.store import MmapStore, RamStore, StoreSpec, open_store, tables_nbytes

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=21)
REF = solve_dp_reference(PROBLEM)


def assert_ref_tables(result):
    assert np.array_equal(result.cost, REF.cost)
    assert np.array_equal(result.best_action, REF.best_action)


class TestStoreSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidProblem, match="unknown store kind"):
            StoreSpec(kind="tape")

    def test_mmap_requires_spill_dir(self):
        with pytest.raises(InvalidProblem, match="spill directory"):
            StoreSpec(kind="mmap")

    def test_ram_rejects_spill_dir(self, tmp_path):
        with pytest.raises(InvalidProblem, match="meaningless"):
            StoreSpec(kind="ram", spill_dir=str(tmp_path))

    def test_auto_resolution(self, tmp_path):
        assert StoreSpec().resolve() == "ram"
        assert StoreSpec(kind="ram").resolve() == "ram"
        assert StoreSpec(kind="auto", spill_dir=str(tmp_path)).resolve() == "mmap"
        assert StoreSpec(kind="mmap", spill_dir=str(tmp_path)).resolve() == "mmap"

    def test_open_store_kinds(self, tmp_path):
        assert isinstance(open_store(StoreSpec(), PROBLEM), RamStore)
        spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "s"))
        assert isinstance(open_store(spec, PROBLEM), MmapStore)

    def test_open_store_rejects_checkpoint_with_mmap(self, tmp_path):
        spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "s"))
        policy = ResiliencePolicy(checkpoint=str(tmp_path / "c.ckpt"))
        with pytest.raises(InvalidProblem, match="manifest already persists"):
            open_store(spec, PROBLEM, policy=policy)


class TestRamBudget:
    def test_ram_store_refuses_over_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_RAM_BUDGET_BYTES", str(tables_nbytes(PROBLEM.k) - 1))
        with pytest.raises(SolverError, match="--store=mmap"):
            solve_dp_parallel(PROBLEM, workers=1)

    def test_numpy_solve_honours_the_budget(self, monkeypatch):
        # solve_dp runs over a RAM store, so the budget gates it too.
        monkeypatch.setenv("REPRO_RAM_BUDGET_BYTES", str(tables_nbytes(PROBLEM.k) - 1))
        with pytest.raises(SolverError, match="mmap"):
            solve(PROBLEM, backend="numpy")
        monkeypatch.setenv("REPRO_RAM_BUDGET_BYTES", str(tables_nbytes(PROBLEM.k)))
        assert_ref_tables(solve(PROBLEM, backend="numpy"))

    def test_mmap_store_runs_under_budget(self, monkeypatch, tmp_path):
        # The same budget that stops the RAM store: file-backed tables
        # are page cache, not anonymous memory, so the spill store runs.
        monkeypatch.setenv("REPRO_RAM_BUDGET_BYTES", str(tables_nbytes(PROBLEM.k) - 1))
        spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "spill"))
        result = solve_dp_parallel(PROBLEM, workers=1, store=spec)
        assert_ref_tables(result)


class TestRamStoreRecycle:
    """A recycled store's shared tables serve the next store of their k."""

    def test_the_next_store_of_the_k_re_arms_them(self):
        store = RamStore(PROBLEM)
        store.open()
        names = store.worker_spec()["names"]
        store.cost[:], store.best[:] = 7.0, 3  # a finished solve's tables
        store.recycle()
        other = random_instance(PROBLEM.k, n_tests=4, n_treatments=2, seed=11)
        again = RamStore(other)
        again.open()
        try:
            assert again.worker_spec()["names"] == names
            assert again.cost[0] == 0.0 and np.isinf(again.cost[1:]).all()
            assert (again.best == -1).all()
            assert np.array_equal(again.p, subset_weights(other))
        finally:
            again.close()

    def test_a_spare_the_signal_guard_closed_is_replaced(self):
        store = RamStore(PROBLEM)
        store.open()
        names = store.worker_spec()["names"]
        store.recycle()
        _close_live_tables()  # what a SIGINT the program survives leaves
        again = RamStore(PROBLEM)
        again.open()
        try:
            assert again.worker_spec()["names"] != names
            assert again.cost[0] == 0.0
        finally:
            again.close()


class TestRamStoreTables:
    """A RAM store copies no table another owner already holds."""

    def test_shared_store_maps_three_segments(self):
        store = RamStore(PROBLEM)
        store.open()
        try:
            assert set(store.worker_spec()["names"]) == {"cost", "best", "p"}
        finally:
            store.close()

    @pytest.mark.parametrize("use_shm", [True, False])
    def test_order_is_the_layer_plan(self, use_shm):
        store = RamStore(PROBLEM, use_shm=use_shm)
        store.open()
        try:
            assert np.shares_memory(store.order, layer_plan(PROBLEM.k).order)
        finally:
            store.close()

    def test_unshared_store_borrows_p(self):
        p = subset_weights(PROBLEM)
        p.setflags(write=False)  # as the weights cache hands it out
        store = RamStore(PROBLEM, p=p, use_shm=False)
        store.open()
        assert store.p is p
        assert store.worker_spec() is None

    def test_close_frees_the_plain_tables_of_a_journaled_store(self, tmp_path):
        # A store and its journal reference each other, so tables a closed
        # store kept would stay resident until the cyclic collector ran.
        policy = ResiliencePolicy(checkpoint=str(tmp_path / "ckpt"))
        store = RamStore(PROBLEM, policy=policy, use_shm=False)
        store.open()
        cost = weakref.ref(store.cost)
        gc.disable()
        try:
            store.close()
            assert cost() is None
        finally:
            gc.enable()


class TestColdSolveIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["ram", "mmap"])
    def test_bit_identical_to_reference(self, tmp_path, kind, workers):
        if kind == "mmap":
            spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "spill"))
        else:
            spec = StoreSpec(kind="ram")
        result = solve_dp_parallel(
            PROBLEM, workers=workers, min_shard=1, store=spec
        )
        assert_ref_tables(result)
        assert result.recovery["store"] == kind

    def test_completed_spill_dir_resumes_instantly(self, tmp_path):
        spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "spill"))
        first = solve_dp_parallel(PROBLEM, workers=1, store=spec)
        assert_ref_tables(first)
        again = solve_dp_parallel(PROBLEM, workers=1, store=spec)
        assert_ref_tables(again)
        assert again.recovery["resumed_from_layer"] == PROBLEM.k
        assert again.recovery["layers"] == []  # nothing recomputed


class TestDispatchRouting:
    def test_spill_dir_alone_selects_mmap(self, tmp_path):
        result = solve(PROBLEM, spill_dir=str(tmp_path / "spill"))
        assert_ref_tables(result)
        assert result.recovery["store"] == "mmap"

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_mmap_spills_at_one_worker(self, tmp_path, backend):
        # PROBLEM.k is far below the auto crossover: the solve runs on
        # one worker, and the spill directory materializes all the same.
        result = solve(
            PROBLEM, backend=backend, workers=2,
            store="mmap", spill_dir=str(tmp_path / "s"),
        )
        assert (result.backend, result.workers) == ("numpy", 1)
        assert_ref_tables(result)
        assert result.recovery["store"] == "mmap"
        assert (tmp_path / "s" / "manifest.json").exists()

    # The reference oracle is the one backend without a layer store.
    @pytest.mark.parametrize("backend", ["reference"])
    def test_single_process_backend_with_mmap_raises(self, tmp_path, backend):
        with pytest.raises(InvalidProblem, match="no layer store"):
            solve(
                PROBLEM, backend=backend,
                store="mmap", spill_dir=str(tmp_path / "s"),
            )
        assert not (tmp_path / "s").exists()

    def test_checkpoint_with_mmap_raises(self, tmp_path):
        with pytest.raises(InvalidProblem, match="manifest already persists"):
            solve(
                PROBLEM,
                checkpoint=str(tmp_path / "c.ckpt"),
                store="mmap", spill_dir=str(tmp_path / "s"),
            )

    def test_spec_with_conflicting_spill_dir_kwarg_raises(self, tmp_path):
        spec = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "a"))
        with pytest.raises(InvalidProblem, match="StoreSpec"):
            solve(PROBLEM, store=spec, spill_dir=str(tmp_path / "b"))

    def test_explicit_ram_store_still_solves(self):
        result = solve(PROBLEM, backend="parallel", workers=2, store="ram")
        assert_ref_tables(result)


class TestPolicyKnobs:
    def test_keep_checkpoint_default_off(self):
        assert ResiliencePolicy().keep_checkpoint is False
        kept = dataclasses.replace(ResiliencePolicy(), keep_checkpoint=True)
        assert kept.keep_checkpoint is True
