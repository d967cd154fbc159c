"""The unified `solve()` dispatch: backend selection, memoization, parity."""

import errno
import json
import pathlib
import types

import numpy as np
import pytest

from repro.core import (
    BACKENDS,
    PARALLEL_MIN_K_COLD,
    PARALLEL_MIN_K_WARM,
    WORKLOADS,
    SolverEngine,
    cached_subset_weights,
    resolve_backend,
    solve,
    solve_dp,
    solve_dp_reference,
    subset_weights,
)
from repro.core.errors import InvalidProblem
from repro.core.generators import random_instance
from repro.core.problem import Action, TTProblem
from repro.core.supervisor import Supervisor
from repro.store import journal

LADDER = pathlib.Path(__file__).resolve().parents[2] / "BENCH_LADDER.json"


def _big_problem(k=PARALLEL_MIN_K_COLD):
    """A spec at the cold crossover (cheap to *build*; never solved here)."""
    return TTProblem.build([1.0] * k, [Action.treatment(set(range(k)), 1.0)])


class TestResolveBackend:
    def test_small_auto_stays_numpy(self):
        problem = random_instance(5, 3, 2, seed=1)
        assert resolve_backend(problem, "auto", workers=8) == ("numpy", 1)

    def test_big_auto_goes_parallel_with_workers(self):
        assert resolve_backend(_big_problem(), "auto", workers=4) == ("parallel", 4)

    def test_big_auto_single_worker_stays_numpy(self):
        assert resolve_backend(_big_problem(), "auto", workers=1) == ("numpy", 1)

    @pytest.mark.parametrize(
        "k, want",
        [(PARALLEL_MIN_K_COLD - 1, "numpy"), (PARALLEL_MIN_K_COLD, "parallel")],
    )
    def test_cold_crossover(self, k, want):
        assert resolve_backend(_big_problem(k), "auto", workers=2)[0] == want

    @pytest.mark.parametrize(
        "k, want",
        [(PARALLEL_MIN_K_WARM - 1, "numpy"), (PARALLEL_MIN_K_WARM, "parallel")],
    )
    def test_warm_crossover(self, monkeypatch, k, want):
        # The engine resolves with the warm crossover; record the worker
        # count it would solve with instead of solving.
        ran = []

        def record(problem, **kw):
            ran.append(kw["workers"])
            return types.SimpleNamespace(cost=np.zeros(1), best_action=np.zeros(1))

        monkeypatch.setattr("repro.core.engine.solve_dp_parallel", record)
        with SolverEngine(workers=2) as engine:
            engine.solve(_big_problem(k), p=np.zeros(1))
        assert ran == [2 if want == "parallel" else 1]

    def test_explicit_backends_pass_through(self):
        problem = random_instance(4, 3, 2, seed=2)
        assert resolve_backend(problem, "numpy")[0] == "numpy"
        assert resolve_backend(problem, "reference")[0] == "reference"
        assert resolve_backend(problem, "parallel", workers=3) == ("parallel", 3)

    def test_unknown_backend_rejected(self):
        problem = random_instance(3, 2, 2, seed=3)
        # "native" named a numba kernel tier that no longer exists.
        for name in ("cuda", "native"):
            with pytest.raises(ValueError):
                resolve_backend(problem, name)

    def test_backend_names_exported(self):
        assert set(BACKENDS) == {"auto", "numpy", "parallel", "reference"}


class TestLadderCrossovers:
    """``auto``'s crossovers agree with the committed k-ladder."""

    def test_auto_picks_the_faster_path_on_every_rung(self):
        ladder = json.loads(LADDER.read_text())
        nproc = ladder["host"]["nproc"]
        rows = [r for r in ladder["rows"] if r["workers"] == nproc]
        assert nproc > 1 and rows
        for row in rows:
            problem = _big_problem(row["k"])
            cold = resolve_backend(problem, "auto", workers=nproc)[0]
            warm = resolve_backend(problem, "auto", nproc, PARALLEL_MIN_K_WARM)[0]
            faster = {
                path: "parallel" if row[f"{path}_s"] < row["numpy_s"] else "numpy"
                for path in ("cold", "warm")
            }
            assert (cold, warm) == (faster["cold"], faster["warm"]), row


class TestSolveParity:
    @pytest.mark.parametrize("backend", ["numpy", "parallel", "reference"])
    def test_all_backends_bit_for_bit(self, backend):
        problem = random_instance(6, 5, 3, seed=4)
        ref = solve_dp_reference(problem)
        result = solve(problem, backend=backend, workers=2)
        assert np.array_equal(result.cost, ref.cost)
        assert np.array_equal(result.best_action, ref.best_action)

    def test_auto_matches_explicit(self):
        problem = random_instance(5, 4, 3, seed=5)
        assert solve(problem).optimal_cost == solve_dp(problem).optimal_cost

    def test_tree_roundtrip_through_dispatch(self):
        problem = random_instance(5, 4, 3, seed=6)
        result = solve(problem, backend="parallel", workers=2)
        tree = result.tree()
        tree.validate()
        assert tree.expected_cost() == pytest.approx(result.optimal_cost)


class TestMemoization:
    def test_same_problem_shares_vector(self):
        problem = random_instance(6, 4, 3, seed=7)
        a = cached_subset_weights(problem)
        b = cached_subset_weights(problem)
        assert a is b

    def test_structurally_equal_problems_share(self):
        p1 = random_instance(4, 3, 2, seed=8)
        p2 = TTProblem.build(p1.weights, p1.actions, name=p1.name)
        assert cached_subset_weights(p1) is cached_subset_weights(p2)

    def test_cached_vector_is_frozen(self):
        problem = random_instance(4, 3, 2, seed=9)
        p = cached_subset_weights(problem)
        with pytest.raises(ValueError):
            p[0] = 1.0

    def test_cached_matches_fresh(self):
        problem = random_instance(6, 4, 3, seed=10)
        assert np.array_equal(cached_subset_weights(problem), subset_weights(problem))


class TestWeightsCacheBudget:
    """The cache must never pin more than its byte budget."""

    def test_budget_bounds_resident_bytes(self, monkeypatch):
        from repro.core.dispatch import _clear_weights_cache, weights_cache_nbytes

        _clear_weights_cache()
        k = 8
        one_vector = (1 << k) * 8  # float64 per subset
        monkeypatch.setenv("REPRO_WEIGHTS_CACHE_BYTES", str(3 * one_vector))
        try:
            for seed in range(10):
                cached_subset_weights(random_instance(k, 3, 2, seed=seed))
                assert weights_cache_nbytes() <= 3 * one_vector
            # evicted oldest-first: the newest entries are the survivors
            newest = random_instance(k, 3, 2, seed=9)
            assert cached_subset_weights(newest) is cached_subset_weights(newest)
        finally:
            _clear_weights_cache()

    def test_oversized_vector_not_cached(self, monkeypatch):
        from repro.core.dispatch import _clear_weights_cache, weights_cache_nbytes

        _clear_weights_cache()
        # 64 bytes: smaller than any k>=4 vector.
        monkeypatch.setenv("REPRO_WEIGHTS_CACHE_BYTES", "64")
        try:
            problem = random_instance(5, 3, 2, seed=0)
            p = cached_subset_weights(problem)
            assert np.array_equal(p, subset_weights(problem))
            assert weights_cache_nbytes() == 0
        finally:
            _clear_weights_cache()

    def test_lru_refresh_on_hit(self, monkeypatch):
        from repro.core.dispatch import _clear_weights_cache

        _clear_weights_cache()
        k = 6
        one_vector = (1 << k) * 8
        monkeypatch.setenv("REPRO_WEIGHTS_CACHE_BYTES", str(2 * one_vector))
        try:
            a = random_instance(k, 3, 2, seed=0)
            b = random_instance(k, 3, 2, seed=1)
            c = random_instance(k, 3, 2, seed=2)
            va = cached_subset_weights(a)
            cached_subset_weights(b)
            assert cached_subset_weights(a) is va  # refreshes a
            cached_subset_weights(c)  # evicts b, not a
            assert cached_subset_weights(a) is va
        finally:
            _clear_weights_cache()


class _Counting:
    """A progress reporter that records the layer barriers it hears of."""

    def __init__(self):
        self.layers = []

    def begin(self, total_layers, total_masks):
        pass

    def layer_done(self, layer, masks_done, spilled_bytes=0, queued_bytes=0):
        self.layers.append(layer)

    def finish(self):
        pass


class TestProgressOnEveryRoute:
    """A reporter hears every layer barrier, whatever runs the solve."""

    PROBLEM = random_instance(6, 4, 3, seed=5)

    @pytest.mark.parametrize("backend", ["numpy", "auto", "parallel"])
    def test_cold_solve(self, backend):
        progress = _Counting()
        solve(self.PROBLEM, backend=backend, workers=2, progress=progress)
        assert progress.layers == list(range(1, self.PROBLEM.k + 1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_solve(self, workers):
        progress = _Counting()
        with SolverEngine(workers=workers, backend="parallel", min_shard=1) as engine:
            result = solve(self.PROBLEM, engine=engine, progress=progress)
        assert result.workers == workers
        assert progress.layers == list(range(1, self.PROBLEM.k + 1))


def _warm_engine_solve(problem, tmp):
    with SolverEngine(workers=1, backend="parallel") as engine:
        return engine.solve(problem)


class TestOneWorkerRoutes:
    """A one-worker solve maps no shared memory and builds no supervisor."""

    PROBLEM = random_instance(6, 4, 3, seed=6)

    ROUTES = {
        "numpy": lambda p, tmp: solve(p, backend="numpy"),
        "parallel": lambda p, tmp: solve(p, backend="parallel", workers=1),
        "auto-checkpoint": lambda p, tmp: solve(p, workers=2, checkpoint=str(tmp / "c")),
        "auto-mmap": lambda p, tmp: solve(
            p, workers=2, store="mmap", spill_dir=str(tmp / "s")
        ),
        "engine": _warm_engine_solve,
        # The journal cannot write its manifest: the store degrades at open.
        "open-enospc": lambda p, tmp: solve(
            p, backend="parallel", workers=1, checkpoint=str(tmp / "c")
        ),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_reaches_reference_bytes_in_plain_ram(
        self, route, tmp_path, monkeypatch, shm_leak_guard
    ):
        def no_supervisor(*args, **kwargs):
            raise AssertionError("a one-worker solve built a Supervisor")

        def full_disk(path, payload, *, fsync=True):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Supervisor, "__init__", no_supervisor)
        if route == "open-enospc":
            monkeypatch.setattr(journal, "atomic_write_bytes", full_disk)
        result = self.ROUTES[route](self.PROBLEM, tmp_path)
        ref = solve_dp_reference(self.PROBLEM)
        assert (result.backend, result.workers) == ("numpy", 1)
        assert result.cost.tobytes() == ref.cost.tobytes()
        assert result.best_action.tobytes() == ref.best_action.tobytes()
        assert result.recovery["degraded"] is (route == "open-enospc")
        assert shm_leak_guard.created == []


class TestKnobsParsedOnEntry:
    """``solve()`` parses every knob a DP solve can read before dispatch."""

    def test_start_method_fails_when_no_worker_starts(self, monkeypatch):
        # Every k=4 layer is below MIN_SHARD: the pool never starts a
        # worker, so only the entry check reads the start method.
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        problem = WORKLOADS["medical"](4, seed=0)
        with pytest.raises(InvalidProblem, match="REPRO_START_METHOD"):
            solve(problem, backend="parallel", workers=2)

    def test_weights_budget_fails_on_a_cache_hit(self, monkeypatch):
        problem = random_instance(6, 3, 2, seed=90)
        solve(problem, backend="numpy")
        monkeypatch.setenv("REPRO_WEIGHTS_CACHE_BYTES", "abc")
        with pytest.raises(InvalidProblem, match="REPRO_WEIGHTS_CACHE_BYTES"):
            solve(problem, backend="numpy")

    def test_engine_short_circuit_checks_too(self, monkeypatch):
        # The warm engine's worker is already started, so nothing but
        # the entry check reads the start method again.
        problem = random_instance(6, 3, 2, seed=91)
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            solve(problem, engine=engine)
            monkeypatch.setenv("REPRO_START_METHOD", "teleport")
            with pytest.raises(InvalidProblem, match="REPRO_START_METHOD"):
                solve(problem, engine=engine)

    def test_explicit_workers_and_the_bvm_backend_are_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        monkeypatch.setenv("REPRO_BVM_BACKEND", "warp")
        problem = random_instance(5, 3, 2, seed=92)
        got = solve(problem, backend="parallel", workers=2)
        assert got.best_action.tobytes() == solve_dp_reference(problem).best_action.tobytes()


class TestMaskWidthLimit:
    """k >= 32 would wrap the int32 masks: refused before any 2^k array."""

    @pytest.fixture
    def k32(self, monkeypatch):
        from repro.core import dispatch, sequential
        from repro.store import MmapStore

        def unreachable(*args, **kwargs):
            raise AssertionError("a k=32 solve reached a 2^k allocation")

        monkeypatch.setattr(dispatch, "subset_weights", unreachable)
        monkeypatch.setattr(sequential, "subset_weights", unreachable)
        monkeypatch.setattr(MmapStore, "_allocate_data_files", unreachable)
        return TTProblem.build([1.0] * 32, [Action.treatment(set(range(32)), 1.0)])

    @pytest.mark.parametrize("how", ["numpy", "parallel", "engine", "mmap", "checkpoint"])
    def test_every_host_path_refuses_k32(self, k32, how, tmp_path):
        kwargs = {
            "numpy": {"backend": "numpy"},
            "parallel": {"backend": "parallel", "workers": 2},
            "engine": {"engine": SolverEngine(workers=1)},
            "mmap": {"store": "mmap", "spill_dir": str(tmp_path / "spill")},
            "checkpoint": {"checkpoint": str(tmp_path / "ckpt")},
        }[how]
        try:
            with pytest.raises(InvalidProblem, match="k <= 31"):
                solve(k32, **kwargs)
        finally:
            if "engine" in kwargs:
                kwargs["engine"].close()
        assert not (tmp_path / "spill").exists()

    def test_engine_and_mmap_store_refuse_k32_directly(self, k32, tmp_path):
        from repro.store import MmapStore

        with SolverEngine(workers=1) as engine:
            with pytest.raises(InvalidProblem, match="k <= 31"):
                engine.solve(k32)
        with pytest.raises(InvalidProblem, match="k <= 31"):
            MmapStore(k32, spill_dir=str(tmp_path / "spill"))
        assert not (tmp_path / "spill").exists()
