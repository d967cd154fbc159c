"""Differential tests for the multi-core layer-parallel DP engine.

The contract under test is strict: `solve_dp_parallel` must reproduce
`solve_dp_reference` (and `solve_dp`) **bit-for-bit** — `cost` and
`best_action` exactly equal, not merely close — for any worker count and
any shard size, including degenerate (infeasible, single-object, empty)
specifications.  See the determinism contract in
`repro.core.sequential`'s module docstring.
"""

import gc
import io
import os
import types

import numpy as np
import pytest

from repro.cli import main
from repro.core import SolverEngine, solve
from repro.core.errors import InvalidProblem
from repro.core.generators import random_instance
from repro.core.kernels import BEST_DTYPE, COST_DTYPE
from repro.core.parallel import _shard_bounds, solve_dp_parallel
from repro.core.problem import Action, TTProblem
from repro.core.sequential import solve_dp, solve_dp_reference


TINY = TTProblem.build([1.0], [Action.treatment({0}, 1.0)])


def _engine_solve(**kwargs):
    with SolverEngine(backend="parallel", **kwargs) as engine:
        return engine.solve(TINY)


# entry id -> (the knob named in the error, call taking the bad value)
BELOW_ONE_ENTRY_POINTS = {
    "parallel-workers": ("workers", lambda n: solve_dp_parallel(TINY, workers=n)),
    "solve-workers": ("workers", lambda n: solve(TINY, backend="parallel", workers=n)),
    "engine-workers": ("workers", lambda n: _engine_solve(workers=n)),
    "cli-workers": ("workers", lambda n: main(
        ["solve", "--workload", "random", "--k", "3",
         "--backend", "parallel", "--workers", str(n)],
        out=io.StringIO(),
    )),
    "parallel-min_shard": (
        "min_shard", lambda n: solve_dp_parallel(TINY, workers=2, min_shard=n)
    ),
    "engine-min_shard": ("min_shard", lambda n: SolverEngine(workers=2, min_shard=n)),
}


def assert_backends_identical(problem, workers=2, min_shard=16):
    """All three backends: identical tables, op_count, and trees."""
    ref = solve_dp_reference(problem)
    vec = solve_dp(problem)
    par = solve_dp_parallel(problem, workers=workers, min_shard=min_shard)
    for result, label in ((vec, "numpy"), (par, "parallel")):
        assert np.array_equal(result.cost, ref.cost), label
        assert np.array_equal(result.best_action, ref.best_action), label
        assert result.op_count == ref.op_count, label
    if ref.feasible:
        t_ref = ref.tree()
        t_par = par.tree()
        assert t_par.expected_cost() == pytest.approx(t_ref.expected_cost())
        assert t_par.expected_cost() == pytest.approx(ref.optimal_cost)
    else:
        with pytest.raises(ValueError):
            par.tree()
    return ref, par


def _instances():
    """>= 50 randomized instances: varying k, action mixes, degenerate specs."""
    cases = []
    seed = 0
    for rep in (0, 1):
        for k in (1, 2, 3, 4, 5, 6, 7, 8):
            for n_tests, n_treatments in ((1, 1), (k, max(1, k // 2)), (2 * k, k)):
                seed += 1
                cases.append(
                    random_instance(k, n_tests, n_treatments, seed=1000 * rep + seed)
                )
    # treatment-only and test-heavy corners
    for k in (2, 4, 6):
        cases.append(random_instance(k, 0, k, seed=100 + k))
        cases.append(random_instance(k, 3 * k, 1, seed=200 + k))
    # degenerate infeasible specs: some objects have no covering treatment
    for k in (2, 3, 5):
        cases.append(
            TTProblem.build(
                [1.0 + j for j in range(k)],
                [
                    Action.test({0}, 1.0) if k > 1 else Action.treatment({0}, 1.0),
                    Action.treatment({0}, 2.0),
                ],
                name=f"uncovered(k={k})",
            )
        )
    # exact-tie landscape: unit weights, duplicated unit-cost actions
    cases.append(
        TTProblem.build(
            [1.0, 1.0, 1.0],
            [
                Action.test({0, 1}, 1.0),
                Action.test({0, 1}, 1.0),  # exact duplicate -> forced tie
                Action.treatment({0, 1, 2}, 1.0),
                Action.treatment({0, 1, 2}, 1.0),
            ],
            name="ties",
        )
    )
    assert len(cases) >= 50
    return cases


class TestDifferential:
    @pytest.mark.parametrize(
        "problem", _instances(), ids=lambda p: p.name or "anon"
    )
    def test_backends_bit_for_bit(self, problem):
        assert_backends_identical(problem, workers=2, min_shard=8)

    @pytest.mark.slow
    def test_worker_count_invariance(self):
        """Same tables whatever the worker count or shard granularity."""
        problem = random_instance(9, n_tests=9, n_treatments=4, seed=42)
        ref = solve_dp_reference(problem)
        for workers, min_shard in ((1, 2048), (2, 4), (3, 16), (5, 1)):
            par = solve_dp_parallel(problem, workers=workers, min_shard=min_shard)
            assert np.array_equal(par.cost, ref.cost), (workers, min_shard)
            assert np.array_equal(par.best_action, ref.best_action), (
                workers,
                min_shard,
            )

    @pytest.mark.slow
    def test_medium_instance_matches_numpy(self):
        problem = random_instance(11, n_tests=10, n_treatments=6, seed=11)
        vec = solve_dp(problem)
        par = solve_dp_parallel(problem, workers=2)
        assert np.array_equal(par.cost, vec.cost)
        assert np.array_equal(par.best_action, vec.best_action)


class TestTieBreaking:
    def test_duplicate_actions_lowest_index_wins(self):
        """Exact ties must resolve to the lowest action index in every
        backend — the rule the dispatch/parallel layers lock in."""
        dup_test = Action.test({0, 2}, 1.5)
        dup_treat = Action.treatment({0, 1, 2, 3}, 2.0)
        problem = TTProblem.build(
            [1.0, 2.0, 1.0, 2.0],
            [dup_test, dup_test, dup_treat, dup_treat, dup_treat],
        )
        ref, par = assert_backends_identical(problem, workers=2, min_shard=1)
        full = problem.universe
        for s in range(1, full + 1):
            i = int(ref.best_action[s])
            if i < 0:
                continue
            act = problem.actions[i]
            # no earlier action with the same (kind, subset, cost) — i.e.
            # the same M[S,i] value by construction — may exist
            for earlier in range(i):
                ea = problem.actions[earlier]
                assert (ea.kind, ea.subset, ea.cost) != (
                    act.kind,
                    act.subset,
                    act.cost,
                ), f"tie at subset {s:#x} not broken toward lowest index"

    def test_shard_boundaries_cannot_flip_ties(self):
        """Force shard cuts through the tie-heavy middle layer."""
        dup = Action.test({0, 1, 2}, 1.0)
        problem = TTProblem.build(
            [1.0] * 6,
            [dup, dup, dup, Action.treatment(set(range(6)), 1.0)],
        )
        ref = solve_dp_reference(problem)
        for min_shard in (1, 2, 3, 5, 7):
            par = solve_dp_parallel(problem, workers=3, min_shard=min_shard)
            assert np.array_equal(par.best_action, ref.best_action), min_shard


class TestDegenerate:
    def test_single_object_universe(self):
        problem = TTProblem.build([2.5], [Action.treatment({0}, 3.0)])
        ref, par = assert_backends_identical(problem)
        assert par.optimal_cost == pytest.approx(3.0 * 2.5)
        assert par.best_action[1] == 0

    def test_single_object_untreatable(self):
        problem = TTProblem.build([1.0], [Action.test({0}, 1.0)])
        # a full-universe test is rejected by Action semantics only for
        # adequacy, not construction; the DP must mark it infeasible
        ref, par = assert_backends_identical(problem)
        assert not par.feasible

    def test_k_zero_guard(self):
        """`TTProblem` refuses k=0, but a k=0 stub still solves: the one
        layer loop runs zero layers over the store's one-mask tables."""
        stub = types.SimpleNamespace(
            k=0,
            n_actions=1,
            weights=(),
            universe=0,
            subset_array=np.array([0], dtype=np.int64),
            cost_array=np.array([1.0]),
            test_mask_array=np.array([False]),
        )
        for solver in (solve_dp, solve_dp_parallel):
            result = solver(stub)
            assert result.cost.tolist() == [0.0]
            assert result.best_action.tolist() == [-1]
            assert result.op_count == 0

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("entry", sorted(BELOW_ONE_ENTRY_POINTS))
    def test_workers_validation(self, entry, value, capsys):
        # An explicit worker count or shard floor below 1 fails loudly on
        # every entry point, never clamped to 1 or silently unsharded.
        knob, call = BELOW_ONE_ENTRY_POINTS[entry]
        if entry == "cli-workers":
            assert call(value) == 2
            assert f"{knob} must be >= 1" in capsys.readouterr().err
        else:
            with pytest.raises(InvalidProblem, match=f"^{knob} must be >= 1"):
                call(value)


class TestSharding:
    def test_shard_bounds_cover_exactly(self):
        for lo, hi, workers, min_shard in (
            (0, 100, 4, 10),
            (5, 6, 8, 1),
            (0, 1000, 3, 1),
            (7, 7 + 4096, 8, 2048),
        ):
            shards = _shard_bounds(lo, hi, workers, min_shard)
            assert shards[0][0] == lo and shards[-1][1] == hi
            for (a, b), (c, d) in zip(shards, shards[1:]):
                assert b == c and a < b  # contiguous, non-empty
            assert len(shards) <= max(1, workers)

    def test_tiny_layers_stay_in_parent(self):
        # min_shard larger than any layer => single-shard path everywhere;
        # must still match the reference exactly
        problem = random_instance(5, 4, 3, seed=3)
        ref = solve_dp_reference(problem)
        par = solve_dp_parallel(problem, workers=4, min_shard=10_000)
        assert np.array_equal(par.cost, ref.cost)
        assert np.array_equal(par.best_action, ref.best_action)


class TestStartMethod:
    """`REPRO_START_METHOD` must swap the pool's start method without
    perturbing results: spawn re-imports worker modules instead of
    forking, so this is the differential test for state that fork
    silently inherits (globals, fault specs, shm names)."""

    @pytest.mark.slow
    def test_spawn_matches_reference_bit_for_bit(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        problem = random_instance(6, 6, 4, seed=11)
        ref = solve_dp_reference(problem)
        par = solve_dp_parallel(problem, workers=2, min_shard=1)
        assert np.array_equal(par.cost, ref.cost)
        assert np.array_equal(par.best_action, ref.best_action)
        assert par.op_count == ref.op_count

    def test_unknown_start_method_fails_loudly(self, monkeypatch):
        from repro.core.errors import InvalidProblem

        monkeypatch.setenv("REPRO_START_METHOD", "osactors")
        problem = random_instance(4, 3, 2, seed=5)
        with pytest.raises(InvalidProblem, match="REPRO_START_METHOD"):
            solve_dp_parallel(problem, workers=2, min_shard=1)


class TestTableHandover:
    """A cold pool solve hands its shared tables to the result."""

    def test_result_outlives_its_segments(self, shm_leak_guard):
        problem = random_instance(8, 4, 3, seed=71)
        ref = solve_dp_reference(problem)
        result = solve_dp_parallel(problem, workers=2, min_shard=1)
        assert "pool" in {row["mode"] for row in result.recovery["layers"]}
        # cost, best and p were created, and none is left in /dev/shm.
        assert len(shm_leak_guard.created) == 3
        assert shm_leak_guard.stranded() == []
        gc.collect()
        solve_dp_parallel(random_instance(8, 3, 2, seed=72), workers=2, min_shard=1)
        assert result.cost.tobytes() == ref.cost.tobytes()
        assert result.best_action.tobytes() == ref.best_action.tobytes()

    def test_cold_store_hands_over_instead_of_copying(self):
        # The arrays own their mappings: they stay valid after close()
        # unlinked every segment, so the store need not copy them.
        from repro.store import RamStore

        problem = random_instance(6, 3, 2, seed=73)
        store = RamStore(problem)
        store.open()
        names = store.worker_spec()["names"].values()
        try:
            assert store._tables.owned  # segments are files under /dev/shm
            cost, best = store.result_tables()
            assert cost is store.cost and best is store.best
            assert (cost.dtype, best.dtype) == (COST_DTYPE, BEST_DTYPE)
            cost[0], best[0] = 2.5, 9
        finally:
            store.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
        gc.collect()
        assert (cost[0], best[0]) == (2.5, 9)
