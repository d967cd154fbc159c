"""The fused layer kernel, the layer-plan cache and the scratch arena.

The heart of this file is the differential suite: the legacy
``solve_layer_kernel`` is the oracle, and the fused kernel must match it
bit-for-bit — cost, argmin and op count — across random instances,
degenerate instances (infeasible, tie-heavy, tiny k) and every tiling.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.errors import InvalidProblem
from repro.core.generators import random_instance
from repro.core.kernels import (
    BEST_DTYPE,
    LayerArena,
    LayerPlan,
    _clear_plan_cache,
    layer_plan,
    solve_layer_kernel_fused,
)
from repro.core.problem import Action, TTProblem
from repro.core.sequential import (
    solve_dp,
    solve_dp_reference,
    solve_layer_kernel,
    subset_weights,
)
from repro.obs import trace as obs_trace
from repro.util.bitops import popcount_array


def replay_legacy(problem, p):
    """Full DP replay with the legacy kernel: the differential oracle."""
    plan = layer_plan(problem.k)
    subsets = problem.subset_array
    costs = problem.cost_array
    is_test = problem.test_mask_array
    cost = np.full(1 << problem.k, np.inf)
    cost[0] = 0.0
    best = np.full(1 << problem.k, -1, dtype=BEST_DTYPE)
    for j in range(1, problem.k + 1):
        layer = plan.layer(j)
        layer_best, layer_arg = solve_layer_kernel(
            layer, p[layer], cost, subsets, costs, is_test
        )
        cost[layer] = layer_best
        best[layer] = layer_arg
    return cost, best


def assert_layers_match(problem, p, tiles=(None, 0, 3)):
    """Per-layer bit-for-bit comparison across the given tilings."""
    plan = layer_plan(problem.k)
    subsets = problem.subset_array
    costs = problem.cost_array
    is_test = problem.test_mask_array
    cost = np.full(1 << problem.k, np.inf)
    cost[0] = 0.0
    arena = LayerArena()
    for j in range(1, problem.k + 1):
        layer = plan.layer(j)
        legacy_best, legacy_arg = solve_layer_kernel(
            layer, p[layer], cost, subsets, costs, is_test
        )
        for tile in tiles:
            fused_best, fused_arg = solve_layer_kernel_fused(
                layer, p[layer], cost, subsets, costs, is_test,
                arena=arena, tile=tile,
            )
            np.testing.assert_array_equal(legacy_best, fused_best)
            np.testing.assert_array_equal(legacy_arg, fused_arg)
        cost[layer] = legacy_best


class TestLayerPlan:
    def test_partition_is_exact(self):
        plan = layer_plan(6)
        seen = np.sort(plan.order)
        np.testing.assert_array_equal(seen, np.arange(64))
        for j in range(7):
            layer = plan.layer(j)
            pops = popcount_array(layer, 6)
            assert (pops == j).all()
            # stable argsort keeps masks ascending inside a layer
            assert (np.diff(layer) > 0).all() or layer.size <= 1

    def test_starts_bracket_binomials(self):
        import math

        plan = layer_plan(7)
        for j in range(8):
            lo, hi = plan.bounds(j)
            assert hi - lo == math.comb(7, j)

    def test_max_layer_size(self):
        import math

        plan = layer_plan(9)
        assert plan.max_layer_size == math.comb(9, 4)

    def test_cache_shares_one_plan(self):
        _clear_plan_cache()
        assert layer_plan(5) is layer_plan(5)

    def test_plan_arrays_frozen(self):
        plan = layer_plan(4)
        with pytest.raises(ValueError):
            plan.order[0] = 3
        with pytest.raises(ValueError):
            plan.starts[0] = 3

    def test_cache_bounded(self):
        from repro.core import kernels

        _clear_plan_cache()
        for k in range(kernels._PLAN_CACHE_MAX + 3):
            layer_plan(k)
        assert len(kernels._PLAN_CACHE) <= kernels._PLAN_CACHE_MAX
        _clear_plan_cache()

    def test_k_zero(self):
        plan = layer_plan(0)
        np.testing.assert_array_equal(plan.layer(0), [0])
        assert plan.max_layer_size == 1

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidProblem):
            LayerPlan(-1)


class TestLayerArena:
    def test_buffers_grow_and_are_reused(self):
        arena = LayerArena()
        best1, arg1 = arena.out(10)
        best2, arg2 = arena.out(4)
        assert best2.base is best1.base or best2.base is arena.best
        assert arena.nbytes > 0
        before = arena.nbytes
        arena.out(8)  # within capacity: no growth
        assert arena.nbytes == before
        arena.out(32)
        assert arena.nbytes > before

    def test_out_dtypes(self):
        arena = LayerArena()
        best, arg = arena.out(5)
        assert best.dtype == np.float64
        assert arg.dtype == np.int32

    def test_scratch_rows(self):
        arena = LayerArena()
        rows = arena.scratch(6)
        assert len(rows) == 7
        assert all(r.shape == (6,) for r in rows)

    def test_nbytes_accounts_every_pool(self):
        arena = LayerArena()
        assert arena.nbytes == 0
        arena.out(4)
        arena.scratch(4)
        assert arena.nbytes == 4 * (8 + 4) + 4 * (4 + 4 + 4 + 8 + 8 + 1 + 4)


class TestFusedKernelDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_bit_for_bit(self, seed):
        # Two instances per seed: 50 random instances in total, varying
        # k and the test/treatment mix.
        for k, n_tests, n_treatments in (
            (2 + seed % 6, 2 + seed % 4, 1 + seed % 3),
            (3 + seed % 5, 1 + seed % 5, 2 + seed % 2),
        ):
            problem = random_instance(k, n_tests, n_treatments, seed=seed)
            p = subset_weights(problem)
            assert_layers_match(problem, p)
            cost, best = replay_legacy(problem, p)
            dp = solve_dp(problem)
            np.testing.assert_array_equal(dp.cost, cost)
            np.testing.assert_array_equal(dp.best_action, best)
            assert dp.op_count == ((1 << problem.k) - 1) * problem.n_actions

    def test_tie_heavy_lowest_index_wins(self):
        # Duplicated actions tie bitwise; the fused kernel must keep the
        # legacy lowest-index winner everywhere.
        k = 4
        actions = (
            Action.test(0b0101, 1.0),
            Action.test(0b0101, 1.0),       # exact duplicate of action 0
            Action.treatment(0b1111, 2.0),
            Action.treatment(0b1111, 2.0),  # exact duplicate of action 2
            Action.test(0b0011, 1.0),
        )
        problem = TTProblem(k=k, weights=(1.0, 1.0, 1.0, 1.0), actions=actions)
        p = subset_weights(problem)
        assert_layers_match(problem, p)
        _, best = replay_legacy(problem, p)
        feasible = best >= 0
        assert feasible.any()
        # duplicates (1 and 3) can never win over their lower-index twin
        assert not np.isin(best[feasible], (1, 3)).any()

    def test_integral_ties(self):
        # Small-integer weights and costs make every DP value exact, so
        # ties are exact ties — the hardest case for argmin parity.
        rng = np.random.default_rng(7)
        for trial in range(5):
            k = 3 + trial % 3
            actions = tuple(
                Action.test(int(rng.integers(1, 1 << k)), float(rng.integers(1, 4)))
                for _ in range(3)
            ) + tuple(
                Action.treatment(int(rng.integers(1, 1 << k)), float(rng.integers(1, 4)))
                for _ in range(3)
            )
            weights = tuple(float(rng.integers(1, 4)) for _ in range(k))
            problem = TTProblem(k=k, weights=weights, actions=actions)
            p = subset_weights(problem)
            assert_layers_match(problem, p)

    def test_infeasible_all_inf_layers(self):
        # Tests alone can never cure anything: every non-empty subset
        # stays at INF and the argmin stays -1, in both kernels.
        problem = TTProblem(
            k=3,
            weights=(1.0, 2.0, 3.0),
            actions=(Action.test(0b011, 1.0), Action.test(0b101, 1.0)),
        )
        p = subset_weights(problem)
        assert_layers_match(problem, p)
        cost, best = replay_legacy(problem, p)
        assert np.isinf(cost[1:]).all()
        assert (best[1:] == -1).all()
        dp = solve_dp(problem)
        assert not dp.feasible
        np.testing.assert_array_equal(dp.best_action, best)

    def test_k_one(self):
        problem = TTProblem(
            k=1, weights=(2.0,), actions=(Action.treatment(0b1, 1.5),)
        )
        p = subset_weights(problem)
        assert_layers_match(problem, p)
        dp = solve_dp(problem)
        assert dp.feasible
        assert dp.optimal_cost == pytest.approx(3.0)

    def test_empty_layer_and_no_actions(self):
        arena = LayerArena()
        cost = np.full(8, np.inf)
        cost[0] = 0.0
        empty = np.empty(0, dtype=np.int64)
        best, arg = solve_layer_kernel_fused(
            empty, np.empty(0), cost,
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool),
            arena=arena,
        )
        assert best.size == 0 and arg.size == 0
        # actions present but layer empty, and vice versa
        layer = np.array([1, 2], dtype=np.int64)
        best, arg = solve_layer_kernel_fused(
            layer, np.ones(2), cost,
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool),
            arena=arena,
        )
        assert np.isinf(best).all()
        assert (arg == -1).all()

    def test_short_table_rejected(self):
        problem = random_instance(3, 2, 2, seed=0)
        p = subset_weights(problem)
        layer = layer_plan(3).layer(1)
        short = np.full(4, np.inf)  # table for k=2, layer holds k=3 masks
        with pytest.raises(InvalidProblem):
            solve_layer_kernel_fused(
                layer, p[layer], short,
                problem.subset_array, problem.cost_array, problem.test_mask_array,
            )

    def test_results_are_arena_views(self):
        # The contract: returned arrays live in the arena and are
        # overwritten by the next call — callers must scatter first.
        problem = random_instance(3, 2, 2, seed=1)
        p = subset_weights(problem)
        plan = layer_plan(3)
        cost = np.full(8, np.inf)
        cost[0] = 0.0
        arena = LayerArena()
        args = (problem.subset_array, problem.cost_array, problem.test_mask_array)
        layer1 = plan.layer(1)
        best1, _ = solve_layer_kernel_fused(layer1, p[layer1], cost, *args, arena=arena)
        snapshot = best1.copy()
        cost[layer1] = best1
        layer2 = plan.layer(2)
        best2, _ = solve_layer_kernel_fused(layer2, p[layer2], cost, *args, arena=arena)
        assert best2.base is arena.best
        assert not np.array_equal(best1, snapshot)  # overwritten in place

    def test_shared_arena_across_instances(self):
        # One arena reused across different instances and k's must not
        # leak state between solves.
        arena = LayerArena()
        for seed in range(4):
            problem = random_instance(3 + seed, 3, 2, seed=seed)
            p = subset_weights(problem)
            cold = solve_dp(problem)
            warm = solve_dp(problem, arena=arena)
            np.testing.assert_array_equal(cold.cost, warm.cost)
            np.testing.assert_array_equal(cold.best_action, warm.best_action)


class TestSolveDpSlices:
    """``solve_dp`` runs every layer through ``solve_slice``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_chunked_like_every_slice(self, seed, monkeypatch):
        # Every k >= 4 problem has a layer wider than 3 masks, so each
        # solve splits layers into chunks and a short tail chunk.
        monkeypatch.setattr(kernels, "PARENT_CHUNK", 3)
        problem = random_instance(4 + seed % 3, 2 + seed % 3, 2, seed=seed)
        arena = LayerArena()
        got = solve_dp(problem, arena=arena)
        ref = solve_dp_reference(problem)
        assert got.cost.tobytes() == ref.cost.tobytes()
        assert got.best_action.tobytes() == ref.best_action.tobytes()
        assert arena.best.size <= 3 and arena.arg.size <= 3

    def test_layer_spans_report_parent_mode(self):
        # solve_dp runs the one layer loop with no workers: every layer
        # is one parent slice, traced like any other backend's.
        problem = random_instance(4, 2, 2, seed=0)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            solve_dp(problem)
        events = tracer.raw_events()
        layers = [e for e in events if e["name"] == "layer"]
        assert [e["args"]["layer"] for e in layers] == [1, 2, 3, 4]
        assert all(e["args"]["mode"] == "parent" for e in layers)
        assert [e["args"]["masks"] for e in layers] == [4, 6, 4, 1]
        slices = [e for e in events if e["name"] == "parent-slice"]
        assert [e["args"]["layer"] for e in slices] == [1, 2, 3, 4]
        assert not [e for e in events if "numpy" in (e["args"] or {}).values()]


class TestTileEnv:
    def test_env_tile_changes_nothing_numerically(self, monkeypatch):
        problem = random_instance(5, 4, 3, seed=3)
        p = subset_weights(problem)
        monkeypatch.setenv("REPRO_KERNEL_TILE", "5")
        assert_layers_match(problem, p, tiles=(None,))
