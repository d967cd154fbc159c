"""DP solver correctness: reference equivalence, brute-force oracle,
structural properties of the cost table, and tree extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bruteforce import best_tree_exhaustive, min_cost_exhaustive
from repro.core.generators import WORKLOADS, random_instance
from repro.core.problem import Action, TTProblem
from repro.core.sequential import (
    layer_sizes,
    optimal_cost,
    solve_dp,
    solve_dp_reference,
    subset_weights,
)
from tests.conftest import tt_problems


class TestSubsetWeights:
    def test_tiny(self, tiny_problem):
        p = subset_weights(tiny_problem)
        assert p[0] == 0.0
        assert p[0b111] == 6.0
        assert p[0b101] == 5.0

    @given(tt_problems(max_k=5))
    def test_monotone_and_additive(self, problem):
        p = subset_weights(problem)
        full = problem.universe
        # additivity: p(S) + p(U-S) = p(U)
        for s in range(0, full + 1, max(1, full // 7)):
            assert p[s] + p[full & ~s] == pytest.approx(p[full])

    @settings(max_examples=40)
    @given(tt_problems(max_k=5))
    def test_matches_weight_of_bitwise(self, problem):
        """The in-place butterfly accumulation must agree with the scalar
        `weight_of` *exactly* (same float addition order), not just
        approximately — the bit-for-bit backend contract depends on it."""
        p = subset_weights(problem)
        for s in range(problem.universe + 1):
            assert p[s] == problem.weight_of(s)

    def test_single_object(self):
        problem = TTProblem.build([2.5], [Action.treatment({0}, 1.0)])
        assert subset_weights(problem).tolist() == [0.0, 2.5]

    @pytest.mark.parametrize("fill", [0.0, np.nan, -7.25])
    def test_fills_out_in_place(self, tmp_path, fill):
        # The spill store's p.dat and the shared p are filled this way;
        # whatever the buffer held before must not reach the weights.
        problem = random_instance(7, 3, 2, seed=4)
        out = np.memmap(tmp_path / "p.dat", dtype=np.float64, mode="w+",
                        shape=(1 << problem.k,))
        out[:] = fill
        assert subset_weights(problem, out=out) is out
        assert out.tobytes() == subset_weights(problem).tobytes()

    def test_out_of_the_wrong_size_rejected(self):
        problem = random_instance(4, 3, 2, seed=4)
        with pytest.raises(ValueError, match="16 weights"):
            subset_weights(problem, out=np.empty(8))


class TestAgainstReference:
    @settings(max_examples=60)
    @given(tt_problems(max_k=5))
    def test_vectorized_equals_reference(self, problem):
        a = solve_dp(problem)
        b = solve_dp_reference(problem)
        assert np.allclose(a.cost, b.cost, equal_nan=False)
        assert (a.best_action == b.best_action).all()

    @settings(max_examples=60)
    @given(tt_problems(max_k=5))
    def test_vectorized_equals_reference_bit_for_bit(self, problem):
        """Strict equality, not allclose: both backends evaluate
        ((c*p) + C(inter)) + C(rest) in the same association, so even the
        last mantissa bit must agree (locked by the determinism
        contract; see the sequential module docstring)."""
        a = solve_dp(problem)
        b = solve_dp_reference(problem)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.best_action, b.best_action)

    def test_op_counts_agree(self, tiny_problem):
        a = solve_dp(tiny_problem)
        b = solve_dp_reference(tiny_problem)
        assert a.op_count == b.op_count == 7 * 3

    @settings(max_examples=30)
    @given(tt_problems(max_k=4))
    def test_op_count_counts_rejected_candidates_too(self, problem):
        """op_count is the paper's sequential work measure: every M[S,i]
        candidate, including sentinel-rejected ones = (2^k - 1) * N."""
        expected = ((1 << problem.k) - 1) * problem.n_actions
        assert solve_dp(problem).op_count == expected
        assert solve_dp_reference(problem).op_count == expected


class TestTieBreak:
    def test_duplicate_actions_pick_lowest_index(self):
        dup = Action.test({0, 1}, 1.0)
        cover = Action.treatment({0, 1, 2}, 2.0)
        problem = TTProblem.build([1.0, 1.0, 1.0], [dup, dup, cover, cover])
        for result in (solve_dp(problem), solve_dp_reference(problem)):
            # every chosen test is index 0, never its clone at index 1;
            # every chosen treatment is index 2, never index 3
            chosen = set(int(i) for i in result.best_action if i >= 0)
            assert 1 not in chosen
            assert 3 not in chosen

    @settings(max_examples=30)
    @given(tt_problems(max_k=4))
    def test_randomized_duplication_never_flips_argmin(self, problem):
        """Appending exact duplicates of every action must leave
        best_action untouched — lowest index wins all the new ties."""
        doubled = problem.with_actions(list(problem.actions) * 2)
        base = solve_dp(problem)
        dup = solve_dp(doubled)
        assert np.array_equal(dup.best_action, base.best_action)
        assert np.array_equal(dup.cost, base.cost)
        assert np.array_equal(
            solve_dp_reference(doubled).best_action, base.best_action
        )


class TestAgainstBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(tt_problems(max_k=3, max_actions=3))
    def test_dp_equals_unmemoized_recursion(self, problem):
        assert solve_dp(problem).optimal_cost == pytest.approx(
            min_cost_exhaustive(problem)
        )

    @settings(max_examples=10, deadline=None)
    @given(tt_problems(min_k=2, max_k=3, max_actions=2))
    def test_dp_equals_full_tree_enumeration(self, problem):
        """DP optimum == min over *all* explicitly enumerated procedures,
        evaluated with the paper's path-sum cost definition."""
        best = best_tree_exhaustive(problem, limit=500_000)
        assert solve_dp(problem).optimal_cost == pytest.approx(
            best.expected_cost_by_paths()
        )


class TestCostTableProperties:
    @settings(max_examples=40)
    @given(tt_problems(max_k=5))
    def test_empty_set_costs_zero(self, problem):
        assert solve_dp(problem).cost[0] == 0.0

    @settings(max_examples=40)
    @given(tt_problems(max_k=5))
    def test_monotone_under_inclusion(self, problem):
        """C(S') <= C(S) for S' ⊆ S: a procedure for S also handles S'
        at no greater charge (weights are positive)."""
        cost = solve_dp(problem).cost
        full = problem.universe
        for s in range(full + 1):
            # drop one element at a time
            m = s
            while m:
                low = m & -m
                assert cost[s & ~low] <= cost[s] + 1e-9
                m ^= low

    @settings(max_examples=40)
    @given(tt_problems(max_k=5))
    def test_adequate_implies_finite(self, problem):
        assert math.isfinite(solve_dp(problem).optimal_cost)

    def test_inadequate_subset_infinite(self):
        # Object 1 has no treatment: C of any set containing it is INF.
        p = TTProblem.build(
            [1.0, 1.0],
            [Action.test({0}, 1.0), Action.treatment({0}, 2.0)],
        )
        r = solve_dp(p)
        assert math.isinf(r.cost[0b10])
        assert math.isinf(r.cost[0b11])
        assert math.isfinite(r.cost[0b01])
        assert not r.feasible
        with pytest.raises(ValueError):
            r.tree()

    def test_scaling_weights_scales_cost(self):
        p1 = random_instance(4, 3, 3, seed=7)
        scaled = TTProblem.build([w * 3 for w in p1.weights], p1.actions)
        assert solve_dp(scaled).optimal_cost == pytest.approx(
            3 * solve_dp(p1).optimal_cost
        )

    def test_scaling_costs_scales_cost(self):
        p1 = random_instance(4, 3, 3, seed=8)
        scaled = p1.with_actions(
            [
                Action(a.kind, a.subset, a.cost * 2.5, a.name)
                for a in p1.actions
            ]
        )
        assert solve_dp(scaled).optimal_cost == pytest.approx(
            2.5 * solve_dp(p1).optimal_cost
        )

    def test_adding_action_never_hurts(self):
        p1 = random_instance(4, 2, 3, seed=9)
        richer = p1.with_actions(list(p1.actions) + [Action.test({0, 2}, 0.5)])
        assert solve_dp(richer).optimal_cost <= solve_dp(p1).optimal_cost + 1e-9


class TestTreeExtraction:
    @settings(max_examples=40)
    @given(tt_problems(max_k=5))
    def test_tree_cost_matches_table(self, problem):
        r = solve_dp(problem)
        tree = r.tree()
        tree.validate()
        assert tree.expected_cost() == pytest.approx(r.optimal_cost)

    def test_known_example(self, tiny_problem):
        r = solve_dp(tiny_problem)
        assert r.optimal_cost == pytest.approx(37.0)
        tree = r.tree()
        assert tree.actions_used() == {0, 1, 2}

    def test_workload_instances(self):
        for name, make in WORKLOADS.items():
            problem = make(6, seed=3)
            r = solve_dp(problem)
            assert r.feasible, name
            tree = r.tree()
            tree.validate()
            assert tree.expected_cost() == pytest.approx(r.optimal_cost)


class TestSmallUniverses:
    def test_single_object_treated(self):
        problem = TTProblem.build([3.0], [Action.treatment({0}, 2.0)])
        r = solve_dp(problem)
        assert r.optimal_cost == pytest.approx(6.0)
        assert r.best_action.tolist() == [-1, 0]
        tree = r.tree()
        tree.validate()
        assert tree.expected_cost() == pytest.approx(6.0)

    def test_single_object_choice_of_treatments(self):
        problem = TTProblem.build(
            [2.0],
            [Action.treatment({0}, 5.0), Action.treatment({0}, 1.0)],
        )
        r = solve_dp(problem)
        assert r.optimal_cost == pytest.approx(2.0)
        assert r.best_action[1] == 1  # strictly cheaper, not a tie

    def test_single_object_matches_reference(self):
        problem = TTProblem.build(
            [1.5], [Action.test({0}, 0.5), Action.treatment({0}, 2.0)]
        )
        a, b = solve_dp(problem), solve_dp_reference(problem)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.best_action, b.best_action)


class TestHelpers:
    def test_layer_sizes(self):
        assert layer_sizes(4) == [1, 4, 6, 4, 1]
        assert sum(layer_sizes(6)) == 64

    def test_optimal_cost_convenience(self, tiny_problem):
        assert optimal_cost(tiny_problem) == pytest.approx(37.0)
