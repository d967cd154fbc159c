"""The parallel TT algorithm: equivalence with the sequential DP on both
the ideal hypercube and the CCC, step-count model, and the Fig 8/9 trace."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core.generators import WORKLOADS, random_instance
from repro.core.problem import Action, ActionKind, TTProblem
from repro.core.sequential import solve_dp
from repro.ttpar.analysis import model_route_steps
from repro.ttpar.dataflow import (
    build_tt_program,
    solve_tt_ccc,
    solve_tt_hypercube,
    trace_r_propagation,
)
from repro.ttpar.layout import pad_actions
from tests.conftest import tt_problems


# A near-tie at the universe: the cover treatment and the test differ in
# the last bit, so only the DP's float association picks the treatment.
NEAR_TIE = TTProblem(
    k=5,
    weights=(1.0, 1.0, 1.0, 1.0, 4.647777986871101),
    actions=(
        Action(kind=ActionKind.TEST, subset=1, cost=2.220446049250313e-16),
        Action(kind=ActionKind.TREATMENT, subset=1, cost=1.0),
        Action(kind=ActionKind.TREATMENT, subset=31, cost=1.0),
    ),
)


class TestHypercubeEqualsDP:
    @settings(max_examples=40, deadline=None)
    @given(tt_problems(max_k=5))
    def test_cost_tables_match(self, problem):
        dp = solve_dp(problem)
        par = solve_tt_hypercube(problem)
        assert np.allclose(dp.cost, par.cost)

    @settings(max_examples=40, deadline=None)
    @given(tt_problems(max_k=5))
    @example(NEAR_TIE)
    def test_argmin_policies_match(self, problem):
        """The ARG register carried through the min-flood must reproduce
        the DP's smallest-index argmin exactly."""
        dp = solve_dp(problem)
        par = solve_tt_hypercube(problem)
        assert (dp.best_action == par.best_action).all()

    @settings(max_examples=25, deadline=None)
    @given(tt_problems(max_k=5))
    def test_extracted_tree_is_optimal(self, problem):
        par = solve_tt_hypercube(problem)
        tree = par.tree()
        tree.validate()
        assert tree.expected_cost() == pytest.approx(par.optimal_cost)

    def test_all_workloads(self):
        for name, make in WORKLOADS.items():
            problem = make(5, seed=2)
            dp = solve_dp(problem)
            par = solve_tt_hypercube(problem)
            assert np.allclose(dp.cost, par.cost), name

    def test_inadequate_rejected(self):
        p = TTProblem.build([1.0, 1.0], [Action.treatment({0}, 1.0)])
        with pytest.raises(ValueError):
            solve_tt_hypercube(p)


class TestCCCEqualsDP:
    @pytest.mark.parametrize("schedule", ["pipelined", "naive"])
    def test_small_instances(self, schedule):
        for seed in range(3):
            problem = random_instance(3, 2, 2, seed=seed)
            dp = solve_dp(problem)
            par = solve_tt_ccc(problem, schedule=schedule)
            assert np.allclose(dp.cost, par.cost), seed
            assert (dp.best_action == par.best_action).all()

    def test_replicated_ccc_matches(self):
        """A problem smaller than the CCC replicates cleanly."""
        problem = random_instance(2, 1, 1, seed=0)  # few dims
        dp = solve_dp(problem)
        par = solve_tt_ccc(problem, r=2)  # 6-dim CCC, oversized
        assert np.allclose(dp.cost, par.cost)

    def test_explicit_r_too_small_rejected(self):
        problem = random_instance(5, 6, 4, seed=0)  # needs >3+2^... dims
        with pytest.raises(ValueError):
            solve_tt_ccc(problem, r=1)

    def test_slowdown_is_small_constant(self):
        problem = random_instance(4, 3, 3, seed=3)
        par = solve_tt_ccc(problem, schedule="pipelined")
        assert 1.0 < par.ccc_stats.slowdown < 8.0

    def test_medical_on_ccc(self):
        problem = WORKLOADS["medical"](4, seed=1)
        dp = solve_dp(problem)
        par = solve_tt_ccc(problem)
        assert np.allclose(dp.cost, par.cost)
        tree = par.tree()
        tree.validate()


class TestStepModel:
    @settings(max_examples=25, deadline=None)
    @given(tt_problems(max_k=5))
    def test_route_steps_match_model_exactly(self, problem):
        """Measured DimOps == k * (k + log N'): the O(k(k + log N))
        word-step claim with explicit constants."""
        par = solve_tt_hypercube(problem)
        padded_n = pad_actions(problem).n_actions
        assert par.stats.route_steps == model_route_steps(problem.k, padded_n)

    def test_program_length(self):
        problem = random_instance(3, 2, 1, seed=0)
        layout, program = build_tt_program(problem)
        from repro.hypercube.machine import DimOp

        dim_ops = [op for op in program if isinstance(op, DimOp)]
        assert len(dim_ops) == layout.k * (layout.k + layout.p)

    def test_eloop_dims_are_ascending_within_layer(self):
        problem = random_instance(3, 2, 1, seed=0)
        layout, program = build_tt_program(problem)
        from repro.hypercube.machine import DimOp

        dims = [op.dim for op in program if isinstance(op, DimOp)]
        k, p = layout.k, layout.p
        per_layer = k + p
        for j in range(k):
            chunk = dims[j * per_layer : (j + 1) * per_layer]
            assert chunk == list(range(p, p + k)) + list(range(p))


class TestFig89Trace:
    def test_final_sources_are_s_minus_t(self):
        """After the full e-loop, R[S] holds M[S - T] (Fig 8's table)."""
        k, t = 3, 0b011
        trace = trace_r_propagation(k, t)
        final = trace.source[-1]
        for s in range(1 << k):
            assert final[s] == s & ~t

    def test_intermediate_invariant(self):
        """Just before e = t, R[(S-T) ∪ (S ∩ T ∩ I_{t-1})] holds M[S-T]
        — the induction proved in §6.  Equivalently: after iteration e,
        source(S) = S with its T-elements <= e removed."""
        k, t = 4, 0b0110
        trace = trace_r_propagation(k, t)
        for e in range(k):
            removed = t & ((1 << (e + 1)) - 1)  # T-elements 0..e
            for s in range(1 << k):
                assert trace.source[e][s] == s & ~removed

    @settings(max_examples=30)
    @given(tt_problems(min_k=2, max_k=5, max_actions=1))
    def test_property_any_mask(self, problem):
        k = problem.k
        t = problem.actions[0].subset
        final = trace_r_propagation(k, t).source[-1]
        for s in range(1 << k):
            assert final[s] == s & ~t
