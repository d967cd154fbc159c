"""The bit-level BVM TT program against the sequential DP (exact match on
integral instances, where the fixed-point encoding is lossless)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.bvm.primitives import processor_id
from repro.core.problem import Action, TTProblem
from repro.core.sequential import solve_dp
from repro.obs import trace as obs_trace
from repro.ttpar import bvm_tt
from repro.ttpar.bvm_tt import _tt_loop, build_bvm_tt, solve_tt_bvm
from repro.ttpar.layout import TTLayout
from tests.conftest import tt_problems


def _integral(k, seed, n_tests=2, n_treats=2):
    rng = np.random.default_rng(seed)
    full = (1 << k) - 1
    weights = rng.integers(1, 6, k).astype(float)
    acts = []
    for _ in range(n_tests):
        acts.append(Action.test(int(rng.integers(1, full)), float(rng.integers(0, 6))))
    cov = 0
    for _ in range(n_treats):
        s = int(rng.integers(1, full + 1))
        acts.append(Action.treatment(s, float(rng.integers(1, 6))))
        cov |= s
    if cov != full:
        acts.append(Action.treatment(full & ~cov, 3.0))
    return TTProblem.build(weights, acts)


class TestExactEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_k3_matches_dp(self, seed):
        problem = _integral(3, seed)
        bvm = solve_tt_bvm(problem, width=16)
        dp = solve_dp(problem)
        assert np.allclose(bvm.cost, dp.cost)
        assert (bvm.best_action == dp.best_action).all()

    def test_k2_small_machine(self):
        problem = _integral(2, 11, n_tests=1, n_treats=1)
        bvm = solve_tt_bvm(problem, width=12)
        dp = solve_dp(problem)
        assert np.allclose(bvm.cost, dp.cost)

    @pytest.mark.slow
    def test_k4_on_ccc3(self):
        """2048-PE CCC(3) run — the full 11-dimension machine."""
        problem = _integral(4, 99, n_tests=3, n_treats=3)
        bvm = solve_tt_bvm(problem, width=16)
        dp = solve_dp(problem)
        assert np.allclose(bvm.cost, dp.cost)
        assert (bvm.best_action == dp.best_action).all()

    @settings(max_examples=8, deadline=None)
    @given(tt_problems(min_k=2, max_k=3, max_actions=3, integral=True))
    def test_property_integral_instances(self, problem):
        bvm = solve_tt_bvm(problem, width=20)
        dp = solve_dp(problem)
        assert np.allclose(bvm.cost, dp.cost)

    def test_tiny_worked_example(self, tiny_problem):
        bvm = solve_tt_bvm(tiny_problem, width=16)
        assert bvm.optimal_cost == pytest.approx(37.0)
        tree = bvm.tree()
        tree.validate()
        assert tree.expected_cost() == pytest.approx(37.0)


class TestMachineAccounting:
    def test_cycles_positive_and_reported(self, tiny_problem):
        res = solve_tt_bvm(tiny_problem, width=16)
        assert res.cycles > 1000  # real bit-level work happened
        assert res.r >= 1
        assert res.width == 16

    def test_cycle_count_deterministic(self, tiny_problem):
        a = solve_tt_bvm(tiny_problem, width=16)
        b = solve_tt_bvm(tiny_problem, width=16)
        assert a.cycles == b.cycles

    def test_wider_words_cost_more_cycles(self, tiny_problem):
        narrow = solve_tt_bvm(tiny_problem, width=12)
        wide = solve_tt_bvm(tiny_problem, width=24)
        assert wide.cycles > narrow.cycles

    def test_build_without_run(self, tiny_problem):
        plan = build_bvm_tt(tiny_problem, width=16)
        assert len(plan.prog) > 0
        assert plan.prog.pool.high_water <= 256


class TestEdgeCases:
    def test_inadequate_rejected(self):
        p = TTProblem.build([1.0, 1.0], [Action.treatment({0}, 1.0)])
        with pytest.raises(ValueError):
            solve_tt_bvm(p)

    def test_explicit_r_too_small(self, tiny_problem):
        with pytest.raises(ValueError):
            solve_tt_bvm(tiny_problem, r=1)  # needs 5 dims, CCC(1) has 3

    def test_infeasible_subsets_decode_to_inf(self):
        # Object 1 treatable only via a treatment covering {0,1}; all fine,
        # but test a spec where some *subset* is infeasible: no, adequacy
        # implies all subsets feasible.  Instead check empty-set cost.
        p = _integral(2, 5)
        res = solve_tt_bvm(p)
        assert res.cost[0] == 0.0
        assert res.best_action[0] == -1

    def test_single_treatment_problem(self):
        p = TTProblem.build([2.0, 3.0], [Action.treatment({0, 1}, 4.0)])
        res = solve_tt_bvm(p, width=16)
        dp = solve_dp(p)
        assert np.allclose(res.cost, dp.cost)
        # C(U) = 4 * 5 = 20
        assert res.optimal_cost == pytest.approx(20.0)


class TestPackedBackend:
    """The word-packed backend must be indistinguishable at solve level:
    same tables, same argmin, same cycle count (§ packed execution)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_backends_bit_identical_k3(self, seed):
        problem = _integral(3, seed)
        ref = solve_tt_bvm(problem, width=16, backend="bool")
        fast = solve_tt_bvm(problem, width=16, backend="packed")
        assert ref.backend == "bool" and fast.backend == "packed"
        assert (ref.cost == fast.cost).all()  # bit-identical, not approx
        assert (ref.best_action == fast.best_action).all()
        assert ref.cycles == fast.cycles

    def test_env_var_selects_packed(self, tiny_problem, monkeypatch):
        monkeypatch.setenv("REPRO_BVM_BACKEND", "packed")
        res = solve_tt_bvm(tiny_problem, width=16)
        assert res.backend == "packed"
        assert res.optimal_cost == pytest.approx(37.0)

    def test_packed_matches_dp(self):
        problem = _integral(3, 42)
        fast = solve_tt_bvm(problem, width=16, backend="packed")
        dp = solve_dp(problem)
        assert np.allclose(fast.cost, dp.cost)
        assert (fast.best_action == dp.best_action).all()


# ----------------------------------------------------------------------
# The §6 loop cache: a spliced loop is the loop an instance would emit
# ----------------------------------------------------------------------

LOOP_SHAPES = [(k, p) for k in (2, 3, 4) for p in (2, 3, 4, 5)]
LOOP_PHASES = ("copy-buffers", "e-loop", "finalize", "min-ascend")


def _shape_pair(k, p):
    """Two distinct integral instances with exactly ``p`` action bits."""
    n = 1 << p
    pair = [_integral(k, seed, n_tests=n // 2, n_treats=n - n // 2 - 1) for seed in (0, 1)]
    assert all(TTLayout.for_problem(q).p == p for q in pair)
    return pair


def _cold_then_warm(pair, run):
    """``run`` each instance with the loop cache cleared, then again warm.

    The warm pass runs the first instance on the loop the *second*
    instance's cold run emitted, so the cache must be instance-free.
    """
    cold = []
    for problem in pair:
        _tt_loop.cache_clear()
        cold.append(run(problem))
    hits = _tt_loop.cache_info().hits
    warm = [run(problem) for problem in pair]
    assert _tt_loop.cache_info().hits == hits + len(pair)
    return zip(cold, warm)


class TestLoopCache:
    @pytest.mark.parametrize("width", [8, 16, 24])
    @pytest.mark.parametrize("k,p", LOOP_SHAPES)
    def test_warm_build_equals_cold(self, k, p, width):
        run = lambda problem: build_bvm_tt(problem, width=width).prog
        for cold, warm in _cold_then_warm(_shape_pair(k, p), run):
            assert [str(i) for i in warm.instructions] == [str(i) for i in cold.instructions]
            assert warm.phase_breakdown() == cold.phase_breakdown()
            assert warm.pool.high_water == cold.pool.high_water
            assert len(warm) == len(cold)

    @pytest.mark.parametrize(
        "backend", ["packed", pytest.param("bool", marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("width", [8, 16, 24])
    @pytest.mark.parametrize("k,p", LOOP_SHAPES)
    def test_warm_solve_equals_cold(self, k, p, width, backend):
        run = lambda problem: solve_tt_bvm(problem, width=width, backend=backend)
        for cold, warm in _cold_then_warm(_shape_pair(k, p), run):
            assert np.array_equal(warm.cost, cold.cost)
            assert np.array_equal(warm.best_action, cold.best_action)
            assert warm.cycles == cold.cycles

    def test_perturbed_allocator_state_misses(self, monkeypatch):
        problem = _integral(3, 0)
        _tt_loop.cache_clear()
        build_bvm_tt(problem)

        def perturbed(prog, pid):
            spare = prog.pool.alloc(2)
            processor_id(prog, pid)
            prog.pool.free(*spare)  # swaps their pop order, raises high water

        monkeypatch.setattr(bvm_tt, "processor_id", perturbed)
        build_bvm_tt(problem)
        info = _tt_loop.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        res = solve_tt_bvm(problem, backend="packed")
        assert np.array_equal(res.cost, solve_dp(problem).cost)

    def test_equal_instructions_share_one_step(self):
        # Within each compile — the instance prologue, the cached loop —
        # equal instructions are lowered once.
        _tt_loop.cache_clear()
        prog = build_bvm_tt(_integral(4, 99, n_tests=3, n_treats=3)).prog
        n = sum(prog.phase_breakdown()[ph] for ph in LOOP_PHASES)
        steps = prog.compiled().steps
        for part in (slice(0, len(prog) - n), slice(len(prog) - n, len(prog))):
            by_instr = {}
            for instr, step in zip(prog.instructions[part], steps[part]):
                assert by_instr.setdefault(instr, step) is step
            assert len({id(s) for s in steps[part]}) == len(by_instr)

    def test_cached_loop_is_interned(self):
        _tt_loop.cache_clear()
        a, b = (
            build_bvm_tt(_integral(4, seed, n_tests=3, n_treats=3)).prog
            for seed in (99, 98)
        )
        n = sum(a.phase_breakdown()[ph] for ph in LOOP_PHASES)
        loop_a, loop_b = a.instructions[-n:], b.instructions[-n:]
        assert all(x is y for x, y in zip(loop_a, loop_b))  # one cached loop
        assert len({id(i) for i in loop_a}) * 10 < n

    def test_one_compile_span_per_compile(self):
        problem = _integral(3, 4)
        _tt_loop.cache_clear()
        counts = []
        for _ in range(2):  # cold: the loop and the prologue; warm: the prologue
            tracer = obs_trace.Tracer()
            with obs_trace.tracing(tracer):
                solve_tt_bvm(problem, backend="packed")
            counts.append(
                sum(e["name"] == "bvm.compile" for e in tracer.raw_events())
            )
        assert counts == [2, 1]
