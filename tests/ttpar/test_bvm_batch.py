"""``solve_tt_bvm_batch``: lockstep instance batching vs the per-instance
packed path, the boolean oracle and the DP reference.

The batch is ragged on purpose — mixed ``k`` (so instances land in
different shape groups), infeasible lanes, inf-cost treatments — and the
per-lane tables must still be bit-for-bit what a ``B = 1`` replay and
the sequential DP produce.
"""

import hashlib

import numpy as np
import pytest

from repro.config import BVM_BACKENDS
from repro.core.errors import InvalidProblem
from repro.core.problem import Action, TTProblem
from repro.core.sequential import solve_dp_reference
from repro.obs import trace as obs_trace
from repro.ttpar.bvm_tt import (
    _batch_plan,
    build_bvm_tt_batch,
    solve_tt_bvm,
    solve_tt_bvm_batch,
)


def _integral(k, seed, n_tests=2, n_treats=2, inf_treat=False):
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
    if inf_treat:
        acts.append(Action.treatment(full, float("inf")))
    return TTProblem.build(weights, acts)


def _same_shape(k, count, n_actions=4):
    # Instances share a compiled program only when they share the machine
    # shape (r, k, padded action dim); fixing the action count pins it.
    out, seed = [], 0
    while len(out) < count:
        problem = _integral(k, seed)
        if problem.n_actions == n_actions:
            out.append(problem)
        seed += 1
    return out


def _infeasible_lane(k=2):
    # Adequate spec (treatments cover the universe) whose only covering
    # treatment is infinitely expensive: C(U) decodes to inf.
    return TTProblem(
        k=k,
        weights=tuple(1.0 for _ in range(k)),
        actions=(
            Action.test((1 << k) - 2, 1.0),
            Action.treatment((1 << k) - 1, float("inf")),
        ),
        name="infeasible",
    )


def _assert_lane_exact(batch_result, problem):
    single = solve_tt_bvm(problem, backend="packed")
    ref = solve_dp_reference(problem)
    assert np.array_equal(batch_result.cost, single.cost)
    assert np.array_equal(batch_result.best_action, single.best_action)
    assert np.allclose(batch_result.cost, ref.cost)
    assert (batch_result.best_action == ref.best_action).all()


class TestRaggedBatches:
    @pytest.mark.parametrize("lanes", [1, 7])
    def test_mixed_shapes_match_single_and_reference(self, lanes):
        pool = [
            _integral(2, 0),
            _integral(3, 1),
            _integral(2, 2, inf_treat=True),
            _integral(3, 3),
            _infeasible_lane(2),
            _integral(2, 4),
            _integral(3, 5, n_tests=1, n_treats=3),
        ]
        problems = pool[:lanes]
        results = solve_tt_bvm_batch(problems)
        assert len(results) == len(problems)
        for problem, res in zip(problems, results):
            assert res.backend == "packed-batch"
            _assert_lane_exact(res, problem)

    @pytest.mark.slow
    def test_b64_lockstep(self):
        problems = [_integral(2, seed) for seed in range(64)]
        results = solve_tt_bvm_batch(problems)
        singles = [solve_tt_bvm(p, backend="packed") for p in problems]
        for res, single in zip(results, singles):
            assert np.array_equal(res.cost, single.cost)
            assert np.array_equal(res.best_action, single.best_action)

    def test_infeasible_lane_reports_inf(self):
        (res,) = solve_tt_bvm_batch([_infeasible_lane(2)])
        assert not res.feasible
        assert res.best_action[res.problem.universe] == -1

    def test_cycles_uniform_within_shape_group(self):
        problems = _same_shape(3, 4)
        results = solve_tt_bvm_batch(problems)
        assert len({r.cycles for r in results}) == 1

    def test_results_in_input_order_across_groups(self):
        problems = [_integral(3, 0), _integral(2, 1), _integral(3, 2)]
        results = solve_tt_bvm_batch(problems)
        for problem, res in zip(problems, results):
            assert res.problem is problem


class TestBoolOracle:
    def test_bool_backend_matches_packed_batch(self):
        problems = [_integral(2, 0), _integral(2, 9)]
        packed = solve_tt_bvm_batch(problems, backend="packed")
        plain = solve_tt_bvm_batch(problems, backend="bool")
        for a, b in zip(packed, plain):
            assert np.array_equal(a.cost, b.cost)
            assert np.array_equal(a.best_action, b.best_action)
            assert a.cycles == b.cycles
        assert all(r.backend == "bool" for r in plain)

    def test_unknown_backend_raises(self):
        with pytest.raises(InvalidProblem, match="batch backend"):
            solve_tt_bvm_batch([_integral(2, 0)], backend="simd512")
        assert set(BVM_BACKENDS) == {"packed", "bool"}

    def test_empty_batch(self):
        assert solve_tt_bvm_batch([]) == []


class TestBatchPlanReuse:
    def test_shared_shape_shares_program(self):
        a = build_bvm_tt_batch(2, 2, 2)
        b = build_bvm_tt_batch(2, 2, 2)
        assert a is b  # lru_cache: one compile per shape

    def test_r_too_small_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            solve_tt_bvm_batch([_integral(3, 0)], r=1)

    @pytest.mark.parametrize("shape, digest", [
        ((3, 4, 3), "59f33df5941147c4ed7334e22ade381e260da0950645a013a680c9a046877320"),
        ((3, 3, 5), "57b941df0813c710b83afeef43effa23510832435570e987d8c5d30fd775a7e8"),
    ])
    def test_instruction_stream_is_pinned(self, shape, digest):
        # The program splices the cached §6 loop that single-instance
        # programs splice; the stream is the one it emitted inline.
        text = "\n".join(map(str, build_bvm_tt_batch(*shape).prog.instructions))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_cached_program_is_interned(self):
        # 12,987 instructions, ~870 distinct by value: the spliced loop
        # holds each once, and only the prologue is emitted per shape.
        instructions = build_bvm_tt_batch(3, 4, 3).prog.instructions
        assert len(instructions) == 12_987
        assert len({id(i) for i in instructions}) <= 1_100


class TestTelemetry:
    def test_spans_carry_batch_attr_never_per_lane(self):
        problems = _same_shape(2, 5)
        _batch_plan.cache_clear()
        spans = []
        for _ in range(2):  # cold shape, then warm
            tracer = obs_trace.Tracer()
            with obs_trace.tracing(tracer):
                solve_tt_bvm_batch(problems)
            spans.append(tracer.raw_events())
        for events, n_compiles in zip(spans, (1, 0)):
            replays = [e for e in events if e["name"] == "bvm.replay"]
            compiles = [e for e in events if e["name"] == "bvm.compile"]
            # One shape group -> one replay span for all 5 lanes.
            assert len(replays) == 1
            assert replays[0]["args"]["batch"] == 5
            # One span per compile that happens; a cache hit records none.
            assert len(compiles) == n_compiles

    def test_tracing_off_is_bit_identical(self):
        problems = [_integral(2, s) for s in range(3)]
        plain = solve_tt_bvm_batch(problems)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            traced = solve_tt_bvm_batch(problems)
        for a, b in zip(plain, traced):
            assert np.array_equal(a.cost, b.cost)
            assert np.array_equal(a.best_action, b.best_action)
            assert a.cycles == b.cycles
