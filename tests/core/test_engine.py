"""The warm :class:`~repro.core.engine.SolverEngine`.

Amortization must never cost correctness: every warm result here is
checked bit-for-bit against the cold paths (``solve_dp`` and the
one-shot ``solve``), including the second and later solves on a warm
pool — the case a leaked table or a stale arena would break.
"""

import os

import numpy as np
import pytest

from repro.core import SolverEngine, parallel, solve
from repro.core.errors import InvalidProblem, SolverError
from repro.core.generators import random_instance
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp, solve_dp_reference
from repro.core.supervisor import ResiliencePolicy
from repro.obs import Tracer, tracing
from repro.obs.export import normalized_events


def assert_same(cold, warm):
    np.testing.assert_array_equal(cold.cost, warm.cost)
    np.testing.assert_array_equal(cold.best_action, warm.best_action)
    assert cold.op_count == warm.op_count


def assert_reference_bytes(result):
    ref = solve_dp_reference(result.problem)
    assert result.cost.tobytes() == ref.cost.tobytes()
    assert result.best_action.tobytes() == ref.best_action.tobytes()


def child_pids(engine) -> list:
    return [c.proc.pid for c in engine._supervisor._children if c is not None]


def segments_held(pid) -> list:
    """The shared-memory segments process ``pid`` maps or holds open."""
    with open(f"/proc/{pid}/maps") as maps:
        held = [line.split()[-1] for line in maps if "/psm_" in line]
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if "/psm_" in target:
            held.append(target)
    return held


class TestSequentialEngine:
    def test_warm_reuse_bit_identical(self):
        problems = [random_instance(4 + i % 3, 3, 2, seed=i) for i in range(5)]
        with SolverEngine(workers=1) as engine:
            for problem in problems:
                assert_same(solve_dp(problem), engine.solve(problem))
        assert engine.solves == len(problems)

    def test_second_solve_of_same_problem(self):
        problem = random_instance(5, 4, 3, seed=9)
        cold = solve_dp(problem)
        with SolverEngine(workers=1) as engine:
            first = engine.solve(problem)
            second = engine.solve(problem)
        assert_same(cold, first)
        assert_same(cold, second)

    def test_solve_many_matches_individual(self):
        problems = [random_instance(4, 3, 2, seed=i) for i in range(4)]
        with SolverEngine(workers=1) as engine:
            batch = engine.solve_many(problems)
        for problem, warm in zip(problems, batch):
            assert_same(solve_dp(problem), warm)

    def test_solve_many_empty(self):
        with SolverEngine(workers=1) as engine:
            assert engine.solve_many([]) == []


class TestParallelEngine:
    def test_warm_pool_bit_identical(self):
        problems = [random_instance(8, 4, 3, seed=i) for i in range(3)]
        with SolverEngine(workers=2, backend="parallel") as engine:
            for problem in problems:
                assert_same(solve_dp(problem), engine.solve(problem))
            # repeat on the warm pool: tables must be fully reset
            assert_same(solve_dp(problems[0]), engine.solve(problems[0]))

    def test_workers_outlive_k_changes(self):
        # Each solve opens its own store; the one child maps the tables
        # each task names, whatever the k, and is never restarted.
        pids = []
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            for k in (7, 8, 7):
                assert_reference_bytes(engine.solve(random_instance(k, 3, 2, seed=k)))
                pids.append(child_pids(engine))
            assert engine.stats == {"pool_reuses": 2, "table_rebuilds": 1}
        assert len(pids[0]) == 1 and pids == [pids[0]] * 3

    def test_children_hold_no_tables_between_solves(self):
        # A pool solve's child unmaps its segments before the solve
        # returns, and holds none of the descriptors it inherited when it
        # was forked mid-solve: no set stays pinned in /dev/shm by a
        # child alone.
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            for k in (7, 8, 8):
                engine.solve(random_instance(k, 3, 2, seed=k))
                (pid,) = child_pids(engine)
                assert segments_held(pid) == []

    def test_pool_solves_of_one_k_reuse_one_table_set(self, shm_leak_guard):
        # A pool solve leaves its tables for the next one of its k; a
        # change of k unlinks them before creating its own size, and
        # close() unlinks the last set.
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            for i, k in enumerate((7, 7, 8, 8, 7)):
                assert_reference_bytes(engine.solve(random_instance(k, 3, 2, seed=i)))
                assert len(shm_leak_guard.stranded()) == 3  # cost, best and p
            assert len(shm_leak_guard.created) == 3 * 3  # k = 7, 8 and 7 again
        assert shm_leak_guard.stranded() == []

    def test_degraded_pool_is_revived_by_the_next_solve(self, monkeypatch):
        # The first worker start is refused, so the first solve degrades
        # and finishes in the parent; the next one starts its worker.
        real, starts = parallel._start_worker, []

        def refuse_first():
            starts.append(1)
            if len(starts) == 1:
                raise OSError("fork refused")
            return real()

        monkeypatch.setattr(parallel, "_start_worker", refuse_first)
        problems = [random_instance(6, 4, 3, seed=60 + i) for i in range(2)]
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            first, second = (engine.solve(problem) for problem in problems)
        assert first.recovery["degraded"] is True
        assert not any(e["kind"] == "revive" for e in first.recovery["events"])
        assert any(e["kind"] == "revive" for e in second.recovery["events"])
        modes = [row["mode"] for row in second.recovery["layers"]]
        assert modes == ["pool"] * (problems[1].k - 1) + ["parent"]
        assert len(starts) == 2
        for result in (first, second):
            assert_reference_bytes(result)

    def test_solve_many_pipelines(self):
        problems = [random_instance(8, 4, 3, seed=10 + i) for i in range(3)]
        with SolverEngine(workers=2, backend="parallel") as engine:
            batch = engine.solve_many(problems)
        for problem, warm in zip(problems, batch):
            assert_same(solve_dp(problem), warm)

    def test_pool_results_do_not_alias_the_store(self):
        # Each result keeps its own tables through the solves after it,
        # in memory it owns rather than a /dev/shm mapping: a stream that
        # keeps its results must not fill tmpfs.
        problems = [random_instance(8, 4, 3, seed=80 + i) for i in range(3)]
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            first = engine.solve(problems[0])
            second = engine.solve(problems[1])
            engine.solve(problems[2])
            assert engine.stats["pool_reuses"] == 2
        for got in (first, second):
            assert got.cost.flags.owndata and got.best_action.flags.owndata
            assert_reference_bytes(got)

    def test_recovery_log_attached(self):
        problem = random_instance(8, 4, 3, seed=1)
        with SolverEngine(workers=2, backend="parallel") as engine:
            result = engine.solve(problem)
        assert result.recovery is not None
        assert len(result.recovery["layers"]) == problem.k


class TestEngineColdParity:
    def test_warm_and_cold_run_one_layer_loop(self):
        problem = random_instance(6, 4, 3, seed=21)
        other = random_instance(6, 3, 2, seed=22)
        cold_tracer, warm_tracer = Tracer(), Tracer()
        cold = solve_dp_parallel(problem, workers=2, min_shard=1, tracer=cold_tracer)
        with SolverEngine(workers=2, backend="parallel", min_shard=1) as engine:
            with tracing(warm_tracer):
                warm = engine.solve(problem)
            again = engine.solve(other)

        assert warm.cost.tobytes() == cold.cost.tobytes()
        assert warm.best_action.tobytes() == cold.best_action.tobytes()
        assert warm.metrics.keys() == cold.metrics.keys()
        assert warm.recovery.keys() == cold.recovery.keys()
        assert warm.recovery["store"] == cold.recovery["store"] == "ram"
        for tracer in (cold_tracer, warm_tracer):
            events = [e for e in normalized_events(tracer) if e["ph"] == "X"]
            layers = sorted(
                (e for e in events if e["name"] == "layer"),
                key=lambda e: e["args"]["layer"],
            )
            assert [e["args"]["layer"] for e in layers] == list(range(1, problem.k + 1))
            # min_shard=1 sends every layer of two or more masks to the
            # pool; the top layer is the single full set.
            modes = [e["args"]["mode"] for e in layers]
            assert modes == ["pool"] * (problem.k - 1) + ["parent"]
            assert any(e["name"] == "shard" for e in events)

        assert warm.metrics["engine.table_rebuilds"] == 1
        assert again.metrics["engine.pool_reuses"] == 1
        assert_same(solve_dp(other), again)


class TestEngineLifecycle:
    @pytest.mark.parametrize(
        "call",
        [
            lambda engine, problem: engine.solve(problem),
            lambda engine, problem: engine.solve_many([]),
            lambda engine, problem: engine.solve_many([problem], solver="bvm"),
        ],
        ids=["solve", "solve_many-empty", "solve_many-bvm"],
    )
    def test_closed_engine_rejects_solves(self, call):
        engine = SolverEngine(workers=1)
        engine.close()
        with pytest.raises(SolverError, match="closed"):
            call(engine, random_instance(4, 3, 2, seed=0))

    def test_close_is_idempotent(self):
        engine = SolverEngine(workers=1)
        engine.solve(random_instance(4, 3, 2, seed=0))
        engine.close()
        engine.close()

    def test_checkpoint_policy_rejected(self, tmp_path):
        policy = ResiliencePolicy(checkpoint=str(tmp_path / "solve.ckpt"))
        with pytest.raises(SolverError):
            SolverEngine(workers=1, policy=policy)

    def test_reference_backend_rejected(self):
        with pytest.raises(InvalidProblem, match="backend 'reference'"):
            SolverEngine(workers=1, backend="reference")

    @pytest.mark.parametrize("backend", ["bogus", "native"])
    def test_unknown_backend_rejected_at_construction(self, backend):
        # Before any solve, and before a solve_many(solver="bvm") that
        # never reaches the DP backend.
        with pytest.raises(InvalidProblem, match=f"backend {backend!r}"):
            SolverEngine(workers=1, backend=backend)

    def test_engine_solve_many_rejects_unknown_solver(self):
        with SolverEngine(workers=1) as engine:
            with pytest.raises(InvalidProblem, match="unknown solver"):
                engine.solve_many([], solver="quantum")


class TestDispatchIntegration:
    def test_solve_routes_through_engine(self):
        problem = random_instance(5, 3, 2, seed=4)
        cold = solve(problem)
        with SolverEngine(workers=1) as engine:
            routed = solve(problem, engine=engine)
        assert_same(cold, routed)
        assert engine.solves == 1

    @pytest.mark.parametrize(
        "kw", [{"backend": "bogus"}, {"backend": "reference"}, {"workers": 0}],
        ids=["bogus", "reference", "workers0"],
    )
    def test_invalid_arguments_rejected_before_the_engine(self, kw):
        with SolverEngine(workers=1) as engine:
            with pytest.raises(InvalidProblem):
                solve(random_instance(5, 3, 2, seed=4), engine=engine, **kw)
        assert engine.solves == 0

    def test_valid_arguments_defer_to_the_engine(self):
        # The engine's own configuration wins over valid arguments.
        problem = random_instance(5, 3, 2, seed=4)
        with SolverEngine(workers=1) as engine:
            routed = solve(problem, engine=engine, backend="parallel", workers=3)
        assert_same(solve_dp(problem), routed)
        assert engine.solves == 1

    def test_checkpoint_falls_through_to_cold_path(self, tmp_path):
        # checkpoint solves carry per-solve failure-domain state the warm
        # engine cannot share; solve() must take the cold path for them.
        problem = random_instance(8, 3, 2, seed=5)
        policy = ResiliencePolicy(checkpoint=str(tmp_path / "solve.ckpt"))
        with SolverEngine(workers=1) as engine:
            result = solve(
                problem,
                engine=engine,
                backend="parallel",
                workers=2,
                policy=policy,
            )
        assert engine.solves == 0
        assert_same(solve_dp(problem), result)
