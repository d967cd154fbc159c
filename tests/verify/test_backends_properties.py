"""Backend registry and metamorphic property unit tests.

The harness integration test (``test_harness_cli.py``) sweeps a budgeted
slice end to end; this file checks the pieces in isolation — every
registered backend reproduces the oracle on hand-picked stressors
(including infeasible and zero-weight instances), every property holds
on solvable instances, and — crucially — each property *fails* on a
deliberately corrupted input, because a checker that cannot fail checks
nothing.
"""

import os
import tempfile

import numpy as np
import pytest

from repro.core import solve
from repro.core.generators import random_instance
from repro.core.kernels import BEST_DTYPE
from repro.core.parallel import solve_dp_parallel
from repro.core.problem import Action, ActionKind, TTProblem
from repro.core.sequential import solve_dp_reference
from repro.ttpar import solve_tt_ccc, solve_tt_hypercube
from repro.verify import (
    BACKEND_FACTORIES,
    PROPERTIES,
    default_backend_names,
    make_backends,
    run_check,
    run_property,
)

# Hand-picked stressors: ties everywhere, zero costs, zero weights,
# infeasible, single-object, single-action.
STRESSORS = [
    TTProblem.build([1.0], [Action.treatment(0b1, 0.0)], name="k1-free-cure"),
    TTProblem.build([1.0], [Action.test(0b1, 1.0)], name="k1-test-only-infeasible"),
    TTProblem.build(
        [1.0, 1.0],
        [Action.test(0b01, 1.0), Action.treatment(0b11, 1.0)],
        name="k2-basic",
    ),
    TTProblem.build(
        [0.0, 1.0],
        [Action.treatment(0b01, 1.0), Action.treatment(0b10, 1.0)],
        name="k2-zero-weight",
    ),
    TTProblem.build(
        [1.0, 1.0, 1.0],
        [
            Action.test(0b011, 0.0),
            Action.test(0b011, 0.0),
            Action.treatment(0b111, 0.0),
        ],
        name="k3-all-zero-cost-dup",
    ),
    TTProblem.build(
        [2.0, 1.0, 1.0],
        [Action.test(0b001, 1.0), Action.treatment(0b011, 2.0)],
        name="k3-infeasible",
    ),
    random_instance(4, n_tests=3, n_treatments=3, seed=5),
]


class TestBackends:
    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    def test_matches_reference_on_stressors(self, name):
        (backend,) = make_backends([name])
        try:
            for problem in STRESSORS:
                got = backend.tables(problem)
                if got is None:
                    assert not backend.accepts(problem)
                    continue
                ref = solve_dp_reference(problem)
                assert np.array_equal(got[0], ref.cost), (name, problem.name)
                assert np.array_equal(got[1], ref.best_action), (name, problem.name)
        finally:
            backend.close()

    def test_batch_matches_single(self):
        (backend,) = make_backends(["engine-batch"])
        try:
            solvable = [p for p in STRESSORS]
            batch = backend.tables_batch(solvable)
            for problem, got in zip(solvable, batch):
                ref = solve_dp_reference(problem)
                assert np.array_equal(got[0], ref.cost)
                assert np.array_equal(got[1], ref.best_action)
        finally:
            backend.close()

    def test_default_names_exclude_reference(self):
        names = default_backend_names()
        assert "reference" not in names
        assert set(names) <= set(BACKEND_FACTORIES)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown verify backend"):
            make_backends(["warp-drive"])


def _cold_pool(problem):
    r = solve_dp_parallel(problem, workers=2, min_shard=1)
    return r.cost, r.best_action


def _checkpointed(problem):
    with tempfile.TemporaryDirectory() as tmp:
        r = solve(problem, backend="parallel", workers=2,
                  checkpoint=os.path.join(tmp, "ckpt"))
    return r.cost, r.best_action


def _dataflow(machine):
    def tables(problem):
        if not problem.is_adequate():
            return None
        r = machine(problem)
        return r.cost, r.best_action

    return tables


# Paths outside the registry that also hand out a best-action table.
EXTRA_PATHS = {
    "cold-pool": _cold_pool,
    "checkpoint": _checkpointed,
    "dataflow-hypercube": _dataflow(solve_tt_hypercube),
    "dataflow-ccc": _dataflow(solve_tt_ccc),
}


class TestBestActionWidth:
    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES) + sorted(EXTRA_PATHS))
    def test_every_path_returns_int32_oracle_actions(self, name):
        # Registry backends run as one batch, so the batched BVM checks
        # each lane of a real multi-lane replay.
        if name in EXTRA_PATHS:
            batch, close = [EXTRA_PATHS[name](p) for p in STRESSORS], None
        else:
            (backend,) = make_backends([name])
            batch, close = backend.tables_batch(STRESSORS), backend.close
        try:
            checked = 0
            for problem, got in zip(STRESSORS, batch):
                if got is None:
                    continue
                checked += 1
                assert got[1].dtype == BEST_DTYPE == np.int32, (name, problem.name)
                ref = solve_dp_reference(problem)
                assert np.array_equal(got[1], ref.best_action), (name, problem.name)
            # Four stressors are adequate with integer weights and costs,
            # so even the BVM, which declines the rest, checks those.
            assert checked >= 4, name
        finally:
            if close is not None:
                close()


class TestProperties:
    @pytest.mark.parametrize("prop", sorted(PROPERTIES))
    @pytest.mark.parametrize("problem", STRESSORS, ids=lambda p: p.name)
    def test_holds_on_stressors(self, prop, problem):
        assert run_property(prop, problem) is None

    def test_rederive_rejects_wrong_policy(self):
        import dataclasses

        problem = STRESSORS[2]
        ref = solve_dp_reference(problem)
        wrong = np.array(ref.best_action, copy=True)
        wrong[problem.universe] = (wrong[problem.universe] + 1) % problem.n_actions
        broken = dataclasses.replace(ref, best_action=wrong)
        assert PROPERTIES["rederive-policy"](problem, broken) is not None

    def test_bellman_rejects_corrupt_cost(self):
        import dataclasses

        problem = STRESSORS[2]
        ref = solve_dp_reference(problem)
        bad = np.array(ref.cost, copy=True)
        bad[problem.universe] += 1.0
        broken = dataclasses.replace(ref, cost=bad)
        assert PROPERTIES["bellman"](problem, broken) is not None


class TestRunCheck:
    def test_property_check_roundtrip(self):
        assert run_check("property:bellman", STRESSORS[2]) is None

    def test_backend_check_roundtrip(self):
        assert run_check("backend:numpy", STRESSORS[2]) is None

    def test_bad_check_name(self):
        with pytest.raises(ValueError, match="property:.*or 'backend:"):
            run_check("vibes", STRESSORS[2])
        with pytest.raises(ValueError, match="unknown property"):
            run_check("property:vibes", STRESSORS[2])
