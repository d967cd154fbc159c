"""Telemetry is observational only: tables are bit-identical on/off.

This is the acceptance gate for the whole subsystem — tracing, metrics
and progress reporting may observe a solve but must never perturb its
``cost``/``best_action`` output, on any backend, with any store.
"""

import io

import numpy as np
import pytest

from repro.core import WORKLOADS, solve
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp
from repro.obs import ProgressReporter, Tracer, tracing
from repro.store import StoreSpec

pytestmark = pytest.mark.timeout(180)


def _assert_identical(a, b):
    assert np.array_equal(a.cost, b.cost)
    assert np.array_equal(a.best_action, b.best_action)
    assert a.op_count == b.op_count


@pytest.fixture
def problem():
    return WORKLOADS["random"](9, seed=3)


class TestBitIdentityTracingOnOff:
    def test_numpy_backend(self, problem):
        plain = solve_dp(problem)
        tr = Tracer()
        with tracing(tr):
            traced = solve_dp(problem)
        _assert_identical(plain, traced)
        assert len(tr) > 0, "ambient tracer recorded nothing"

    def test_parallel_backend(self, problem):
        plain = solve_dp_parallel(problem, workers=2, min_shard=4)
        traced = solve_dp_parallel(
            problem, workers=2, min_shard=4, tracer=Tracer()
        )
        _assert_identical(plain, traced)

    def test_parallel_backend_mmap_store(self, problem, tmp_path):
        plain = solve_dp_parallel(
            problem,
            workers=2,
            min_shard=4,
            store=StoreSpec(kind="mmap", spill_dir=tmp_path / "plain"),
        )
        tr = Tracer()
        traced = solve_dp_parallel(
            problem,
            workers=2,
            min_shard=4,
            store=StoreSpec(kind="mmap", spill_dir=tmp_path / "traced"),
            tracer=tr,
        )
        _assert_identical(plain, traced)
        cats = {e["cat"] for e in tr.raw_events()}
        assert "store" in cats, "mmap commits left no store spans"

    def test_solve_front_door_with_progress(self, problem):
        plain = solve(problem, backend="parallel", workers=2)
        traced = solve(
            problem,
            backend="parallel",
            workers=2,
            tracer=Tracer(),
            progress=ProgressReporter(stream=io.StringIO()),
        )
        _assert_identical(plain, traced)

    def test_metrics_present_and_uniform_across_backends(self, problem):
        seq = solve_dp(problem)
        par = solve_dp_parallel(problem, workers=2, min_shard=4)
        assert set(seq.metrics) == set(par.metrics)
        assert set(seq.recovery) == set(par.recovery)
        # Both run the one layer loop, so both count every layer.
        assert seq.metrics["layers.computed"] == problem.k
        assert par.metrics["layers.computed"] == problem.k
