"""The ``backend="native"`` tier: dispatch, fallback, and kernel parity.

Without numba (the normal state of this test environment) the tier must
degrade *loudly* to the fused numpy kernel — one ``RuntimeWarning``,
bit-identical tables — and the kernel's uncompiled Python body is held
to the fused kernel over a randomized differential (ties, infeasible
masks) so the logic numba compiles is covered either way.  With numba
installed (the CI ``native-smoke`` leg) the jitted kernel itself runs
the same differential plus full solves.
"""

import warnings

import numpy as np
import pytest

from repro.core import solve
from repro.core.dispatch import BACKENDS, resolve_backend
from repro.core.engine import SolverEngine
from repro.core.errors import InvalidProblem
from repro.core.generators import random_instance
from repro.core.kernels import solve_layer_kernel_fused
from repro.core.native import (
    NATIVE_FALLBACK_MSG,
    _layer_kernel_py,
    native_available,
    solve_layer_kernel_native,
)
from repro.core.sequential import solve_dp
from repro.obs import trace as obs_trace

HAVE_NUMBA = native_available()


def _random_layer_case(rng):
    """One popcount layer with the table state solve_dp would present."""
    k = int(rng.integers(1, 8))
    n_sub = 1 << k
    j = int(rng.integers(1, k + 1))
    masks = np.arange(n_sub, dtype=np.int64)
    pc = np.array([bin(m).count("1") for m in masks])
    layer = masks[pc == j]
    p_layer = rng.random(layer.size)
    cost = np.where(pc < j, rng.random(n_sub), np.inf)
    n_act = int(rng.integers(1, 12))
    subsets = rng.integers(0, n_sub, size=n_act).astype(np.int64)
    # Small integer costs make argmin ties likely.
    costs = rng.integers(0, 5, size=n_act).astype(np.float64)
    is_test = rng.random(n_act) < 0.5
    return layer, p_layer, cost, subsets, costs, is_test


class TestKernelDifferential:
    def test_python_body_matches_fused_kernel(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            layer, p_layer, cost, subsets, costs, is_test = (
                _random_layer_case(rng)
            )
            tile = int(rng.choice([0, 1, 3, 16384]))
            bf, af = solve_layer_kernel_fused(
                layer, p_layer, cost, subsets, costs, is_test, tile=tile,
            )
            bn = np.empty(layer.size)
            an = np.empty(layer.size, dtype=np.int32)
            _layer_kernel_py(
                layer, p_layer, cost, subsets, costs, is_test, bn, an, tile,
            )
            assert np.array_equal(bf, bn, equal_nan=True)
            assert np.array_equal(af, an)

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jitted_kernel_matches_fused_kernel(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            layer, p_layer, cost, subsets, costs, is_test = (
                _random_layer_case(rng)
            )
            bf, af = solve_layer_kernel_fused(
                layer, p_layer, cost, subsets, costs, is_test
            )
            bn, an = solve_layer_kernel_native(
                layer, p_layer, cost, subsets, costs, is_test
            )
            assert np.array_equal(bf, bn, equal_nan=True)
            assert np.array_equal(af, an)

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_native_solves_match_numpy_on_50_instances(self):
        for seed in range(50):
            problem = random_instance(
                4, n_tests=2 + seed % 3, n_treatments=1 + seed % 3, seed=seed
            )
            ref = solve(problem, backend="numpy")
            nat = solve(problem, backend="native")
            assert np.array_equal(ref.cost, nat.cost, equal_nan=True)
            assert np.array_equal(ref.best_action, nat.best_action)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_kernel_entry_raises_without_numba(self):
        rng = np.random.default_rng(2)
        layer, p_layer, cost, subsets, costs, is_test = (
            _random_layer_case(rng)
        )
        with pytest.raises(RuntimeError, match="numba"):
            solve_layer_kernel_native(
                layer, p_layer, cost, subsets, costs, is_test
            )


class TestDispatch:
    def test_native_registered(self):
        assert "native" in BACKENDS

    def test_auto_never_selects_native(self):
        problem = random_instance(4, 2, 2, seed=0)
        backend, _ = resolve_backend(problem, "auto", workers=1)
        assert backend in ("numpy", "parallel")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_fallback_is_loud_and_bit_identical(self):
        problem = random_instance(4, 2, 2, seed=3)
        ref = solve(problem, backend="numpy")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = solve(problem, backend="native")
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "numba is not installed" in str(w.message)
            for w in caught
        )
        assert np.array_equal(ref.cost, got.cost, equal_nan=True)
        assert np.array_equal(ref.best_action, got.best_action)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_resolve_backend_falls_back_to_numpy(self):
        problem = random_instance(3, 2, 2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            backend, workers = resolve_backend(problem, "native")
        assert backend == "numpy" and workers == 1
        assert len(caught) == 1
        assert NATIVE_FALLBACK_MSG in str(caught[0].message)

    def test_mmap_store_rejects_native(self, tmp_path):
        problem = random_instance(4, 2, 2, seed=0)
        with pytest.raises(InvalidProblem, match="parallel backend"):
            solve(
                problem, backend="native",
                store="mmap", spill_dir=str(tmp_path / "spill"),
            )

    def test_checkpoint_rejects_native(self, tmp_path):
        problem = random_instance(4, 2, 2, seed=0)
        with pytest.raises(InvalidProblem, match="checkpointing"):
            solve(problem, backend="native", checkpoint=str(tmp_path / "c.ckpt"))

    def test_engine_accepts_native(self):
        problem = random_instance(4, 2, 2, seed=1)
        ref = solve(problem, backend="numpy")
        with SolverEngine(workers=1, backend="native") as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = engine.solve(problem)
        assert np.array_equal(ref.cost, got.cost, equal_nan=True)
        assert np.array_equal(ref.best_action, got.best_action)

    def test_engine_solve_many_rejects_unknown_solver(self):
        with SolverEngine(workers=1) as engine:
            with pytest.raises(InvalidProblem, match="unknown solver"):
                engine.solve_many([], solver="quantum")


class TestLayerSpanMode:
    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_layer_spans_report_native_mode(self):
        problem = random_instance(4, 2, 2, seed=0)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            solve_dp(problem, kernel=solve_layer_kernel_native)
        layers = [e for e in tracer.raw_events() if e["name"] == "layer"]
        assert layers and all(e["args"]["mode"] == "native" for e in layers)

    def test_layer_spans_report_numpy_mode_by_default(self):
        problem = random_instance(4, 2, 2, seed=0)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            solve_dp(problem)
        layers = [e for e in tracer.raw_events() if e["name"] == "layer"]
        assert layers and all(e["args"]["mode"] == "numpy" for e in layers)

    def test_tracing_off_bit_identical_through_dispatch(self):
        problem = random_instance(4, 2, 2, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            plain = solve(problem, backend="native")
            traced = solve(
                problem, backend="native", tracer=obs_trace.Tracer()
            )
        assert np.array_equal(plain.cost, traced.cost, equal_nan=True)
        assert np.array_equal(plain.best_action, traced.best_action)
