"""Registry of solver backends under differential verification.

Every entry produces the full ``(cost, best_action)`` tables for an
instance through a *different* execution path — plain-Python oracle,
vectorized fused kernel, legacy unfused kernel, warm engine, batched
engine, sharded multiprocess engine, bit-serial BVM — and the harness
holds them all bit-for-bit identical to the reference oracle.

Two scopes exist: ``"full"`` backends check every enumerated instance;
``"sampled"`` backends (the BVM simulators, ~3 orders of magnitude
slower per instance) check a deterministic prime-strided slice of the
adequate instances.  A backend may also *decline* an instance by
returning ``None`` from :meth:`VerifyBackend.tables` (the BVM requires
adequacy); declines are counted, never silently conflated with passes.
"""

from __future__ import annotations

import os

import numpy as np

from ..core.engine import SolverEngine
from ..core.kernels import BEST_DTYPE, COST_DTYPE, layer_plan
from ..core.problem import TTProblem
from ..core.sequential import (
    solve_dp,
    solve_dp_reference,
    solve_layer_kernel,
    subset_weights,
)

__all__ = [
    "VerifyBackend",
    "REFERENCE",
    "BACKEND_FACTORIES",
    "default_backend_names",
    "make_backends",
]

REFERENCE = "reference"

Tables = tuple[np.ndarray, np.ndarray]


class VerifyBackend:
    """One named execution path producing ``(cost, best_action)`` tables.

    Subclasses override :meth:`tables` (and optionally
    :meth:`tables_batch` when the path has a genuine batch API whose
    batching itself needs verification).  ``scope`` is ``"full"`` or
    ``"sampled"``; sampled backends see every ``stride``-th instance
    they do not decline.
    """

    name: str = ""
    scope: str = "full"

    def accepts(self, problem: TTProblem) -> bool:
        """Whether this backend can solve the instance at all.

        Sampled backends stride over the instances they accept, so a
        backend with a narrow domain (the BVM needs adequacy) still
        spends its sample budget on checkable instances.
        """
        return True

    def tables(self, problem: TTProblem) -> Tables | None:
        raise NotImplementedError

    def tables_batch(self, problems: list[TTProblem]) -> list[Tables | None]:
        return [self.tables(p) for p in problems]

    def close(self) -> None:  # noqa: B027 - optional hook
        pass


class _ReferenceBackend(VerifyBackend):
    name = REFERENCE

    def tables(self, problem):
        r = solve_dp_reference(problem)
        return r.cost, r.best_action


class _NumpyBackend(VerifyBackend):
    name = "numpy"

    def tables(self, problem):
        r = solve_dp(problem)
        return r.cost, r.best_action


class _LegacyKernelBackend(VerifyBackend):
    """The unfused per-layer kernel, driven layer by layer.

    ``solve_layer_kernel`` is the straight-line statement of the
    determinism contract; running it as a full backend keeps the fused
    production kernel honest against it over the whole bounded space.
    """

    name = "kernel"

    def tables(self, problem):
        k = problem.k
        plan = layer_plan(k)
        p = subset_weights(problem)
        cost = np.full(1 << k, np.inf, dtype=COST_DTYPE)
        best = np.full(1 << k, -1, dtype=BEST_DTYPE)
        cost[0] = 0.0
        subsets = problem.subset_array
        costs = problem.cost_array
        is_test = problem.test_mask_array
        for j in range(1, k + 1):
            masks = plan.layer(j)
            layer_cost, layer_arg = solve_layer_kernel(
                masks, p[masks], cost, subsets, costs, is_test
            )
            cost[masks] = layer_cost
            best[masks] = layer_arg
        return cost, best


class _EngineBackend(VerifyBackend):
    """A single warm :class:`SolverEngine`, one ``solve()`` per instance."""

    name = "engine"

    def __init__(self):
        self._engine = SolverEngine(backend="numpy")

    def tables(self, problem):
        r = self._engine.solve(problem)
        return r.cost, r.best_action

    def close(self):
        self._engine.close()


class _EngineBatchBackend(VerifyBackend):
    """The ``solve_many`` pipelined path, exercised as actual batches."""

    name = "engine-batch"

    def __init__(self):
        self._engine = SolverEngine(backend="numpy")

    def tables(self, problem):
        (r,) = self._engine.solve_many([problem])
        return r.cost, r.best_action

    def tables_batch(self, problems):
        results = self._engine.solve_many(problems)
        return [(r.cost, r.best_action) for r in results]

    def close(self):
        self._engine.close()


class _ParallelBackend(VerifyBackend):
    """The sharded multiprocess path, forced through real worker shards.

    ``min_shard=1`` matters: at verification sizes every instance is far
    below ``MIN_SHARD``, so without it the "parallel" engine would
    quietly run the in-process kernel and verify nothing.

    Solves run on one warm engine: each instance is one
    :func:`~repro.core.parallel.solve_dp_parallel` call, as a cold
    parallel solve is, on the tables the last one of its ``k`` left and
    the engine's worker, which maps them while the instance is solved.
    """

    name = "parallel"

    def __init__(self):
        self._engine = SolverEngine(workers=2, backend="parallel", min_shard=1)

    def tables(self, problem):
        r = self._engine.solve(problem)
        return r.cost, r.best_action

    def close(self):
        self._engine.close()


class _MmapStoreBackend(VerifyBackend):
    """The out-of-core spill store, a fresh temp spill dir per instance.

    Exercises the durable path end to end — chunked order generation,
    self-resetting slices over file-backed tables, slab commit, manifest —
    and holds its tables bit-for-bit to the oracle.  ``fsync`` is off:
    the sweep verifies the *bytes*, not the durability barriers (the
    crash drills cover those), and syncing thousands of tiny instances
    would dominate the runtime.
    """

    name = "store-mmap"

    def tables(self, problem):
        import shutil
        import tempfile

        from .. import store as store_mod
        from ..core.dispatch import solve as core_solve

        tmp = tempfile.mkdtemp(prefix="repro-verify-spill-")
        try:
            spec = store_mod.StoreSpec(
                kind="mmap", spill_dir=os.path.join(tmp, "spill"), fsync=False
            )
            r = core_solve(problem, backend="parallel", workers=1, store=spec)
            # Copy out: the result tables are memmaps of files about to
            # be removed.
            return r.cost.copy(), r.best_action.copy()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _bvm_accepts(problem: TTProblem) -> bool:
    """The BVM simulators' bit-exact domain (see :class:`_BVMBackend`)."""
    return (
        problem.is_adequate()
        and all(float(w).is_integer() for w in problem.weights)
        and all(float(a.cost).is_integer() for a in problem.actions)
    )


class _BVMBackend(VerifyBackend):
    """Bit-serial BVM simulator (bool or word-packed execution).

    Declines instances outside its bit-exact domain: the machine program
    requires adequacy, and the fixed-point encoding is lossless only on
    integer weight/cost alphabets (which is everything the enumeration
    emits, but not every ad-hoc instance).  Inside that domain the
    decoded tables are held fully bit-for-bit — cost *and* argmin —
    against the reference oracle.
    """

    scope = "sampled"

    def __init__(self, bvm_backend: str):
        self.name = f"bvm-{bvm_backend}"
        self._bvm_backend = bvm_backend

    def accepts(self, problem):
        return _bvm_accepts(problem)

    def tables(self, problem):
        if not self.accepts(problem):
            return None
        from ..ttpar.bvm_tt import solve_tt_bvm

        r = solve_tt_bvm(problem, backend=self._bvm_backend)
        return r.cost, r.best_action


class _BVMBatchBackend(VerifyBackend):
    """Lanes of the packed BVM, exercised as genuine batches.

    :meth:`tables_batch` hands the whole accepted chunk to
    :func:`~repro.ttpar.bvm_tt.solve_tt_bvm_batch` — instances grouped
    by machine shape, one compiled replay per group on a
    :class:`~repro.bvm.packed.PackedBVM` with a lane per instance
    (``B > 1`` whenever the chunk allows it) — so the harness
    checks each *lane* of a real batched replay against the oracle, not
    a degenerate stream of one-lane batches.  Same bit-exact domain as
    :class:`_BVMBackend`.
    """

    scope = "sampled"
    name = "bvm-packed-batch"

    def accepts(self, problem):
        return _bvm_accepts(problem)

    def tables(self, problem):
        return self.tables_batch([problem])[0]

    def tables_batch(self, problems):
        from ..ttpar.bvm_tt import solve_tt_bvm_batch

        taken = [i for i, p in enumerate(problems) if self.accepts(p)]
        out: list[Tables | None] = [None] * len(problems)
        if taken:
            results = solve_tt_bvm_batch([problems[i] for i in taken])
            for i, r in zip(taken, results):
                out[i] = (r.cost, r.best_action)
        return out


BACKEND_FACTORIES: dict[str, type | object] = {
    REFERENCE: _ReferenceBackend,
    "numpy": _NumpyBackend,
    "kernel": _LegacyKernelBackend,
    "engine": _EngineBackend,
    "engine-batch": _EngineBatchBackend,
    "parallel": _ParallelBackend,
    "store-mmap": _MmapStoreBackend,
    "bvm-bool": lambda: _BVMBackend("bool"),
    "bvm-packed": lambda: _BVMBackend("packed"),
    "bvm-packed-batch": _BVMBatchBackend,
}


def default_backend_names() -> list[str]:
    """Every registered backend except the reference oracle itself."""
    return [n for n in BACKEND_FACTORIES if n != REFERENCE]


def make_backends(names: list[str]) -> list[VerifyBackend]:
    """Instantiate backends by name (unknown names raise ``ValueError``)."""
    out = []
    for n in names:
        factory = BACKEND_FACTORIES.get(n)
        if factory is None:
            raise ValueError(
                f"unknown verify backend {n!r}; expected one of "
                f"{sorted(BACKEND_FACTORIES)}"
            )
        out.append(factory())
    return out
