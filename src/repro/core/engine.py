"""Reusable solver engine: warm workers for streams of solves.

A cold :func:`repro.core.solve` on several workers starts fresh worker
processes and stops them again — fine for a single solve, ruinous for a
stream of instances arriving faster than that start-up cost.
:class:`SolverEngine` keeps its parent scratch arena and a
:class:`~repro.core.supervisor.Supervisor` whose ``workers - 1``
children (each with its own :class:`~repro.core.kernels.LayerArena`)
start on the first pool layer that needs them and then serve every pool
solve, whatever its ``k``: each shard task names the tables its child
maps until the solve ends.

Every solve is one :func:`~repro.core.parallel.solve_dp_parallel` call,
as a cold solve is, with the engine's supervisor lent to it.  A pool
solve copies its results out of ``/dev/shm`` (a stream that keeps them
must not fill tmpfs) and leaves its tables to the next solve of its
``k`` (:meth:`~repro.store.RamStore.recycle`).  A solve that resolves
to one worker (below the warm crossover ``PARALLEL_MIN_K_WARM``, or a
one-worker engine) uses no supervisor and maps no segment.  Either way
the result is bit-for-bit identical to a cold :func:`repro.core.solve`.

:meth:`SolverEngine.solve_many` pipelines the ``subset_weights``
precompute of the *next* instance against the in-flight solve on a
background thread (the butterfly accumulation is numpy work that
releases the GIL).

The engine is a context manager; use it as one (or call :meth:`close`)
so the workers are released deterministically.  Checkpointed or
custom-policy solves have per-solve failure-domain state that a warm
engine cannot share — route those through the cold
:func:`repro.core.solve` path (``solve(engine=...)`` does this
automatically).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..config import knob
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import parallel as _par
from .dispatch import BACKENDS, cached_subset_weights, resolve_backend
from .errors import InvalidProblem, SolverError
from .kernels import LayerArena, check_k
from .parallel import MIN_SHARD, PARALLEL_MIN_K_WARM, solve_dp_parallel
from .problem import TTProblem
from .sequential import DPResult
from .supervisor import ResiliencePolicy, Supervisor

__all__ = ["SolverEngine"]

# Every solve() backend except the plain-Python oracle, which has no
# warm state to keep.
ENGINE_BACKENDS = tuple(b for b in BACKENDS if b != "reference")


class SolverEngine:
    """Warm, reusable DP solver for streams of TT instances.

    Parameters
    ----------
    workers:
        Processes for the parallel path, the parent included (default:
        the ``REPRO_WORKERS`` knob, see :mod:`repro.config`): ``workers - 1``
        children are kept warm.  ``1`` keeps every solve single-process
        (arena reuse only).
    backend:
        ``"auto"`` (default), ``"numpy"`` or ``"parallel"`` — checked
        here (anything else raises :class:`InvalidProblem`) and resolved
        per instance like :func:`repro.core.solve`, except that
        ``"auto"`` uses the warm crossover
        (:data:`~repro.core.parallel.PARALLEL_MIN_K_WARM`): warm workers
        pay off from a smaller ``k`` than a cold solve's.
    policy:
        :class:`~repro.core.supervisor.ResiliencePolicy` for the warm
        workers' fault handling.  Checkpointing is not supported on the
        warm path (``policy.checkpoint`` must be ``None``).
    min_shard:
        Minimum masks per worker shard (see :mod:`repro.core.parallel`);
        must be at least 1.

    Results are bit-for-bit identical to the cold paths: the engine makes
    the same :func:`~repro.core.parallel.solve_dp_parallel` call — only
    the *lifetime* of the workers differs.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        backend: str = "auto",
        policy: ResiliencePolicy | None = None,
        min_shard: int = MIN_SHARD,
    ):
        if policy is not None and policy.checkpoint is not None:
            raise SolverError(
                "SolverEngine does not support checkpointing; use "
                "repro.core.solve(checkpoint=...) for resumable solves"
            )
        if min_shard < 1:
            raise InvalidProblem(f"min_shard must be >= 1, got {min_shard}")
        if backend not in ENGINE_BACKENDS:
            raise InvalidProblem(
                f"unknown SolverEngine backend {backend!r}; expected one of "
                f"{ENGINE_BACKENDS}"
            )
        self.workers = knob("REPRO_WORKERS", workers)
        self.backend = backend
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.min_shard = min_shard
        self.solves = 0
        # Pool solves that found the workers started, and that had to
        # start them, exposed on result.metrics.
        self.stats = {"pool_reuses": 0, "table_rebuilds": 0}
        self._closed = False
        self._arena = LayerArena()
        # Its children start on the first pool layer that needs them.
        self._supervisor = Supervisor(self.policy, _par._start_worker) if self.workers > 1 else None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "SolverEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers and unlink the kept tables (idempotent)."""
        from ..store import RamStore  # runtime import: store builds on core

        self._closed = True
        if self._supervisor is not None:
            self._supervisor.shutdown()
            RamStore.drop_spare()

    # -- solving -------------------------------------------------------

    def solve(
        self, problem: TTProblem, *, p: np.ndarray | None = None, progress=None
    ) -> DPResult:
        """Solve one instance on the warm engine.

        ``p`` may carry precomputed :func:`~repro.core.sequential.subset_weights`
        (this is how :meth:`solve_many` hands over the pipelined vector);
        ``progress`` an optional :class:`repro.obs.ProgressReporter`
        pinged at each layer barrier.
        """
        if self._closed:
            raise SolverError("SolverEngine is closed")
        check_k(problem.k)
        _, workers = resolve_backend(
            problem, self.backend, self.workers, PARALLEL_MIN_K_WARM
        )
        if p is None:
            p = cached_subset_weights(problem)
        reg = obs_metrics.MetricsRegistry()
        if workers > 1:
            which = "pool_reuses" if self._supervisor.started else "table_rebuilds"
            self.stats[which] += 1
            reg.inc(f"engine.{which}")
        result = solve_dp_parallel(
            problem, workers=workers, p=p, min_shard=self.min_shard,
            policy=self.policy, metrics=reg, progress=progress,
            arena=self._arena, supervisor=self._supervisor,
        )
        self.solves += 1
        return result

    def solve_many(
        self,
        problems,
        *,
        solver: str = "dp",
        width: int = 16,
        bvm_backend: str = "packed",
    ) -> list:
        """Solve a stream of instances, pipelining the weight precompute.

        While instance ``i`` runs (mostly C-level kernel and pool work),
        a single background thread computes ``subset_weights`` for
        instance ``i + 1`` — the butterfly accumulation is pure numpy
        and overlaps cleanly.  Results are returned in input order and
        are bit-for-bit what per-instance :meth:`solve` calls produce.

        ``solver="bvm"`` routes the whole stream through lanes of the
        packed BVM instead
        (:func:`~repro.ttpar.bvm_tt.solve_tt_bvm_batch`): instances are
        grouped by machine shape and each group replays one compiled
        program on a :class:`~repro.bvm.packed.PackedBVM` with one lane
        per instance, all lanes in lockstep, returning
        :class:`~repro.ttpar.bvm_tt.BVMTTResult` rows (still in input
        order).  ``width`` / ``bvm_backend`` configure the fixed-point
        cost lattice and the simulation backend for that path and are
        ignored for ``solver="dp"``.
        """
        if self._closed:
            raise SolverError("SolverEngine is closed")
        if solver == "bvm":
            from ..ttpar.bvm_tt import solve_tt_bvm_batch

            return solve_tt_bvm_batch(
                list(problems), width=width, backend=bvm_backend
            )
        if solver != "dp":
            raise InvalidProblem(
                f"unknown solver {solver!r}; expected 'dp' or 'bvm'"
            )
        problems = list(problems)
        results: list[DPResult] = []
        if not problems:
            return results
        tr = obs_trace.current()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = None
            for idx, problem in enumerate(problems):
                if pending is not None:
                    # A traced stall here means the precompute did *not*
                    # overlap the previous solve — the span is the
                    # pipeline's bubble, ideally ~0.
                    tw = time.monotonic()
                    p = pending.result()
                    if tr.collecting:
                        tr.complete(
                            "pipeline.wait", "engine", tw, time.monotonic(),
                            instance=idx,
                        )
                else:
                    p = cached_subset_weights(problem)
                if idx + 1 < len(problems):
                    pending = pool.submit(cached_subset_weights, problems[idx + 1])
                results.append(self.solve(problem, p=p))
        return results
