"""Reusable solver engine: warm tables and workers for streams of solves.

A cold :func:`repro.core.solve` on several workers opens a fresh
layer store (new ``/dev/shm`` segments), starts fresh worker processes
and tears both down again — fine for a single solve, ruinous for a
stream of instances arriving faster than that start-up cost.
:class:`SolverEngine` keeps that per-``k`` state across solves:

* an opened :class:`~repro.store.RamStore` — the shared-memory tables —
  and a :class:`~repro.core.supervisor.Supervisor` whose ``workers - 1``
  children map them (each with its own
  :class:`~repro.core.kernels.LayerArena`), both built once and reused
  for every solve of the same ``k``;
* each solve re-arms the store (``RamStore.rearm``: reset ``cost`` and
  ``best``, write the instance's ``p``), rebinds the supervisor to its
  own recovery log and telemetry (:meth:`Supervisor.rebind`), and runs
  the same :func:`~repro.core.parallel.run_layers` barrier loop as the
  cold path — the per-problem statics ride every shard task, so the
  workers never need restarting between problems.  Because the next
  solve re-arms the tables, each result gets copies of them, where a
  cold solve's store hands its own over;
* :meth:`SolverEngine.solve_many` pipelines the ``subset_weights``
  precompute of the *next* instance against the in-flight solve on a
  background thread (the butterfly accumulation is numpy work that
  releases the GIL).

A solve that resolves to one worker (below the warm crossover
``PARALLEL_MIN_K_WARM``, or a one-worker engine) is the cold one-worker
:func:`~repro.core.parallel.solve_dp_parallel` call with the engine's
persistent scratch arena: no store or worker is kept for it, and it is
still bit-for-bit identical to a cold :func:`repro.core.solve`.

The engine is a context manager; use it as one (or call :meth:`close`)
so the shared segments and the workers are released deterministically.
Checkpointed or custom-policy solves have per-solve failure-domain
state that a warm engine cannot share — route those through the cold
:func:`repro.core.solve` path (``solve(engine=...)`` does this
automatically).
"""

from __future__ import annotations

import functools
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
from .parallel import MIN_SHARD, PARALLEL_MIN_K_WARM, run_layers, solve_dp_parallel
from .problem import TTProblem
from .sequential import DPResult
from .supervisor import RecoveryLog, ResiliencePolicy

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

    Results are bit-for-bit identical to the cold paths: the engine runs
    the same barrier loop over the same kind of store with the same
    supervisor machinery — only the *lifetime* of the store and the
    workers differs.
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
        # Warm-state effectiveness counters, exposed on result.metrics:
        # a healthy stream shows pool_reuses == solves - table_rebuilds.
        self.stats = {"pool_reuses": 0, "table_rebuilds": 0}
        self._closed = False
        self._arena = LayerArena()
        self._store = None  # the opened RamStore of the current k
        self._supervisor = None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "SolverEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the workers and the shared segments (idempotent)."""
        self._closed = True
        self._teardown()

    def _teardown(self) -> None:
        # The workers go first: they map the store's segments.
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.shutdown()
        store, self._store = self._store, None
        if store is not None:
            store.close()

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
        if workers == 1:
            result = solve_dp_parallel(
                problem, workers=1, p=p, progress=progress, arena=self._arena
            )
        else:
            result = self._solve_parallel(problem, p, workers, progress)
        self.solves += 1
        return result

    def _solve_parallel(
        self, problem: TTProblem, p: np.ndarray, workers: int, progress
    ) -> DPResult:
        from ..store import RamStore  # runtime import: store builds on core

        # Validate any fault spec in the parent, like the cold path.
        knob("REPRO_FAULT_SPEC")
        # Telemetry rides the ambient tracer (the CLI / caller activates
        # one around the solve); each solve gets its own registry so the
        # result's metrics block describes this instance only.
        tr = obs_trace.current()
        reg = obs_metrics.MetricsRegistry()
        log = RecoveryLog()
        log.tracer = tr

        store = self._store
        reused = store is not None and store.k == problem.k
        if reused:
            store.rearm(p)
        else:
            self._teardown()
            store = RamStore(problem, p=p)
            store.open()
            self._store = store
        which = "pool_reuses" if reused else "table_rebuilds"
        self.stats[which] += 1
        reg.inc(f"engine.{which}")
        store.bind_telemetry(tr, reg)

        task = functools.partial(
            _par._solve_shard,
            problem.subset_array, problem.cost_array, problem.test_mask_array,
        )
        supervisor = self._supervisor
        if supervisor is not None and supervisor.degraded:
            # A previous solve lost its workers; give the next one a fresh
            # chance instead of pinning the whole engine in-process.
            supervisor.shutdown()
            supervisor = None
            log.event("revive")
        if supervisor is None:
            supervisor = self._supervisor = _par._pool_supervisor(
                store, self.policy, task, log, tracer=tr, metrics=reg
            )
        else:
            supervisor.rebind(task, log, tracer=tr, metrics=reg)

        result = run_layers(
            problem, store, supervisor,
            workers=workers, min_shard=self.min_shard, log=log, tracer=tr,
            metrics=reg, arena=self._arena, progress=progress,
        )
        # The store's tables are re-armed by the next solve: the result
        # gets copies (a cold solve's store hands its own tables over).
        result.cost = result.cost.copy()
        result.best_action = result.best_action.copy()
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
