"""Unified ``solve()`` entry point over the host-side DP backends.

``repro.core.solve(problem)`` is the one call sites should use: it picks
a worker count for the instance size, reuses the per-problem
``subset_weights`` vector across repeated solves, and always returns the
same :class:`~repro.core.sequential.DPResult` regardless of backend.

Backends
--------

Every backend but ``"reference"`` spells a worker count for one call of
:func:`~repro.core.parallel.solve_dp_parallel`, the one layer loop:

``"numpy"``
    One worker: each popcount layer is one
    :func:`~repro.core.kernels.solve_slice` call in this process, over
    plain RAM tables.  The right choice for small/medium ``k``.
``"parallel"``
    ``workers`` (else ``REPRO_WORKERS``) whatever ``k``: above one, the
    tables go to shared memory and ``workers - 1`` children split each
    large layer.  Worth the fork/IPC overhead once the middle layers
    hold tens of thousands of subsets.
``"reference"``
    :func:`~repro.core.sequential.solve_dp_reference` — the plain-Python
    oracle; exposed here so differential tests and debugging sessions go
    through the same front door.  It has no layer store.
``"auto"``
    The ``"parallel"`` count when ``k`` is at least the crossover of the
    path that will run it —
    ``PARALLEL_MIN_K_COLD`` for a cold :func:`solve`, which starts its
    workers per call, ``PARALLEL_MIN_K_WARM`` for a
    :class:`~repro.core.engine.SolverEngine`, which keeps them —
    otherwise one worker.  Both constants live in
    :mod:`repro.core.parallel` and come from the committed k-ladder
    (``benchmarks/bench_ladder.py`` → ``BENCH_LADDER.json``): each is the
    smallest ``k`` from which that path beat one worker at
    every larger ``k`` measured, so ``auto`` never picks a path the
    ladder measured slower.  The ladder ran at the host's core count; a
    host of another shape may cross over elsewhere — re-run the ladder
    there.

A checkpoint, either store and progress work at any worker count.  All
backends honour the same determinism contract (see
:mod:`repro.core.sequential`), so switching backends never changes
``cost`` or ``best_action`` — not even in the last bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from collections import OrderedDict

import numpy as np

from ..config import KNOBS, knob
from ..obs import trace as obs_trace
from .errors import InvalidProblem
from .kernels import check_k, plan_cache_stats
from .parallel import PARALLEL_MIN_K_COLD, solve_dp_parallel
from .problem import TTProblem
from .sequential import DPResult, solve_dp_reference, subset_weights
from .supervisor import ResiliencePolicy

__all__ = [
    "solve",
    "resolve_backend",
    "cached_subset_weights",
    "weights_cache_nbytes",
    "weights_cache_stats",
    "BACKENDS",
]

BACKENDS = ("auto", "numpy", "parallel", "reference")

# Every knob a DP solve can read: all but the BVM's backend, whose path
# does not go through solve().
SOLVE_KNOBS = tuple(name for name in KNOBS if name != "REPRO_BVM_BACKEND")

_WEIGHTS_LOCK = threading.Lock()
_WEIGHTS_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_WEIGHTS_STATS = {"hits": 0, "misses": 0}


def weights_cache_nbytes() -> int:
    """Bytes currently pinned by the subset-weights cache."""
    with _WEIGHTS_LOCK:
        return sum(arr.nbytes for arr in _WEIGHTS_CACHE.values())


def weights_cache_stats() -> dict:
    """Lifetime hit/miss counts of the subset-weights cache (a copy)."""
    with _WEIGHTS_LOCK:
        return dict(_WEIGHTS_STATS)


def _clear_weights_cache() -> None:
    """Test hook: drop every cached weights vector (and its stats)."""
    with _WEIGHTS_LOCK:
        _WEIGHTS_CACHE.clear()
        _WEIGHTS_STATS["hits"] = 0
        _WEIGHTS_STATS["misses"] = 0


def cached_subset_weights(problem: TTProblem) -> np.ndarray:
    """Memoized :func:`subset_weights` (read-only, keyed by the weights).

    The key is ``problem.weights`` alone — the vector depends on nothing
    else — so near-identical instances (e.g. the action-removal loop in
    :mod:`repro.core.bounds`, which re-solves the same universe with one
    action deleted) share a single cached vector.

    The cache is LRU with a *byte* budget (``REPRO_WEIGHTS_CACHE_BYTES``,
    default 64 MiB): entries are evicted oldest-first once the resident
    vectors exceed the budget, and a vector larger than the whole budget
    is returned uncached, so the cache can never pin more than the
    budget plus nothing.
    """
    key = problem.weights
    with _WEIGHTS_LOCK:
        cached = _WEIGHTS_CACHE.get(key)
        if cached is not None:
            _WEIGHTS_CACHE.move_to_end(key)
            _WEIGHTS_STATS["hits"] += 1
            return cached
        _WEIGHTS_STATS["misses"] += 1
    p = subset_weights(problem)
    p.setflags(write=False)
    budget = knob("REPRO_WEIGHTS_CACHE_BYTES")
    if p.nbytes > budget:
        return p
    with _WEIGHTS_LOCK:
        existing = _WEIGHTS_CACHE.get(key)
        if existing is not None:  # raced another thread: keep one copy
            _WEIGHTS_CACHE.move_to_end(key)
            return existing
        _WEIGHTS_CACHE[key] = p
        total = sum(arr.nbytes for arr in _WEIGHTS_CACHE.values())
        while total > budget and _WEIGHTS_CACHE:
            _, evicted = _WEIGHTS_CACHE.popitem(last=False)
            total -= evicted.nbytes
    return p


def resolve_backend(
    problem: TTProblem,
    backend: str = "auto",
    workers: int | None = None,
    min_k: int = PARALLEL_MIN_K_COLD,
) -> tuple[str, int]:
    """Resolve ``(backend, workers)`` the way a solve will run them.

    The backend is the name :attr:`DPResult.backend` will carry:
    ``"numpy"`` for one worker, ``"parallel"`` for more, or
    ``"reference"``.  ``min_k`` is ``"auto"``'s crossover, the cold one
    unless a warm engine passes its own.  Exposed so callers (CLI,
    benchmarks) can report what actually executed when they asked for
    ``"auto"``.  An explicit ``workers`` below 1 raises
    :class:`InvalidProblem` whatever the backend.
    """
    if backend not in BACKENDS:
        raise InvalidProblem(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if workers is not None and workers < 1:
        raise InvalidProblem("workers must be >= 1")
    count = knob("REPRO_WORKERS", workers)
    if backend == "reference":
        return backend, 1
    if backend == "numpy" or (backend == "auto" and problem.k < min_k):
        count = 1
    return ("numpy" if count == 1 else "parallel"), count


def solve(
    problem: TTProblem,
    backend: str = "auto",
    workers: int | None = None,
    *,
    policy: ResiliencePolicy | None = None,
    checkpoint: str | None = None,
    store: str | None = None,
    spill_dir: str | None = None,
    engine=None,
    tracer=None,
    progress=None,
) -> DPResult:
    """Solve a TT instance with the selected (or auto-selected) backend.

    ``backend`` and ``workers`` resolve to a worker count (see the module
    docstring), and every solve but the oracle's is one call of
    :func:`~repro.core.parallel.solve_dp_parallel` at that count.

    ``policy`` (a :class:`~repro.core.supervisor.ResiliencePolicy`)
    configures the pool's fault handling — per-shard timeout, bounded
    retries, in-process fallback — and ``checkpoint`` is a shorthand for
    ``policy.checkpoint``: a directory the in-RAM tables commit every
    layer into (the spill store's slab journal), resumed from (after a
    content-hash check) when it already holds verified layers.

    ``store`` / ``spill_dir`` select where the DP tables live (see
    :mod:`repro.store`): ``store`` is one of ``"auto"`` / ``"ram"`` /
    ``"mmap"`` (or a prebuilt :class:`repro.store.StoreSpec`), and
    ``spill_dir`` names the durable spill directory the mmap store
    commits its layers into.  The mmap store *replaces* checkpointing
    (the manifest already persists every layer durably), so combining
    the two is rejected.  Resume is implicit: reopening the same
    ``spill_dir`` skips every layer whose checksum verifies.  A
    checkpoint and either store work at any worker count; the reference
    oracle, which has no layer store, refuses a checkpoint and any store
    with :class:`InvalidProblem`.

    ``engine`` — a warm :class:`~repro.core.engine.SolverEngine` — routes
    the solve through the engine's amortized pool and tables (its own
    backend/worker configuration wins over valid arguments here; an
    invalid ``backend`` or ``workers``, or ``"reference"``, which has no
    warm path, raises :class:`InvalidProblem`).  The engine path is
    bit-for-bit identical to a cold solve.  Checkpointed, custom-policy
    or spilled solves carry per-solve failure-domain state the warm
    engine cannot share, so they fall through to the cold path.

    ``tracer`` / ``progress`` attach observability (see :mod:`repro.obs`)
    at any worker count, the engine's solves included: a
    :class:`~repro.obs.trace.Tracer` records the layer spans, and a
    :class:`~repro.obs.progress.ProgressReporter` gets a callback at
    each layer barrier.  Both are observational only —
    ``cost``/``best_action`` are bit-identical with them on or off.

    On entry, before any dispatch (the engine's included), ``k`` above
    :data:`~repro.core.kernels.MAX_K` and a bad value of any knob a DP
    solve can read (:data:`SOLVE_KNOBS`; ``workers`` given here stands
    in for ``REPRO_WORKERS``) raise :class:`InvalidProblem`.
    """
    check_k(problem.k)
    # Parse every knob this solve can read, once, before dispatch: a bad
    # value must fail even where the run would never reach its read (a
    # pool layer too small to start a worker, a weights-cache hit).
    for name in SOLVE_KNOBS:
        knob(name, workers if name == "REPRO_WORKERS" else None)
    spec = None
    store_kind = "ram"
    if store is not None or spill_dir is not None:
        from .. import store as store_mod  # runtime import: store builds on core

        if isinstance(store, store_mod.StoreSpec):
            if spill_dir is not None:
                raise InvalidProblem(
                    "pass spill_dir inside the StoreSpec, not alongside it"
                )
            spec = store
        else:
            spec = store_mod.StoreSpec(
                kind="auto" if store is None else store, spill_dir=spill_dir
            )
        store_kind = spec.resolve()

    # Cache traffic is process-global; snapshot before dispatch so the
    # result's metrics carry the hits/misses *this* solve caused.
    w0, pl0 = weights_cache_stats(), plan_cache_stats()

    def _finish(result: DPResult) -> DPResult:
        w1, pl1 = weights_cache_stats(), plan_cache_stats()
        m = result.metrics
        m["cache.weights_hits"] += w1["hits"] - w0["hits"]
        m["cache.weights_misses"] += w1["misses"] - w0["misses"]
        m["cache.plan_hits"] += pl1["hits"] - pl0["hits"]
        m["cache.plan_misses"] += pl1["misses"] - pl0["misses"]
        return result

    # An explicit tracer becomes ambient for the backend call; without
    # one, any tracer a caller already activated stays in effect.
    ambient = (
        obs_trace.tracing(tracer) if tracer is not None else contextlib.nullcontext()
    )

    if (
        engine is not None
        and policy is None
        and checkpoint is None
        and store_kind != "mmap"
    ):
        # Reject what a cold solve would reject; a valid value defers to
        # the engine's own configuration.
        resolve_backend(problem, backend, workers)
        if backend == "reference":
            raise InvalidProblem("backend 'reference' has no warm engine path")
        with ambient:
            return _finish(engine.solve(problem, progress=progress))
    if checkpoint is not None:
        policy = dataclasses.replace(
            policy or ResiliencePolicy(), checkpoint=checkpoint
        )
    backend, eff_workers = resolve_backend(problem, backend, workers)
    if backend == "reference":
        if spec is not None or (policy is not None and policy.checkpoint is not None):
            raise InvalidProblem(
                "the reference oracle has no layer store: it takes no store, "
                "spill directory or checkpoint; use another backend"
            )
        with ambient:
            return _finish(solve_dp_reference(problem))
    # The mmap store derives the weights into its own p.dat (out-of-core,
    # chunked); precomputing a 2^k RAM vector here would defeat the budget.
    p = None if store_kind == "mmap" else cached_subset_weights(problem)
    return _finish(
        solve_dp_parallel(
            problem,
            workers=eff_workers,
            p=p,
            policy=policy,
            store=spec,
            tracer=tracer,
            progress=progress,
        )
    )
