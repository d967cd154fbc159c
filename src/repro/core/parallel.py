"""Multi-core layer-parallel DP over a layer store: the one barrier loop.

This is the host-side realization of the paper's parallel structure: the
backward-induction recurrence has *no* dependencies inside a popcount
layer — ``C(S)`` for ``#S = j`` reads only ``C(S ∩ T_i)`` and
``C(S - T_i)``, both of strictly smaller popcount whenever the candidate
is valid.  The paper maps every ``(S, i)`` pair onto its own PE and runs
the layers as ASCEND phases with one barrier between layers (§6); here
the same dataflow is mapped onto a handful of OS processes by a single
loop, :func:`run_layers`:

* the tables (``C``, ``best_action`` and the subset weights ``p``) live
  in an opened :class:`~repro.store.LayerStore` — shared memory or plain
  RAM (:class:`~repro.store.RamStore`), or memory-mapped spill files
  (:class:`~repro.store.MmapStore`); the layer-sorted mask order is the
  cached :func:`~repro.core.kernels.layer_plan`'s, which every solving
  process holds (the spill store keeps a checksummed file copy);
* each layer is sharded into contiguous runs of masks, at most one per
  worker; a layer too small to amortize IPC runs in the parent on the
  same tables (the same :func:`~repro.core.kernels.solve_slice`);
* ``workers`` counts the parent: a solve with ``workers=w`` starts
  ``w - 1`` child processes, each owning one pipe and, statically, one
  shard index.  Child ``i`` gathers ``C`` from completed layers for
  shard ``i`` and scatters its results back into the shared table, while
  the parent computes the layer's last shard itself rather than idling
  at the barrier — a 2-core host runs one child, not two;
* the only synchronization is the per-layer barrier, exactly where the
  paper's ASCEND phases place theirs — but the barrier is *supervised*
  (:class:`~repro.core.supervisor.Supervisor`): each shard has a
  deadline, a dead child is detected from its process sentinel and only
  the shard it held is retried (a timed-out child is SIGKILLed and
  reaped first), lost children are respawned with bounded retries, and
  past the retry budget the shard is finished in the parent instead of
  hanging or raising.

One function drives that loop and returns its
:class:`~repro.core.sequential.DPResult`: :func:`solve_dp_parallel`
opens a store, binds a supervisor above one worker — its own, or one the
warm :class:`~repro.core.engine.SolverEngine` lends it — runs the layers
and closes the store.  The store's worker spec and the problem's statics
ride every shard task, so a child maps a solve's tables on its first
task and unmaps them when the solve ends: one set of warm children
serves every problem, whatever its ``k``.

Determinism: each subset's argmin is computed *entirely inside one
worker* by scanning actions in index order through
:func:`~repro.core.kernels.solve_slice` — sharding is over
subsets, never over actions — so the tie-break rule (lowest action index
wins) and the float evaluation order are bit-for-bit those of
:func:`solve_dp` and :func:`solve_dp_reference`, regardless of worker
count, scheduling order, retries, respawns or fallbacks.  A shard is a
pure function of the completed layers writing a slice nothing else
touches, which is what makes replaying a half-written one provably safe
— see the failure model in DESIGN.md.

Same-layer reads cannot race across shards: a gather index in the
*current* layer is only ever the subset's own mask ``S`` (``inter == 0``
implies ``rest == S`` and vice versa), which lives in the gathering
shard's own slice — never in another shard's.  Every shard and parent
slice runs :func:`~repro.core.kernels.solve_slice`, which sets those
masks to ``INF`` before the kernel reads them; that restores the
kernel's table-state invariant over whatever an earlier attempt of the
slice left half written, so a *replayed* shard writes the exact same
bytes with zero table copying.

The loop is store agnostic: ``open()`` reports which layers already
hold trusted values (the journal's validated slabs), the loop computes
every other layer in ascending order and commits each to a persisting
store, and that single *skip-valid, compute-the-rest* mechanism covers
cold solves, resume after SIGKILL, and re-derivation of corrupted
layers alike.  A
journaled store (the spill store always; the RAM store under
``policy.checkpoint``) whose commit fails mid-solve (``ENOSPC``)
degrades to an unpersisted in-RAM store when the tables fit under
``REPRO_RAM_BUDGET_BYTES``, else the solve fails loudly.

Persistence is pipelined: layer ``j``'s durable commit runs on a
background :class:`~repro.store.pipeline.AsyncCommitter` thread while
the workers compute layer ``j + 1`` — sound because a layer's table
entries never change after its barrier and commits run the store's own
protocol in order, with errors surfacing at the next barrier and a full
drain before the manifest is marked complete.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory, util

import numpy as np

from ..config import knob
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import faults
from .errors import InvalidProblem, SolverError
from .kernels import TABLE_DTYPES, LayerArena, layer_plan, solve_slice
from .problem import TTProblem
from .sequential import DPResult
from .supervisor import RecoveryLog, ResiliencePolicy, Supervisor

__all__ = [
    "solve_dp_parallel",
    "run_layers",
    "PARALLEL_MIN_K_COLD",
    "PARALLEL_MIN_K_WARM",
    "MIN_SHARD",
]

# The "auto" crossovers (repro.core.dispatch): the smallest k from which
# the parallel path beat single-process numpy at every larger k of the
# committed k-ladder (benchmarks/bench_ladder.py -> BENCH_LADDER.json),
# once for a cold solve() that starts its workers and tables per call
# and once for a warm SolverEngine that keeps them.
PARALLEL_MIN_K_COLD = 21
PARALLEL_MIN_K_WARM = 20

# A layer slice must contain at least this many subsets to be worth
# shipping to a worker; smaller layers are solved in the parent process
# (same kernel, same shared table, zero IPC).
MIN_SHARD = 2048


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_WORKER: dict = {}  # this worker's tables while a solve runs: "spec" and its arrays
_ARENA = LayerArena()  # this worker's kernel scratch, which outlives them


def _drop_tables(_=None) -> None:
    """Unmap this worker's tables (the release task a solve ends with)."""
    global _WORKER
    blocks = _WORKER.get("blocks", {})
    _WORKER = {}  # drop the arrays before their blocks close
    for blk in blocks.values():
        blk.close()


def _tables(spec) -> dict:
    """Map here the tables ``spec`` (a ``LayerStore.worker_spec()``) names.

    ``mode="shm"`` names shared-memory blocks (the parent creates and
    unlinks them; a worker shares its resource tracker, so attaching
    registers nothing new), ``mode="mmap"`` a spill directory whose
    ``.dat`` files are memmapped (``MAP_SHARED``, so parent and worker
    writes are coherent).  Mapped on a solve's first task and dropped
    when it ends (:func:`_drop_tables`), so one worker serves every
    solve, whatever the store or ``k``.  A shared-memory worker takes
    the mask order from its own :func:`~repro.core.kernels.layer_plan`,
    built once per ``k`` (a forked child inherits the parent's).
    """
    global _WORKER
    if _WORKER.get("spec") == spec:
        return _WORKER
    _drop_tables()
    n_sub = spec["n_sub"]
    if spec["mode"] == "shm":
        blocks = {key: shared_memory.SharedMemory(name=name)
                  for key, name in spec["names"].items()}
        tables = {
            key: np.ndarray(n_sub, dtype=TABLE_DTYPES[key], buffer=blk.buf)
            for key, blk in blocks.items()
        }
        tables["blocks"] = blocks
        # Safe to call after a fork: no parent thread but the solve
        # thread calls layer_plan, so its lock is free at every fork.
        tables["order"] = layer_plan(n_sub.bit_length() - 1).order
    else:
        spill = spec["dir"]
        tables = {
            key: np.memmap(os.path.join(spill, key + ".dat"), dtype=dtype,
                           mode="r+" if key in ("cost", "best") else "r",
                           shape=(n_sub,))
            for key, dtype in TABLE_DTYPES.items()
        }
    tables["spec"] = spec
    _WORKER = tables
    return tables


def _solve_shard(spec, subsets, costs, is_test, task: tuple) -> tuple:
    """Solve masks ``order[lo:hi]`` (a contiguous slice of one layer).

    The parent binds the store's worker spec (the tables to map, see
    :func:`_tables`) and the problem's statics with ``functools.partial``,
    so they travel with each task.  ``task`` is ``(lo, hi, layer_index,
    shard_index, attempt)`` plus an optional sixth ``trace`` flag; the
    extra coordinates drive deterministic fault injection and let the
    supervisor attribute completions.  Returns ``(shard_index, count)`` —
    or, when tracing, ``(shard_index, count, raw_events)``: the worker
    records its shard span (and any fault instants) into a small private
    ring buffer and flushes it back through the result channel, which is
    what makes the cross-process trace one mergeable timeline with no
    extra IPC.

    :func:`~repro.core.kernels.solve_slice` resets the shard's own masks
    to ``INF``, runs the kernel straight over the shared table and
    scatters, so a shard replayed after its predecessor died
    mid-scatter writes bit-identical bytes (see the module docstring).
    No signal is masked: a worker killed mid-scatter is exactly the
    failure a replay repairs.
    """
    lo, hi, layer_idx, shard_idx, attempt = task[:5]
    traced = len(task) > 5 and bool(task[5])
    w = _tables(spec)
    tracer = obs_trace.Tracer(max_events=obs_trace.WORKER_EVENT_CAP) if traced else None
    t_start = time.monotonic()
    # The worker tracer is made ambient around the whole shard body so
    # deep sites (fault injection, kernels) land in it without plumbing.
    with obs_trace.tracing(tracer):
        faults.inject(layer_idx, shard_idx, attempt)
        solve_slice(w["cost"], w["best"], w["p"], w["order"], lo, hi,
                    subsets, costs, is_test, _ARENA)
    if tracer is None:
        return shard_idx, hi - lo
    tracer.complete(
        "shard", "shard", t_start, time.monotonic(),
        layer=layer_idx, shard=shard_idx, attempt=attempt, masks=hi - lo,
    )
    return shard_idx, hi - lo, tracer.raw_events()


def _drop_inherited_segments() -> None:
    """Point each inherited ``/dev/shm`` segment descriptor at /dev/null:
    a forked child inherits one per parent table array (Python's mmap
    keeps a duplicate of its file), which would pin the segment for the
    child's life.  The inherited object that owns one closes /dev/null."""
    fd_dir = "/proc/self/fd"  # absent where segments are not files
    null = os.open(os.devnull, os.O_RDONLY)
    for fd in os.listdir(fd_dir) if os.path.isdir(fd_dir) else ():
        try:
            if os.readlink(f"{fd_dir}/{fd}").startswith("/dev/shm/psm_"):
                os.dup2(null, int(fd))
        except OSError:
            pass  # the listing's own descriptor, closed already
    os.close(null)


def _worker_main(conn) -> None:
    """Body of one owned worker: serve shards until told to stop.

    The worker drops its inherited segments and sends ``True``
    (started).  Each message is then ``(task, args)``; the reply is
    ``(True, task(args))`` or ``(False, error)`` when the task raised.
    ``None`` — or the parent end of the pipe closing — stops the worker.
    """
    _drop_inherited_segments()
    conn.send(True)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task, args = msg
        try:
            reply = (True, task(args))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


def _start_worker() -> tuple:
    """Start one owned worker, with no tables: ``(process, parent pipe end)``."""
    ctx = mp.get_context(knob("REPRO_START_METHOD"))
    parent_end, child_end = ctx.Pipe()
    # Forked children close every inherited parent end (their own and
    # their siblings'), so a dead parent leaves each child's recv at EOF.
    util.register_after_fork(parent_end, type(parent_end).close)
    proc = ctx.Process(target=_worker_main, args=(child_end,), daemon=True)
    proc.start()
    child_end.close()
    return proc, parent_end


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _shard_bounds(lo: int, hi: int, workers: int, min_shard: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi)`` into at most ``workers`` contiguous near-equal runs."""
    size = hi - lo
    n = max(1, min(workers, size // min_shard))
    if n == 1:
        return [(lo, hi)]
    cuts = np.linspace(lo, hi, n + 1).astype(int)
    return [(int(cuts[t]), int(cuts[t + 1])) for t in range(n) if cuts[t] < cuts[t + 1]]


def run_layers(
    problem: TTProblem,
    store,
    supervisor: Supervisor | None,
    *,
    workers: int,
    min_shard: int,
    log: RecoveryLog,
    tracer,
    metrics,
    arena: LayerArena,
    valid=frozenset(),
    progress=None,
) -> DPResult:
    """Run every popcount layer of ``problem`` not in ``valid`` over ``store``.

    ``store`` is an opened :class:`~repro.store.LayerStore`.
    ``supervisor``, bound to this solve's shard task, runs each layer that
    splits into several shards; single-shard layers, and every layer when
    there is no supervisor or it has degraded, run in the parent through
    :func:`~repro.core.kernels.solve_slice` over the store's tables.
    When the store persists, each computed layer is committed on an
    :class:`~repro.store.pipeline.AsyncCommitter`.  A commit that fails with
    :class:`~repro.store.StoreWriteError` carries the tables into RAM
    (:meth:`RamStore.adopt`) and finishes in the parent, without the
    supervisor.  Skipped layers must already hold trusted values.

    Layer spans, ``log`` entries and ``metrics`` are recorded here, the
    same for every caller, and this is where every host backend's
    :class:`~repro.core.sequential.DPResult` is built: its tables come
    from ``result_tables()`` after ``finish(True)`` — arrays that stay
    valid once the caller closes the store — and its ``recovery`` and
    ``metrics`` are snapshots of ``log`` and ``metrics``; its
    ``workers`` is the caller's, and its ``backend`` follows from it.
    """
    from .. import store as store_mod  # runtime import: store builds on core

    if min_shard < 1:
        raise InvalidProblem(f"min_shard must be >= 1, got {min_shard}")
    k = problem.k
    subsets = problem.subset_array
    costs = problem.cost_array
    is_test = problem.test_mask_array
    t_start = time.monotonic()
    grows0 = arena.grows
    log.store = store.kind
    layer = 0
    committer = None
    if store.persists:
        committer = store_mod.AsyncCommitter(store, tracer=tracer, metrics=metrics)

    def solve_in_parent(lo: int, hi: int) -> int:
        """The parent's own shard of a pool layer, and small, degraded
        and fallback slices: the slice body a child runs, over whichever
        store currently holds the tables (read at call time, so after
        :func:`degrade_to_ram` it is the adopted RAM store)."""
        ts = time.monotonic()
        n = solve_slice(store.cost, store.best, store.p, store.order, lo, hi,
                        subsets, costs, is_test, arena)
        dt = time.monotonic() - ts
        metrics.inc("time.kernel_s", dt)
        metrics.observe("shard.seconds", dt)
        if tracer.collecting:
            tracer.complete("parent-slice", "shard", ts, ts + dt, layer=layer, masks=n)
        return n

    def degrade_to_ram(exc) -> None:
        """Swap a store whose journal failed for unpersisted RAM tables.

        The layer values are fine — only persistence failed — so the
        tables' current contents carry over and nothing is recomputed;
        the remaining layers finish in the parent.  When the tables do
        not fit the RAM budget the original failure is what surfaces.
        """
        nonlocal store, supervisor, committer
        if committer is not None:
            committer.close()
            committer = None
        supervisor = None  # its workers map the failed store's tables
        try:
            adopted = store_mod.RamStore.adopt(problem, store.cost, store.best, store.p)
        except SolverError as budget_exc:
            raise SolverError(
                f"{store.kind} store failed ({exc}) and falling back to "
                f"RAM is not possible: {budget_exc}"
            ) from exc
        adopted.bind_telemetry(tracer, metrics)
        store.close()
        store = adopted
        log.degraded = True
        log.event("store-degraded", reason=str(exc), fallback="ram")

    def report_progress(hi: int) -> None:
        if committer is None:  # nothing persists, or after degrade_to_ram
            progress.layer_done(layer, hi)
            return
        stats = committer.stats()
        progress.layer_done(layer, hi, stats["committed_bytes"], stats["queued_bytes"])

    metrics.inc("layers.total", k)
    if progress is not None:
        progress.begin(k, 1 << k)
    # The solve's tracer is ambient for the whole loop so parent-side
    # deep sites (storage fault injection, kernels) reach it without
    # parameter threading; workers activate their own (see _solve_shard).
    with obs_trace.tracing(tracer):
        try:
            for layer in range(1, k + 1):
                lo, hi = store.bounds(layer)
                if layer in valid:
                    metrics.inc("layers.skipped")
                    if progress is not None:
                        report_progress(hi)
                    continue
                t0 = time.monotonic()
                shards = _shard_bounds(lo, hi, workers, min_shard)
                if len(shards) == 1 or supervisor is None or supervisor.degraded:
                    # Layer too small to amortize IPC (or no workers, or
                    # they are gone): solve in the parent on the same
                    # tables — identical kernel, still a barrier.
                    done = solve_in_parent(lo, hi)
                    mode = "degraded" if log.degraded or (
                        supervisor is not None and supervisor.degraded
                    ) else "parent"
                else:
                    done = supervisor.run_layer(layer, shards, solve_in_parent)
                    mode = "pool"
                if done != hi - lo:
                    # Must survive `python -O`: a lost shard is silent
                    # corruption, the one failure that may never be quiet.
                    raise SolverError(
                        f"layer {layer} incomplete: {done} of {hi - lo} masks solved"
                    )
                dt = time.monotonic() - t0
                log.layer(layer, dt, len(shards), mode)
                metrics.inc("layers.computed")
                metrics.observe("layer.seconds", dt)
                if tracer.collecting:
                    tracer.complete("layer", "layer", t0, t0 + dt, layer=layer,
                                    masks=hi - lo, shards=len(shards), mode=mode)
                if committer is not None:
                    try:
                        committer.submit(layer)
                    except store_mod.StoreWriteError as exc:
                        # A failed commit surfaces here one barrier late;
                        # the extra computed layer carries over to RAM.
                        degrade_to_ram(exc)
                if progress is not None:
                    report_progress(hi)
            if committer is not None:
                # Every layer is computed; retire the commit pipeline
                # before declaring completion — "finish(True)" must imply
                # "all layers durably committed".
                try:
                    committer.drain()
                except store_mod.StoreWriteError as exc:
                    degrade_to_ram(exc)
            store.finish(True)
            cost, best = store.result_tables()
        finally:
            # Before the caller closes the store: an in-flight commit
            # reads its live tables.  On a fault path queued commits are
            # dropped (the slabs land on resume).
            if committer is not None:
                committer.close()
            if progress is not None:
                progress.finish()
    metrics.set_gauge("time.solve_s", round(time.monotonic() - t_start, 6))
    metrics.inc("arena.grows", arena.grows - grows0)
    return DPResult(
        problem=problem,
        cost=cost,
        best_action=best,
        op_count=((1 << k) - 1) * problem.n_actions,
        recovery=log.as_dict(),
        metrics=metrics.as_dict(),
        backend="numpy" if workers == 1 else "parallel",
        workers=workers,
    )


def solve_dp_parallel(
    problem: TTProblem,
    workers: int | None = None,
    *,
    p: np.ndarray | None = None,
    min_shard: int = MIN_SHARD,
    policy: ResiliencePolicy | None = None,
    store=None,
    tracer=None,
    metrics=None,
    progress=None,
    arena: LayerArena | None = None,
    supervisor: Supervisor | None = None,
) -> DPResult:
    """Backward induction over the popcount layers on ``workers`` processes.

    The one path around :func:`run_layers` at any worker count: open
    the store, bind a supervisor only above one worker, run the layers,
    close the store — so a one-worker solve maps no ``/dev/shm`` segment
    and starts no child.  The tables are bit-for-bit
    :func:`solve_dp_reference`'s at every worker count (see the module
    docstring).  ``p`` may carry precomputed :func:`subset_weights`, and
    ``arena`` a warm :class:`LayerArena` for the parent's slices.

    ``policy`` configures fault handling (per-shard timeout, bounded
    retries, in-process fallback) and the checkpoint journal; the
    default :class:`ResiliencePolicy` retries crashed shards and falls
    back to the in-process kernel rather than failing the solve.  The
    recovery log lands on ``DPResult.recovery``.

    ``supervisor`` lends the solve workers that outlive it, under their
    own policy (the warm :class:`~repro.core.engine.SolverEngine` keeps
    one); over shared tables such a solve returns copies of its results
    and recycles the tables (:meth:`~repro.store.RamStore.recycle`).
    Otherwise a solve above one worker builds its own and stops it.

    ``store`` selects where the tables live: ``None`` for the in-RAM
    default, a :class:`repro.store.StoreSpec` (e.g. ``kind="mmap"`` +
    ``spill_dir`` for a durable out-of-core solve), or an unopened
    :class:`repro.store.LayerStore` instance.

    Telemetry is observational only — a traced solve writes bit-identical
    tables.  ``tracer`` is a :class:`repro.obs.Tracer` (``None`` inherits
    the ambient tracer, disabled by default); ``metrics`` an optional
    :class:`repro.obs.MetricsRegistry` to fill (one is created per solve
    otherwise — the snapshot lands on ``DPResult.metrics`` either way);
    ``progress`` an optional :class:`repro.obs.ProgressReporter` pinged
    at each layer barrier.
    """
    from .. import store as store_mod  # runtime import: store builds on core

    workers = knob("REPRO_WORKERS", workers)
    if workers < 1:
        raise InvalidProblem("workers must be >= 1")
    pool = workers > 1

    if store is None or isinstance(store, store_mod.StoreSpec):
        store = store_mod.open_store(store, problem, policy=policy, p=p, shared=pool)
    if pool or store.persists:
        # Validate the fault knobs in the *parent*, before any dispatch: a
        # typo'd spec must fail the solve, not silently never fire in a
        # worker or a commit (a one-worker RAM solve has neither).
        knob("REPRO_FAULT_SPEC")
        knob("REPRO_STORE_CRASH")

    tr = tracer if tracer is not None else obs_trace.current()
    reg = metrics if metrics is not None else obs_metrics.MetricsRegistry()
    log = RecoveryLog()
    log.tracer = tr  # recovery events double as trace instants
    if policy is not None and policy.checkpoint:
        log.checkpoint = os.fspath(policy.checkpoint)
    store.bind_telemetry(tr, reg)

    # Open the store.  A journaled store that cannot even write its
    # directory (ENOSPC up front) degrades to a fresh unpersisted in-RAM
    # solve when the tables fit the budget; otherwise the original
    # failure surfaces.
    try:
        with tr.span("store.open", cat="store", kind=store.kind):
            report = store.open()
    except store_mod.StoreWriteError as exc:
        if not store.persists:
            raise
        fallback = store_mod.RamStore(problem, p=p, use_shm=pool)
        fallback.bind_telemetry(tr, reg)
        try:
            with tr.span("store.open", cat="store", kind=fallback.kind):
                report = fallback.open()
        except SolverError as budget_exc:
            raise SolverError(
                f"{store.kind} store failed to open ({exc}) and falling "
                f"back to RAM is not possible: {budget_exc}"
            ) from exc
        store.close()
        store = fallback
        log.degraded = True
        log.event("store-degraded", reason=str(exc), fallback="ram")

    if report.resumed:
        log.resumed_from_layer = report.completed_prefix
        log.event("resume", completed_layer=report.completed_prefix)
    if report.rederive_layers:
        log.rederived += len(report.rederive_layers)
        reg.inc("store.rederived", len(report.rederive_layers))
        log.event("rederive", layers=list(report.rederive_layers))
    log.events.extend(report.events)

    own = None  # a supervisor built here, and so shut down here
    try:
        spec = store.worker_spec() if pool else None
        if spec is None:
            supervisor = None  # every layer runs in the parent
        else:
            if supervisor is None:
                supervisor = own = Supervisor(policy or ResiliencePolicy(), _start_worker)
            task = functools.partial(
                _solve_shard, spec, problem.subset_array, problem.cost_array,
                problem.test_mask_array,
            )
            supervisor.bind(task, log, tracer=tr, metrics=reg)
        result = run_layers(
            problem, store, supervisor,
            workers=workers, min_shard=min_shard, log=log, tracer=tr, metrics=reg,
            arena=arena if arena is not None else LayerArena(),
            valid=report.valid_layers, progress=progress,
        )
        if supervisor is not own and spec["mode"] == "shm":
            # Results leave /dev/shm, which a stream must not fill, and
            # the tables serve the stream's next solve of this k.
            result.cost = result.cost.copy()
            result.best_action = result.best_action.copy()
            store.recycle()
        return result
    finally:
        # Stop the workers built here, or have lent ones unmap the
        # tables, *before* the store tears them down.
        if own is not None:
            own.shutdown()
        elif supervisor is not None:
            supervisor.unbind(_drop_tables)
        store.close()
