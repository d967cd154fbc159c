"""Supervised execution layer for the multi-core parallel DP engine.

PR 1's engine ran each popcount layer as a bare ``pool.map`` barrier —
correct, but brittle: a worker killed mid-layer (OOM, SIGKILL) hangs the
``map`` forever, a hard parent crash leaks the ``/dev/shm`` segments, and
a multi-hour solve that dies at layer 18 restarts from layer 1.  This
module supplies the machinery that makes those failures survivable:

* :class:`ResiliencePolicy` — the knobs (per-shard timeout, bounded
  retries with exponential backoff, in-process fallback, checkpoint
  path) threaded through :func:`repro.core.solve` and the CLI;
* :class:`Supervisor` — dispatches shards via ``apply_async``, blocks on
  completion (event-driven, with a bounded wake-up for deadline checks),
  detects dead workers (PID-set changes and pool breakage)
  and deadline overruns, re-dispatches failed shards with backoff,
  respawns the pool when its slots are wedged, and past ``max_retries``
  degrades to the in-process numpy kernel instead of raising (unless the
  policy says otherwise);
* :class:`SharedTables` — a leak-proof owner of the shared-memory
  blocks: ``atexit`` + SIGTERM/SIGINT guards unlink the segments even
  when the parent is torn down mid-solve;
* :func:`problem_content_hash` — the problem identity every durable
  layer journal (:mod:`repro.store.journal`) is bound to, so resuming
  against a different instance is refused;
* :class:`RecoveryLog` — the machine-readable account (retries,
  respawns, timeouts, fallbacks, per-layer wall clock) attached to
  ``DPResult.recovery``.

Everything here is *provably safe* to replay because of the determinism
contract locked down in :mod:`repro.core.sequential`: a shard is a pure,
bit-reproducible function of the completed layers and writes a slice no
other shard touches, so re-running a shard — even one that half-wrote
before dying, even concurrently with a stale duplicate — can only write
the exact same bytes.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from ..obs.metrics import NULL_METRICS
from ..obs.trace import NULL
from .errors import ShardTimeout, SolverError, WorkerCrash
from .problem import TTProblem

__all__ = [
    "ResiliencePolicy",
    "RecoveryLog",
    "SharedTables",
    "Supervisor",
    "problem_content_hash",
]

# Upper bound on how long the supervisor blocks before re-checking
# deadlines and worker liveness.  Shard *completion* wakes it immediately
# (it blocks in ``AsyncResult.wait``, not a sleep), so this only bounds
# the latency of timeout and crash detection.
_POLL_SECONDS = 0.02


# ----------------------------------------------------------------------
# Policy + recovery log
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResiliencePolicy:
    """Fault-handling knobs for one supervised solve.

    Attributes
    ----------
    timeout:
        Per-shard deadline in seconds (``None`` disables; dead-worker
        detection still works without it — only genuine hangs need a
        deadline to be caught).
    max_retries:
        Re-dispatches allowed per shard per layer before the shard is
        declared failed.
    backoff / backoff_max:
        Exponential re-dispatch delay: attempt ``a`` waits
        ``min(backoff * 2**(a-1), backoff_max)`` seconds.
    fallback:
        When a shard exhausts its retries (or the pool cannot be
        respawned), finish it on the in-process numpy kernel — same
        kernel, same bytes — instead of raising.
    checkpoint:
        Directory of the checkpoint journal — every computed layer is
        committed there as a checksummed slab (the spill store's format,
        :mod:`repro.store.journal`) and resumed from when it verifies;
        ``None`` disables checkpointing.
    keep_checkpoint:
        A finished solve removes its journal's manifest and slabs by
        default — the checkpoint exists to survive a *crash*, and a
        completed solve leaving slabs behind silently accumulates stale
        tables.  Set ``True`` to keep the completed journal (instant
        re-resume of the same problem).
    """

    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_max: float = 2.0
    fallback: bool = True
    checkpoint: str | os.PathLike | None = None
    keep_checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and not (self.timeout > 0):
            raise SolverError("policy timeout must be positive (or None)")
        if self.max_retries < 0:
            raise SolverError("policy max_retries must be >= 0")
        if self.backoff < 0 or self.backoff_max < 0:
            raise SolverError("policy backoff values must be >= 0")


@dataclass
class RecoveryLog:
    """Machine-readable account of everything the supervisor had to do."""

    # Optional mirror target (class attribute, not a dataclass field, so
    # it stays out of as_dict): when the solve loop attaches its tracer
    # here, every recovery event doubles as a trace instant — retries,
    # respawns, degradations, slab re-derivations all land on the
    # timeline without a second call site.
    tracer = None

    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    respawns: int = 0
    fallback_shards: int = 0
    rederived: int = 0
    degraded: bool = False
    resumed_from_layer: int | None = None
    checkpoint: str | None = None
    store: str | None = None
    layers: list = field(default_factory=list)
    events: list = field(default_factory=list)

    def event(self, kind: str, **detail) -> None:
        self.events.append({"kind": kind, **detail})
        if self.tracer is not None:
            self.tracer.instant(kind, cat="recovery", **detail)

    def layer(self, index: int, seconds: float, shards: int, mode: str) -> None:
        self.layers.append(
            {"layer": index, "seconds": round(seconds, 6), "shards": shards, "mode": mode}
        )

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "fallback_shards": self.fallback_shards,
            "rederived": self.rederived,
            "degraded": self.degraded,
            "resumed_from_layer": self.resumed_from_layer,
            "checkpoint": self.checkpoint,
            "store": self.store,
            "layers": list(self.layers),
            "events": list(self.events),
        }


# ----------------------------------------------------------------------
# Leak-proof shared-memory ownership
# ----------------------------------------------------------------------

_LIVE_TABLES: set = set()
_GUARDED_SIGNALS = (signal.SIGTERM, signal.SIGINT)
_prev_handlers: dict = {}
_guard_installed = False
_guard_lock = threading.Lock()


def _close_live_tables() -> None:
    for tables in list(_LIVE_TABLES):
        tables.close()


def _signal_guard(signum, frame):
    """Unlink every live segment, then defer to the previous handler."""
    _close_live_tables()
    prev = _prev_handlers.get(signum)
    if callable(prev):
        prev(signum, frame)
    else:
        # Re-raise with default disposition so exit status stays honest.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_guard() -> None:
    global _guard_installed
    with _guard_lock:
        if _guard_installed:
            return
        atexit.register(_close_live_tables)
        try:
            for signum in _GUARDED_SIGNALS:
                prev = signal.signal(signum, _signal_guard)
                if prev is not _signal_guard:
                    _prev_handlers[signum] = prev
        except ValueError:
            # Not the main thread: atexit still covers normal teardown.
            pass
        _guard_installed = True


class SharedTables:
    """Owner of the shared-memory blocks backing one parallel solve.

    Creates the ``cost`` / ``best`` / ``p`` / ``order`` segments, exposes
    them as numpy views, and guarantees they are closed **and unlinked**
    exactly once — on normal exit, on any raised exception (context
    manager), at interpreter shutdown (``atexit``), and on SIGTERM/SIGINT
    (signal guard) — so no failure mode strands ``/dev/shm`` segments.
    """

    def __init__(self, n_sub: int):
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        # Forked workers inherit _LIVE_TABLES *and* the signal guard; a
        # SIGTERM'd worker must never unlink the parent's segments, so
        # ownership is by PID and close() is a no-op elsewhere.
        self._owner_pid = os.getpid()
        for key, nbytes in (
            ("cost", n_sub * 8),
            ("best", n_sub * 8),
            ("p", n_sub * 8),
            ("order", n_sub * 8),
        ):
            self._blocks[key] = shared_memory.SharedMemory(create=True, size=nbytes)
        self.cost = np.ndarray(n_sub, dtype=np.float64, buffer=self._blocks["cost"].buf)
        self.best = np.ndarray(n_sub, dtype=np.int64, buffer=self._blocks["best"].buf)
        self.p = np.ndarray(n_sub, dtype=np.float64, buffer=self._blocks["p"].buf)
        self.order = np.ndarray(n_sub, dtype=np.int64, buffer=self._blocks["order"].buf)
        self.names = {key: blk.name for key, blk in self._blocks.items()}
        _install_guard()
        _LIVE_TABLES.add(self)

    def __enter__(self) -> "SharedTables":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Idempotent: drop the views, close and unlink every block.

        Only the creating process unlinks — in a forked child (pool
        worker running the inherited guard) this is a reference-drop
        no-op, otherwise a worker's SIGTERM would strand the parent
        mid-solve with vanished segments.
        """
        if self._closed:
            return
        if os.getpid() != self._owner_pid:
            return
        self._closed = True
        _LIVE_TABLES.discard(self)
        # Views must be released before close(), else BufferError.
        self.cost = self.best = self.p = self.order = None
        for blk in self._blocks.values():
            try:
                blk.close()
                blk.unlink()
            except FileNotFoundError:  # already gone (double teardown race)
                pass
        self._blocks = {}


# ----------------------------------------------------------------------
# Problem identity
# ----------------------------------------------------------------------


def problem_content_hash(problem: TTProblem) -> str:
    """Stable content hash of a problem (names excluded — cosmetic only)."""
    payload = {
        "k": problem.k,
        "weights": list(problem.weights),
        "actions": [[a.kind.value, a.subset, a.cost] for a in problem.actions],
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

# Seconds a pool teardown may take before the supervisor escalates to
# SIGKILL, and how many kill rounds to attempt before giving up.  A round
# per repopulation race is plenty.  A healthy teardown finishes in
# milliseconds, so a short grace only taxes the wedged case — and
# SIGKILLing a worker mid-shard is harmless here, since shards are pure
# replayable functions of the completed layers.
_SHUTDOWN_GRACE = 1.0
_SHUTDOWN_KILL_ROUNDS = 3


def _drain_pool(pool) -> None:
    """Blocking teardown of a pool, exception-proofed.

    Uses ``close() + join()`` rather than ``terminate()``: terminate's
    ``_help_stuff_finish`` drains the task queue while racing the idle
    workers for the queue's read lock, and when it wins it swallows the
    very sentinels those workers need to exit — stranding a worker that
    the subsequent unconditional join then waits on forever.  The polite
    path hands every worker its sentinel through the normal task-handler
    flow, so nothing is stolen; leftover duplicate shard tasks simply
    finish first (harmless — shards are replayable and idempotent).
    Workers that are genuinely stuck are the escalation's job.
    """
    try:
        if getattr(pool, "_cache", None):
            # A crashed worker leaves its in-flight ApplyResult in the
            # cache forever; close() would then never converge (the
            # worker handler keeps the pool staffed while results are
            # outstanding), so the hard path is the only correct one.
            pool.terminate()
        else:
            pool.close()
        pool.join()
    except Exception:
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass


class _Pending:
    __slots__ = ("result", "bounds", "attempt", "deadline", "last_failure")

    def __init__(self, result, bounds, attempt, deadline):
        self.result = result
        self.bounds = bounds
        self.attempt = attempt
        self.deadline = deadline
        self.last_failure = "crash"


class Supervisor:
    """Supervised per-layer shard dispatch over a worker pool.

    ``pool_factory`` creates a fresh initialized pool (used lazily and on
    every respawn); ``task`` is the picklable worker function receiving
    ``(lo, hi, layer_index, shard_index, attempt, trace)`` and returning
    ``(shard_index, n_masks_solved)`` — or, when the ``trace`` flag was
    set, ``(shard_index, n_masks_solved, raw_events)`` with the worker's
    telemetry flushed back through the same result channel.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        pool_factory,
        task,
        log: RecoveryLog,
        tracer=None,
        metrics=None,
    ):
        self.policy = policy
        self._pool_factory = pool_factory
        self._task = task
        self.log = log
        self._tracer = tracer if tracer is not None else NULL
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._max_shard_s = 0.0
        self._pool = None
        self._pids: set[int] = set()
        self.degraded = False  # pool unusable: rest of the solve runs in-process

    def rebind(self, task, log: RecoveryLog, tracer=None, metrics=None) -> None:
        """Point a warm supervisor at the next solve's task and log.

        The :class:`~repro.core.engine.SolverEngine` keeps one supervisor
        (and its pool) alive across many solves; each solve carries its
        own per-problem task closure, recovery log, and telemetry sinks
        (reset to disabled when omitted, so a traced solve never leaks
        its tracer into the next), while the pool, worker PIDs and
        degraded state persist.
        """
        self._task = task
        self.log = log
        self._tracer = tracer if tracer is not None else NULL
        self._metrics = metrics if metrics is not None else NULL_METRICS

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._pool_factory()
            self._pids = self._worker_pids()
        return self._pool

    def _worker_pids(self) -> set[int]:
        procs = getattr(self._pool, "_pool", None) or ()
        return {proc.pid for proc in procs}

    def _respawn_pool(self, reason: str) -> bool:
        """Terminate and recreate the pool; False = degrade to in-process."""
        self.shutdown()
        try:
            self._ensure_pool()
        except OSError as exc:
            self.log.event("degrade", reason=f"pool respawn failed: {exc}")
            self.degraded = True
            return False
        self.log.respawns += 1
        self._metrics.inc("pool.respawns")
        self.log.event("respawn", reason=reason)
        return True

    def shutdown(self) -> None:
        """Tear the pool down without trusting it to die politely.

        The polite path (see ``_drain_pool``) avoids the known teardown
        races, but a pool with crashed workers must go through
        ``Pool.terminate()``, whose unconditional final join trusts every
        worker to honor SIGTERM — and a SIGTERM can be silently lost
        (e.g. landing on a freshly forked replacement worker before
        CPython's ``PyOS_AfterFork_Child`` resets inherited signal
        state).  So the blocking teardown runs on a reaper thread, and if
        it overstays its grace period we escalate to SIGKILL, which the
        kernel delivers regardless of the interpreter's signal
        bookkeeping.
        """
        pool, self._pool = self._pool, None
        self._pids = set()
        if pool is None:
            return
        reaper = threading.Thread(
            target=_drain_pool, args=(pool,), name="pool-reaper", daemon=True
        )
        reaper.start()
        reaper.join(_SHUTDOWN_GRACE)
        attempts = 0
        while reaper.is_alive() and attempts < _SHUTDOWN_KILL_ROUNDS:
            attempts += 1
            live = [p for p in list(getattr(pool, "_pool", []) or []) if p.is_alive()]
            if not live:
                break
            self.log.event(
                "shutdown_escalation",
                attempt=attempts,
                pids=[p.pid for p in live],
            )
            for proc in live:
                proc.kill()
            reaper.join(_SHUTDOWN_GRACE)
        if reaper.is_alive():
            # Terminate is wedged on something SIGKILL cannot release
            # (e.g. a queue lock poisoned by a killed holder).  Abandon
            # the daemon thread rather than hang the solve.
            self.log.event("shutdown_abandoned")

    # -- dispatch ------------------------------------------------------

    def _deadline(self) -> float | None:
        if self.policy.timeout is None:
            return None
        return time.monotonic() + self.policy.timeout

    def _backoff(self, attempt: int) -> None:
        if attempt >= 1 and self.policy.backoff > 0:
            time.sleep(min(self.policy.backoff * (2 ** (attempt - 1)), self.policy.backoff_max))

    def _dispatch(self, layer_idx: int, sid: int, bounds, attempt: int) -> _Pending | None:
        """apply_async one shard; None means the pool is gone (degraded)."""
        self._backoff(attempt)
        for _ in range(2):  # one respawn attempt if the pool is broken
            try:
                result = self._ensure_pool().apply_async(
                    self._task,
                    (
                        (
                            bounds[0],
                            bounds[1],
                            layer_idx,
                            sid,
                            attempt,
                            self._tracer.collecting,
                        ),
                    ),
                )
                self._metrics.inc("shard.dispatched")
                return _Pending(result, bounds, attempt, self._deadline())
            except (OSError, ValueError, AssertionError) as exc:
                # ValueError("Pool not running") / AssertionError from a
                # terminated pool, OSError from a dead queue: breakage.
                if not self._respawn_pool(f"dispatch failed: {exc}"):
                    return None
        self.degraded = True
        return None

    def _shard_failed(
        self, layer_idx: int, sid: int, pd: _Pending, kind: str, pending: dict, fallback
    ) -> int:
        """Retry a failed shard, or fall back / raise past the budget.

        Returns masks solved in-process (0 unless the fallback ran).
        """
        detail = {"layer": layer_idx, "shard": sid, "attempt": pd.attempt}
        self.log.event(kind, **detail)
        if kind == "timeout":
            self.log.timeouts += 1
            self._metrics.inc("shard.timeouts")
        else:
            self.log.crashes += 1
            self._metrics.inc("shard.crashes")
        pd.last_failure = kind
        if pd.attempt < self.policy.max_retries and not self.degraded:
            self.log.retries += 1
            self._metrics.inc("shard.retries")
            replacement = self._dispatch(layer_idx, sid, pd.bounds, pd.attempt + 1)
            if replacement is not None:
                replacement.last_failure = kind
                pending[sid] = replacement
                return 0
        pending.pop(sid, None)
        if self.policy.fallback:
            self.log.fallback_shards += 1
            self._metrics.inc("shard.fallbacks")
            self.log.event("fallback", **detail)
            return fallback(*pd.bounds)
        exc_cls = ShardTimeout if kind == "timeout" else WorkerCrash
        raise exc_cls(
            f"shard {sid} of layer {layer_idx} failed ({kind}) after "
            f"{pd.attempt + 1} attempt(s) with retries exhausted and fallback disabled",
            layer=layer_idx,
            shard=sid,
        )

    def run_layer(self, layer_idx: int, shards, fallback) -> int:
        """Run one layer's shards to completion; returns masks solved.

        ``fallback(lo, hi)`` solves a shard on the in-process kernel and
        returns its size — used for degraded mode and post-retry rescue.
        """
        if self.degraded:
            self.log.fallback_shards += len(shards)
            self._metrics.inc("shard.fallbacks", len(shards))
            return sum(fallback(lo, hi) for lo, hi in shards)

        layer_t0 = time.monotonic()
        self._max_shard_s = 0.0
        done = 0
        pending: dict[int, _Pending] = {}
        for sid, bounds in enumerate(shards):
            pd = self._dispatch(layer_idx, sid, bounds, attempt=0)
            if pd is None:  # pool died before the layer even started
                self.log.fallback_shards += 1
                self._metrics.inc("shard.fallbacks")
                done += fallback(*bounds)
            else:
                pending[sid] = pd

        while pending:
            progressed = False
            for sid in list(pending):
                pd = pending.get(sid)
                if pd is None or not pd.result.ready():
                    continue
                progressed = True
                try:
                    res = pd.result.get()
                except Exception:
                    done += self._shard_failed(layer_idx, sid, pd, "crash", pending, fallback)
                else:
                    done += res[1]
                    pending.pop(sid)
                    # Traced workers flush their telemetry as a third
                    # tuple element through this same result channel.
                    if len(res) > 2 and res[2]:
                        self._ingest_events(res[2])
            if not pending:
                break

            now = time.monotonic()
            timed_out = [
                sid for sid, pd in pending.items() if pd.deadline is not None and now >= pd.deadline
            ]
            if timed_out:
                # Hung workers keep their slots until the pool dies; respawn
                # it, then re-dispatch everything still outstanding.  Only
                # the overrunning shards are charged an attempt — the rest
                # were victims of the respawn, not failures.
                alive = self._respawn_pool(f"{len(timed_out)} shard(s) timed out")
                survivors = list(pending.items())
                pending.clear()
                for sid, pd in survivors:
                    if sid in timed_out:
                        done += self._shard_failed(
                            layer_idx, sid, pd, "timeout", pending, fallback
                        )
                    elif alive and not self.degraded:
                        replacement = self._dispatch(layer_idx, sid, pd.bounds, pd.attempt)
                        if replacement is not None:
                            pending[sid] = replacement
                        else:
                            self.log.fallback_shards += 1
                            done += fallback(*pd.bounds)
                    else:
                        self.log.fallback_shards += 1
                        done += fallback(*pd.bounds)
                continue

            if self._pool is not None:
                pids = self._worker_pids()
                if pids != self._pids:
                    # One or more workers died; mp.Pool repopulates the
                    # slots, but any task that was on a dead worker is lost
                    # forever.  We cannot tell which, so conservatively
                    # re-dispatch every outstanding shard: duplicates of a
                    # still-running shard write identical bytes (pure
                    # function of completed layers) and only the tracked
                    # result is counted, so correctness is unaffected.
                    self._pids = pids
                    self.log.event(
                        "worker-death", layer=layer_idx, outstanding=sorted(pending)
                    )
                    for sid, pd in list(pending.items()):
                        done += self._shard_failed(layer_idx, sid, pd, "crash", pending, fallback)
                    continue

            if not progressed:
                # Block on one outstanding shard instead of sleeping: its
                # completion wakes us immediately (a 20 ms sleep-poll here
                # used to cost ~8 ms of dead time per layer on a busy
                # host), while the timeout cap keeps deadline and
                # worker-death checks running.  If the waited-on shard is
                # not the last to finish, the next iteration collects it
                # and blocks on a still-pending one — at most one bounded
                # wait per completed shard is wasted.
                next(iter(pending.values())).result.wait(_POLL_SECONDS)

        if self._max_shard_s > 0.0:
            # Barrier time: parent wall clock past the longest shard — the
            # cost of waiting for the layer's straggler.  Only computable
            # when tracing (worker spans carry the shard durations).
            wall = time.monotonic() - layer_t0
            self._metrics.inc("time.barrier_s", max(0.0, wall - self._max_shard_s))
        return done

    def _ingest_events(self, events) -> None:
        """Merge a worker's flushed events into the parent telemetry."""
        self._tracer.ingest(events)
        for ev in events:
            if ev.get("ph") == "X" and ev.get("cat") == "shard":
                dur = ev["t1"] - ev["t0"]
                self._metrics.observe("shard.seconds", dur)
                self._metrics.inc("time.kernel_s", dur)
                if dur > self._max_shard_s:
                    self._max_shard_s = dur
