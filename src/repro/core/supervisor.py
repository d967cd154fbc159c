"""Supervised execution layer for the multi-core parallel DP engine.

A bare per-layer barrier over worker processes is correct but brittle: a
worker killed mid-layer (OOM, SIGKILL) hangs the barrier forever, a hard
parent crash leaks the ``/dev/shm`` segments, and a multi-hour solve that
dies at layer 18 restarts from layer 1.  This module supplies the
machinery that makes those failures survivable:

* :class:`ResiliencePolicy` — the knobs (per-shard timeout, bounded
  retries with exponential backoff, in-process fallback, checkpoint
  path) threaded through :func:`repro.core.solve` and the CLI;
* :class:`Supervisor` — owns ``workers - 1`` child processes, one pipe
  each, with static shard ownership: child ``i`` holds shard ``i`` of a
  layer, and the parent computes the last shard itself instead of idling
  at the barrier.  It blocks on the children's pipes and process
  sentinels, woken by a reply, a death or the nearest deadline, so it
  knows which shard a dead child held and retries only that one.  A
  child past its deadline is SIGKILLed and reaped before its shard is
  retried.  Retries back off exponentially, lost children are respawned,
  and past ``max_retries`` a shard finishes on the in-process numpy
  kernel instead of raising (unless the policy says otherwise); when no
  child can be started the rest of the solve runs in the parent.  Lent
  to a stream of solves, it keeps its children and revives a degraded pool;
* :class:`SharedTables` — a leak-proof owner of the shared-memory
  blocks: ``atexit`` + SIGTERM/SIGINT guards unlink the segments even
  when the parent is torn down mid-solve, and on Linux its arrays own
  their mappings, so they outlive the unlinked segments;
* :func:`problem_content_hash` — the problem identity every durable
  layer journal (:mod:`repro.store.journal`) is bound to, so resuming
  against a different instance is refused;
* :class:`RecoveryLog` — the machine-readable account (retries,
  respawns, timeouts, fallbacks, per-layer wall clock) attached to
  ``DPResult.recovery``.

Everything here is *provably safe* to replay because of the determinism
contract locked down in :mod:`repro.core.sequential`: a shard is a pure,
bit-reproducible function of the completed layers and writes a slice no
other shard touches, so re-running a shard that half-wrote before dying
can only write the exact same bytes.  Ownership fences the replay: the
previous attempt's process is dead and reaped (or idle, after an
exception) before the next attempt starts, so no shard ever runs twice
at once.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import mmap
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection, shared_memory

import numpy as np

from ..obs.metrics import NULL_METRICS
from ..obs.trace import NULL
from .errors import ShardTimeout, SolverError, WorkerCrash
from .kernels import TABLE_DTYPES
from .problem import TTProblem

__all__ = [
    "ResiliencePolicy",
    "RecoveryLog",
    "SharedTables",
    "Supervisor",
    "problem_content_hash",
]


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
        When a shard exhausts its retries (or its worker cannot be
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


# Where Linux shows each POSIX shared-memory segment as a file.
_SHM_DIR = "/dev/shm"


class SharedTables:
    """Owner of the shared-memory blocks backing one parallel solve.

    Creates the ``cost`` / ``best`` / ``p`` segments (the mask order is
    the layer plan's, which every solving process holds), exposes them
    as numpy arrays, and guarantees they are closed **and unlinked**
    exactly once — on normal exit, on any raised exception (context
    manager), at interpreter shutdown (``atexit``), and on SIGTERM/SIGINT
    (signal guard) — so no failure mode strands ``/dev/shm`` segments.

    Where the segments are files under ``/dev/shm`` (Linux), each array
    maps its own segment (``np.memmap``) and owns that mapping, so it
    stays valid after :meth:`close` unlinks the names: ``owned`` is
    true, and a store may hand its ``cost`` and ``best`` to the result
    instead of copying them (the pages are freed when the last array
    goes).  Elsewhere the arrays view the blocks' buffers, which
    :meth:`close` releases, and ``owned`` is false.
    """

    def __init__(self, n_sub: int):
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        # Forked workers inherit _LIVE_TABLES *and* the signal guard; a
        # SIGTERM'd worker must never unlink the parent's segments, so
        # ownership is by PID and close() is a no-op elsewhere.
        self._owner_pid = os.getpid()
        for key in ("cost", "best", "p"):
            self._blocks[key] = shared_memory.SharedMemory(
                create=True, size=n_sub * TABLE_DTYPES[key].itemsize
            )
        self.names = {key: blk.name for key, blk in self._blocks.items()}
        paths = {key: os.path.join(_SHM_DIR, name) for key, name in self.names.items()}
        self.owned = all(os.path.exists(path) for path in paths.values())
        for key, blk in self._blocks.items():
            dtype = TABLE_DTYPES[key]
            if self.owned:
                table = np.memmap(paths[key], dtype=dtype, mode="r+", shape=(n_sub,))
                table._mmap.madvise(mmap.MADV_DONTFORK)  # no forked worker pins it
                table = table.view(np.ndarray)  # still owns the mapping
                blk.close()
            else:
                table = np.ndarray(n_sub, dtype=dtype, buffer=blk.buf)
            setattr(self, key, table)
        _install_guard()
        _LIVE_TABLES.add(self)

    def __enter__(self) -> "SharedTables":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Idempotent: drop the arrays, close and unlink every block.

        Only the creating process unlinks — in a forked child (a
        worker running the inherited guard) this is a reference-drop
        no-op, otherwise a worker's SIGTERM would strand the parent
        mid-solve with vanished segments.  Arrays that own their
        mappings stay valid for whoever still holds them.
        """
        if self._closed:
            return
        if os.getpid() != self._owner_pid:
            return
        self._closed = True
        _LIVE_TABLES.discard(self)
        # Buffer views must be released before close(), else BufferError.
        self.cost = self.best = self.p = None
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

# Seconds an idle child may take to exit after its stop message before
# shutdown SIGKILLs it.  A healthy child is parked in ``recv`` and exits
# at once.
_STOP_GRACE = 1.0

# Recovery kind -> (RecoveryLog field, metric).  Every recovery action is
# counted through Supervisor._count, so the log and the metrics agree.
_COUNTERS = {
    "retry": ("retries", "shard.retries"),
    "crash": ("crashes", "shard.crashes"),
    "timeout": ("timeouts", "shard.timeouts"),
    "respawn": ("respawns", "pool.respawns"),
    "fallback": ("fallback_shards", "shard.fallbacks"),
}


class _Child:
    """One owned worker process, its pipe, and the shard it holds."""

    __slots__ = ("proc", "conn", "ready", "bounds", "attempt", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.ready = False  # its start-up message has arrived
        self.bounds = None  # None while idle
        self.attempt = 0
        self.deadline = None

    def reply(self):
        """The child's next message — ``True`` once it has started, then
        ``(ok, payload)`` per shard — or ``None`` if it died."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def reap(self) -> None:
        """SIGKILL (a no-op once it has exited) and wait: gone for good."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class Supervisor:
    """Supervised per-layer shard dispatch over owned worker processes.

    ``start_worker()`` starts one child and returns ``(process, pipe)``
    (used lazily, and again to replace a dead or timed-out child).  The
    children outlive a solve, which :meth:`bind` points them at: its
    ``task``, the picklable worker function receiving ``(lo, hi,
    layer_index, shard_index, attempt, trace)`` and returning
    ``(shard_index, n_masks_solved)`` — or, when the ``trace`` flag was
    set, ``(shard_index, n_masks_solved, raw_events)`` with the worker's
    telemetry flushed back through the same pipe — names the tables
    they map until :meth:`unbind`.
    """

    def __init__(self, policy: ResiliencePolicy, start_worker):
        self.policy = policy
        self._start_worker = start_worker
        self._task = None
        self.log = RecoveryLog()
        self._tracer = NULL
        self._metrics = NULL_METRICS
        self._max_shard_s = 0.0
        self._children: list[_Child | None] = []  # slot i owns shard i
        self.degraded = False  # workers unusable: rest of the solve runs in-process

    @property
    def started(self) -> bool:
        """Whether a bound solve finds children it can use."""
        return not self.degraded and any(c is not None for c in self._children)

    def bind(self, task, log: RecoveryLog, tracer=None, metrics=None) -> None:
        """Point the supervisor at the next solve's task and log.

        Each solve carries its own task, recovery log and telemetry sinks
        (disabled when omitted, so a traced solve never leaks its tracer
        into the next); the children persist.  A pool that degraded in
        an earlier solve is revived — its children are stopped and
        started afresh when needed — rather than pinning every later
        solve in-process.
        """
        self._task = task
        self.log = log
        self._tracer = tracer if tracer is not None else NULL
        self._metrics = metrics if metrics is not None else NULL_METRICS
        if self.degraded:
            self.shutdown()
            self.degraded = False
            log.event("revive")

    def unbind(self, release) -> None:
        """End the bound solve: each idle child runs ``release``, the task
        that unmaps its tables, and answers before this returns.  A child
        that does not answer ``(True, None)`` within the stop grace is
        reaped, as is one still holding a shard of a solve that raised
        (its reply must never be taken for the next solve's); the slot
        starts a fresh child when next needed."""
        for child in self._children:
            if child is not None and child.bounds is None:
                try:
                    child.conn.send((release, None))
                except OSError:
                    pass  # dead: it does not answer below
        until = time.monotonic() + _STOP_GRACE
        for sid, child in enumerate(self._children):
            if child is None:
                continue
            answered = child.bounds is None and connection.wait(
                [child.conn, child.proc.sentinel], max(0.0, until - time.monotonic())
            )
            if not answered or child.reply() != (True, None):
                child.reap()
                self._children[sid] = None

    def _count(self, kind: str, n: int = 1, **detail) -> None:
        """Count a recovery action in the log *and* the metrics."""
        field_name, metric = _COUNTERS[kind]
        setattr(self.log, field_name, getattr(self.log, field_name) + n)
        self._metrics.inc(metric, n)
        if detail:
            self.log.event(kind, **detail)

    # -- child lifecycle -----------------------------------------------

    def _spawn(self, slot: int, reason: str | None = None) -> bool:
        """Start the child for ``slot``; False (degraded) if the OS refuses."""
        try:
            proc, conn = self._start_worker()
        except OSError as exc:
            self.degraded = True
            self.log.degraded = True
            self.log.event("degrade", reason=f"worker start failed: {exc}")
            return False
        self._children[slot] = _Child(proc, conn)
        if reason is not None:
            self._count("respawn", reason=reason, shard=slot)
        return True

    def shutdown(self) -> None:
        """Stop and reap every child.

        Idle children exit on a stop message; a child still holding a
        shard (a hang, or a solve that raised mid-layer) is SIGKILLed —
        its result is unwanted, and SIGKILL needs no cooperation from it.
        """
        children = [c for c in self._children if c is not None]
        self._children = []
        for child in children:
            if child.bounds is not None:
                child.proc.kill()
                continue
            try:
                child.conn.send(None)
            except OSError:
                pass  # already dead
        for child in children:
            child.proc.join(_STOP_GRACE)
            child.reap()

    # -- dispatch ------------------------------------------------------

    def _deadline(self) -> float | None:
        if self.policy.timeout is None:
            return None
        return time.monotonic() + self.policy.timeout

    def _send(self, layer_idx: int, sid: int, bounds, attempt: int) -> bool:
        """Hand shard ``sid`` to its owner; False means run it in the parent."""
        if self.degraded:
            return False
        if attempt >= 1 and self.policy.backoff > 0:
            time.sleep(min(self.policy.backoff * (2 ** (attempt - 1)), self.policy.backoff_max))
        self._children.extend([None] * (sid + 1 - len(self._children)))
        child = self._children[sid]
        if child is not None and not child.proc.is_alive():
            # Died between layers (e.g. the OOM killer): nothing was lost.
            child.reap()
            self._children[sid] = None
            if not self._spawn(sid, "worker died while idle"):
                return False
        elif child is None and not self._spawn(sid):
            return False
        child = self._children[sid]
        child.bounds, child.attempt = bounds, attempt
        # A starting child's clock runs from its start-up message: the
        # deadline bounds the shard, not the interpreter start of spawn.
        child.deadline = self._deadline() if child.ready else None
        try:
            child.conn.send(
                (self._task, (bounds[0], bounds[1], layer_idx, sid, attempt,
                              self._tracer.collecting))
            )
        except OSError:
            pass  # the child is dead; its sentinel reports it
        self._metrics.inc("shard.dispatched")
        return True

    def _failed(self, layer_idx: int, sid: int, kind: str, alive: bool, fallback) -> tuple:
        """Retry shard ``sid`` on its owner, else fall back or raise.

        Returns ``(redispatched, masks solved in the parent)``.  A dead
        or timed-out owner is SIGKILLed and reaped *before* the retry, so
        no shard ever runs twice at once.
        """
        child = self._children[sid]
        bounds, attempt = child.bounds, child.attempt
        child.bounds = None
        detail = {"layer": layer_idx, "shard": sid, "attempt": attempt}
        self._count(kind, **detail)
        if not alive:
            child.reap()
            self._children[sid] = None
            if not self.degraded:
                self._spawn(sid, f"{kind} in layer {layer_idx}")
        if attempt < self.policy.max_retries and not self.degraded:
            self._count("retry", **detail)
            if self._send(layer_idx, sid, bounds, attempt + 1):
                return True, 0
        if self.policy.fallback:
            self._count("fallback", **detail)
            return False, fallback(*bounds)
        exc_cls = ShardTimeout if kind == "timeout" else WorkerCrash
        raise exc_cls(
            f"shard {sid} of layer {layer_idx} failed ({kind}) after "
            f"{attempt + 1} attempt(s) with retries exhausted and fallback disabled",
            layer=layer_idx,
            shard=sid,
        )

    def run_layer(self, layer_idx: int, shards, fallback) -> int:
        """Run one layer's shards to completion; returns masks solved.

        Child ``i`` holds shard ``i``; the parent computes the last shard
        itself through ``fallback(lo, hi)`` — the in-process kernel over
        the same tables, which also rescues shards past their retries and
        runs every shard once the supervisor has degraded.
        """
        if self.degraded:
            self._count("fallback", len(shards))
            return sum(fallback(lo, hi) for lo, hi in shards)

        layer_t0 = time.monotonic()
        self._max_shard_s = 0.0
        done = 0
        busy = []
        for sid, bounds in enumerate(shards[:-1]):
            if self._send(layer_idx, sid, bounds, attempt=0):
                busy.append(sid)
            else:
                self._count("fallback")
                done += fallback(*bounds)
        t0 = time.monotonic()
        done += fallback(*shards[-1])
        if self._tracer.collecting:
            self._max_shard_s = time.monotonic() - t0

        while busy:
            by_handle = {}
            for sid in busy:
                child = self._children[sid]
                by_handle[child.conn] = by_handle[child.proc.sentinel] = sid
            deadlines = [
                self._children[sid].deadline for sid in busy
                if self._children[sid].deadline is not None
            ]
            timeout = None if not deadlines else max(0.0, min(deadlines) - time.monotonic())
            ready = {by_handle[h] for h in connection.wait(list(by_handle), timeout)}
            now = time.monotonic()
            for sid in list(busy):
                child = self._children[sid]
                if sid in ready:
                    reply = child.reply()
                    if reply is True:
                        child.ready = True
                        child.deadline = self._deadline()
                        continue
                    if reply is not None and reply[0]:
                        busy.remove(sid)
                        child.bounds = None
                        done += reply[1][1]
                        # Traced workers flush their telemetry as a third
                        # tuple element through this same pipe.
                        if len(reply[1]) > 2 and reply[1][2]:
                            self._ingest_events(reply[1][2])
                        continue
                    kind, alive = "crash", reply is not None
                elif child.deadline is not None and now >= child.deadline:
                    kind, alive = "timeout", False
                else:
                    continue
                busy.remove(sid)
                again, n = self._failed(layer_idx, sid, kind, alive, fallback)
                done += n
                if again:
                    busy.append(sid)

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
