"""Pipelined layer commits: persistence overlapped with compute.

The solve loop's per-layer barrier used to be two serial phases — compute
the layer, then durably commit it (the slab journal's slab write +
incremental sha256 + fsync + rename + manifest).  Nothing forces that
ordering between *adjacent* layers: layer ``j``'s table entries are
final at its barrier and the pool computing layer ``j + 1`` only ever
writes layer ``j + 1``'s own masks, so committing ``j`` can run
concurrently with computing ``j + 1``.

:class:`AsyncCommitter` is that overlap: one background thread draining
a bounded FIFO of layer indices, calling the store's own
``commit_layer`` — unchanged protocol, unchanged bytes, unchanged
``REPRO_STORE_CRASH`` points (a SIGKILL in the committer thread kills
the whole process exactly like one in the old inline commit).  The
semantics the solve loop relies on:

* **Ordering** — commits run strictly in submission order (single
  consumer, FIFO queue), so the manifest's layer set is always a
  contiguous story and a crash leaves the same resume states the
  synchronous protocol could.
* **Bounded pipeline** — at most ``max_pending`` layers may be queued
  behind the commit in flight (default 1: a double-buffer).  A faster
  pool blocks at :meth:`submit` rather than letting dirty, unpersisted
  layers pile up without bound.
* **Errors surface at the next barrier** — a ``StoreWriteError``
  (ENOSPC and friends) raised inside ``commit_layer`` is captured,
  every queued commit after it is discarded, and the error re-raises
  from the next :meth:`submit` or :meth:`drain` call — the same places
  the synchronous loop would have raised, one barrier later.
* **Drain on finish** — :meth:`drain` blocks until the queue is empty
  and the last commit retired; the loop calls it before
  ``store.finish(True)`` so "manifest marked complete" still implies
  "every layer durably committed".

Telemetry: each async commit lands a ``store.commit.async`` span on the
solve timeline (enclosing the store's own ``store.commit`` span, from
the committer thread's tid) with the queue depth it saw; the registry
gains ``commit.async`` (count), ``commit.blocked_s`` (time the solve
thread spent waiting on the bounded queue) and — the headline —
``commit.overlap_s``: commit seconds that ran concurrently with
compute, i.e. the serial tax the pipeline removed.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from ..core.errors import InvalidProblem, SolverError, StoreWriteError

__all__ = ["AsyncCommitter", "COMMIT_MODES", "COMMIT_MODE_ENV", "commit_mode"]

COMMIT_MODES = ("async", "sync")
COMMIT_MODE_ENV = "REPRO_COMMIT_MODE"


def commit_mode(requested: str | None = None) -> str:
    """Resolve the layer-commit mode: explicit request, else env, else async.

    ``async`` (the default) overlaps layer ``j``'s durable commit with
    the compute of layer ``j + 1`` through :class:`AsyncCommitter`;
    ``sync`` keeps the pre-pipeline behavior of committing inline at the
    barrier.  Both write identical bytes through the identical protocol —
    the knob exists for A/B benchmarking and as an escape hatch, not as a
    durability trade-off.  A typo fails the solve loudly.
    """
    value = requested
    source = "commit mode"
    if value is None:
        value = os.environ.get(COMMIT_MODE_ENV, "").strip().lower()
        source = COMMIT_MODE_ENV
        if not value:
            return "async"
    if value not in COMMIT_MODES:
        raise InvalidProblem(
            f"{source} must be one of {', '.join(COMMIT_MODES)}, got {value!r}"
        )
    return value


class AsyncCommitter:
    """Background, ordered, bounded ``commit_layer`` pipeline over a store.

    ``max_pending`` bounds how many layers may wait *behind* the commit
    in flight; :meth:`submit` blocks once the bound is reached.  The
    committer owns no table memory — it reads the store's live tables,
    which is safe because a layer's entries never change after its
    barrier.
    """

    def __init__(self, store, *, max_pending: int = 1, tracer=None, metrics=None):
        self._store = store
        self._max_pending = max(1, int(max_pending))
        self._tracer = tracer
        self._metrics = metrics
        self._cv = threading.Condition()
        self._queue: deque[int] = deque()
        self._active: int | None = None  # layer currently committing
        self._error: BaseException | None = None
        self._stop = False
        self._commit_s = 0.0
        self._blocked_s = 0.0
        self._committed = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-async-committer", daemon=True
        )
        self._thread.start()

    # -- committer thread ----------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop:
                    self._cv.wait()
                if not self._queue:
                    return  # stopped and drained
                j = self._queue.popleft()
                self._active = j
                depth = len(self._queue)
                failed = self._error is not None or self._stop
                self._cv.notify_all()  # a blocked submit may proceed
            if not failed:
                t0 = time.monotonic()
                try:
                    # Unchanged protocol: the store streams tiles with an
                    # incremental sha256 and runs every REPRO_STORE_CRASH
                    # point; a SIGKILL here kills the whole process, same
                    # as the old inline commit.
                    self._store.commit_layer(j)
                except BaseException as exc:  # surfaced at the next barrier
                    with self._cv:
                        self._error = exc
                else:
                    t1 = time.monotonic()
                    with self._cv:
                        self._commit_s += t1 - t0
                        self._committed += 1
                    if self._metrics is not None:
                        self._metrics.inc("commit.async")
                        self._metrics.observe("commit.async_s", t1 - t0)
                    if self._tracer is not None and self._tracer.collecting:
                        self._tracer.complete(
                            "store.commit.async", "store", t0, t1,
                            layer=j, queue_depth=depth,
                        )
            with self._cv:
                self._store.note_commit_done(j)
                self._active = None
                self._cv.notify_all()

    # -- solve-loop side -----------------------------------------------

    def _raise_pending(self) -> None:
        exc = self._error
        if exc is None:
            return
        self._error = None  # surfaced once; the loop degrades or dies
        if isinstance(exc, (StoreWriteError, SolverError)):
            raise exc
        raise SolverError(f"async layer commit failed: {exc!r}") from exc

    def submit(self, j: int) -> None:
        """Queue layer ``j`` for commit; raise any earlier commit's error.

        Blocks while ``max_pending`` layers are already queued behind the
        in-flight commit — the pipeline is a double-buffer, not an
        unbounded backlog of dirty layers.
        """
        t0 = time.monotonic()
        with self._cv:
            self._raise_pending()
            if self._stop:
                raise SolverError("AsyncCommitter is closed")
            while len(self._queue) >= self._max_pending and self._error is None:
                self._cv.wait()
            self._raise_pending()
            self._queue.append(j)
            self._cv.notify_all()
        self._blocked_s += time.monotonic() - t0
        self._store.note_commit_queued(j)

    def drain(self) -> None:
        """Block until every queued commit retired; raise a pending error.

        Called before ``store.finish(True)`` — completion must never be
        declared while a commit is still in flight — and again by tests
        that assert ordering.
        """
        t0 = time.monotonic()
        with self._cv:
            while self._queue or self._active is not None:
                self._cv.wait()
            self._blocked_s += time.monotonic() - t0
            self._publish_metrics_locked()
            self._raise_pending()

    def close(self) -> None:
        """Stop the committer; queued-but-unstarted commits are discarded.

        Idempotent.  The commit in flight (if any) finishes — aborting a
        half-run protocol would create exactly the torn states the
        protocol exists to prevent — then the thread exits.
        """
        with self._cv:
            self._stop = True
            self._queue.clear()
            self._cv.notify_all()
        self._thread.join()
        with self._cv:
            self._publish_metrics_locked()

    def _publish_metrics_locked(self) -> None:
        if self._metrics is None:
            return
        overlap = max(0.0, self._commit_s - self._blocked_s)
        self._metrics.set_gauge("commit.overlap_s", round(overlap, 6))
        self._metrics.set_gauge("commit.blocked_s", round(self._blocked_s, 6))

    @property
    def committed(self) -> int:
        """Commits retired successfully (test/diagnostic hook)."""
        with self._cv:
            return self._committed
