"""Pipelined layer commits: persistence overlapped with compute.

Committing a layer — the slab journal's slab write + incremental
sha256 + fsync + rename + manifest — need not hold up the next layer:
layer ``j``'s table entries are final at its barrier and the pool
computing layer ``j + 1`` only ever writes layer ``j + 1``'s own masks,
so committing ``j`` can run concurrently with computing ``j + 1``.

:class:`AsyncCommitter` is that overlap, and every persisting store
commits through it: one background thread draining a bounded FIFO of
layer indices, calling the store's own ``commit_layer`` — the journal's
protocol, bytes and ``REPRO_STORE_CRASH`` points (a SIGKILL in the
committer thread kills the whole process).  The semantics the solve
loop relies on:

* **Ordering** — commits run strictly in submission order (single
  consumer, FIFO queue), so the manifest's layer set is always a
  contiguous story and a crash leaves only the resume states a
  layer-at-a-time protocol can leave.
* **Bounded pipeline** — at most :data:`MAX_PENDING` layers may be
  queued behind the commit in flight (a double-buffer).  A faster pool
  blocks at :meth:`submit` rather than letting dirty, unpersisted
  layers pile up without bound.
* **Errors surface at the next barrier** — a ``StoreWriteError``
  (ENOSPC and friends) raised inside ``commit_layer`` is captured,
  every queued commit after it is discarded, and the error re-raises
  from the next :meth:`submit` or :meth:`drain` call.
* **Drain on finish** — :meth:`drain` blocks until the queue is empty
  and the last commit retired; the loop calls it before
  ``store.finish(True)`` so "manifest marked complete" still implies
  "every layer durably committed".

The committer also owns the commit byte counts the progress line shows:
:meth:`stats` reads both under the one lock that guards the queue.

Telemetry: each async commit lands a ``store.commit.async`` span on the
solve timeline (enclosing the store's own ``store.commit`` span, from
the committer thread's tid) with the queue depth it saw; the registry
gains ``commit.async`` (count), ``commit.blocked_s`` (time the solve
thread spent waiting on the bounded queue) and — the headline —
``commit.overlap_s``: commit seconds that ran concurrently with
compute, i.e. the serial tax the pipeline removed.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..core.errors import SolverError, StoreWriteError

__all__ = ["AsyncCommitter", "MAX_PENDING"]

# Layers that may wait behind the commit in flight before submit blocks.
MAX_PENDING = 1


class AsyncCommitter:
    """Background, ordered, bounded ``commit_layer`` pipeline over a store.

    :data:`MAX_PENDING` bounds how many layers may wait *behind* the
    commit in flight; :meth:`submit` blocks once the bound is reached.
    The committer owns no table memory — it reads the store's live
    tables, which is safe because a layer's entries never change after
    its barrier.
    """

    def __init__(self, store, *, tracer=None, metrics=None):
        self._store = store
        self._tracer = tracer
        self._metrics = metrics
        self._cv = threading.Condition()
        self._queue: deque[int] = deque()
        self._active: int | None = None  # layer currently committing
        self._error: BaseException | None = None
        self._stop = False
        self._commit_s = 0.0
        self._blocked_s = 0.0
        self._committed_bytes = 0
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
            nbytes, commit_s, error = 0, 0.0, None
            if not failed:
                t0 = time.monotonic()
                try:
                    # The store streams tiles with an incremental sha256
                    # and runs every REPRO_STORE_CRASH point; a SIGKILL
                    # here kills the whole process.
                    nbytes = self._store.commit_layer(j)
                except BaseException as exc:  # surfaced at the next barrier
                    error = exc
                else:
                    t1 = time.monotonic()
                    commit_s = t1 - t0
                    if self._metrics is not None:
                        self._metrics.inc("commit.async")
                        self._metrics.observe("commit.async_s", commit_s)
                    if self._tracer is not None and self._tracer.collecting:
                        self._tracer.complete(
                            "store.commit.async", "store", t0, t1,
                            layer=j, queue_depth=depth,
                        )
            # One critical section retires j: it leaves the queued bytes
            # and joins the committed ones in the same step.
            with self._cv:
                if error is not None:
                    self._error = error
                self._commit_s += commit_s
                self._committed_bytes += nbytes
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

        Blocks while :data:`MAX_PENDING` layers are already queued behind
        the in-flight commit — the pipeline is a double-buffer, not an
        unbounded backlog of dirty layers.
        """
        t0 = time.monotonic()
        with self._cv:
            self._raise_pending()
            if self._stop:
                raise SolverError("AsyncCommitter is closed")
            while len(self._queue) >= MAX_PENDING and self._error is None:
                self._cv.wait()
            self._raise_pending()
            self._queue.append(j)
            self._cv.notify_all()
        self._blocked_s += time.monotonic() - t0

    def stats(self) -> dict:
        """Snapshot ``{"committed_bytes", "queued_bytes"}`` for progress.

        ``committed_bytes`` sums what successful ``commit_layer`` calls
        wrote; ``queued_bytes`` is ``store.commit_nbytes`` over the commit
        in flight and the queue.  Both are read under the lock that
        guards the queue, so no snapshot counts a layer twice.
        """
        with self._cv:
            pending = list(self._queue)
            if self._active is not None:
                pending.append(self._active)
            return {
                "committed_bytes": self._committed_bytes,
                "queued_bytes": sum(self._store.commit_nbytes(j) for j in pending),
            }

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
