"""Structured exception taxonomy for the host-side solvers.

Every failure the supervised parallel engine can surface is a
:class:`SolverError`, so callers (and the CLI) need exactly one
``except`` clause to distinguish "the solve failed" from a bug:

* :class:`WorkerCrash` — a pool worker died (OOM-killed, segfaulted,
  ``os._exit``) and the shard exhausted its retries;
* :class:`ShardTimeout` — a shard exceeded the per-shard deadline of the
  active :class:`~repro.core.supervisor.ResiliencePolicy` too many times;
* :class:`CheckpointMismatch` — a journal manifest (checkpoint or
  spill directory) was written for a different problem (content hash
  differs), or a regular file sits where the journal directory belongs;
* :class:`StoreCorruption` — a layer store's *control* state (the
  manifest) is unreadable or internally inconsistent, so nothing in the
  journal directory can be trusted; layer *payload* corruption is
  recoverable (re-derived) and does not raise;
* :class:`StoreWriteError` — a durable layer-store write failed
  (``ENOSPC``, I/O error); the solver may degrade gracefully to RAM
  when the tables fit, otherwise this surfaces as the solve's failure;
* :class:`InvalidProblem` — the request itself is malformed: a bad spec
  file, an unknown backend, or an invalid environment knob (any entry
  of :data:`repro.config.KNOBS`).

:class:`InvalidProblem` also subclasses :class:`ValueError` so
pre-taxonomy call sites written against ``ValueError`` keep working.
"""

from __future__ import annotations

__all__ = [
    "SolverError",
    "WorkerCrash",
    "ShardTimeout",
    "CheckpointMismatch",
    "StoreCorruption",
    "StoreWriteError",
    "InvalidProblem",
]


class SolverError(RuntimeError):
    """Base class for every failure raised by the solve pipeline."""


class WorkerCrash(SolverError):
    """A worker process died and the shard exhausted its retry budget."""

    def __init__(self, message: str, *, layer: int | None = None, shard: int | None = None):
        super().__init__(message)
        self.layer = layer
        self.shard = shard


class ShardTimeout(SolverError):
    """A shard repeatedly exceeded the per-shard deadline."""

    def __init__(self, message: str, *, layer: int | None = None, shard: int | None = None):
        super().__init__(message)
        self.layer = layer
        self.shard = shard


class CheckpointMismatch(SolverError):
    """A checkpoint or spill directory does not belong to this solve."""


class StoreCorruption(SolverError):
    """A layer store's control state (manifest) cannot be trusted.

    Raised only when the *manifest itself* is unreadable or internally
    inconsistent.  Corrupt or missing layer payloads are recoverable —
    the store re-derives them from the layers below — and therefore
    never raise; they are reported through the store's open report and
    the :class:`~repro.core.supervisor.RecoveryLog` instead.
    """


class StoreWriteError(SolverError):
    """A durable write to the layer store failed (``ENOSPC``, I/O error)."""

    def __init__(self, message: str, *, layer: int | None = None, errno: int | None = None):
        super().__init__(message)
        self.layer = layer
        self.errno = errno


class InvalidProblem(SolverError, ValueError):
    """A malformed problem spec, backend name, or environment knob."""
