"""The :class:`LayerStore` contract shared by the RAM and spill backends.

A *layer store* holds the four DP tables of one solve — ``cost``,
``best``, the subset weights ``p`` and the popcount-sorted mask
``order`` — plus whatever persistence those tables have.  The solve loop
in :mod:`repro.core.parallel` is written against this contract only:

1. ``open()`` materializes the tables and returns an
   :class:`OpenReport` saying which popcount layers already hold
   *trusted* values — layers whose slabs in the store's
   :class:`~repro.store.journal.SlabJournal` verify against their
   checksums (none for an unjournaled RAM store);
2. the loop computes every layer **not** in ``valid_layers`` — in
   ascending order, so any layer being computed only reads finalized
   layers below it — and, when the store ``persists``, hands each to
   an :class:`~repro.store.pipeline.AsyncCommitter` that calls
   ``commit_layer(j)``;
3. ``finish(success)`` runs cleanup (durably mark the manifest
   complete / delete a finished checkpoint journal);
4. ``close()`` releases OS resources (idempotent, crash-ordered before
   table teardown).

That one mechanism — *skip valid, compute the rest* — covers a cold
solve (nothing valid), checkpoint/SIGKILL resume (a valid prefix), and
corruption recovery (holes in the valid set re-derived from the layers
below), because layer ``j`` is a pure, bit-reproducible function of
layers ``< j``.

The RAM budget
--------------

``REPRO_RAM_BUDGET_BYTES`` bounds the *anonymous* working memory a solve
may allocate for its tables.  The RAM backend refuses to open when the
four tables exceed the budget (pointing at ``--store=mmap``); the spill
backend keeps the tables file-backed — its pages are reclaimable page
cache the OS evicts under pressure, not committed anonymous memory — and
bounds its own scratch (kernel arena, commit/scatter chunks) far below
any sane budget.  The budget also gates the ``ENOSPC`` degradation path:
falling back from a failed spill store to RAM is only allowed when the
tables fit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..config import knob
from ..core.errors import InvalidProblem, SolverError
from ..core.kernels import BEST_DTYPE, COST_DTYPE, TABLE_DTYPES

__all__ = [
    "STORE_KINDS",
    "tables_nbytes",
    "StoreSpec",
    "OpenReport",
    "LayerStore",
]

STORE_KINDS = ("auto", "ram", "mmap")


# Bytes per mask of one committed layer: its cost, then its best action.
SLAB_BYTES_PER_MASK = COST_DTYPE.itemsize + BEST_DTYPE.itemsize


def tables_nbytes(k: int) -> int:
    """Bytes of the four full tables (cost, best, p, order: 24 per mask)."""
    return (1 << k) * sum(dtype.itemsize for dtype in TABLE_DTYPES.values())


@dataclass(frozen=True)
class StoreSpec:
    """How a solve wants its tables stored.

    ``kind="auto"`` picks the spill backend exactly when a spill
    directory was provided, the RAM backend otherwise — predictable, and
    the RAM budget then gets enforced by whichever backend opens.
    ``fsync=False`` keeps the atomic write-temp/rename protocol but skips
    the fsyncs (for harnesses hammering tiny solves where power-loss
    durability is irrelevant).
    """

    kind: str = "auto"
    spill_dir: str | os.PathLike | None = None
    fsync: bool = True

    def __post_init__(self) -> None:
        if self.kind not in STORE_KINDS:
            raise InvalidProblem(
                f"unknown store kind {self.kind!r} (expected one of "
                f"{', '.join(STORE_KINDS)})"
            )
        if self.kind == "mmap" and self.spill_dir is None:
            raise InvalidProblem("store 'mmap' requires a spill directory")
        if self.kind == "ram" and self.spill_dir is not None:
            raise InvalidProblem(
                "a spill directory is meaningless for store 'ram' — "
                "use store 'mmap' (or 'auto')"
            )

    def resolve(self) -> str:
        """The concrete backend this spec selects: ``"ram"`` or ``"mmap"``."""
        if self.kind == "mmap":
            return "mmap"
        if self.kind == "auto" and self.spill_dir is not None:
            return "mmap"
        return "ram"


@dataclass
class OpenReport:
    """What ``LayerStore.open()`` found in the store's journal.

    ``valid_layers`` holds every popcount layer whose values are already
    in the tables *and* trusted; the solve loop skips exactly these.
    ``completed_prefix`` is the largest ``j`` with layers ``1..j`` all
    valid (0 = nothing), reported as ``resumed_from_layer``.
    ``rederive_layers`` are layers that *were* persisted but failed
    validation (corrupt/torn slab) — they are also absent from
    ``valid_layers``, listed separately so recovery is observable.
    ``events`` are recovery-log entries describing what open had to do
    (swept temp files, corrupt slabs, a rebuilt order file).
    """

    valid_layers: frozenset = frozenset()
    completed_prefix: int = 0
    rederive_layers: tuple = ()
    resumed: bool = False
    events: list = field(default_factory=list)


class LayerStore:
    """Base class: table ownership + the commit/validate lifecycle.

    After ``open()`` a store exposes ``cost``, ``best``, ``p``,
    ``order`` (each a length-``2^k`` array — shared memory, plain RAM,
    a file-backed memmap, or for ``order`` in RAM the cached layer
    plan's own read-only array) and ``starts`` (the ``k + 2`` layer
    offsets).  ``worker_spec()`` returns a picklable description pool
    workers use to attach to the same tables, or ``None`` when this
    store cannot be shared with workers (the solve then runs
    single-process).
    """

    kind: str = "?"

    # Telemetry sinks (see repro.obs): disabled until the solve loop
    # calls bind_telemetry.  Class-level defaults keep every subclass
    # constructor untouched and the unbound cost at attribute lookups.
    _tracer = None
    _metrics = None

    # The SlabJournal that durably commits this store's layers (see
    # repro.store.journal); None for a store that persists nothing.
    _journal = None

    cost: np.ndarray
    best: np.ndarray
    p: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def bind_telemetry(self, tracer, metrics) -> None:
        """Attach the solve's tracer/metrics registry (observational only)."""
        self._tracer = tracer
        self._metrics = metrics

    @property
    def persists(self) -> bool:
        """Whether this store has a journal to commit layers into.

        The solve loop starts an :class:`~repro.store.pipeline.AsyncCommitter`
        only over a store that persists; any other store never sees a
        ``commit_layer`` call.
        """
        return self._journal is not None

    def commit_nbytes(self, j: int) -> int:
        """Bytes ``commit_layer(j)`` will durably write."""
        lo, hi = self.bounds(j)
        return (hi - lo) * SLAB_BYTES_PER_MASK

    def open(self) -> OpenReport:
        raise NotImplementedError

    def _reset(self) -> None:
        """Set ``cost`` and ``best`` to a fresh solve's: nothing solved
        but the empty set (``C(∅) = 0``)."""
        self.cost[:] = np.inf
        self.cost[0] = 0.0
        self.best[:] = -1

    def bounds(self, j: int) -> tuple[int, int]:
        """``(lo, hi)`` such that ``order[lo:hi]`` is popcount layer ``j``."""
        return int(self.starts[j]), int(self.starts[j + 1])

    def worker_spec(self) -> dict | None:
        return None

    def commit_layer(self, j: int) -> int:
        """Durably persist layer ``j``; return the bytes written.

        In a solve this runs on the committer thread, and only a store
        that ``persists`` is asked to commit.
        """
        return self._journal.commit(j)

    def finish(self, success: bool) -> None:
        """Post-solve cleanup; ``success=False`` must leave resume state."""

    def close(self) -> None:
        """Release OS resources (idempotent)."""

    def result_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cost, best)`` arrays that stay valid after ``close()``."""
        raise NotImplementedError

    def check_budget(self, need: int, what: str) -> None:
        """Raise loudly when ``need`` anonymous bytes exceed the budget."""
        budget = knob("REPRO_RAM_BUDGET_BYTES")
        if budget is not None and need > budget:
            raise SolverError(
                f"{what} needs {need} bytes of RAM but REPRO_RAM_BUDGET_BYTES="
                f"{budget} — use --store=mmap with --spill-dir to run "
                "out-of-core, or raise the budget"
            )
