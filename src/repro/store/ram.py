"""In-RAM layer store: shared-memory or plain tables, optionally journaled.

This wraps what a pool solve always did — ``cost``, ``best`` and
``p`` in ``multiprocessing.shared_memory`` owned by a leak-proof
:class:`~repro.core.supervisor.SharedTables` — behind the
:class:`LayerStore` contract.  The mask ``order`` is never copied: it is
the cached :func:`~repro.core.kernels.layer_plan`'s, which pool workers
take from their own plan.  The store adds:

* ``checkpoint=DIR`` persistence: the tables stay in RAM, but
  every computed layer is committed to ``DIR`` through the
  :class:`~repro.store.journal.SlabJournal` — the spill store's own slab
  and manifest protocol — so a checkpoint resumes, and recovers from
  corruption, exactly like a spill directory;
* a finished solve removes its journal unless the policy opts out
  (``keep_checkpoint``) — checkpoints exist to survive crashes, not to
  accumulate;
* the RAM budget (``REPRO_RAM_BUDGET_BYTES``) is enforced up front: when
  the four ``2^k`` tables exceed it, opening fails loudly and points at
  the spill store — for every RAM solve, a one-worker solve's
  included;
* a finished solve hands its ``cost`` and ``best`` to the result instead
  of copying them: shared tables whose arrays own their mappings
  (``SharedTables.owned``, Linux) stay valid after :meth:`close` unlinks
  the segments.  A caller that copies them out may :meth:`recycle` the
  store instead, keeping its tables (one set at most) for the next store
  of their ``k`` to re-arm; a store of another size unlinks them first.

A second, unshared mode (``use_shm=False``) keeps ``cost`` and ``best``
in plain RAM and borrows ``p`` as given — every slice only reads it, and
the weights cache hands out read-only vectors.  It backs every
one-worker solve (:func:`~repro.store.open_store` selects it), a
checkpointed one included, and the ``ENOSPC`` degradation path:
:meth:`RamStore.adopt` builds one around plain-RAM copies of another
store's tables so a solve whose journal could not be written mid-run can
finish in the parent (when the budget allows).
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.kernels import BEST_DTYPE, COST_DTYPE, P_DTYPE, layer_plan
from ..core.sequential import subset_weights
from ..core.supervisor import SharedTables
from .base import LayerStore, OpenReport, tables_nbytes
from .journal import SlabJournal, order_digest

__all__ = ["RamStore"]

# The SharedTables RamStore.recycle kept for the next store of its size.
_spare = [None]
_spare_lock = threading.Lock()


def _keep_spare(tables=None) -> None:
    """Keep ``tables`` as the spare, unlinking the one it replaces."""
    with _spare_lock:
        old, _spare[0] = _spare[0], tables
    if old is not None:
        old.close()


class RamStore(LayerStore):
    kind = "ram"

    def __init__(self, problem, *, policy=None, p=None, use_shm=True):
        self._problem = problem
        self._p_in = p
        self._use_shm = use_shm
        self._tables: SharedTables | None = None
        self._keep = policy is not None and policy.keep_checkpoint
        if policy is not None and policy.checkpoint is not None:
            self._journal = SlabJournal(self, policy.checkpoint, problem)
        self.k = problem.k
        self.n_sub = 1 << problem.k

    def open(self) -> OpenReport:
        self.check_budget(
            tables_nbytes(self.k),
            f"the in-RAM DP tables for k={self.k}",
        )
        plan = layer_plan(self.k)
        self.order, self.starts = plan.order, plan.starts
        # Loud journal failures (a foreign manifest, a legacy file at the
        # path) surface before any shared memory exists.
        events = [] if self._journal is None else self._journal.load()

        if self._use_shm:
            with _spare_lock:
                tables, _spare[0] = _spare[0], None
            if tables is not None and getattr(tables.cost, "size", 0) != self.n_sub:
                tables.close()  # another size, or guard-closed: unlinked first
                tables = None
            self._tables = tables or SharedTables(self.n_sub)
            self.cost = self._tables.cost
            self.best = self._tables.best
            self.p = self._tables.p
            if self._p_in is None:
                subset_weights(self._problem, out=self.p)
            else:
                self.p[:] = self._p_in
        else:  # borrow p: every slice only reads it
            self.cost = np.empty(self.n_sub, dtype=COST_DTYPE)
            self.best = np.empty(self.n_sub, dtype=BEST_DTYPE)
            self.p = subset_weights(self._problem) if self._p_in is None else self._p_in
        self._reset()
        if self._journal is None:
            return OpenReport()
        try:
            self._journal.start(order_digest(self.k))
            return self._journal.replay(events)
        except BaseException:
            self.close()
            raise

    @classmethod
    def adopt(cls, problem, cost, best, p) -> "RamStore":
        """A ready (already-open) store around RAM copies of live tables.

        Used when a journaled store's commit fails mid-solve
        (``ENOSPC``): the solve keeps the layers it already computed and
        finishes in RAM, unpersisted.  The budget gate applies —
        degrading must not blow the limit the spill store existed to
        honor.
        """
        self = cls(problem, use_shm=False)
        self.check_budget(
            tables_nbytes(problem.k),
            "falling back from a failed durable store to in-RAM tables",
        )
        plan = layer_plan(problem.k)
        self.order, self.starts = plan.order, plan.starts
        self.cost = np.array(cost, dtype=COST_DTYPE)
        self.best = np.array(best, dtype=BEST_DTYPE)
        self.p = np.array(p, dtype=P_DTYPE)
        return self

    def worker_spec(self) -> dict | None:
        if self._tables is None:
            return None
        return {"mode": "shm", "names": dict(self._tables.names), "n_sub": self.n_sub}

    def finish(self, success: bool) -> None:
        if not success or self._journal is None:
            return
        if self._keep:
            self._journal.mark_complete()
        else:
            self._journal.remove()

    def result_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tables is None or self._tables.owned:
            return self.cost, self.best
        return self.cost.copy(), self.best.copy()

    def close(self) -> None:
        # Drop the tables in either mode: a journaled store sits in a
        # reference cycle with its journal, so plain arrays would
        # otherwise stay resident until the cyclic collector runs.
        self.cost = self.best = self.p = None
        if self._tables is not None:
            self._tables.close()
            self._tables = None

    def recycle(self) -> None:
        """Close, keeping shared tables for the next store of their size
        (the caller holds none of this store's arrays)."""
        tables, self._tables = self._tables, None
        self.close()
        _keep_spare(tables)

    @staticmethod
    def drop_spare() -> None:
        """Unlink the tables :meth:`recycle` kept, if any."""
        _keep_spare()
