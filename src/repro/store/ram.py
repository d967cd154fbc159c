"""In-RAM layer store: shared-memory tables, optionally journaled.

This wraps what the parallel engine always did — tables in
``multiprocessing.shared_memory`` owned by a leak-proof
:class:`~repro.core.supervisor.SharedTables` — behind the
:class:`LayerStore` contract, and adds:

* ``checkpoint=DIR`` persistence: the tables stay in shared memory, but
  every computed layer is committed to ``DIR`` through the
  :class:`~repro.store.journal.SlabJournal` — the spill store's own slab
  and manifest protocol — so a checkpoint resumes, and recovers from
  corruption, exactly like a spill directory;
* a finished solve removes its journal unless the policy opts out
  (``keep_checkpoint``) — checkpoints exist to survive crashes, not to
  accumulate;
* the RAM budget (``REPRO_RAM_BUDGET_BYTES``) is enforced up front: when
  the four ``2^k`` tables exceed it, opening fails loudly and points at
  the spill store;
* :meth:`RamStore.rearm` resets open tables for another instance of the
  same ``k``, which is how the warm
  :class:`~repro.core.engine.SolverEngine` keeps one store open across a
  stream of solves.

A second, shared-memory-free mode backs the ``ENOSPC`` degradation path:
:meth:`RamStore.adopt` builds a store around plain-RAM copies of another
store's tables so a solve whose journal could not be written mid-run can
finish single-process (when the budget allows).
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import layer_plan
from ..core.sequential import INF, subset_weights
from ..core.supervisor import SharedTables
from .base import LayerStore, OpenReport, tables_nbytes
from .journal import SlabJournal, order_digest

__all__ = ["RamStore"]


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
        self.starts = plan.starts
        # Loud journal failures (a foreign manifest, a legacy file at the
        # path) surface before any shared memory exists.
        events = [] if self._journal is None else self._journal.load()

        if self._use_shm:
            self._tables = SharedTables(self.n_sub)
            self.cost = self._tables.cost
            self.best = self._tables.best
            self.p = self._tables.p
            self.order = self._tables.order
        else:
            self.cost = np.empty(self.n_sub, dtype=np.float64)
            self.best = np.empty(self.n_sub, dtype=np.int64)
            self.p = np.empty(self.n_sub, dtype=np.float64)
            self.order = np.empty(self.n_sub, dtype=np.int64)

        self.order[:] = plan.order
        self.rearm(subset_weights(self._problem) if self._p_in is None else self._p_in)
        if self._journal is None:
            return OpenReport()
        try:
            self._journal.start(order_digest(self.k))
            return self._journal.replay(events)
        except BaseException:
            self.close()
            raise

    def rearm(self, p) -> None:
        """Reset the open tables to a fresh solve with subset weights ``p``.

        ``open()`` starts every solve here; the warm
        :class:`~repro.core.engine.SolverEngine` calls it again for each
        further instance of the same ``k`` over the same shared tables.
        """
        self.p[:] = p
        self.cost[:] = INF
        self.cost[0] = 0.0
        self.best[:] = -1

    @classmethod
    def adopt(cls, problem, cost, best, p, order, starts) -> "RamStore":
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
        self.cost = np.array(cost, dtype=np.float64)
        self.best = np.array(best, dtype=np.int64)
        self.p = np.array(p, dtype=np.float64)
        self.order = np.array(order, dtype=np.int64)
        self.starts = np.asarray(starts)
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
        if self._tables is None:
            return self.cost, self.best
        return self.cost.copy(), self.best.copy()

    def close(self) -> None:
        if self._tables is not None:
            self.cost = self.best = self.p = self.order = None
            self._tables.close()
            self._tables = None

    @property
    def resident_nbytes(self) -> int:
        return tables_nbytes(self.k)
