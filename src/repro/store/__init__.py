"""Layer stores: where a solve's DP tables live and how they survive.

Two backends behind one contract (:class:`~repro.store.base.LayerStore`):

* :class:`~repro.store.ram.RamStore` — in-RAM tables, in shared memory
  when pool workers map them, journaled to a checkpoint directory on
  request;
* :class:`~repro.store.spill.MmapStore` — memory-mapped tables spilled
  to a directory, so large ``k`` runs out-of-core.

Both persist through one format, the
:class:`~repro.store.journal.SlabJournal`: durable, checksummed
per-layer slab commits and a manifest, so any crash or corruption is
recovered by re-deriving layers from the layers below.

The solve loop (:func:`repro.core.parallel.solve_dp_parallel`) is
backend-agnostic; pick a store with
:class:`~repro.store.base.StoreSpec` through ``repro.core.solve(...,
store=..., spill_dir=...)`` or the CLI ``--store/--spill-dir`` flags.
"""

from __future__ import annotations

from ..core.errors import InvalidProblem, StoreCorruption, StoreWriteError
from .base import STORE_KINDS, LayerStore, OpenReport, StoreSpec, tables_nbytes
from .drill import run_crash_drill
from .pipeline import AsyncCommitter
from .ram import RamStore
from .spill import MmapStore

__all__ = [
    "LayerStore",
    "OpenReport",
    "StoreSpec",
    "RamStore",
    "MmapStore",
    "AsyncCommitter",
    "open_store",
    "run_crash_drill",
    "StoreCorruption",
    "StoreWriteError",
    "tables_nbytes",
    "STORE_KINDS",
]


def open_store(spec: StoreSpec | None, problem, *, policy=None, p=None,
               shared=False) -> LayerStore:
    """Construct (not yet open) the store a :class:`StoreSpec` selects.

    ``None`` selects the in-RAM store, as ``"ram"`` does; ``shared`` puts
    its tables in shared memory, for a solve whose workers map them.  A
    checkpoint cannot ride the mmap store, whose spill directory already
    persists every layer.
    """
    if spec is not None and spec.resolve() == "mmap":
        if policy is not None and policy.checkpoint is not None:
            raise InvalidProblem(
                "checkpoint= cannot be combined with the mmap store: the "
                "spill directory's manifest already persists every layer "
                "durably (resume simply reopens the same spill directory)"
            )
        return MmapStore(problem, spill_dir=spec.spill_dir, fsync=spec.fsync)
    return RamStore(problem, policy=policy, p=p, use_shm=shared)
