"""Memory-mapped spill store: out-of-core DP tables with durable layers.

Layout of a spill directory::

    <spill-dir>/
      manifest.json     slab journal control state (see journal.py)
      cost.dat          float64[2^k]   C table        (np.memmap, r+)
      best.dat          int32[2^k]     argmin table
      p.dat             float64[2^k]   subset weights (recomputed on open)
      order.dat         int32[2^k]     popcount-sorted masks (checksummed)
      layers/
        layer_07.slab   committed layer payloads (the slab journal)
        ...

Each file is sized by its own table's dtype
(``repro.core.kernels.TABLE_DTYPES``).  The tables are plain
``MAP_SHARED`` file mappings, so pool workers attach by path and
parent/worker writes are coherent; the pages are reclaimable page cache,
which is what lets a ``k=26+`` solve run under a RAM budget far below
``24 * 2^k`` bytes.  All streaming I/O (order generation, slab
commit/validate/scatter, the in-parent kernel path) moves through
fixed-size chunks, never a full table.

The memmapped tables are *scratch*: truth lives in the slabs and the
manifest, written by the :class:`~repro.store.journal.SlabJournal` that
the in-RAM store's ``checkpoint=`` uses too (its module docstring holds
the durability model).  What this store adds is ``order.dat``: every
slab stores values *in layer order*, so a rotted order file would
scatter good slabs to wrong masks.  It is checksummed in the manifest,
and a mismatch regenerates the file (it is derivable from ``k`` alone)
rather than failing.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..core.errors import StoreWriteError
from ..core.kernels import (
    BEST_DTYPE,
    COST_DTYPE,
    TABLE_DTYPES,
    check_k,
    layer_starts,
    popcount_order_into,
)
from ..core.sequential import subset_weights
from .base import LayerStore, OpenReport
from .journal import CHUNK, SlabJournal

__all__ = ["MmapStore"]


class MmapStore(LayerStore):
    kind = "mmap"

    def __init__(self, problem, *, spill_dir, fsync: bool = True):
        check_k(problem.k)  # before any file exists: order.dat is int32
        self._problem = problem
        self._dir = os.fspath(spill_dir)
        self._journal = SlabJournal(self, self._dir, problem, fsync=fsync)
        self.k = problem.k
        self.n_sub = 1 << problem.k

    def _data_path(self, name: str) -> str:
        return os.path.join(self._dir, name + ".dat")

    def open(self) -> OpenReport:
        events = self._journal.load()
        self._allocate_data_files()
        for name, dtype in TABLE_DTYPES.items():
            setattr(
                self,
                name,
                np.memmap(self._data_path(name), dtype=dtype, mode="r+",
                          shape=(self.n_sub,)),
            )
        self.starts = layer_starts(self.k)

        manifest = self._journal.manifest
        if manifest is None:
            order_sha = self._generate_order()
        else:
            order_sha = manifest["order_sha"]
            if self._hash_order() != order_sha:
                # order.dat rotted (or vanished into fresh zero pages):
                # every slab indexes through it, but it is derivable from
                # k alone — rebuild rather than fail.
                order_sha = self._generate_order()
                events.append({"kind": "order-rebuilt"})
        self._journal.start(order_sha)

        # The mapped tables are scratch: wipe and re-scatter only what
        # the manifest can vouch for.
        self._reset()
        subset_weights(self._problem, out=self.p)
        return self._journal.replay(events)

    def _allocate_data_files(self) -> None:
        """Create + fully allocate the table files up front.

        ``posix_fallocate`` (not just ftruncate) so a full disk surfaces
        here as a loud :class:`StoreWriteError` instead of as a SIGBUS
        the first time a sparse page cannot be materialized mid-kernel.
        """
        for name, dtype in TABLE_DTYPES.items():
            nbytes = self.n_sub * dtype.itemsize
            path = self._data_path(name)
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            except OSError as exc:
                raise StoreWriteError(
                    f"cannot create spill file {path!r}: {exc}", errno=exc.errno
                ) from exc
            try:
                if os.fstat(fd).st_size < nbytes:
                    try:
                        if hasattr(os, "posix_fallocate"):
                            os.posix_fallocate(fd, 0, nbytes)
                        else:  # pragma: no cover - non-POSIX fallback
                            os.ftruncate(fd, nbytes)
                    except OSError as exc:
                        raise StoreWriteError(
                            f"cannot allocate {nbytes} bytes for spill file "
                            f"{path!r}: {exc}", errno=exc.errno
                        ) from exc
            finally:
                os.close(fd)

    def _generate_order(self) -> str:
        """Write the popcount-sorted mask order into ``order.dat``.

        Returns the sha256 of the written bytes.
        """
        popcount_order_into(self.order, self.k)
        self.order.flush()
        return self._hash_order()

    def _hash_order(self) -> str:
        h = hashlib.sha256()
        for lo in range(0, self.n_sub, CHUNK):
            h.update(np.ascontiguousarray(self.order[lo:lo + CHUNK]).tobytes())
        return h.hexdigest()

    # -- solve-loop hooks -----------------------------------------------

    def worker_spec(self) -> dict | None:
        return {"mode": "mmap", "dir": self._dir, "n_sub": self.n_sub}

    def finish(self, success: bool) -> None:
        if success:
            self._journal.mark_complete()

    def result_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # Fresh read-only mappings: valid after close(), and the result
        # stays page-cache-backed instead of forcing a 12 * 2^k RAM copy
        # at the end of an out-of-core solve.
        cost = np.memmap(self._data_path("cost"), dtype=COST_DTYPE, mode="r",
                         shape=(self.n_sub,))
        best = np.memmap(self._data_path("best"), dtype=BEST_DTYPE, mode="r",
                         shape=(self.n_sub,))
        return cost, best

    def close(self) -> None:
        # Drop the r+ views; workers hold their own mappings and the
        # result tables are independent read-only maps.
        self.cost = self.best = self.p = self.order = None
