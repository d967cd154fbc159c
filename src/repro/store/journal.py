"""The slab journal: the one durable format of every persisted store.

A journal directory holds the committed popcount layers of one solve::

    <dir>/
      manifest.json     control state (see below) — atomic + fsync'd
      layers/
        layer_07.slab   committed layer payloads (cost then best bytes,
        ...             in layer order), one file per popcount layer

A slab of format 2 holds the layer's float64 costs (8 bytes per mask)
and then its int32 best actions (4 bytes per mask).  Format 1 stored
int64 actions; its directories are refused, not re-derived: that would
silently throw away a checkpoint the user asked to resume.

Both persisted stores commit through it: the mmap spill store (whose
directory also holds its memory-mapped tables) and the in-RAM store
under ``checkpoint=DIR`` (whose tables stay in shared memory).  The
journal owns no tables — it gathers from and scatters into the owning
store's ``cost``, ``best`` and ``order``, streaming fixed-size chunks, so
its scratch stays a few MiB regardless of ``k``.

Durability model (DESIGN.md §5.5)
---------------------------------

The tables are *scratch*: nothing guarantees what part of them survives
a crash.  Truth lives in the slab files and the manifest, and a layer
counts as committed only after the full protocol ran::

    write layer_J.slab.tmp -> flush -> fsync -> rename -> fsync(dir)
    manifest.json gains layers[J] = {sha256, nbytes}   (same protocol)

A crash at any point leaves either no manifest entry (the layer is
simply recomputed — slab bytes without a manifest entry are ignored) or
a full entry whose checksum the next open verifies.  Opening trusts a
layer only when its slab exists, has the recorded size, and hashes to
the recorded sha256; everything else — torn writes, flipped bits,
deleted slabs, a crashed process's half-written temp — lands in the
re-derivation set and is recomputed from the layers below, which is
always sound because layer ``j`` is a pure bit-reproducible function of
layers ``< j``.  Only three failures are loud: a manifest that cannot be
parsed (:class:`StoreCorruption` — control state is gone, nothing can
be trusted), a manifest written for a *different problem*
(:class:`CheckpointMismatch` — resuming someone else's tables would be
silent corruption), and a regular file where the directory should be
(:class:`CheckpointMismatch` — most likely a single-file checkpoint from
before the journal, which this format cannot read).

The manifest also records ``order_sha``, the sha256 of the
popcount-sorted mask order the slabs index through; the spill store
checks its ``order.dat`` against it.

Storage faults from ``REPRO_FAULT_SPEC`` (``torn-write``, ``bitflip``,
``enospc``, ``slow-io``) are applied at commit time; the first two
corrupt the slab bytes while the manifest records the checksum of the
*true* payload — exactly the shape of real torn writes and bit rot.
``REPRO_STORE_CRASH`` SIGKILLs the process at a named point of the
protocol (the crash-drill harness drives this).
"""

from __future__ import annotations

import errno as errno_mod
import functools
import hashlib
import json
import os
import time

import numpy as np

from ..core import faults
from ..core.durable import atomic_write_bytes, fsync_dir, sweep_tmp_files
from ..core.errors import CheckpointMismatch, StoreCorruption, StoreWriteError
from ..core.kernels import BEST_DTYPE, COST_DTYPE, layer_plan
from ..core.supervisor import problem_content_hash
from .base import SLAB_BYTES_PER_MASK, OpenReport

__all__ = ["SlabJournal", "MANIFEST_NAME", "JOURNAL_FORMAT", "CHUNK", "order_digest"]

MANIFEST_NAME = "manifest.json"
JOURNAL_FORMAT = 2

# Subsets per streamed chunk for every table-sized pass (slab
# gather/scatter, order generation/hashing): 2^18 masks = 2 MiB of
# float64 per buffer.
CHUNK = 1 << 18


@functools.lru_cache(maxsize=8)
def order_digest(k: int) -> str:
    """sha256 of the popcount-sorted mask order for ``k`` (``LayerPlan.order``)."""
    return hashlib.sha256(layer_plan(k).order).hexdigest()


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class SlabJournal:
    """Per-layer slab commits and their manifest, over a store's tables.

    Lifecycle, driven by the owning store's ``open``/``commit_layer``/
    ``finish``: :meth:`load` (create the directory, sweep temp litter,
    read and check any earlier manifest), :meth:`start` (write the
    manifest this solve commits into), :meth:`replay` (validate every
    recorded layer and scatter the trusted ones into the tables), then
    one :meth:`commit` per computed layer, and finally
    :meth:`mark_complete` or :meth:`remove`.
    """

    def __init__(self, store, directory, problem, *, fsync: bool = True):
        self._store = store
        self.dir = os.fspath(directory)
        self.layers_dir = os.path.join(self.dir, "layers")
        self._fsync = fsync
        self._sha = problem_content_hash(problem)
        self._k = problem.k
        self.manifest: dict | None = None
        self._resuming = False
        self._attempts: dict = {}

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.dir, MANIFEST_NAME)

    def slab_path(self, j: int) -> str:
        return os.path.join(self.layers_dir, f"layer_{j:02d}.slab")

    # -- open -----------------------------------------------------------

    def load(self) -> list:
        """Create the directory, sweep temp litter, load any manifest.

        Returns the recovery events so far.  Afterwards ``manifest`` is
        the checked manifest of an earlier run, or ``None`` when the
        directory is fresh.
        """
        if os.path.exists(self.dir) and not os.path.isdir(self.dir):
            raise CheckpointMismatch(
                f"{self.dir!r} is a regular file, not a journal directory — "
                "probably a single-file checkpoint from an older release, "
                "which cannot be resumed; remove it or choose another path"
            )
        os.makedirs(self.layers_dir, exist_ok=True)
        events: list = []
        swept = sweep_tmp_files([self.dir, self.layers_dir])
        if swept:
            events.append({"kind": "tmp-swept", "count": len(swept)})
        self.manifest = self._load_manifest()
        self._resuming = self.manifest is not None
        return events

    def _load_manifest(self) -> dict | None:
        path = self.manifest_path
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StoreCorruption(
                f"unreadable manifest {path!r}: {exc} — the store's control "
                "state cannot be trusted; remove the directory to start over"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != JOURNAL_FORMAT:
            found = data.get("format") if isinstance(data, dict) else data
            raise StoreCorruption(
                f"manifest {path!r} has format {found!r}, but only format "
                f"{JOURNAL_FORMAT} can be resumed (format 1 stored int64 best "
                "actions) — remove the directory to start over"
            )
        for key, typ in (("problem_sha", str), ("k", int), ("order_sha", str),
                         ("layers", dict)):
            if not isinstance(data.get(key), typ):
                raise StoreCorruption(
                    f"manifest {path!r} is missing or mistypes {key!r}"
                )
        if data["problem_sha"] != self._sha or data["k"] != self._k:
            raise CheckpointMismatch(
                f"directory {self.dir!r} was written for a different problem "
                "(content hash mismatch) — refusing to resume from someone "
                "else's tables"
            )
        return data

    def start(self, order_sha: str) -> None:
        """Durably write the manifest this solve commits into."""
        if self.manifest is None:
            self.manifest = {
                "format": JOURNAL_FORMAT,
                "problem_sha": self._sha,
                "k": self._k,
                "order_sha": order_sha,
                "layers": {},
                "complete": False,
            }
        else:
            self.manifest["order_sha"] = order_sha
        self.write_manifest()

    def replay(self, events: list) -> OpenReport:
        """Validate every manifest entry; scatter the trusted slabs.

        The store's tables must hold the cold-start state (``INF`` cost,
        ``-1`` policy) and the mask order the slabs were written in.
        """
        layers = self.manifest["layers"]
        try:
            keys = sorted(layers, key=int)
        except (TypeError, ValueError) as exc:
            raise StoreCorruption(
                f"manifest {self.manifest_path!r} holds a non-integer layer "
                f"key: {exc}"
            ) from exc
        valid: set = set()
        rederive: list = []
        for key in keys:
            j = int(key)
            if not (1 <= j <= self._k):
                raise StoreCorruption(
                    f"manifest {self.manifest_path!r} records layer {j}, "
                    f"outside [1, {self._k}]"
                )
            status = self._validate_slab(j, layers[key])
            if status == "ok":
                self._scatter_slab(j)
                valid.add(j)
            else:
                events.append({"kind": f"slab-{status}", "layer": j})
                rederive.append(j)

        completed = 0
        while completed + 1 in valid:
            completed += 1
        return OpenReport(
            valid_layers=frozenset(valid),
            completed_prefix=completed,
            rederive_layers=tuple(rederive),
            resumed=self._resuming and bool(valid),
            events=events,
        )

    def _validate_slab(self, j: int, entry: dict) -> str:
        """``"ok"`` | ``"missing"`` | ``"corrupt"`` for one manifest entry."""
        if not isinstance(entry, dict):
            return "corrupt"
        lo, hi = self._store.bounds(j)
        expect = (hi - lo) * SLAB_BYTES_PER_MASK
        path = self.slab_path(j)
        try:
            size = os.path.getsize(path)
        except OSError:
            return "missing"
        if size != expect or entry.get("nbytes") != expect:
            return "corrupt"
        t0 = time.monotonic()
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        if self._store._metrics is not None:
            self._store._metrics.observe("store.rehash_s", time.monotonic() - t0)
        return "ok" if h.hexdigest() == entry.get("sha256") else "corrupt"

    def _scatter_slab(self, j: int) -> None:
        """Stream a validated slab back into the store's tables."""
        st = self._store
        lo, hi = st.bounds(j)
        size = hi - lo
        with open(self.slab_path(j), "rb") as fh:
            for table, dtype in ((st.cost, COST_DTYPE), (st.best, BEST_DTYPE)):
                for off in range(0, size, CHUNK):
                    n = min(CHUNK, size - off)
                    block = np.frombuffer(fh.read(n * dtype.itemsize), dtype=dtype)
                    idx = np.asarray(st.order[lo + off:lo + off + n], dtype=np.intp)
                    table[idx] = block

    # -- commit ---------------------------------------------------------

    def commit(self, j: int) -> int:
        """Durably persist layer ``j``: slab protocol + manifest entry.

        Returns the slab bytes written — under an injected torn write,
        the half that actually reached the file.
        """
        st = self._store
        t0 = time.monotonic()
        attempt = self._attempts.get(j, 0)
        self._attempts[j] = attempt + 1
        torn = flip = False
        for fault in faults.storage_faults_for(j, attempt):
            if fault.kind == "slow-io":
                time.sleep(fault.ms / 1000.0)
            elif fault.kind == "enospc":
                raise StoreWriteError(
                    f"injected ENOSPC committing layer {j}",
                    layer=j, errno=errno_mod.ENOSPC,
                )
            elif fault.kind == "torn-write":
                torn = True
            elif fault.kind == "bitflip":
                flip = True

        lo, hi = st.bounds(j)
        size = hi - lo
        total = size * SLAB_BYTES_PER_MASK
        # A torn write stops half-way; a bitflip corrupts the first byte.
        # Both happen *after* hashing, so the manifest records the true
        # payload's checksum and the next open must catch the mismatch.
        write_budget = total // 2 if torn else total
        written = 0
        first = True
        h = hashlib.sha256()
        path = self.slab_path(j)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                for table in (st.cost, st.best):
                    for off in range(0, size, CHUNK):
                        n = min(CHUNK, size - off)
                        idx = np.asarray(st.order[lo + off:lo + off + n], dtype=np.intp)
                        data = table[idx].tobytes()
                        h.update(data)
                        if flip and first:
                            buf = bytearray(data)
                            buf[0] ^= 0x01
                            data = bytes(buf)
                        first = False
                        room = write_budget - written
                        if room > 0:
                            fh.write(data[:room])
                            written += min(len(data), room)
                    if table is st.cost:
                        faults.maybe_crash("mid-write", j)
                fh.flush()
                t_write = time.monotonic()
                if self._fsync:
                    os.fsync(fh.fileno())
                t_fsync = time.monotonic()
            faults.maybe_crash("pre-rename", j)
            os.replace(tmp, path)
            if self._fsync:
                fsync_dir(self.layers_dir)
            t_rename = time.monotonic()
        except OSError as exc:
            _unlink(tmp)
            raise StoreWriteError(
                f"slab write failed for layer {j}: {exc}",
                layer=j, errno=exc.errno,
            ) from exc
        faults.maybe_crash("post-rename", j)
        self.manifest["layers"][str(j)] = {"sha256": h.hexdigest(), "nbytes": total}
        self.write_manifest()
        t_manifest = time.monotonic()
        if st._metrics is not None:
            m = st._metrics
            m.inc("store.commits")
            m.inc("store.bytes_written", written)
            m.observe("store.commit_s", t_manifest - t0)
            m.observe("store.fsync_s", t_fsync - t_write)
        if st._tracer is not None and st._tracer.collecting:
            # One span per commit with the protocol phases broken out in
            # args: write+hash, fsync, rename+dirsync, manifest.
            st._tracer.complete(
                "store.commit", "store", t0, t_manifest,
                layer=j, bytes=written,
                write_ms=round((t_write - t0) * 1e3, 3),
                fsync_ms=round((t_fsync - t_write) * 1e3, 3),
                rename_ms=round((t_rename - t_fsync) * 1e3, 3),
                manifest_ms=round((t_manifest - t_rename) * 1e3, 3),
            )
        faults.maybe_crash("post-commit", j)
        return written

    def write_manifest(self) -> None:
        payload = json.dumps(self.manifest, indent=1, sort_keys=True).encode()
        try:
            atomic_write_bytes(self.manifest_path, payload, fsync=self._fsync)
        except OSError as exc:
            raise StoreWriteError(
                f"manifest write failed: {exc}", errno=exc.errno
            ) from exc

    # -- finish ---------------------------------------------------------

    def mark_complete(self) -> None:
        self.manifest["complete"] = True
        self.write_manifest()

    def remove(self) -> None:
        """Delete this journal's files after a finished solve.

        The manifest goes first, so an interrupted removal leaves slabs
        no manifest vouches for (ignored by the next open) rather than a
        manifest naming missing slabs.  Directories are removed only when
        empty: the path is user-supplied, and anything else in it stays.
        """
        _unlink(self.manifest_path)
        for j in range(1, self._k + 1):
            _unlink(self.slab_path(j))
        for path in (self.layers_dir, self.dir):
            try:
                os.rmdir(path)
            except OSError:
                pass
