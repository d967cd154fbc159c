"""Durable-write primitives of the layer stores' slab journal.

The atomic-rename idiom alone (``write tmp -> os.replace``) survives a
*process* crash but not a *power* loss: without an ``fsync`` the renamed
file's data may still live only in the page cache, and without an fsync
of the containing directory the rename itself may not be durable — a
reboot can surface a zero-length file or the pre-rename state.  Every
on-disk artifact the solver may later resume from goes through the full
protocol here:

    write tmp -> flush -> fsync(tmp) -> rename -> fsync(directory)

``fsync`` can be disabled per call (the verify harness hammers the store
with thousands of tiny solves where durability is irrelevant), but the
write-tmp/rename atomicity is always kept.

Temp files use the ``.tmp`` suffix; :func:`sweep_tmp_files` removes
stragglers left by a crash mid-write so they can never accumulate or be
mistaken for committed state.
"""

from __future__ import annotations

import os
from typing import Iterable

__all__ = [
    "TMP_SUFFIX",
    "fsync_dir",
    "atomic_write_bytes",
    "sweep_tmp_files",
]

TMP_SUFFIX = ".tmp"


def fsync_dir(path: str | os.PathLike) -> None:
    """Fsync a directory so a rename inside it survives power loss.

    Best-effort: some filesystems refuse ``O_RDONLY`` opens or fsync on
    directories; those cannot be made more durable from userspace, so
    errors are swallowed rather than failing an otherwise-good commit.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | os.PathLike, payload: bytes, *, fsync: bool = True
) -> None:
    """Atomically (and durably) replace ``path`` with ``payload``.

    The payload goes to ``path + ".tmp"``, is flushed and fsynced, then
    renamed over ``path`` and the directory fsynced.  On any failure the
    temp file is removed and ``path`` is untouched.
    """
    path = os.fspath(path)
    tmp = path + TMP_SUFFIX
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(os.path.dirname(path) or ".")


def sweep_tmp_files(dirs: Iterable[str | os.PathLike]) -> list:
    """Remove orphaned ``.tmp`` files; returns the paths actually removed.

    Each directory is swept non-recursively.  Missing entries are
    ignored — the sweep runs on every startup.
    """
    removed: list = []
    for entry in dirs:
        try:
            children = os.listdir(entry)
        except OSError:
            continue
        for name in children:
            if name.endswith(TMP_SUFFIX):
                victim = os.path.join(os.fspath(entry), name)
                try:
                    os.unlink(victim)
                    removed.append(victim)
                except OSError:
                    pass
    return removed
