"""Crash drills: prove resume-after-SIGKILL is bit-identical.

A drill runs one journaled solve in a *subprocess* — ``--store=mmap``
into a spill directory, or (``store="ram"``) shared-memory tables with
``--checkpoint DIR`` — with ``REPRO_STORE_CRASH`` armed at a chosen
point of the slab commit protocol (see :mod:`repro.core.faults`), lets
the process SIGKILL itself there — a real, unhandleable kill, not an
exception — then reopens the surviving journal directory in-process and
compares the resumed tables byte-for-byte against an undisturbed solve
of the same instance.  Both stores commit through the same
:class:`~repro.store.journal.SlabJournal`, so the four points mean the
same thing for each.

The four crash points bracket the commit protocol's two durability
boundaries:

``mid-write``
    Between the cost and best halves of the slab temp file: the temp is
    swept on reopen, the layer has no manifest entry, it is recomputed.
``pre-rename``
    Slab fully written and fsync'd but still ``.tmp``: same outcome —
    bytes without a manifest entry are not trusted.
``post-rename``
    Slab durable under its final name but the manifest not yet updated:
    still recomputed (the manifest is the single source of truth).
``post-commit``
    Manifest entry durable: the layer is validated and *skipped* on
    resume.

Every point must end in bit-identical tables; they differ only in how
much work the resume repeats.  All four fire in the solving process (the
commit protocol is parent-side), so ``workers=1`` exercises them fully.

Commits run on the asynchronous commit pipeline, so the SIGKILL lands
*inside the committer thread* while the solve thread may already be
computing the next layer — the drill proves that concurrent commits
open no new crash window.  ``congest=True`` additionally arms a
``slow-io`` storage fault so commits crawl, the solve thread runs ahead,
and the kill fires with a *non-empty commit queue* (the mid-queue case:
the queued layer's slab must simply be recomputed on resume).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

from ..core.dispatch import solve
from ..core.errors import InvalidProblem
from ..core.faults import CRASH_POINTS
from .journal import MANIFEST_NAME

__all__ = ["run_crash_drill", "DRILL_STORES"]

# Which journaled store a drill kills: the mmap spill store, or the
# in-RAM store checkpointing to a journal directory.
DRILL_STORES = ("mmap", "ram")


def _committed_layers(journal_dir: str) -> int:
    """How many layers the manifest vouches for (0 if none/unreadable)."""
    try:
        with open(os.path.join(journal_dir, MANIFEST_NAME), encoding="utf-8") as fh:
            manifest = json.load(fh)
        return len(manifest.get("layers", {}))
    except (OSError, ValueError, AttributeError):
        return 0


def run_crash_drill(
    problem,
    point: str,
    *,
    workdir: str,
    layer: int | None = None,
    workers: int = 1,
    timeout: float = 600.0,
    congest: bool = False,
    store: str = "mmap",
) -> dict:
    """SIGKILL a journaled solve at ``point``, resume, compare bit-for-bit.

    ``store`` selects the drilled store (``"mmap"`` default / ``"ram"``
    with a checkpoint journal); ``congest=True`` slows every commit
    (``slow-io``) so the kill fires while a further layer is queued
    behind it.

    Returns a report dict: ``point``, ``layer``, ``store``, ``killed``
    (the subprocess actually died by SIGKILL), ``committed_at_kill``
    (layers the surviving manifest vouches for), ``resumed_from_layer`` and
    ``rederived`` (from the resume's recovery log), and ``identical``
    (resumed tables == undisturbed tables, byte-for-byte).  A drill
    *passes* iff ``killed and identical``.
    """
    if point not in CRASH_POINTS:
        raise InvalidProblem(
            f"unknown crash point {point!r}; expected one of {CRASH_POINTS}"
        )
    if store not in DRILL_STORES:
        raise InvalidProblem(
            f"unknown drill store {store!r}; expected one of {DRILL_STORES}"
        )
    if layer is None:
        layer = max(1, problem.k // 2)
    if not (1 <= layer <= problem.k):
        raise InvalidProblem(
            f"crash layer must be in [1, {problem.k}], got {layer}"
        )

    os.makedirs(workdir, exist_ok=True)
    journal_dir = os.path.join(workdir, "spill" if store == "mmap" else "checkpoint")
    if store == "mmap":
        store_args = ["--store", "mmap", "--spill-dir", journal_dir]
        store_kwargs = {"store": "mmap", "spill_dir": journal_dir}
    else:
        store_args = ["--checkpoint", journal_dir]
        store_kwargs = {"checkpoint": journal_dir}
    problem_file = os.path.join(workdir, "problem.json")
    with open(problem_file, "w", encoding="utf-8") as fh:
        fh.write(problem.to_json())

    # The truth to resume toward: an undisturbed in-process solve.
    expected = solve(problem)

    env = dict(os.environ)
    env["REPRO_STORE_CRASH"] = f"{point}:layer={layer}"
    if congest:
        # Slow every layer's first commit so the solve thread runs ahead
        # of the committer and the SIGKILL lands with a layer queued
        # behind the in-flight commit.
        env["REPRO_FAULT_SPEC"] = "slow-io:ms=150"
    # The subprocess must import *this* repro, wherever it runs from.
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "solve",
            "--file", problem_file,
            "--backend", "parallel",
            "--workers", str(workers),
            *store_args,
            "--json",
        ],
        env=env,
        capture_output=True,
        timeout=timeout,
    )
    killed = proc.returncode == -signal.SIGKILL
    committed = _committed_layers(journal_dir)

    # Resume in-process from whatever the kill left behind.  The crash
    # trap is gone here (env untouched), so the resume runs to the end.
    result = solve(
        problem,
        backend="parallel",
        workers=workers,
        **store_kwargs,
    )
    recovery = result.recovery or {}
    identical = (
        result.cost.tobytes() == expected.cost.tobytes()
        and result.best_action.tobytes() == expected.best_action.tobytes()
    )
    return {
        "point": point,
        "layer": layer,
        "store": store,
        "workers": workers,
        "congest": congest,
        "killed": killed,
        "returncode": proc.returncode,
        "committed_at_kill": committed,
        "resumed_from_layer": recovery.get("resumed_from_layer"),
        "rederived": recovery.get("rederived", 0),
        "identical": identical,
    }
