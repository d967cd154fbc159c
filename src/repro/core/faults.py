"""Deterministic fault injection for the supervised parallel engine.

Every recovery path in :mod:`repro.core.supervisor` — shard retry, pool
respawn, timeout, in-process fallback — is exercised by *injected*
faults, not by waiting for production to produce them.  A fault spec is a
string (usually from the ``REPRO_FAULT_SPEC`` environment variable, so it
reaches pool workers under both ``fork`` and ``spawn``)::

    kill:layer=12:shard=1        # os._exit inside that shard (SIGKILL-alike)
    hang:layer=9                 # sleep far past any sane deadline
    slow:ms=200                  # sleep 200 ms in every matching shard
    exc:layer=3:shard=0          # raise inside the shard (picklable error)
    kill:layer=2;slow:ms=50      # multiple faults, ';'- or ','-separated

Selectors ``layer=``/``shard=`` restrict where a fault fires (omitted =
matches everywhere) and ``times=N`` caps *which dispatch attempts* fire
(default 1: only the first attempt).  Because a fault is a pure function
of ``(layer, shard, attempt)`` — no randomness, no cross-process state —
an injected failure is bit-reproducible, and a retried shard (attempt
bumped by the supervisor) deterministically escapes a ``times=1`` fault.

Workers call :func:`inject` at the top of every shard; it is a no-op
unless a spec is active, so the production path pays one dict lookup.

The same spec grammar also carries *storage* faults, fired by the layer
store at slab-commit time instead of inside a shard (so ``shard=`` is
rejected for them)::

    torn-write:layer=5           # slab file truncated mid-write
    bitflip:layer=5              # one bit of the slab payload flipped
    enospc:layer=5               # commit raises OSError(ENOSPC)
    slow-io:ms=200               # commit sleeps 200 ms

``torn-write`` and ``bitflip`` corrupt the *bytes on disk* while the
manifest records the checksum of the true payload — exactly the shape of
real torn writes and bit rot — so the next open must detect the mismatch
and re-derive the layer.  The store calls :func:`storage_faults_for`
(attempt 0 on first commit of a layer; a re-derived layer re-commits with
a bumped attempt and deterministically escapes a ``times=1`` fault).

Separately, ``REPRO_STORE_CRASH`` names a *crash point* in the commit
protocol where the process SIGKILLs itself (via :func:`maybe_crash`),
e.g. ``pre-rename:layer=3`` — the crash-drill harness uses this to prove
resume-after-SIGKILL is bit-identical to a cold solve.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

from ..config import knob
from ..obs import trace as _trace
from .errors import InvalidProblem

__all__ = [
    "Fault",
    "parse_fault_spec",
    "inject",
    "STORAGE_KINDS",
    "storage_faults_for",
    "CRASH_POINTS",
    "parse_crash_spec",
    "maybe_crash",
]

_KINDS = ("kill", "hang", "slow", "exc")

# Storage faults fire in the *parent* at slab-commit time, not in a shard.
STORAGE_KINDS = ("torn-write", "bitflip", "enospc", "slow-io")

# Where in the slab commit protocol a REPRO_STORE_CRASH SIGKILL lands.
CRASH_POINTS = ("mid-write", "pre-rename", "post-rename", "post-commit")

# `hang` must outlive any plausible per-shard deadline but still end, so a
# supervisor run *without* a timeout policy is not wedged forever by a test.
_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class Fault:
    """One injected fault: what happens, where, and on which attempts."""

    kind: str  # worker: "kill"|"hang"|"slow"|"exc"; storage: STORAGE_KINDS
    layer: int | None = None  # popcount layer selector (None = any)
    shard: int | None = None  # shard-index selector (None = any)
    ms: float = 0.0  # sleep duration for "slow" / "slow-io"
    times: int = 1  # attempts [0, times) fire

    @property
    def is_storage(self) -> bool:
        return self.kind in STORAGE_KINDS

    def matches(self, layer: int, shard: int, attempt: int) -> bool:
        if self.layer is not None and layer != self.layer:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        return attempt < self.times


def _parse_one(token: str) -> Fault:
    parts = token.split(":")
    kind = parts[0].strip().lower()
    if kind not in _KINDS and kind not in STORAGE_KINDS:
        raise InvalidProblem(
            f"invalid fault spec {token!r}: unknown kind {kind!r} "
            f"(expected one of {', '.join(_KINDS + STORAGE_KINDS)})"
        )
    fields: dict = {"kind": kind}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("layer", "shard", "ms", "times"):
            raise InvalidProblem(
                f"invalid fault spec {token!r}: bad field {part!r} "
                "(expected layer=, shard=, ms= or times=)"
            )
        try:
            fields[key] = float(value) if key == "ms" else int(value)
        except ValueError:
            raise InvalidProblem(
                f"invalid fault spec {token!r}: {key}={value!r} is not a number"
            ) from None
    if kind in STORAGE_KINDS and "shard" in fields:
        raise InvalidProblem(
            f"invalid fault spec {token!r}: storage faults fire at layer "
            "commit, not inside a shard — shard= is meaningless here"
        )
    if fields.get("times", 1) < 1:
        raise InvalidProblem(f"invalid fault spec {token!r}: times must be >= 1")
    if fields.get("ms", 0.0) < 0:
        raise InvalidProblem(f"invalid fault spec {token!r}: ms must be >= 0")
    return Fault(**fields)


@lru_cache(maxsize=32)
def parse_fault_spec(spec: str) -> tuple[Fault, ...]:
    """Parse a fault-spec string into :class:`Fault` tuples.

    Raises :class:`InvalidProblem` with a one-line message on any
    malformed token — the supervisor parses the environment spec in the
    *parent* before dispatching, so a typo fails the solve loudly up
    front instead of silently never firing in a worker.
    """
    faults = []
    for token in spec.replace(";", ",").split(","):
        token = token.strip()
        if token:
            faults.append(_parse_one(token))
    return tuple(faults)


def inject(layer: int, shard: int, attempt: int = 0, *, spec: str | None = None) -> None:
    """Fire any matching injected fault for this ``(layer, shard, attempt)``.

    Called by pool workers at the top of every shard.  ``spec`` overrides
    the environment for direct testing; normally the worker reads
    ``REPRO_FAULT_SPEC`` (inherited under both fork and spawn).
    """
    faults = parse_fault_spec(spec) if spec is not None else knob("REPRO_FAULT_SPEC")
    for fault in faults:
        if fault.is_storage or not fault.matches(layer, shard, attempt):
            continue
        # Tag the timeline *before* firing: a traced worker's ring buffer
        # carries the instant back through the result channel (except for
        # "kill", whose buffer dies with the process — the supervisor's
        # crash/retry events then tell the recovery side of the story).
        _trace.current().instant(
            f"fault.{fault.kind}", cat="fault",
            layer=layer, shard=shard, attempt=attempt, ms=fault.ms,
        )
        if fault.kind == "kill":
            # Bypass all cleanup, exactly like SIGKILL/OOM: the parent must
            # recover from a worker that never got to say goodbye.
            os._exit(13)
        elif fault.kind == "hang":
            time.sleep((fault.ms / 1000.0) if fault.ms else _HANG_SECONDS)
        elif fault.kind == "slow":
            time.sleep(fault.ms / 1000.0)
        elif fault.kind == "exc":
            raise RuntimeError(
                f"injected worker exception (layer={layer}, shard={shard}, "
                f"attempt={attempt})"
            )


def storage_faults_for(
    layer: int, attempt: int = 0, *, spec: str | None = None
) -> tuple[Fault, ...]:
    """Storage faults matching this layer commit, in spec order.

    The layer store applies them itself — a storage fault mutates the
    bytes being written (``torn-write``/``bitflip``), raises
    (``enospc``), or sleeps (``slow-io``), all of which only the writer
    can do — so unlike :func:`inject` this returns the matching faults
    rather than firing them.  ``attempt`` counts commits of the same
    layer within one process (a re-derived layer re-commits with attempt
    1), mirroring the shard-retry escape semantics of ``times=``.
    """
    faults = parse_fault_spec(spec) if spec is not None else knob("REPRO_FAULT_SPEC")
    matched = tuple(
        f for f in faults if f.is_storage and f.matches(layer, 0, attempt)
    )
    for f in matched:
        # Parent-side: the solve loop keeps its tracer ambient, so these
        # land directly on the main timeline next to the commit span.
        _trace.current().instant(
            f"fault.{f.kind}", cat="fault", layer=layer, attempt=attempt, ms=f.ms
        )
    return matched


# ----------------------------------------------------------------------
# SIGKILL crash points (crash-drill harness)
# ----------------------------------------------------------------------


def parse_crash_spec(spec: str) -> tuple[str, int | None]:
    """Parse ``REPRO_STORE_CRASH``: ``<point>[:layer=J]``.

    Points name positions in the slab commit protocol (see
    :data:`CRASH_POINTS`); ``layer=`` restricts the kill to one layer's
    commit (omitted = the first commit executed).
    """
    parts = spec.split(":")
    point = parts[0].strip().lower()
    if point not in CRASH_POINTS:
        raise InvalidProblem(
            f"invalid crash spec {spec!r}: unknown crash point "
            f"{point!r} (expected one of {', '.join(CRASH_POINTS)})"
        )
    layer: int | None = None
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep or key.strip() != "layer":
            raise InvalidProblem(
                f"invalid crash spec {spec!r}: bad field {part!r} "
                "(expected layer=J)"
            )
        try:
            layer = int(value)
        except ValueError:
            raise InvalidProblem(
                f"invalid crash spec {spec!r}: layer={value!r} is not "
                "an integer"
            ) from None
    return point, layer


def maybe_crash(point: str, layer: int) -> None:
    """SIGKILL this process if ``REPRO_STORE_CRASH`` names this point.

    ``SIGKILL`` (not ``os._exit``) so absolutely nothing — no atexit
    hooks, no finally blocks, no buffered flushes — runs: the store's
    durability claims are only honest against the harshest death the OS
    can deliver.
    """
    import signal

    spec = knob("REPRO_STORE_CRASH")
    if spec is None:
        return
    want_point, want_layer = spec
    if point != want_point:
        return
    if want_layer is not None and layer != want_layer:
        return
    os.kill(os.getpid(), signal.SIGKILL)
