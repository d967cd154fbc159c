"""The ``REPRO_*`` environment knobs: one table and one reader.

Eight variables tune how this host runs the layer-parallel DP and the
BVM.  :data:`KNOBS` gives each its accepted form, parser and default;
:func:`knob` is the only code in the package that reads one.  Nothing is
cached: every call reads ``os.environ``, so a test that sets a variable
between calls, and every forked or spawned worker, sees what the parent
set.  :func:`unknown_names` lists the other ``REPRO_*`` names, outside
the benchmarks' and the test harness's namespaces; the ``repro`` CLI
refuses to start on any, while ``solve()`` never looks, so a library
call does not fail because of an unrelated environment.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Any, Callable

from .core.errors import InvalidProblem

__all__ = ["KNOBS", "BVM_BACKENDS", "knob", "unknown_names"]

# Execution backends of repro.bvm.BVM (the single solve and the batch).
BVM_BACKENDS = ("bool", "packed")

HARNESS_PREFIXES = ("REPRO_BENCH_", "REPRO_TEST_")

_START_METHODS = tuple(mp.get_all_start_methods())


@dataclass(frozen=True)
class Knob:
    accepted: str  # the accepted form, as an error message spells it
    parse: Callable[[str], Any]  # raises ValueError on a bad value
    default: Any


def _at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    return parse


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text

    return parse


# The fault grammars live in repro.core.faults, which reads its specs
# through knob(): import at call time, after both modules are loaded.
def _fault_spec(text: str):
    from .core.faults import parse_fault_spec

    return parse_fault_spec(text)


def _crash_spec(text: str):
    from .core.faults import parse_crash_spec

    return parse_crash_spec(text)


KNOBS: dict[str, Knob] = {
    # Processes for a DP solve on several workers, the parent included.
    "REPRO_WORKERS": Knob(
        "an integer >= 1", _at_least(1), max(1, min(os.cpu_count() or 1, 8))
    ),
    # How worker processes start.
    "REPRO_START_METHOD": Knob(
        f"one of {', '.join(_START_METHODS)}",
        _one_of(_START_METHODS),
        "fork" if "fork" in _START_METHODS else "spawn",
    ),
    # Subsets per fused-kernel tile.  A tile touches seven scratch rows
    # (2 x float64, 4 x int32, 1 x bool) plus the best/arg output slices;
    # 16384 keeps the streamed working set around half a MiB — L2-resident
    # — which measured fastest on the k = 18 reference sweep (the gathers
    # into the 2 MiB cost table are latency-bound either way, so larger
    # tiles only dilute the fixed per-tile ufunc dispatch cost).
    "REPRO_KERNEL_TILE": Knob("an integer >= 0 (0 = untiled)", _at_least(0), 16384),
    # Byte budget of the subset-weights cache.  At k = 20 one vector is
    # 8 MiB, so the default keeps roughly eight of the largest instances
    # (or hundreds of small ones).
    "REPRO_WEIGHTS_CACHE_BYTES": Knob(
        "an integer >= 0 (bytes)", _at_least(0), 64 * 2**20
    ),
    # Anonymous bytes a RAM store's tables may take (None: no limit).
    "REPRO_RAM_BUDGET_BYTES": Knob("an integer >= 1 (bytes)", _at_least(1), None),
    # Execution backend of a BVM built without an explicit one.
    "REPRO_BVM_BACKEND": Knob(
        f"one of {', '.join(BVM_BACKENDS)}", _one_of(BVM_BACKENDS), "bool"
    ),
    # Injected worker and storage faults (no faults by default).
    "REPRO_FAULT_SPEC": Knob(
        "kind[:layer=L][:shard=S][:ms=M][:times=N] faults, ';'- or ','-separated",
        _fault_spec,
        (),
    ),
    # A SIGKILL at a point of the slab commit protocol (no crash by default).
    "REPRO_STORE_CRASH": Knob("point[:layer=J]", _crash_spec, None),
}


def knob(name: str, explicit: Any = None) -> Any:
    """Knob ``name``: ``explicit`` unless ``None``, else the environment.

    An unset or blank variable gives the default; a value that does not
    parse raises :class:`InvalidProblem` naming the variable, the
    accepted form and the value.
    """
    if explicit is not None:
        return explicit
    entry = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return entry.default
    try:
        return entry.parse(raw)
    except ValueError as exc:  # a grammar's InvalidProblem is a ValueError too
        detail = f" ({exc})" if isinstance(exc, InvalidProblem) else ""
        raise InvalidProblem(
            f"{name} must be {entry.accepted}, got {raw!r}{detail}"
        ) from None


def unknown_names() -> list[str]:
    """``REPRO_*`` names in the environment that are neither knobs nor harness names."""
    return sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_")
        and name not in KNOBS
        and not name.startswith(HARNESS_PREFIXES)
    )
