"""Orchestration of the bounded-model verification sweep.

:func:`run_verification` drives the whole pipeline: enumerate every
instance inside the bounds (optionally budget-strided), solve each with
the reference oracle, hold every registered backend's tables bit-for-bit
to the oracle's, check the metamorphic property catalogue, and — on any
discrepancy — shrink to a minimal reproducer and emit it as a pytest
file.

Budgeting is a *deterministic stride*, never a prefix: a prefix of the
enumeration order would spend the whole budget on the smallest ``k`` and
shortest action lists, exactly the instances least likely to expose
layer/sharding bugs.  The stride keeps coverage proportional across the
space and makes two runs with the same budget check the same instances.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.problem import TTProblem
from ..core.sequential import solve_dp_reference
from .backends import REFERENCE, VerifyBackend, default_backend_names, make_backends
from .bounds import QUICK, Bounds
from .enumeration import count_instances, enumerate_instances
from .properties import PROPERTIES, run_check
from .shrink import emit_regression_test, shrink

__all__ = ["Discrepancy", "VerifyReport", "run_verification"]

_CHUNK = 256


@dataclass
class Discrepancy:
    """One verification failure, with its shrunken reproducer."""

    check: str  # "backend:<name>" or "property:<name>"
    instance: str  # provenance name of the instance that first failed
    detail: str
    problem_json: str  # the original failing instance
    shrunk_json: str  # 1-step-minimal reproducer (== problem_json if unshrinkable)
    emitted_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "detail": self.detail,
            "problem": self.problem_json,
            "shrunk": self.shrunk_json,
            "emitted_path": self.emitted_path,
        }


@dataclass
class VerifyReport:
    """Outcome of one :func:`run_verification` sweep.

    ``backend_seconds`` times each backend's ``tables_batch`` calls;
    ``oracle_s`` times the reference oracle plus the property checks
    (a failing property's shrink included).  Together they are at most
    ``elapsed_s``: the rest is enumeration and comparison.
    """

    bounds: str
    total_instances: int  # size of the full bounded space
    checked_instances: int  # actually checked (== total unless budgeted)
    backend_checks: dict[str, int] = field(default_factory=dict)
    backend_declines: dict[str, int] = field(default_factory=dict)
    backend_seconds: dict[str, float] = field(default_factory=dict)
    property_checks: dict[str, int] = field(default_factory=dict)
    discrepancies: list[Discrepancy] = field(default_factory=list)
    oracle_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict:
        return {
            "bounds": self.bounds,
            "ok": self.ok,
            "total_instances": self.total_instances,
            "checked_instances": self.checked_instances,
            "backend_checks": self.backend_checks,
            "backend_declines": self.backend_declines,
            "backend_seconds": {
                name: round(s, 3) for name, s in self.backend_seconds.items()
            },
            "property_checks": self.property_checks,
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "oracle_s": round(self.oracle_s, 3),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def summary(self) -> str:
        lines = [
            f"bounds={self.bounds}: checked {self.checked_instances}"
            f"/{self.total_instances} instances"
        ]
        for name in sorted(self.backend_checks):
            extra = ""
            declined = self.backend_declines.get(name, 0)
            if declined:
                extra = f" ({declined} declined)"
            lines.append(
                f"  backend {name}: {self.backend_checks[name]} checks{extra}, "
                f"{self.backend_seconds.get(name, 0.0):.1f} s"
            )
        for name in sorted(self.property_checks):
            lines.append(f"  property {name}: {self.property_checks[name]} checks")
        lines.append(
            f"  reference oracle + properties: {self.oracle_s:.1f} s "
            f"of {self.elapsed_s:.1f} s"
        )
        if self.ok:
            lines.append("OK: all backends bit-identical, all properties hold")
        else:
            lines.append(f"FAIL: {len(self.discrepancies)} discrepancies")
            for d in self.discrepancies:
                where = f" -> {d.emitted_path}" if d.emitted_path else ""
                lines.append(f"  {d.check} on {d.instance}: {d.detail}{where}")
        return "\n".join(lines)


def _chunks(iterable, size):
    chunk = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _tables_match(got, ref) -> str | None:
    cost, best = got
    if not np.array_equal(cost, ref.cost):
        bad = int(np.argmax(~(np.asarray(cost) == np.asarray(ref.cost))))
        return f"cost differs first at subset {bad:#x}: {cost[bad]} vs {ref.cost[bad]}"
    if not np.array_equal(best, ref.best_action):
        bad = int(np.argmax(np.asarray(best) != np.asarray(ref.best_action)))
        return (
            f"argmin differs first at subset {bad:#x}: "
            f"{best[bad]} vs {ref.best_action[bad]}"
        )
    return None


def run_verification(
    bounds: Bounds = QUICK,
    backend_names: list[str] | None = None,
    budget: int | None = None,
    emit_dir: str | None = None,
    shrink_failures: bool = True,
    max_failures: int = 25,
    log=None,
) -> VerifyReport:
    """Sweep the bounded space; return a :class:`VerifyReport`.

    Parameters
    ----------
    bounds:
        Which box of the instance space to cover.
    backend_names:
        Backends to hold against the reference oracle (default: all
        registered).  Naming ``"reference"`` is allowed and ignored —
        the oracle is always run.
    budget:
        Upper bound on instances checked; applied as a deterministic
        stride over the enumeration, not a prefix.
    emit_dir:
        Directory for emitted reproducer test files (created on first
        failure; nothing is written on a clean run).
    shrink_failures:
        Shrink each discrepancy to a 1-step-minimal instance (disable
        only when a check is too slow to re-run many times).
    max_failures:
        Stop recording (and shrinking) after this many discrepancies so
        a systemic failure does not turn the sweep into a shrink-athon;
        the report still counts every checked instance.
    log:
        Optional ``callable(str)`` progress sink.
    """
    names = [n for n in (backend_names or default_backend_names()) if n != REFERENCE]
    backends = make_backends(names)
    total = count_instances(bounds)
    stride = 1 if budget is None or budget >= total else max(1, -(-total // budget))

    report = VerifyReport(bounds=bounds.name, total_instances=total, checked_instances=0)
    for b in backends:
        report.backend_checks[b.name] = 0
        report.backend_declines[b.name] = 0
        report.backend_seconds[b.name] = 0.0
    for p in PROPERTIES:
        report.property_checks[p] = 0

    def emit(check: str, problem: TTProblem, detail: str) -> None:
        if len(report.discrepancies) >= max_failures:
            return
        shrunk = problem
        if shrink_failures:
            shrunk = shrink(problem, lambda cand: run_check(check, cand))
        disc = Discrepancy(
            check=check,
            instance=problem.name or "(unnamed)",
            detail=detail,
            problem_json=problem.to_json(),
            shrunk_json=shrunk.to_json(),
        )
        if emit_dir is not None:
            os.makedirs(emit_dir, exist_ok=True)
            fname, body = emit_regression_test(check, shrunk, detail)
            stem, ext = os.path.splitext(fname)
            path = os.path.join(emit_dir, f"{stem}_{len(report.discrepancies)}{ext}")
            with open(path, "w") as fh:
                fh.write(body)
            disc.emitted_path = path
        report.discrepancies.append(disc)
        if log:
            log(f"DISCREPANCY {check} on {disc.instance}: {detail}")

    start = time.monotonic()
    sampled_seen = {b.name: 0 for b in backends if b.scope == "sampled"}
    instances = (
        p for i, p in enumerate(enumerate_instances(bounds)) if i % stride == 0
    )
    for chunk_idx, chunk in enumerate(_chunks(instances, _CHUNK)):
        t0 = time.monotonic()
        refs = [solve_dp_reference(p) for p in chunk]
        report.oracle_s += time.monotonic() - t0
        for backend in backends:
            _check_backend(backend, chunk, refs, report, sampled_seen, bounds, emit)
        t0 = time.monotonic()
        for problem, ref in zip(chunk, refs):
            for pname, prop in PROPERTIES.items():
                detail = prop(problem, ref)
                report.property_checks[pname] += 1
                if detail is not None:
                    emit(f"property:{pname}", problem, detail)
        report.oracle_s += time.monotonic() - t0
        report.checked_instances += len(chunk)
        if log and (chunk_idx + 1) % 20 == 0:
            done = report.checked_instances
            rate = done / max(time.monotonic() - start, 1e-9)
            log(f"checked {done} instances ({rate:,.0f}/s)")

    for backend in backends:
        backend.close()
    report.elapsed_s = time.monotonic() - start
    return report


def _check_backend(
    backend: VerifyBackend,
    chunk: list[TTProblem],
    refs,
    report: VerifyReport,
    sampled_seen: dict[str, int],
    bounds: Bounds,
    emit,
) -> None:
    if backend.scope == "sampled":
        picked, picked_refs = [], []
        for problem, ref in zip(chunk, refs):
            if not backend.accepts(problem):
                continue  # stride over acceptable instances only
            n = sampled_seen[backend.name]
            sampled_seen[backend.name] = n + 1
            if n % bounds.bvm_stride == 0:
                picked.append(problem)
                picked_refs.append(ref)
        chunk, refs = picked, picked_refs
        if not chunk:
            return
    t0 = time.monotonic()
    results = backend.tables_batch(chunk)
    report.backend_seconds[backend.name] += time.monotonic() - t0
    for problem, ref, got in zip(chunk, refs, results):
        if got is None:
            report.backend_declines[backend.name] += 1
            continue
        report.backend_checks[backend.name] += 1
        detail = _tables_match(got, ref)
        if detail is not None:
            emit(f"backend:{backend.name}", problem, detail)
