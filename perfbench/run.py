#!/usr/bin/env python3
"""Benchmark of the TT solver: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload large --seed 1 --seconds 12 --trace 0

Workloads: ``large``, ``stream``, ``durable``, ``bvm`` (see
``workloads.py``).  Every run builds its inputs from ``--seed``, sets up
three times (twice in child processes, once in this one; ``setup_s`` is
the median), runs a timed phase whose item count depends only on
``--seconds``, and checks every output against a reference.

``--trace 0`` reports the end-to-end metrics of an untraced timed phase.
``--trace 1`` runs the same items untraced and then traced (a
``repro.obs.Tracer`` made ambient), writes the trace to
``.perfbench/traces/<workload>-<seed>.jsonl`` and reports the per-layer
metrics derived from it (``ledger.py``).

Lines on standard output are for people, except the last: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files (spill directories, reference digests, traces) live under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUPS = 3
CHILD_TIMEOUT_S = 150

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("large", "stream", "durable", "bvm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def say(line: str = "") -> None:
    print(line, flush=True)


def percentile(values, q: float):
    """The ``q`` quantile, or ``None`` when fewer than ten samples lie beyond it."""
    if len(values) - math.ceil(q * len(values) - 1e-9) < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class PassResult:
    items: list
    extras: list
    errors: dict
    wall: float
    cpu: float
    wchar: int
    steal: float  # share of this machine's CPU time the hypervisor withheld


def run_pass(wl, meter, tracer=None) -> PassResult:
    """One timed pass over every item; the benchmark writes nothing here."""
    from host import ChildCpu, nproc, steal_s
    from workloads import Item

    items, extras, errors = [], [], {}
    kids = ChildCpu()
    kids.start()
    steal0, t_start = steal_s(), time.monotonic()
    for i in range(wl.n_items()):
        t0 = time.monotonic()
        before = meter.item_wall
        item = Item(index=i, latency=0.0)
        try:
            item.solves = wl.run_item(i, meter)
        except Exception:  # a failed item is counted, the run goes on
            item.error = traceback.format_exc()
            errors[i] = item.error
        item.latency = meter.item_wall - before
        if tracer is not None:
            tracer.complete("item", "bench", t0, time.monotonic(), args={"index": i})
        items.append(item)
        try:
            extras += wl.between_items(i, meter)
        except Exception:
            errors[i] = traceback.format_exc()
    wl.end_pass(meter)
    children = kids.stop()
    steal = (steal_s() - steal0) / (nproc() * (time.monotonic() - t_start))
    return PassResult(
        items, extras, errors, meter.wall, meter.cpu + children, meter.wchar, steal
    )


def failures(wl, result: PassResult, refs) -> dict:
    bad = dict(result.errors)
    for index, reason in wl.check(result.items, result.extras, refs).items():
        bad.setdefault(index, reason)
    return bad


def child_setups(args, n: int) -> list:
    """Set-up times of ``n`` fresh processes running the same set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    out = []
    for _ in range(n):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr[-4000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def describe_host(shape: dict) -> str:
    caches = " ".join(f"{k}={v}" for k, v in shape["caches"].items())
    return (
        f"# host: {shape['cores']} cores, {caches}, RAM {shape['ram_gib']} GiB, "
        f"python {shape['python']}, numpy {shape['numpy']}, numba {shape['numba']} "
        f"(backend=\"native\": {shape['native_backend']}), "
        f"spill filesystem {shape['spill_fs']}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)  # the one list of workloads and metrics
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    sys.path.insert(0, str(SRC))
    from host import Meter, host_shape, peak_rss_mib, probe_s
    from ledger import per_layer
    from repro.obs import Tracer
    from repro.obs import trace as obs_trace
    from repro.obs.export import load_trace, write_jsonl
    from workloads import WORKLOAD_TYPES, References

    WORKDIR.mkdir(exist_ok=True)

    def make():
        return WORKLOAD_TYPES[args.workload](args.seed, args.seconds, str(WORKDIR))

    if args.setup_only:
        t0 = time.monotonic()
        wl = make()
        try:
            wl.setup(Meter())
            setup_s = time.monotonic() - t0
        finally:
            wl.close()
        say(json.dumps({"setup_s": setup_s}))
        return 0

    shape = host_shape(str(WORKDIR))
    probe0 = probe_s()
    setups = child_setups(args, SETUPS - 1)
    tracer = Tracer() if args.trace else None
    t0 = time.monotonic()
    wl = make()
    try:
        wl.setup(Meter(tracer))
        setups.append(time.monotonic() - t0)
        untraced = run_pass(wl, Meter())
        peak = peak_rss_mib()
        wl.after_pass()
        traced = None
        if args.trace:
            wl.rearm()
            with obs_trace.tracing(tracer):
                traced = run_pass(wl, Meter(tracer), tracer)
            wl.after_pass()
    finally:
        wl.close()

    refs = References(str(WORKDIR / "refs"), fresh=bool(args.trace))
    bad = failures(wl, untraced, refs)
    attempted = len(untraced.items)
    if traced is not None:
        attempted += len(traced.items)
        tbad = failures(wl, traced, refs)
        for u, t in zip(untraced.items, traced.items):
            if [s.digest for s in u.solves] != [s.digest for s in t.solves]:
                tbad.setdefault(t.index, "traced tables differ from untraced tables")
        bad.update({len(untraced.items) + i: why for i, why in tbad.items()})
    probe1 = probe_s()

    lat = [item.latency for item in untraced.items]
    solves = [s for item in untraced.items for s in item.solves] + untraced.extras
    work = sum(s.candidates for s in solves)
    p90 = percentile(lat, 0.9)
    say(describe_host(shape))
    say(f"# workload {args.workload}: seed {args.seed}, {len(lat)} items, "
        f"{len(solves)} solves, {work:,} (S, i) candidates; {whys[args.workload]}")
    say(f"# setup_s {statistics.median(setups):.4f} (median of {len(setups)}: "
        + " ".join(f"{v:.4f}" for v in setups) + ")")
    say(f"# wall_s {untraced.wall:.4f}; cpu_s {untraced.cpu:.4f} "
        f"(n=1 timed phase of {len(lat)} items); item_p50_s {statistics.median(lat):.4f} (n={len(lat)}); item_p90_s "
        + (f"{p90:.4f} (n={len(lat)})" if p90 is not None
           else f"not reported (n={len(lat)}: fewer than 10 samples beyond p90)"))
    store_bytes = sum(
        s.metrics["store.bytes_written"] for s in solves if s.metrics is not None
    )
    say(f"# write_mb {untraced.wchar / 2**20:.3f} (write syscalls, /proc/self/io); "
        f"program store.bytes_written {store_bytes / 2**20:.3f} MiB")
    say(f"# host.probe_s start {probe0:.4f} end {probe1:.4f}; "
        f"steal {untraced.steal:.1%} of CPU time during the timed phase")
    for index, why in sorted(bad.items()):
        print(f"item {index} failed: {why}", file=sys.stderr)
    say(f"# attempted {attempted}, failed {len(bad)}")

    correct = not bad
    if traced is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": untraced.wall,
            "ns_per_candidate": untraced.wall / work * 1e9,
            "item_p50_s": statistics.median(lat),
            "cpu_s": untraced.cpu,
            "peak_rss_mb": peak,
        }
        listed = spec["end_to_end"]
    else:
        path = WORKDIR / "traces" / f"{args.workload}-{args.seed}.jsonl"
        path.parent.mkdir(exist_ok=True)
        write_jsonl(path, tracer, meta={"workload": args.workload, "seed": args.seed})
        meta, events = load_trace(path)
        correct = correct and meta["dropped"] == 0
        values = per_layer(
            events, meta, traced.items, traced.extras,
            untraced_wall=untraced.wall, traced_wall=traced.wall,
            numpy_seconds=refs.seconds, probe=(probe0 + probe1) / 2,
        )
        listed = spec["per_layer"]
        say(f"# trace: {path.relative_to(ROOT)} ({meta['events']} events, "
            f"{meta['dropped']} dropped)")
        for m in listed:
            say(f"#   {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    say(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": metrics,
    }))
    return 0


def stop_resource_tracker() -> None:
    """Stop the resource tracker the program's shared memory started.

    ``multiprocessing`` starts it on first use and leaves it to exit
    after this process does; stopping it here waits for it, so no
    process outlives the run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    code = main()
    stop_resource_tracker()
    sys.exit(code)
