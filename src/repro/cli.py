"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``solve``
    Solve a TT instance — from a JSON file (the :meth:`TTProblem.to_json`
    format) or a named synthetic workload — with any of the four solvers
    (``dp``, ``hypercube``, ``ccc``, ``bvm``), optionally printing the
    optimal procedure and machine counters.  For ``--solver dp`` the host
    engine is selectable with ``--backend {auto,numpy,parallel,reference}``
    and ``--workers N``: every backend but the reference oracle is a
    worker count of the one layer loop.

``solve-batch``
    Solve a stream of instances (one ``TTProblem`` JSON document per
    line) on a single warm :class:`~repro.core.engine.SolverEngine` —
    its worker pool amortized across the stream — writing one JSON
    result per line in input order.  ``--solver bvm`` routes
    the stream through the instance-batched packed BVM instead: shapes
    are grouped and each compiled program replays all its instances in
    lockstep.

``verify-exhaustive``
    Bounded-model verification: enumerate every TT instance inside small
    bounds, hold all registered backends bit-for-bit to the reference
    oracle, check metamorphic properties, and shrink any discrepancy to
    a ready-to-paste regression test (exit 1 when any is found).

``crash-drill``
    SIGKILL a ``--store=mmap`` solve (or, with ``--store ram``, a
    ``--checkpoint DIR`` solve) at a chosen point of the durable
    slab-commit protocol (in a subprocess), resume from the surviving
    journal directory, and prove the resumed tables bit-identical to an
    undisturbed solve.

``workloads``
    List the available synthetic workload generators.

``figures``
    Regenerate the paper's machine-pattern figures (3, 4, 6) on the BVM
    simulator.

``claims``
    Print the speedup / slowdown / link-count / machine-sizing tables.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .config import KNOBS, unknown_names
from .core import (
    BACKENDS,
    WORKLOADS,
    InvalidProblem,
    ResiliencePolicy,
    SolverError,
    TTProblem,
    canonicalize,
    solve,
)
from .core.engine import ENGINE_BACKENDS
from .core.faults import CRASH_POINTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Test-and-treatment procedures via parallel computation "
        "(Duval, Wagner, Han & Loveland, 1986)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a TT instance")
    src = p_solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON problem file (TTProblem.to_json format)")
    src.add_argument("--workload", choices=sorted(WORKLOADS), help="synthetic workload")
    p_solve.add_argument("--k", type=int, default=6, help="universe size for workloads")
    p_solve.add_argument("--seed", type=int, default=0, help="workload seed")
    p_solve.add_argument(
        "--solver",
        choices=("dp", "hypercube", "ccc", "bvm"),
        default="dp",
        help="which implementation to run",
    )
    p_solve.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="host DP engine for --solver dp, as a worker count: numpy is "
        "one worker, parallel is --workers whatever k, auto is --workers "
        "from the measured crossover k and one worker below it; reference "
        "is the plain-Python oracle (no --checkpoint, no --store)",
    )
    p_solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for --backend parallel and auto, the parent "
        "included (default: one per core, capped at 8; env REPRO_WORKERS)",
    )
    p_solve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-shard deadline in seconds for a solve on more than one "
        "worker (default: none; hung shards are re-dispatched after this; a "
        "child's first shard of a solve also maps its tables and any new k's plan)",
    )
    p_solve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="re-dispatches allowed per failed shard before fallback, on "
        "more than one worker (default 2)",
    )
    p_solve.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="checkpoint directory for in-RAM tables: every layer is "
        "committed there as a checksummed slab (the spill store's "
        "format); re-running with the same directory resumes from every "
        "layer whose checksum verifies, after a problem content-hash "
        "check.  After a successful solve the manifest and slabs are "
        "removed (the directory too, if nothing else is in it) unless "
        "--keep-checkpoint",
    )
    p_solve.add_argument(
        "--keep-checkpoint",
        action="store_true",
        help="keep the checkpoint manifest and slabs after a successful "
        "solve instead of removing them",
    )
    p_solve.add_argument(
        "--store",
        choices=("auto", "ram", "mmap"),
        default="auto",
        help="where the DP tables live: in RAM (ram; shared memory when "
        "more than one worker maps them), a "
        "durable memory-mapped spill directory (mmap; requires "
        "--spill-dir), or auto (mmap iff --spill-dir is given)",
    )
    p_solve.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="spill directory for the mmap store: tables and checksummed "
        "per-layer slabs live here; re-running with the same directory "
        "resumes from every layer whose checksum verifies",
    )
    p_solve.add_argument(
        "--no-fallback",
        action="store_true",
        help="raise instead of finishing failed shards on the in-process "
        "kernel once retries are exhausted",
    )
    p_solve.add_argument("--tree", action="store_true", help="print the optimal procedure")
    p_solve.add_argument("--canonicalize", action="store_true",
                         help="apply optimum-preserving reductions first")
    p_solve.add_argument("--width", type=int, default=16, help="BVM word width")
    p_solve.add_argument(
        "--bvm-backend",
        choices=("bool", "packed"),
        default=None,
        help="BVM execution backend (default: REPRO_BVM_BACKEND or 'bool'; "
        "'packed' runs 64 PEs per machine word with identical cycle counts)",
    )
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record a solve trace here: '.jsonl' writes the line-oriented "
        "event log, anything else a Chrome trace_event JSON loadable in "
        "Perfetto / chrome://tracing (summarize either with trace-report)",
    )
    p_solve.add_argument(
        "--metrics",
        action="store_true",
        help="include the solve's metrics registry snapshot in the output "
        "(shard/layer timings, store commit latency, cache hit rates)",
    )
    p_solve.add_argument(
        "--progress",
        action="store_true",
        help="live per-layer progress line on stderr (layers done, ETA, "
        "MB spilled) for long solves, at any worker count",
    )

    p_batch = sub.add_parser(
        "solve-batch",
        help="solve a JSONL stream of instances on one warm engine",
        description="Read one TTProblem JSON document per line, solve the "
        "stream on a single warm SolverEngine (persistent worker pool, "
        "pipelined weight precompute), and write one JSON result per line "
        "in input order.",
    )
    p_batch.add_argument(
        "--in",
        dest="infile",
        default="-",
        metavar="PATH",
        help="input JSONL file ('-' = stdin, the default)",
    )
    p_batch.add_argument(
        "--out",
        dest="outfile",
        default="-",
        metavar="PATH",
        help="output JSONL file ('-' = stdout, the default)",
    )
    p_batch.add_argument(
        "--backend",
        choices=ENGINE_BACKENDS,
        default="auto",
        help="engine backend per instance for --solver dp (no reference "
        "oracle in batch mode)",
    )
    p_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for the engine's pool solves, the parent included",
    )
    p_batch.add_argument(
        "--solver",
        choices=("dp", "bvm"),
        default="dp",
        help="dp: warm host engine per instance; bvm: group the stream "
        "by machine shape and replay one compiled program over all "
        "instances of a shape in lockstep (instance-batched packed BVM)",
    )
    p_batch.add_argument(
        "--width", type=int, default=16, help="BVM word width for --solver bvm"
    )
    p_batch.add_argument(
        "--bvm-backend",
        choices=("packed", "bool"),
        default="packed",
        help="simulation backend for --solver bvm: packed (one lane per "
        "instance in big-int bit-plane rows, lanes in lockstep) or bool "
        "(per-instance boolean oracle; slow, for cross-checks)",
    )

    p_verify = sub.add_parser(
        "verify-exhaustive",
        help="bounded-model verification sweep over all backends",
        description="Enumerate every TT instance inside small bounds "
        "(canonical under object relabeling), hold every registered "
        "backend bit-for-bit to the reference oracle, check the "
        "metamorphic property catalogue, and shrink any discrepancy to "
        "a ready-to-paste regression test.  Exit 0 = clean, 1 = "
        "discrepancies found, 2 = usage/solver error.",
    )
    p_verify.add_argument(
        "--bounds",
        choices=("quick", "full"),
        default="quick",
        help="enumeration box: quick (k<=3, N<=4, push CI) or "
        "full (k<=4, N<=5, nightly)",
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="check at most N instances (deterministic stride over the "
        "space, not a prefix; default: the whole space)",
    )
    p_verify.add_argument(
        "--backends",
        default=None,
        metavar="NAMES",
        help="comma-separated backends to verify (default: all registered; "
        "the reference oracle always runs)",
    )
    p_verify.add_argument(
        "--emit-dir",
        default=None,
        metavar="PATH",
        help="write shrunken reproducer test files here on failure",
    )
    p_verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="report discrepancies without shrinking them",
    )
    p_verify.add_argument(
        "--max-failures",
        type=int,
        default=25,
        metavar="N",
        help="stop recording discrepancies after N (the sweep continues)",
    )
    p_verify.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    p_drill = sub.add_parser(
        "crash-drill",
        help="SIGKILL a journaled solve mid-commit and prove bit-identical resume",
        description="Run a journaled solve (--store=mmap, or in-RAM tables "
        "with --checkpoint) in a subprocess with a REPRO_STORE_CRASH trap "
        "armed at one point of the slab commit protocol, let the process "
        "SIGKILL itself there, resume from the surviving journal directory "
        "in-process, and compare the resumed tables bit-for-bit against an "
        "undisturbed solve.  Exit 0 = the drill passed (process died by "
        "SIGKILL, resume was bit-identical), 1 = it did not.",
    )
    p_drill.add_argument(
        "--workload", choices=sorted(WORKLOADS), default="random",
        help="synthetic workload to drill on (default: random)",
    )
    p_drill.add_argument("--k", type=int, default=10, help="universe size")
    p_drill.add_argument("--seed", type=int, default=0, help="workload seed")
    p_drill.add_argument(
        "--point",
        choices=("all",) + tuple(CRASH_POINTS),
        default="all",
        help="commit-protocol crash point to drill (default: all four)",
    )
    p_drill.add_argument(
        "--layer",
        type=int,
        default=None,
        help="layer whose commit the crash lands in (default: k//2)",
    )
    p_drill.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the drilled solve (crash points are "
        "parent-side, so 1 is enough to exercise them)",
    )
    p_drill.add_argument(
        "--store",
        choices=("mmap", "ram"),
        default="mmap",
        help="store to drill: the mmap spill store (default) or in-RAM "
        "tables committing to a --checkpoint directory",
    )
    p_drill.add_argument(
        "--congest",
        action="store_true",
        help="slow every commit (slow-io fault) so the kill fires "
        "with a further layer queued behind the in-flight commit "
        "(the mid-queue case)",
    )
    p_drill.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="working directory for the drill (default: a fresh temp dir, "
        "removed afterwards)",
    )
    p_drill.add_argument("--json", action="store_true", help="machine-readable output")

    p_trace = sub.add_parser(
        "trace-report",
        help="summarize a solve trace into per-layer tables",
        description="Read a trace recorded with `solve --trace-out` (either "
        "the JSONL event log or the Chrome trace_event JSON) and print a "
        "per-layer table: wall time, shard spans, worker count, store "
        "commit time/bytes, fault and recovery event counts.",
    )
    p_trace.add_argument("trace", help="trace file written by solve --trace-out")
    p_trace.add_argument("--json", action="store_true", help="machine-readable summary")

    sub.add_parser("workloads", help="list synthetic workload generators")
    sub.add_parser("figures", help="regenerate the paper's Figs. 3/4/6 patterns")
    sub.add_parser("claims", help="print the complexity-claim tables")
    p_report = sub.add_parser(
        "report", help="re-measure all claims; emit a Markdown report"
    )
    p_report.add_argument("--out", help="write to a file instead of stdout")
    return parser


def _load_problem(args) -> TTProblem:
    if args.file:
        try:
            with open(args.file) as fh:
                return TTProblem.from_json(fh.read())
        except InvalidProblem:
            raise
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidProblem(f"invalid problem file {args.file!r}: {exc}") from exc
    return WORKLOADS[args.workload](args.k, seed=args.seed)


def _policy(args) -> ResiliencePolicy | None:
    """Build the ResiliencePolicy the solve flags ask for (None = defaults)."""
    if (
        args.timeout is None
        and args.retries is None
        and args.checkpoint is None
        and not args.keep_checkpoint
        and not args.no_fallback
    ):
        return None
    policy = ResiliencePolicy()
    overrides: dict = {
        "checkpoint": args.checkpoint,
        "keep_checkpoint": args.keep_checkpoint,
        "fallback": not args.no_fallback,
    }
    if args.timeout is not None:
        overrides["timeout"] = args.timeout
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    return dataclasses.replace(policy, **overrides)


def _solve(args, out) -> int:
    problem = _load_problem(args)
    note = {}
    if args.canonicalize:
        report = canonicalize(problem)
        note = {
            "canonicalized": True,
            "k": f"{report.original_k} -> {report.problem.k}",
            "actions": f"{report.original_n_actions} -> {report.problem.n_actions}",
        }
        problem = report.problem

    from .obs import ProgressReporter, Tracer, tracing, write_trace

    tracer = Tracer() if args.trace_out else None
    progress = ProgressReporter() if args.progress else None

    counters: dict = {}
    # The tracer is made ambient around whichever solver runs, so even
    # the BVM/hypercube paths (which take no tracer argument) land their
    # spans on it; the dp path additionally gets it passed explicitly.
    with tracing(tracer) if tracer is not None else contextlib.nullcontext():
        if args.solver == "dp":
            use_store = args.store != "auto" or args.spill_dir is not None
            result = solve(
                problem,
                backend=args.backend,
                workers=args.workers,
                policy=_policy(args),
                store=args.store if use_store else None,
                spill_dir=args.spill_dir,
                tracer=tracer,
                progress=progress,
            )
            counters["sequential_ops"] = result.op_count
            # What solve() ran: the worker count, and its backend name.
            counters["backend"] = result.backend
            counters["workers"] = result.workers
            # Uniform across backends: the reference oracle carries the
            # same recovery keys, zeroed (see DPResult).
            counters["recovery"] = {
                key: result.recovery[key]
                for key in (
                    "retries",
                    "timeouts",
                    "crashes",
                    "respawns",
                    "fallback_shards",
                    "degraded",
                    "resumed_from_layer",
                    "rederived",
                    "store",
                )
            }
            if args.metrics:
                counters["metrics"] = result.metrics
        elif args.solver == "hypercube":
            from .ttpar import solve_tt_hypercube

            result = solve_tt_hypercube(problem)
            counters["route_steps"] = result.stats.route_steps
            counters["compute_steps"] = result.stats.compute_steps
        elif args.solver == "ccc":
            from .ttpar import solve_tt_ccc

            result = solve_tt_ccc(problem)
            counters["ccc_route_steps"] = result.ccc_stats.route_steps
            counters["slowdown_vs_hypercube"] = round(result.ccc_stats.slowdown, 3)
        else:
            from .ttpar import solve_tt_bvm

            result = solve_tt_bvm(problem, width=args.width, backend=args.bvm_backend)
            counters["bvm_cycles"] = result.cycles
            counters["ccc_r"] = result.r
            counters["bvm_backend"] = result.backend

    if tracer is not None:
        write_trace(
            args.trace_out,
            tracer,
            meta={
                "solver": args.solver,
                "problem": problem.name or "(unnamed)",
                "k": problem.k,
            },
        )
        counters["trace"] = args.trace_out

    feasible = math.isfinite(result.optimal_cost)
    payload = {
        "problem": problem.name or "(unnamed)",
        "k": problem.k,
        "n_actions": problem.n_actions,
        "solver": args.solver,
        # inf is not valid JSON; an infeasible instance reports null.
        "optimal_cost": result.optimal_cost if feasible else None,
        "feasible": feasible,
        **counters,
        **note,
    }
    if args.json:
        print(json.dumps(payload, indent=2), file=out)
    else:
        for key, val in payload.items():
            if key == "optimal_cost" and val is None:
                val = "inf (infeasible)"
            print(f"{key:>22}: {val}", file=out)
        if args.tree:
            if not feasible:
                raise InvalidProblem(
                    "no successful procedure exists (C(U) is infinite); "
                    "there is no tree to print"
                )
            print(file=out)
            print(result.tree().render(), file=out)
    return 0


def _solve_batch(args, out) -> int:
    """JSONL in, JSONL out, one warm engine for the whole stream."""
    from .core import SolverEngine

    def parse_line(number: int, line: str) -> TTProblem:
        try:
            return TTProblem.from_json(line)
        except InvalidProblem:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidProblem(f"invalid problem on line {number}: {exc}") from exc

    if args.infile == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.infile) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise InvalidProblem(f"cannot read {args.infile!r}: {exc}") from exc
    problems = [
        parse_line(number, line)
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]

    with SolverEngine(workers=args.workers, backend=args.backend) as engine:
        results = engine.solve_many(
            problems,
            solver=args.solver,
            width=args.width,
            bvm_backend=args.bvm_backend,
        )

    sink = out if args.outfile == "-" else open(args.outfile, "w")
    try:
        for problem, result in zip(problems, results):
            payload = {
                "problem": problem.name or "(unnamed)",
                "k": problem.k,
                "n_actions": problem.n_actions,
                # inf is not valid JSON; an infeasible instance reports null.
                "optimal_cost": result.optimal_cost if result.feasible else None,
                "feasible": bool(result.feasible),
            }
            if args.solver == "bvm":
                payload["bvm_cycles"] = result.cycles
                payload["ccc_r"] = result.r
                payload["bvm_backend"] = result.backend
            else:
                payload["sequential_ops"] = result.op_count
            print(json.dumps(payload), file=sink)
    finally:
        if sink is not out:
            sink.close()
    return 0


def _crash_drill(args, out) -> int:
    import shutil
    import tempfile

    from .store.drill import run_crash_drill

    problem = WORKLOADS[args.workload](args.k, seed=args.seed)
    points = list(CRASH_POINTS) if args.point == "all" else [args.point]
    workdir = args.dir
    cleanup = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-crash-drill-")
    reports = []
    try:
        for point in points:
            reports.append(
                run_crash_drill(
                    problem,
                    point,
                    workdir=os.path.join(workdir, point),
                    layer=args.layer,
                    workers=args.workers,
                    congest=args.congest,
                    store=args.store,
                )
            )
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
    ok = all(r["killed"] and r["identical"] for r in reports)
    if args.json:
        print(json.dumps({"ok": ok, "drills": reports}, indent=2), file=out)
    else:
        for r in reports:
            status = "PASS" if (r["killed"] and r["identical"]) else "FAIL"
            print(
                f"{status} {r['point']:>12} layer={r['layer']} "
                f"store={r['store']}: "
                f"killed={r['killed']} committed_at_kill={r['committed_at_kill']} "
                f"rederived={r['rederived']} identical={r['identical']}",
                file=out,
            )
    return 0 if ok else 1


def _verify_exhaustive(args, out) -> int:
    from .verify import PRESETS, run_verification

    if args.budget is not None and args.budget < 1:
        raise InvalidProblem(f"--budget must be >= 1, got {args.budget}")
    backend_names = None
    if args.backends is not None:
        backend_names = [n.strip() for n in args.backends.split(",") if n.strip()]
        if not backend_names:
            raise InvalidProblem("--backends got an empty list")
    try:
        report = run_verification(
            bounds=PRESETS[args.bounds],
            backend_names=backend_names,
            budget=args.budget,
            emit_dir=args.emit_dir,
            shrink_failures=not args.no_shrink,
            max_failures=args.max_failures,
            log=lambda msg: print(msg, file=sys.stderr),
        )
    except ValueError as exc:  # e.g. unknown backend name
        raise InvalidProblem(str(exc)) from exc
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(report.summary(), file=out)
    return 0 if report.ok else 1


def _trace_report(args, out) -> int:
    from .obs import load_trace, render_report, summarize_trace

    try:
        meta, events = load_trace(args.trace)
    except OSError as exc:
        raise InvalidProblem(f"cannot read trace {args.trace!r}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidProblem(f"invalid trace file {args.trace!r}: {exc}") from exc
    summary = summarize_trace(events)
    if args.json:
        print(json.dumps({"meta": meta, **summary}, indent=2), file=out)
    else:
        print(render_report(summary), file=out)
    return 0


def _workloads(out) -> int:
    for name in sorted(WORKLOADS):
        doc = (WORKLOADS[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<12} {summary}", file=out)
    return 0


def _figures(out) -> int:
    from .bvm import ProgramBuilder, render_cycle_grid, render_pid_columns
    from .bvm.hyperops import route_dim
    from .bvm.primitives import (
        broadcast_bit,
        cycle_id,
        cycle_id_input_bits,
        processor_id,
    )

    print("Fig. 3 — cycle-ID, 64-PE CCC:", file=out)
    prog = ProgramBuilder(r=2)
    dst = prog.pool.alloc1()
    cycle_id(prog, dst)
    m = prog.build_machine()
    m.feed_input(cycle_id_input_bits(prog.Q))
    prog.run(m)
    print(render_cycle_grid(m, dst), file=out)

    print("\nFig. 4 — processor-ID, 8 PEs:", file=out)
    prog = ProgramBuilder(r=1)
    pid = prog.pool.alloc(3)
    processor_id(prog, pid)
    m = prog.build_machine()
    m.feed_input(cycle_id_input_bits(prog.Q))
    prog.run(m)
    print(render_pid_columns(m, pid, max_pes=8), file=out)

    print("\nFig. 6 — broadcast, 64 PEs:", file=out)
    prog = ProgramBuilder(r=2)
    value, sender = prog.pool.alloc(2)
    pid = prog.pool.alloc(6)
    processor_id(prog, pid)
    broadcast_bit(prog, value, sender, pid, route_dim)
    m = prog.build_machine()
    m.feed_input(cycle_id_input_bits(prog.Q))
    seed = np.zeros(m.n, bool)
    seed[0] = True
    m.poke(value, seed.copy())
    m.poke(sender, seed.copy())
    prog.run(m)
    print(f"value reached all {m.n} PEs: {bool(m.read(value).all())}", file=out)
    return 0


def _claims(out) -> int:
    from .hypercube import ccc_links, hypercube_links
    from .ttpar import machine_sizing_table, speedup_curve

    print("speedup (N = 2^k regime):", file=out)
    for pt in speedup_curve(range(6, 19, 3), lambda k: 2**k):
        print(
            f"  k={pt.k:<3} P={pt.pe_count:<12,} speedup={pt.speedup:<14,.0f} "
            f"P/logP={pt.p_over_logp:,.0f}",
            file=out,
        )

    print("\nlinks (CCC 3n/2 vs hypercube n*log(n)/2):", file=out)
    for r in (2, 3):
        dims = r + (1 << r)
        print(
            f"  r={r}: CCC {ccc_links(r):,} vs hypercube {hypercube_links(dims):,}",
            file=out,
        )

    print("\nmachine sizing:", file=out)
    for row in machine_sizing_table():
        print(
            f"  2^{row['pe_budget'].bit_length() - 1} PEs: "
            f"k={row['max_k_exponential_actions']} (N=2^k), "
            f"k={row['max_k_quadratic_actions']} (N=k^2)",
            file=out,
        )
    return 0


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        unknown = unknown_names()
        if unknown:
            # A misspelt or retired knob would otherwise be ignored.
            raise InvalidProblem(
                f"unknown environment variable {', '.join(unknown)}: the "
                f"REPRO_* knobs are {', '.join(KNOBS)} (REPRO_BENCH_* and "
                "REPRO_TEST_* are left to the harness)"
            )
        return _dispatch(args, out)
    except SolverError as exc:
        # One line, exit code 2 — the taxonomy means no raw tracebacks
        # for user errors (bad spec files, bad env knobs, failed solves).
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, out) -> int:
    if args.command == "solve":
        return _solve(args, out)
    if args.command == "solve-batch":
        return _solve_batch(args, out)
    if args.command == "crash-drill":
        return _crash_drill(args, out)
    if args.command == "verify-exhaustive":
        return _verify_exhaustive(args, out)
    if args.command == "trace-report":
        return _trace_report(args, out)
    if args.command == "workloads":
        return _workloads(out)
    if args.command == "figures":
        return _figures(out)
    if args.command == "claims":
        return _claims(out)
    if args.command == "report":
        from .reports import generate_report

        text = generate_report()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"report written to {args.out}", file=out)
        else:
            print(text, file=out)
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
