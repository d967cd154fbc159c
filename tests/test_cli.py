"""The command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.core import WORKLOADS


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSolve:
    def test_workload_dp(self):
        code, text = run_cli("solve", "--workload", "medical", "--k", "4", "--solver", "dp")
        assert code == 0
        assert "optimal_cost" in text

    def test_workload_tree(self):
        code, text = run_cli(
            "solve", "--workload", "fault", "--k", "4", "--tree"
        )
        assert code == 0
        assert "treatment" in text

    @pytest.mark.parametrize("solver", ["hypercube", "ccc"])
    def test_parallel_solvers(self, solver):
        code, text = run_cli(
            "solve", "--workload", "random", "--k", "4", "--solver", solver
        )
        assert code == 0
        assert "steps" in text

    def test_bvm_solver(self):
        code, text = run_cli(
            "solve", "--workload", "random", "--k", "3", "--solver", "bvm",
            "--width", "16",
        )
        assert code == 0
        assert "bvm_cycles" in text

    def test_json_output(self):
        code, text = run_cli(
            "solve", "--workload", "lab", "--k", "4", "--json"
        )
        payload = json.loads(text)
        assert payload["solver"] == "dp"
        assert payload["k"] == 4
        assert payload["optimal_cost"] > 0

    def test_solvers_agree_through_cli(self):
        costs = {}
        for solver in ("dp", "hypercube", "ccc"):
            _, text = run_cli(
                "solve", "--workload", "taxonomy", "--k", "4",
                "--solver", solver, "--json",
            )
            costs[solver] = json.loads(text)["optimal_cost"]
        assert costs["dp"] == pytest.approx(costs["hypercube"])
        assert costs["dp"] == pytest.approx(costs["ccc"])

    def test_file_input(self, tmp_path, tiny_problem):
        path = tmp_path / "problem.json"
        path.write_text(tiny_problem.to_json())
        code, text = run_cli("solve", "--file", str(path), "--json")
        assert json.loads(text)["optimal_cost"] == pytest.approx(37.0)

    def test_canonicalize_flag(self):
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5", "--canonicalize"
        )
        assert code == 0
        assert "canonicalized" in text

    @pytest.mark.parametrize("backend", ["auto", "numpy", "parallel", "reference"])
    def test_backend_flag(self, backend):
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--backend", backend, "--workers", "2", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["backend"] in ("numpy", "parallel", "reference")
        if backend != "auto":
            assert payload["backend"] == backend
        if payload["backend"] == "parallel":
            assert payload["workers"] == 2

    def test_backends_agree_through_cli(self):
        costs = set()
        for backend in ("numpy", "parallel", "reference"):
            _, text = run_cli(
                "solve", "--workload", "fault", "--k", "5",
                "--backend", backend, "--workers", "2", "--json",
            )
            costs.add(json.loads(text)["optimal_cost"])
        assert len(costs) == 1  # bit-for-bit identical across backends

    def test_auto_backend_small_k_reports_numpy(self):
        _, text = run_cli("solve", "--workload", "lab", "--k", "4", "--json")
        assert json.loads(text)["backend"] == "numpy"


class TestResilienceFlags:
    def test_checkpoint_and_knobs_through_cli(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--backend", "parallel", "--workers", "2",
            "--timeout", "30", "--retries", "3",
            "--checkpoint", str(ckpt), "--keep-checkpoint", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["backend"] == "parallel"
        assert payload["recovery"]["retries"] == 0
        assert payload["recovery"]["degraded"] is False
        assert ckpt.exists()
        # Re-running against the finished checkpoint resumes instantly
        # and reports where it picked up from.
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--backend", "parallel", "--workers", "2",
            "--checkpoint", str(ckpt), "--keep-checkpoint", "--json",
        )
        assert code == 0
        assert json.loads(text)["recovery"]["resumed_from_layer"] == 5

    def test_checkpoint_removed_after_success_by_default(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, _ = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--backend", "parallel", "--workers", "2",
            "--checkpoint", str(ckpt), "--json",
        )
        assert code == 0
        # Checkpoints exist to survive crashes, not to accumulate: a
        # successful solve cleans up after itself unless --keep-checkpoint.
        assert not ckpt.exists()

    def test_mmap_store_through_cli(self, tmp_path):
        spill = tmp_path / "spill"
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--store", "mmap", "--spill-dir", str(spill), "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert (payload["backend"], payload["workers"]) == ("numpy", 1)
        assert payload["recovery"]["store"] == "mmap"
        assert (spill / "manifest.json").exists()
        # A completed spill directory re-opens as an instant no-op solve.
        code, text = run_cli(
            "solve", "--workload", "medical", "--k", "5",
            "--store", "mmap", "--spill-dir", str(spill), "--json",
        )
        assert code == 0
        again = json.loads(text)
        assert again["recovery"]["resumed_from_layer"] == 5
        assert again["recovery"]["rederived"] == 0
        assert again["optimal_cost"] == payload["optimal_cost"]

    # The CLI reports the workers that ran: below the crossover auto runs
    # one, whatever the store; --backend parallel runs the count given.
    RUNS = [
        ((), ("numpy", 1)),
        (("--backend", "parallel", "--workers", "2"), ("parallel", 2)),
    ]

    def test_checkpoint_reports_the_workers_it_ran(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        for flags, ran in self.RUNS:
            code, text = run_cli(
                "solve", "--workload", "medical", "--k", "6", *flags,
                "--checkpoint", str(tmp_path / "ckpt"), "--json",
            )
            assert code == 0
            payload = json.loads(text)
            assert (payload["backend"], payload["workers"]) == ran

    def test_mmap_store_reports_the_workers_it_ran(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        for n, (flags, ran) in enumerate(self.RUNS):
            code, text = run_cli(
                "solve", "--workload", "medical", "--k", "5", *flags,
                "--store", "mmap", "--spill-dir", str(tmp_path / f"spill{n}"),
                "--json",
            )
            assert code == 0
            payload = json.loads(text)
            assert (payload["backend"], payload["workers"]) == ran

    def test_checkpoint_and_progress_at_one_worker(self, tmp_path, capsys):
        # --progress and --checkpoint work at one worker too: a line per
        # layer on stderr, and a second run resumes the kept checkpoint.
        args = (
            "solve", "--workload", "medical", "--k", "10", "--backend", "numpy",
            "--checkpoint", str(tmp_path / "ckpt"), "--keep-checkpoint",
            "--progress", "--json",
        )
        code, text = run_cli(*args)
        assert code == 0
        assert "layer 10/10" in capsys.readouterr().err
        assert json.loads(text)["recovery"]["resumed_from_layer"] is None
        code, text = run_cli(*args)
        assert code == 0
        assert json.loads(text)["recovery"]["resumed_from_layer"] == 10

    def test_progress_under_auto_below_the_crossover(self, capsys):
        code, _ = run_cli("solve", "--workload", "medical", "--k", "10", "--progress")
        assert code == 0
        assert "layer 10/10" in capsys.readouterr().err

    def test_crash_drill_subcommand_json(self, tmp_path):
        code, text = run_cli(
            "crash-drill", "--workload", "random", "--k", "6", "--seed", "3",
            "--point", "post-commit", "--layer", "2",
            "--dir", str(tmp_path), "--json",
        )
        assert code == 0
        (report,) = json.loads(text)["drills"]
        assert report["point"] == "post-commit"
        assert report["store"] == "mmap"
        assert report["killed"] is True
        assert report["identical"] is True

    def test_crash_drill_ram_store(self, tmp_path):
        code, text = run_cli(
            "crash-drill", "--workload", "random", "--k", "6", "--seed", "3",
            "--point", "pre-rename", "--layer", "2", "--store", "ram",
            "--dir", str(tmp_path),
        )
        assert code == 0
        assert "PASS" in text and "store=ram" in text

    def test_no_fallback_flag_parses(self):
        code, text = run_cli(
            "solve", "--workload", "lab", "--k", "5",
            "--backend", "parallel", "--workers", "2",
            "--no-fallback", "--json",
        )
        assert code == 0
        assert json.loads(text)["recovery"]["fallback_shards"] == 0


class TestErrorPaths:
    def test_invalid_problem_file_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, _ = run_cli("solve", "--file", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid problem file")
        assert err.count("\n") == 1  # one line, no traceback

    def test_missing_problem_file_exits_2(self, tmp_path, capsys):
        code, _ = run_cli("solve", "--file", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--workload", "lab", "--backend", "bogus")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "crash-drill"])
    def test_commit_mode_flag_is_gone(self, command, capsys):
        # Every persisted layer commits on the async committer; there is
        # no inline mode left to pick.
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--workload", "random", "--k", "4",
                    "--commit-mode", "sync")
        assert exc.value.code == 2
        assert "unrecognized arguments: --commit-mode" in capsys.readouterr().err

    def test_bad_fault_spec_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "explode:layer=1")
        code, _ = run_cli(
            "solve", "--workload", "lab", "--k", "5",
            "--backend", "parallel", "--workers", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "explode" in err

    def test_bad_start_method_exits_2_when_no_worker_starts(self, monkeypatch, capsys):
        # Every k=4 layer runs in the parent: the check on entry is what
        # reads the start method.
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        code, _ = run_cli(
            "solve", "--workload", "medical", "--k", "4",
            "--backend", "parallel", "--workers", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_START_METHOD" in err and "teleport" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_bad_workers_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        code, _ = run_cli(
            "solve", "--workload", "lab", "--k", "5", "--backend", "parallel"
        )
        assert code == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_bad_bvm_backend_env_exits_2(self, monkeypatch, capsys):
        # A typo'd env var must fail loudly and name its source, not
        # silently run the boolean machine (REPRO_WORKERS precedent).
        monkeypatch.setenv("REPRO_BVM_BACKEND", "packd")
        code, _ = run_cli(
            "solve", "--workload", "random", "--k", "3", "--solver", "bvm"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "REPRO_BVM_BACKEND" in err and "packd" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_bvm_problem_too_large_exits_2(self, capsys):
        # k=17 needs 22 hypercube dims; the largest CCC(4) has 20.
        code, _ = run_cli(
            "solve", "--workload", "random", "--k", "17", "--solver", "bvm"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: problem needs 22 hypercube dims")
        assert err.count("\n") == 1  # one line, no traceback

    def test_blank_bvm_backend_env_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BVM_BACKEND", "   ")
        code, text = run_cli(
            "solve", "--workload", "random", "--k", "3", "--solver", "bvm",
            "--json",
        )
        assert code == 0
        assert json.loads(text)["bvm_backend"] == "bool"

    def test_bvm_backend_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BVM_BACKEND", "bogus")
        code, text = run_cli(
            "solve", "--workload", "random", "--k", "3", "--solver", "bvm",
            "--bvm-backend", "packed", "--json",
        )
        assert code == 0
        assert json.loads(text)["bvm_backend"] == "packed"


class TestOtherCommands:
    def test_workloads_lists_all(self):
        code, text = run_cli("workloads")
        assert code == 0
        for name in WORKLOADS:
            assert name in text

    def test_figures(self):
        code, text = run_cli("figures")
        assert code == 0
        assert "cycle-ID" in text
        assert "value reached all 64 PEs: True" in text

    def test_claims(self):
        code, text = run_cli("claims")
        assert code == 0
        assert "machine sizing" in text
        assert "2^30" in text

    def test_trace_report_json_reports_barrier_idle(self, tmp_path):
        trace = tmp_path / "solve.jsonl"
        code, _ = run_cli(
            "solve", "--workload", "random", "--k", "12", "--backend", "parallel",
            "--workers", "2", "--trace-out", str(trace),
        )
        assert code == 0
        code, text = run_cli("trace-report", str(trace), "--json")
        assert code == 0
        rows = json.loads(text)["layers"]
        assert rows and all(
            0 <= r["barrier_idle_us"] <= r["wall_us"] for r in rows
        )
        code, text = run_cli("trace-report", str(trace))
        assert code == 0 and "idle_ms" in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_module_entrypoint(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "workloads"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "medical" in proc.stdout


class TestSolveBatch:
    def _write_stream(self, tmp_path, problems):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "\n".join(problem.to_json() for problem in problems) + "\n"
        )
        return path

    def test_file_roundtrip(self, tmp_path):
        from repro.core import solve_dp
        from repro.core.generators import random_instance

        problems = [random_instance(4, 3, 2, seed=s) for s in range(3)]
        infile = self._write_stream(tmp_path, problems)
        outfile = tmp_path / "results.jsonl"
        code, _ = run_cli(
            "solve-batch", "--in", str(infile), "--out", str(outfile)
        )
        assert code == 0
        lines = outfile.read_text().splitlines()
        assert len(lines) == len(problems)
        for problem, line in zip(problems, lines):
            payload = json.loads(line)
            assert payload["k"] == problem.k
            assert payload["feasible"] is True
            assert payload["optimal_cost"] == pytest.approx(
                solve_dp(problem).optimal_cost
            )

    def test_stdout_and_stdin(self, tmp_path, monkeypatch):
        import io as _io

        from repro.core.generators import random_instance

        problems = [random_instance(3, 2, 2, seed=s) for s in range(2)]
        text = "\n".join(problem.to_json() for problem in problems) + "\n"
        monkeypatch.setattr("sys.stdin", _io.StringIO(text))
        code, out = run_cli("solve-batch")
        assert code == 0
        payloads = [json.loads(line) for line in out.splitlines() if line]
        assert len(payloads) == 2
        assert all(p["sequential_ops"] > 0 for p in payloads)

    def test_infeasible_reports_null_cost(self, tmp_path):
        from repro.core.problem import Action, TTProblem

        problem = TTProblem(
            k=2,
            weights=(1.0, 1.0),
            actions=(Action.test(0b01, 1.0),),
            name="untreatable",
        )
        infile = self._write_stream(tmp_path, [problem])
        code, out = run_cli("solve-batch", "--in", str(infile))
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert payload["feasible"] is False
        assert payload["optimal_cost"] is None

    def test_blank_lines_skipped(self, tmp_path):
        from repro.core.generators import random_instance

        problem = random_instance(3, 2, 2, seed=0)
        infile = tmp_path / "stream.jsonl"
        infile.write_text("\n" + problem.to_json() + "\n\n")
        code, out = run_cli("solve-batch", "--in", str(infile))
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip()]) == 1

    def test_bad_line_is_loud(self, tmp_path, capsys):
        infile = tmp_path / "stream.jsonl"
        infile.write_text("{not json}\n")
        code, _ = run_cli("solve-batch", "--in", str(infile))
        assert code != 0

    def test_missing_file_is_loud(self, tmp_path):
        code, _ = run_cli("solve-batch", "--in", str(tmp_path / "nope.jsonl"))
        assert code != 0

    def test_parallel_backend(self, tmp_path):
        from repro.core.generators import random_instance

        problems = [random_instance(4, 3, 2, seed=s) for s in range(2)]
        infile = self._write_stream(tmp_path, problems)
        code, out = run_cli(
            "solve-batch", "--in", str(infile),
            "--backend", "parallel", "--workers", "2",
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_native_backend_rejected(self, tmp_path, capsys):
        # The numba kernel tier is gone; its name is an invalid choice.
        from repro.core.generators import random_instance

        infile = self._write_stream(tmp_path, [random_instance(3, 2, 2, seed=0)])
        for argv in (
            ("solve", "--workload", "lab", "--k", "3", "--backend", "native"),
            ("solve-batch", "--in", str(infile), "--backend", "native"),
        ):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err and "native" in err

    def _integral_problems(self, count):
        import numpy as np

        from repro.core.problem import Action, TTProblem

        out = []
        for seed in range(count):
            rng = np.random.default_rng(seed)
            full = 0b111
            acts = [
                Action.test(int(rng.integers(1, full)), float(rng.integers(0, 5))),
                Action.treatment(full, float(rng.integers(1, 5))),
            ]
            out.append(
                TTProblem.build(rng.integers(1, 5, 3).astype(float), acts)
            )
        return out

    def test_bvm_solver_batches_the_stream(self, tmp_path):
        from repro.core import solve_dp

        problems = self._integral_problems(3)
        infile = self._write_stream(tmp_path, problems)
        code, out = run_cli(
            "solve-batch", "--in", str(infile), "--solver", "bvm"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for problem, line in zip(problems, lines):
            payload = json.loads(line)
            assert payload["bvm_backend"] == "packed-batch"
            assert payload["bvm_cycles"] > 0
            assert "ccc_r" in payload
            assert payload["optimal_cost"] == pytest.approx(
                solve_dp(problem).optimal_cost
            )

    def test_bvm_solver_bool_oracle_agrees(self, tmp_path):
        problems = self._integral_problems(2)
        infile = self._write_stream(tmp_path, problems)
        _, packed_out = run_cli(
            "solve-batch", "--in", str(infile), "--solver", "bvm"
        )
        _, bool_out = run_cli(
            "solve-batch", "--in", str(infile),
            "--solver", "bvm", "--bvm-backend", "bool",
        )
        packed = [json.loads(l) for l in packed_out.splitlines()]
        plain = [json.loads(l) for l in bool_out.splitlines()]
        for a, b in zip(packed, plain):
            assert a["optimal_cost"] == b["optimal_cost"]
            assert a["bvm_cycles"] == b["bvm_cycles"]
            assert b["bvm_backend"] == "bool"
