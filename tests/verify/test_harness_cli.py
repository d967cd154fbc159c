"""End-to-end harness and CLI tests for `verify-exhaustive`.

A budgeted slice of the quick bounds must come back clean; a
deliberately broken backend injected into the registry must produce a
recorded, shrunken, *emitted* discrepancy and CLI exit code 1.  The
broken-backend path is the only honest test that the harness can fail —
a sweep that cannot fail verifies nothing.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.sequential import solve_dp
from repro.verify import Bounds, run_verification
from repro.verify.backends import BACKEND_FACTORIES, VerifyBackend

TINY = Bounds(name="tiny", max_k=2, max_actions=2, bvm_stride=5)


class TestRunVerification:
    def test_tiny_space_clean(self):
        report = run_verification(TINY, backend_names=["numpy", "kernel"])
        assert report.ok
        assert report.checked_instances == report.total_instances
        assert report.backend_checks["numpy"] == report.total_instances
        assert report.property_checks["bellman"] == report.total_instances
        assert report.to_dict()["ok"] is True

    def test_seconds_split_by_backend(self):
        report = run_verification(TINY, backend_names=["numpy", "bvm-packed-batch"])
        assert report.ok
        assert set(report.backend_seconds) == set(report.backend_checks)
        assert all(s >= 0 for s in report.backend_seconds.values())
        assert report.oracle_s >= 0
        assert sum(report.backend_seconds.values()) + report.oracle_s <= report.elapsed_s
        data = report.to_dict()
        assert set(data["backend_seconds"]) == {"numpy", "bvm-packed-batch"}
        assert "reference oracle + properties" in report.summary()

    def test_budget_is_stride_not_prefix(self):
        report = run_verification(TINY, backend_names=["numpy"], budget=50)
        assert report.ok
        assert report.checked_instances <= 50 + 1
        # A prefix would only ever see k=1; the stride must reach k=2.
        assert report.checked_instances < report.total_instances

    def test_broken_backend_is_caught_shrunk_and_emitted(self, tmp_path, monkeypatch):
        class OffByOneBackend(VerifyBackend):
            name = "broken"

            def tables(self, problem):
                r = solve_dp(problem)
                cost = np.array(r.cost, copy=True)
                cost[problem.universe] += 1.0  # wrong on every instance
                return cost, r.best_action

        monkeypatch.setitem(BACKEND_FACTORIES, "broken", OffByOneBackend)
        report = run_verification(
            TINY,
            backend_names=["broken"],
            budget=30,
            emit_dir=str(tmp_path),
            max_failures=3,
        )
        assert not report.ok
        assert len(report.discrepancies) == 3  # capped, sweep continued
        disc = report.discrepancies[0]
        assert disc.check == "backend:broken"
        assert "cost differs" in disc.detail
        assert disc.emitted_path is not None
        body = (tmp_path / disc.emitted_path.split("/")[-1]).read_text()
        assert "run_check" in body and "backend:broken" in body
        # Emitted file is syntactically valid Python.
        compile(body, disc.emitted_path, "exec")

    def test_shrinking_can_be_disabled(self, monkeypatch):
        class AlwaysWrong(VerifyBackend):
            name = "broken"

            def tables(self, problem):
                r = solve_dp(problem)
                return r.cost + 1.0, r.best_action

        monkeypatch.setitem(BACKEND_FACTORIES, "broken", AlwaysWrong)
        report = run_verification(
            TINY,
            backend_names=["broken"],
            budget=10,
            shrink_failures=False,
            max_failures=1,
        )
        (disc,) = report.discrepancies
        assert disc.shrunk_json == disc.problem_json


class TestCLI:
    def test_clean_run_exit_0(self, capsys):
        rc = main(
            [
                "verify-exhaustive",
                "--bounds",
                "quick",
                "--budget",
                "40",
                "--backends",
                "numpy",
            ]
        )
        assert rc == 0
        assert "OK: all backends bit-identical" in capsys.readouterr().out

    def test_json_report(self, capsys):
        rc = main(
            [
                "verify-exhaustive",
                "--budget",
                "25",
                "--backends",
                "numpy,kernel",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert set(data["backend_checks"]) == {"numpy", "kernel"}

    def test_unknown_backend_exit_2(self, capsys):
        rc = main(["verify-exhaustive", "--backends", "warp-drive"])
        assert rc == 2
        assert "unknown verify backend" in capsys.readouterr().err

    def test_bad_budget_exit_2(self):
        assert main(["verify-exhaustive", "--budget", "0"]) == 2

    def test_broken_backend_exit_1(self, tmp_path, monkeypatch, capsys):
        class Liar(VerifyBackend):
            name = "liar"

            def tables(self, problem):
                r = solve_dp(problem)
                best = np.array(r.best_action, copy=True)
                best[problem.universe] = -1
                return r.cost, best

        monkeypatch.setitem(BACKEND_FACTORIES, "liar", Liar)
        rc = main(
            [
                "verify-exhaustive",
                "--budget",
                "20",
                "--backends",
                "liar",
                "--max-failures",
                "1",
                "--emit-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "backend:liar" in out
        emitted = list(tmp_path.glob("test_repro_*.py"))
        assert emitted, "reproducer file must be written"


@pytest.mark.slow
class TestBudgetedQuickSweep:
    """A strided slice of the quick space, *every* backend.

    The unbudgeted quick sweep (~80 s) and the full k<=4 space run in
    CI's dedicated `verify-exhaustive` jobs via the CLI; this keeps a
    representative all-backend slice in the default test run.
    """

    def test_quick_bounds_slice_clean(self):
        from repro.verify import QUICK

        report = run_verification(QUICK, budget=1200)
        assert report.ok, report.summary()
        assert report.backend_checks["parallel"] > 0
        assert report.backend_checks["engine-batch"] > 0
