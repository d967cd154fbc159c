"""Fault-tolerance suite for the supervised parallel engine.

The contract: with ``kill``, ``hang``, ``slow`` and ``exc`` faults
injected at arbitrary layers/shards, ``solve(backend="parallel")`` still
returns ``cost``/``best_action`` tables **bit-for-bit** identical to
``solve_dp_reference``; a solve interrupted after layer ``j`` resumes
from its checkpoint journal without recomputing layers ``<= j``; and no failure
mode — including injected crashes — leaks a shared-memory segment (the
autouse ``shm_leak_guard`` in ``tests/core/conftest.py`` asserts that
for every test here).
"""

import dataclasses
import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import parallel, solve
from repro.core.errors import (
    CheckpointMismatch,
    InvalidProblem,
    ShardTimeout,
    SolverError,
    StoreCorruption,
    WorkerCrash,
)
from repro.core.faults import Fault, inject, parse_fault_spec
from repro.core.generators import random_instance
from repro.core.kernels import LayerArena, solve_slice
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp_reference
from repro.core.supervisor import (
    RecoveryLog,
    ResiliencePolicy,
    SharedTables,
    Supervisor,
    problem_content_hash,
)
from repro.store import RamStore, StoreSpec

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=3)
REF = solve_dp_reference(PROBLEM)

# Fast-failure knobs so the recovery paths run in milliseconds.
QUICK = ResiliencePolicy(timeout=5.0, max_retries=2, backoff=0.01, backoff_max=0.05)


def solve_with_fault(spec, policy=QUICK, problem=PROBLEM, workers=2):
    """Solve under ``spec`` with ``workers - 1`` children.

    Faults fire only in children; the parent computes each pool layer's
    last shard, so with ``workers=2`` a fault at ``shard=1`` never fires.
    """
    os.environ["REPRO_FAULT_SPEC"] = spec
    try:
        result = solve_dp_parallel(problem, workers=workers, min_shard=1, policy=policy)
    finally:
        os.environ.pop("REPRO_FAULT_SPEC", None)
    assert_counts_match_metrics(result)
    return result


# RecoveryLog field -> the metric counting the same action.
RECOVERY_METRICS = {
    "retries": "shard.retries",
    "crashes": "shard.crashes",
    "timeouts": "shard.timeouts",
    "respawns": "pool.respawns",
    "fallback_shards": "shard.fallbacks",
}


def assert_counts_match_metrics(result):
    for key, metric in RECOVERY_METRICS.items():
        assert result.recovery[key] == result.metrics[metric], key


def assert_bit_for_bit(result, ref=REF):
    assert np.array_equal(result.cost, ref.cost)
    assert np.array_equal(result.best_action, ref.best_action)


def committed_layers(path) -> list:
    """The layers a checkpoint journal's manifest vouches for."""
    manifest = json.loads((path / "manifest.json").read_text())
    return sorted(int(j) for j in manifest["layers"])


def open_checkpoint(path, problem=PROBLEM) -> tuple:
    """Open a RamStore over the journal at ``path``: ``(store, report)``."""
    store = RamStore(problem, policy=ResiliencePolicy(checkpoint=path))
    return store, store.open()


class TestExceptionTaxonomy:
    def test_hierarchy(self):
        for cls in (WorkerCrash, ShardTimeout, CheckpointMismatch, InvalidProblem):
            assert issubclass(cls, SolverError)
        # pre-taxonomy call sites wrote `except ValueError`
        assert issubclass(InvalidProblem, ValueError)

    def test_crash_context(self):
        exc = WorkerCrash("boom", layer=3, shard=1)
        assert (exc.layer, exc.shard) == (3, 1)


class TestFaultSpecParsing:
    def test_single(self):
        (fault,) = parse_fault_spec("kill:layer=12:shard=1")
        assert fault == Fault("kill", layer=12, shard=1)

    def test_multiple_and_separators(self):
        faults = parse_fault_spec("kill:layer=2; slow:ms=200, hang")
        assert [f.kind for f in faults] == ["kill", "slow", "hang"]
        assert faults[1].ms == 200.0

    def test_times_and_matching(self):
        (fault,) = parse_fault_spec("exc:layer=4:times=2")
        assert fault.matches(4, 0, 0) and fault.matches(4, 7, 1)
        assert not fault.matches(4, 0, 2)  # attempt past `times`
        assert not fault.matches(5, 0, 0)  # wrong layer

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:layer=1",  # unknown kind
            "kill:depth=3",  # unknown field
            "kill:layer=abc",  # not a number
            "slow:ms=-5",  # negative sleep
            "kill:times=0",  # zero attempts
            "kill layer=1",  # missing '='
        ],
    )
    def test_invalid_specs_fail_loudly(self, bad):
        with pytest.raises(InvalidProblem):
            parse_fault_spec(bad)

    def test_bad_env_spec_fails_in_parent(self, monkeypatch):
        """A typo'd REPRO_FAULT_SPEC fails the solve up front, not silently."""
        monkeypatch.setenv("REPRO_FAULT_SPEC", "oops:layer=1")
        with pytest.raises(InvalidProblem):
            solve_dp_parallel(PROBLEM, workers=2, min_shard=1)

    def test_inject_noop_without_spec(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
        inject(3, 0, 0)  # must not raise, sleep, or exit

    def test_inject_exc_via_argument(self):
        with pytest.raises(RuntimeError, match="injected"):
            inject(3, 0, 0, spec="exc:layer=3")
        inject(4, 0, 0, spec="exc:layer=3")  # non-matching layer: no-op


class TestFaultRecovery:
    """kill/hang/slow at arbitrary layers and shards: still bit-for-bit."""

    @pytest.mark.parametrize("layer", [2, 3, 5])
    @pytest.mark.parametrize("shard", [0, 1])
    def test_kill_recovers(self, layer, shard):
        # shard + 2 workers: the targeted shard is a child's, not the
        # parent's last one.
        result = solve_with_fault(f"kill:layer={layer}:shard={shard}", workers=shard + 2)
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] >= 1
        assert result.recovery["retries"] >= 1

    def test_kill_recovers_under_spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        result = solve_with_fault("kill:layer=3:shard=0")
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] == 1
        assert result.recovery["retries"] == 1

    def test_kill_retries_exactly_one_shard(self):
        # Shard 1 is still running when shard 0's owner dies: only the
        # dead child's shard is retried, and nothing runs twice.
        result = solve_with_fault(
            "kill:layer=3:shard=0; slow:layer=3:shard=1:ms=300", workers=3
        )
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] == 1
        assert result.recovery["retries"] == 1

    @pytest.mark.parametrize("layer", [2, 4])
    def test_kill_every_shard_of_a_layer(self, layer):
        result = solve_with_fault(f"kill:layer={layer}")
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] >= 1

    @pytest.mark.parametrize("layer", [2, 3])
    def test_hang_recovers_via_timeout_and_respawn(self, layer):
        policy = dataclasses.replace(QUICK, timeout=0.3)
        result = solve_with_fault(f"hang:layer={layer}", policy)
        assert_bit_for_bit(result)
        assert result.recovery["timeouts"] >= 1
        assert result.recovery["respawns"] >= 1

    def test_slow_shards_just_finish(self):
        result = solve_with_fault("slow:ms=50")
        assert_bit_for_bit(result)
        assert result.recovery["retries"] == 0

    def test_worker_exception_retried(self):
        result = solve_with_fault("exc:layer=4")
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] >= 1

    def test_combined_faults(self):
        policy = dataclasses.replace(QUICK, timeout=0.4)
        result = solve_with_fault(
            "kill:layer=2:shard=0; slow:ms=20; hang:layer=5:shard=1", policy, workers=3
        )
        assert_bit_for_bit(result)
        assert result.recovery["crashes"] >= 1
        assert result.recovery["timeouts"] >= 1

    def test_retries_exhausted_falls_back_in_process(self):
        """A persistent fault (times > max_retries) degrades gracefully."""
        result = solve_with_fault("kill:layer=3:times=10")
        assert_bit_for_bit(result)
        assert result.recovery["fallback_shards"] >= 1

    def test_failed_respawn_degrades_and_counts_agree(self, monkeypatch):
        """A child that cannot be replaced degrades the solve in-process."""
        real = parallel._start_worker
        starts = []

        def start_once():
            if starts:
                raise OSError("fork refused")
            starts.append(1)
            return real()

        monkeypatch.setattr(parallel, "_start_worker", start_once)
        policy = dataclasses.replace(QUICK, timeout=0.3)
        result = solve_with_fault("hang:layer=3", policy)
        assert_bit_for_bit(result)
        rec = result.recovery
        assert rec["degraded"] is True
        assert rec["timeouts"] == 1 and rec["fallback_shards"] == 1
        assert rec["respawns"] == 0
        assert any(e["kind"] == "degrade" for e in rec["events"])
        assert [e["mode"] for e in rec["layers"]][3:] == ["degraded"] * 3

    def test_no_fallback_raises_worker_crash(self):
        policy = dataclasses.replace(QUICK, max_retries=0, fallback=False)
        with pytest.raises(WorkerCrash) as excinfo:
            solve_with_fault("kill:layer=3:shard=0", policy)
        assert excinfo.value.layer == 3

    def test_no_fallback_raises_shard_timeout(self):
        policy = dataclasses.replace(
            QUICK, timeout=0.3, max_retries=0, fallback=False
        )
        with pytest.raises(ShardTimeout):
            solve_with_fault("hang:layer=2", policy)

    def test_through_solve_dispatch(self):
        """The acceptance path: solve(backend='parallel') under faults."""
        os.environ["REPRO_FAULT_SPEC"] = "kill:layer=2:shard=0"
        try:
            result = solve(PROBLEM, backend="parallel", workers=2, policy=QUICK)
        finally:
            os.environ.pop("REPRO_FAULT_SPEC", None)
        # dispatch routes small k through min_shard=MIN_SHARD (single
        # shard => parent path), so the fault may simply never fire — the
        # contract is the tables, not the recovery counters.
        assert_bit_for_bit(result)
        assert_counts_match_metrics(result)

    def test_recovery_log_shape(self):
        result = solve_with_fault("kill:layer=3:shard=0")
        rec = result.recovery
        for key in ("retries", "timeouts", "crashes", "respawns",
                    "fallback_shards", "degraded", "layers", "events"):
            assert key in rec
        assert [entry["layer"] for entry in rec["layers"]] == list(range(1, PROBLEM.k + 1))
        for entry in rec["layers"]:
            assert entry["mode"] in ("pool", "parent", "degraded")
            assert entry["seconds"] >= 0

    def test_fault_free_solve_has_clean_log(self):
        result = solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=QUICK)
        assert_bit_for_bit(result)
        rec = result.recovery
        assert rec["retries"] == rec["crashes"] == rec["timeouts"] == 0
        assert rec["respawns"] == rec["fallback_shards"] == 0
        assert not rec["degraded"]


class TestLostShardIsLoud:
    def test_undercounted_layer_raises_solver_error(self, monkeypatch):
        """A layer completing with fewer masks than dispatched must raise
        even under `python -O` (this used to be a stripped `assert`)."""
        from repro.core import supervisor as sup

        real = sup.Supervisor.run_layer

        def undercount(self, layer_idx, shards, fallback):
            return real(self, layer_idx, shards, fallback) - 1

        monkeypatch.setattr(sup.Supervisor, "run_layer", undercount)
        with pytest.raises(SolverError, match="incomplete"):
            solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=QUICK)


class TestCheckpointing:
    def test_hash_ignores_cosmetic_name(self):
        renamed = dataclasses.replace(PROBLEM, name="other-name")
        assert problem_content_hash(renamed) == problem_content_hash(PROBLEM)
        other = random_instance(6, 6, 4, seed=4)
        assert problem_content_hash(other) != problem_content_hash(PROBLEM)

    def test_save_load_roundtrip(self, tmp_path):
        # Every layer committed, then reopened by a fresh store: the
        # journal scatters back exactly the committed tables.
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        solve_dp_parallel(PROBLEM, workers=1, policy=keep)
        store, report = open_checkpoint(path)
        try:
            assert report.completed_prefix == PROBLEM.k
            assert np.array_equal(store.cost, REF.cost)
            assert np.array_equal(store.best, REF.best_action)
        finally:
            store.close()

    def test_missing_file_means_fresh_start(self, tmp_path):
        store, report = open_checkpoint(tmp_path / "absent-ckpt")
        store.close()
        assert report.valid_layers == frozenset()
        assert report.resumed is False

    def test_wrong_problem_rejected(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        solve_dp_parallel(PROBLEM, workers=1, policy=keep)
        other = random_instance(6, 6, 4, seed=4)
        with pytest.raises(CheckpointMismatch, match="different problem"):
            open_checkpoint(path, other)

    def test_corrupt_file_rejected(self, tmp_path):
        # A regular file where the journal directory belongs — such as a
        # single-file checkpoint from an older release — is refused by
        # name, and left alone.
        path = tmp_path / "solve.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointMismatch, match="regular file") as info:
            solve(PROBLEM, backend="parallel", workers=2, checkpoint=str(path))
        assert str(path) in str(info.value)
        assert path.read_bytes() == b"not a checkpoint"

    def test_interrupted_solve_resumes_without_recomputing(self, tmp_path):
        """Interrupt after layer j; the resume starts at j+1, not layer 1."""
        path = tmp_path / "solve-ckpt"
        policy = dataclasses.replace(
            QUICK, timeout=0.3, max_retries=0, fallback=False, checkpoint=path
        )
        with pytest.raises(ShardTimeout):
            solve_with_fault("hang:layer=4", policy)
        # layers 1..3 done, 4 was interrupted
        assert committed_layers(path) == [1, 2, 3]

        resumed = solve_dp_parallel(
            PROBLEM, workers=2, min_shard=1,
            policy=dataclasses.replace(QUICK, checkpoint=path),
        )
        assert_bit_for_bit(resumed)
        assert resumed.recovery["resumed_from_layer"] == 3
        # layers <= 3 were NOT recomputed
        assert [e["layer"] for e in resumed.recovery["layers"]] == [4, 5, 6]

    def test_completed_checkpoint_resumes_instantly(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        first = solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=keep)
        assert_bit_for_bit(first)
        again = solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=keep)
        assert_bit_for_bit(again)
        assert again.recovery["resumed_from_layer"] == PROBLEM.k
        assert again.recovery["layers"] == []  # nothing recomputed

    def test_checkpoint_through_solve_kwarg(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        keep = ResiliencePolicy(keep_checkpoint=True)
        result = solve(
            PROBLEM, backend="parallel", workers=2,
            checkpoint=str(path), policy=keep,
        )
        assert_bit_for_bit(result)
        assert path.exists()
        resumed = solve(
            PROBLEM, backend="parallel", workers=2,
            checkpoint=str(path), policy=keep,
        )
        assert resumed.recovery["resumed_from_layer"] == PROBLEM.k

    def test_checkpoint_removed_after_success_by_default(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        result = solve(PROBLEM, backend="parallel", workers=2, checkpoint=str(path))
        assert_bit_for_bit(result)
        assert not path.exists()

    def test_interrupted_solve_keeps_checkpoint(self, tmp_path):
        # Deletion is success-only: a failed solve leaves the checkpoint
        # for the next attempt even without keep_checkpoint.
        path = tmp_path / "solve-ckpt"
        policy = dataclasses.replace(
            QUICK, timeout=0.3, max_retries=0, fallback=False, checkpoint=path
        )
        with pytest.raises(ShardTimeout):
            solve_with_fault("hang:layer=4", policy)
        assert path.exists()

    def test_stale_tmp_swept_on_open(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        (path / "layers").mkdir(parents=True)
        (path / "layers" / "layer_03.slab.tmp").write_bytes(
            b"half-written slab from a dead process"
        )
        (path / "manifest.json.tmp").write_bytes(b"half a manifest")
        result = solve_dp_parallel(
            PROBLEM, workers=2, min_shard=1,
            policy=dataclasses.replace(QUICK, checkpoint=path),
        )
        assert_bit_for_bit(result)
        assert not path.exists()
        assert {"kind": "tmp-swept", "count": 2} in result.recovery["events"]

    def test_payload_checksum_detects_corruption(self, tmp_path):
        # A corrupt slab is derivable state: detected by its checksum,
        # logged, and re-derived from the layers below — not trusted and
        # not fatal.
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=keep)
        slab = path / "layers" / "layer_04.slab"
        raw = bytearray(slab.read_bytes())
        raw[3] ^= 0x10
        slab.write_bytes(bytes(raw))
        again = solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=keep)
        assert_bit_for_bit(again)
        assert {"kind": "slab-corrupt", "layer": 4} in again.recovery["events"]
        assert again.recovery["rederived"] == 1
        assert [e["layer"] for e in again.recovery["layers"]] == [4]

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # A manifest of another format version cannot be interpreted, so
        # it is refused loudly (recomputing is always safe; trusting
        # stale bytes is not).
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        solve_dp_parallel(PROBLEM, workers=1, policy=keep)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format"] = 0
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="format"):
            solve_dp_parallel(PROBLEM, workers=1, policy=keep)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "solve-ckpt"
        keep = dataclasses.replace(QUICK, checkpoint=path, keep_checkpoint=True)
        solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=keep)
        assert not [p for p in path.rglob("*") if p.name.endswith(".tmp")]
        assert committed_layers(path) == list(range(1, PROBLEM.k + 1))


class TestSharedTablesLifecycle:
    def test_context_manager_unlinks(self):
        with SharedTables(1 << 8) as tables:
            names = list(tables.names.values())
            for name in names:
                assert os.path.exists(f"/dev/shm/{name}")
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_close_is_idempotent(self):
        tables = SharedTables(1 << 8)
        tables.close()
        tables.close()  # second close must be a no-op, not a crash

    def test_exception_path_unlinks(self):
        try:
            with SharedTables(1 << 8) as tables:
                names = list(tables.names.values())
                raise RuntimeError("mid-solve crash")
        except RuntimeError:
            pass
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_sigterm_unlinks_segments(self, tmp_path):
        """A SIGTERM'd parent must not strand /dev/shm segments."""
        script = textwrap.dedent(
            """
            import sys, time
            sys.path.insert(0, %r)
            from repro.core.supervisor import SharedTables
            tables = SharedTables(1 << 10)
            print(" ".join(tables.names.values()), flush=True)
            time.sleep(60)
            """
        ) % os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        try:
            names = proc.stdout.readline().split()
            assert names and all(os.path.exists(f"/dev/shm/{n}") for n in names)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGTERM  # exit status stays honest
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)


def _stubborn_hang(args):
    """A shard task stuck for a minute that ignores SIGTERM."""
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60)


def _stale_shard(args):
    """A slow shard task whose reply claims far more masks than exist."""
    import time

    time.sleep(0.5)
    return args[3], 10**6


class TestOwnedShutdown:
    """Shutdown reaps every child within a bound, busy or idle."""

    @pytest.fixture
    def store(self):
        store = RamStore(PROBLEM)
        store.open()
        yield store
        store.close()

    def _task(self, store):
        return functools.partial(
            parallel._solve_shard, store.worker_spec(),
            PROBLEM.subset_array, PROBLEM.cost_array, PROBLEM.test_mask_array,
        )

    def _supervisor(self, store):
        log = RecoveryLog()
        sup = Supervisor(QUICK, parallel._start_worker)
        sup.bind(self._task(store), log)
        return sup, log

    def _run_layer_3(self, sup, store):
        """Layers 1-2 in the parent, then layer 3 as three shards."""
        arena = LayerArena()

        def in_parent(lo, hi):
            return solve_slice(
                store.cost, store.best, store.p, store.order, lo, hi,
                PROBLEM.subset_array, PROBLEM.cost_array,
                PROBLEM.test_mask_array, arena,
            )

        for j in (1, 2):
            in_parent(*store.bounds(j))
        lo, hi = store.bounds(3)
        shards = [(lo, lo + 7), (lo + 7, lo + 14), (lo + 14, hi)]
        assert sup.run_layer(3, shards, in_parent) == hi - lo
        layer = store.order[lo:hi]
        assert np.array_equal(store.cost[layer], REF.cost[layer])

    def test_stuck_child_ignoring_sigterm_is_reaped(self, store):
        import time

        sup, log = self._supervisor(store)
        sup.bind(_stubborn_hang, log)
        assert sup._send(2, 0, store.bounds(2), attempt=0)
        child = sup._children[0]
        time.sleep(0.5)  # the task is now parked in its sleep
        t0 = time.monotonic()
        sup.shutdown()
        assert time.monotonic() - t0 < 5.0
        assert child.proc.exitcode == -signal.SIGKILL
        assert sup._children == []

    def test_unbind_discards_a_child_of_an_aborted_solve(self, store):
        # A solve that raised mid-layer leaves its children busy; ending
        # it reaps them, so the next solve on the same (warm) supervisor
        # never takes their stale replies for its own shards.
        sup, log = self._supervisor(store)
        sup.bind(_stale_shard, log)
        assert sup._send(3, 0, store.bounds(3), attempt=0)
        stale = sup._children[0].proc
        sup.unbind(parallel._drop_tables)
        assert stale.exitcode == -signal.SIGKILL
        sup.bind(self._task(store), log)
        self._run_layer_3(sup, store)
        sup.shutdown()

    def test_unbind_keeps_idle_children_without_tables(self, store):
        sup, log = self._supervisor(store)
        self._run_layer_3(sup, store)
        procs = [c.proc for c in sup._children]
        sup.unbind(parallel._drop_tables)
        try:
            assert [c.proc for c in sup._children] == procs
            for proc in procs:
                with open(f"/proc/{proc.pid}/maps") as maps:
                    assert [line for line in maps if "/psm_" in line] == []
                fds = os.listdir(f"/proc/{proc.pid}/fd")
                assert not any(
                    "/psm_" in os.readlink(f"/proc/{proc.pid}/fd/{fd}") for fd in fds
                )
        finally:
            sup.shutdown()

    def test_idle_children_exit_on_stop_message(self, store):
        sup, log = self._supervisor(store)
        self._run_layer_3(sup, store)
        procs = [c.proc for c in sup._children]
        assert len(procs) == 2
        sup.shutdown()
        assert [p.exitcode for p in procs] == [0, 0]
        assert log.events == []


class TestLentSupervisor:
    """One supervisor's child serves every solve lent it, whatever the store."""

    def test_one_child_remaps_across_stores_and_k(self, tmp_path):
        other = random_instance(7, n_tests=5, n_treatments=3, seed=8)
        spill = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "spill"), fsync=False)
        solves = [(PROBLEM, None), (PROBLEM, spill), (other, None)]
        sup = Supervisor(QUICK, parallel._start_worker)
        kinds, pids = [], []
        try:
            for problem, store in solves:
                result = solve_dp_parallel(
                    problem, workers=2, min_shard=1, store=store, supervisor=sup
                )
                assert_bit_for_bit(result, solve_dp_reference(problem))
                assert "pool" in {row["mode"] for row in result.recovery["layers"]}
                kinds.append(result.recovery["store"])
                pids.append([c.proc.pid for c in sup._children if c.proc.is_alive()])
        finally:
            sup.shutdown()
            RamStore.drop_spare()  # the last RAM solve's recycled tables
        assert kinds == ["ram", "mmap", "ram"]
        assert len(pids[0]) == 1 and pids == [pids[0]] * 3

    def test_a_recreated_spill_dir_is_remapped(self, tmp_path):
        # Same path, new files: a child still mapping the deleted ones
        # would write its shards where the parent never reads them.
        spill = StoreSpec(kind="mmap", spill_dir=str(tmp_path / "spill"), fsync=False)
        sup = Supervisor(QUICK, parallel._start_worker)
        try:
            for _ in range(2):
                result = solve_dp_parallel(
                    PROBLEM, workers=2, min_shard=1, store=spill, supervisor=sup
                )
                assert_bit_for_bit(result)
                assert result.recovery["resumed_from_layer"] is None
                shutil.rmtree(spill.spill_dir)
        finally:
            sup.shutdown()


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"max_retries": -1},
            {"backoff": -0.1},
            {"backoff_max": -1.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(SolverError):
            ResiliencePolicy(**kwargs)

    def test_defaults_are_resilient(self):
        policy = ResiliencePolicy()
        assert policy.fallback
        assert policy.max_retries >= 1

