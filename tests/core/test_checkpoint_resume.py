"""Checkpoint resume across backend/worker configurations and stores.

The contract under test: a checkpoint journal written by one solver
configuration and resumed by *any* other must either produce tables
bit-for-bit identical to a cold solve or fail loudly with a
:class:`SolverError` — never silently diverge, and never silently skip
the checkpoint.  Shards are pure functions of the (problem,
completed-prefix) state, so worker count must not matter, one worker
included; the reference oracle has no layer store to checkpoint, so
requesting one there must raise instead of quietly doing nothing.  Both
durable stores — in-RAM tables under ``checkpoint=DIR`` and the mmap
spill store — commit through the same slab journal, so they are held to
the same resume behaviour.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import solve
from repro.core.errors import CheckpointMismatch, InvalidProblem, StoreCorruption
from repro.core.generators import random_instance
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp_reference
from repro.core.supervisor import ResiliencePolicy
from repro.store import MmapStore, RamStore, StoreSpec

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=11)
REF = solve_dp_reference(PROBLEM)

QUICK = ResiliencePolicy(timeout=5.0, max_retries=1, backoff=0.01, backoff_max=0.05)


def partial_journal(directory, problem, ref, completed_layer, kind="ram"):
    """Seed a journal directory with ``completed_layer`` committed layers.

    Goes through the store's own commit protocol — the state on disk is
    exactly what a solve SIGKILLed after that layer's commit leaves.
    ``kind="ram"`` seeds a checkpoint directory, ``"mmap"`` a spill
    directory.
    """
    if kind == "ram":
        store = RamStore(problem, policy=ResiliencePolicy(checkpoint=directory))
    else:
        store = MmapStore(problem, spill_dir=directory)
    store.open()
    try:
        for j in range(1, completed_layer + 1):
            lo, hi = store.bounds(j)
            masks = np.asarray(store.order[lo:hi])
            store.cost[masks] = ref.cost[masks]
            store.best[masks] = ref.best_action[masks]
            store.commit_layer(j)
    finally:
        store.close()


class TestResumeAcrossWorkerCounts:
    @pytest.mark.parametrize("resume_workers", [1, 2, 3])
    def test_partial_resume_bit_identical(self, tmp_path, resume_workers):
        path = tmp_path / "partial-ckpt"
        partial_journal(path, PROBLEM, REF, completed_layer=3)
        policy = dataclasses.replace(QUICK, checkpoint=str(path))
        result = solve_dp_parallel(
            PROBLEM, workers=resume_workers, min_shard=1, policy=policy
        )
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)

    def test_checkpoint_written_by_one_config_resumed_by_another(self, tmp_path):
        path = tmp_path / "cross-ckpt"
        policy = dataclasses.replace(
            QUICK, checkpoint=str(path), keep_checkpoint=True
        )
        first = solve_dp_parallel(PROBLEM, workers=3, min_shard=1, policy=policy)
        assert path.exists()
        resumed = solve_dp_parallel(PROBLEM, workers=1, min_shard=1, policy=policy)
        assert np.array_equal(first.cost, resumed.cost)
        assert np.array_equal(first.best_action, resumed.best_action)
        assert np.array_equal(resumed.cost, REF.cost)

    def test_resume_skips_completed_layers(self, tmp_path):
        path = tmp_path / "done-ckpt"
        partial_journal(path, PROBLEM, REF, completed_layer=PROBLEM.k)
        policy = dataclasses.replace(QUICK, checkpoint=str(path))
        result = solve_dp_parallel(PROBLEM, workers=2, min_shard=1, policy=policy)
        # Fully-completed checkpoint: no layer was recomputed.
        assert result.recovery["layers"] == []
        assert {"kind": "resume", "completed_layer": PROBLEM.k} in result.recovery[
            "events"
        ]
        assert np.array_equal(result.cost, REF.cost)


class TestEveryPrefixResume:
    """Resume from *every* layer prefix, across both durable stores.

    A crash can land after any layer's commit, so every prefix length
    must resume to bit-identical tables with exactly the remaining
    layers recomputed — for a checkpoint journal over in-RAM tables and
    for the mmap spill store, under both the in-parent and the pooled
    execution paths.
    """

    @staticmethod
    def resume_from_prefix(tmp_path, kind, prefix, workers):
        directory = str(tmp_path / "journal")
        partial_journal(directory, PROBLEM, REF, prefix, kind=kind)
        if kind == "ram":
            policy = dataclasses.replace(QUICK, checkpoint=directory)
            result = solve_dp_parallel(
                PROBLEM, workers=workers, min_shard=1, policy=policy
            )
        else:
            spec = StoreSpec(kind="mmap", spill_dir=directory)
            result = solve_dp_parallel(
                PROBLEM, workers=workers, min_shard=1, store=spec
            )
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["store"] == kind
        assert result.recovery["resumed_from_layer"] == (prefix or None)
        assert [e["layer"] for e in result.recovery["layers"]] == list(
            range(prefix + 1, PROBLEM.k + 1)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("prefix", range(0, 7))
    def test_ckpt_resume_from_every_prefix(self, tmp_path, prefix, workers):
        self.resume_from_prefix(tmp_path, "ram", prefix, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("prefix", range(0, 7))
    def test_mmap_resume_from_every_prefix(self, tmp_path, prefix, workers):
        self.resume_from_prefix(tmp_path, "mmap", prefix, workers)

    @pytest.mark.parametrize("writer,reader", [("ram", "mmap"), ("mmap", "ram")])
    def test_one_format_resumes_across_stores(self, tmp_path, writer, reader):
        # A checkpoint directory and a spill directory are the same
        # journal, so either store resumes what the other committed (the
        # spill store rebuilds the order.dat a checkpoint never had).
        directory = str(tmp_path / "journal")
        partial_journal(directory, PROBLEM, REF, 4, kind=writer)
        if reader == "ram":
            policy = dataclasses.replace(QUICK, checkpoint=directory)
            result = solve_dp_parallel(PROBLEM, workers=1, policy=policy)
        else:
            spec = StoreSpec(kind="mmap", spill_dir=directory)
            result = solve_dp_parallel(PROBLEM, workers=1, store=spec)
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["resumed_from_layer"] == 4
        assert [e["layer"] for e in result.recovery["layers"]] == [5, 6]


class TestDispatchCheckpointRouting:
    def test_auto_backend_honours_checkpoint(self, tmp_path):
        # Below the auto crossover the solve runs on one worker, which
        # writes and resumes the checkpoint like any other count.
        small = random_instance(4, n_tests=3, n_treatments=3, seed=7)
        path = tmp_path / "auto-ckpt"
        keep = ResiliencePolicy(keep_checkpoint=True)
        result = solve(
            small, backend="auto", workers=2, checkpoint=str(path), policy=keep
        )
        assert path.exists()
        cold = solve_dp_reference(small)
        assert np.array_equal(result.cost, cold.cost)
        assert np.array_equal(result.best_action, cold.best_action)
        # Resuming the finished checkpoint must be a no-op solve with
        # identical tables.
        resumed = solve(
            small, backend="auto", workers=2, checkpoint=str(path), policy=keep
        )
        assert np.array_equal(resumed.cost, cold.cost)
        assert np.array_equal(resumed.best_action, cold.best_action)

    def test_single_process_backend_with_checkpoint_resumes(self, tmp_path):
        # One worker writes the checkpoint, and a second solve resumes it
        # whether the directory arrives as checkpoint= or policy.checkpoint.
        path = tmp_path / "ckpt"
        keep = ResiliencePolicy(keep_checkpoint=True)
        first = solve(PROBLEM, backend="numpy", checkpoint=str(path), policy=keep)
        assert (path / "manifest.json").exists()
        assert first.recovery["resumed_from_layer"] is None
        policy = dataclasses.replace(keep, checkpoint=str(path))
        again = solve(PROBLEM, backend="numpy", policy=policy)
        for result in (first, again):
            assert (result.backend, result.workers) == ("numpy", 1)
            assert result.cost.tobytes() == REF.cost.tobytes()
            assert result.best_action.tobytes() == REF.best_action.tobytes()
        assert again.recovery["resumed_from_layer"] == PROBLEM.k

    # The reference oracle is the one backend without a layer store.
    @pytest.mark.parametrize("backend", ["reference"])
    def test_single_process_backend_with_checkpoint_raises(self, tmp_path, backend):
        path = tmp_path / "nope-ckpt"
        with pytest.raises(InvalidProblem, match="no layer store"):
            solve(PROBLEM, backend=backend, checkpoint=str(path))
        assert not path.exists()

    @pytest.mark.parametrize("backend", ["reference"])
    def test_policy_checkpoint_also_raises(self, tmp_path, backend):
        policy = dataclasses.replace(QUICK, checkpoint=str(tmp_path / "p-ckpt"))
        with pytest.raises(InvalidProblem, match="no layer store"):
            solve(PROBLEM, backend=backend, policy=policy)

    def test_policy_without_checkpoint_still_allowed(self):
        # A bare resilience policy at one worker is inert but harmless:
        # with no children there is no shard to time out or retry.
        result = solve(PROBLEM, backend="numpy", policy=QUICK)
        assert np.array_equal(result.cost, REF.cost)


class TestMismatchIsLoud:
    def test_resume_with_different_problem_raises(self, tmp_path):
        path = tmp_path / "stale-ckpt"
        partial_journal(path, PROBLEM, REF, completed_layer=2)
        other = random_instance(6, n_tests=6, n_treatments=4, seed=99)
        policy = dataclasses.replace(QUICK, checkpoint=str(path))
        with pytest.raises(CheckpointMismatch, match="different problem"):
            solve_dp_parallel(other, workers=2, min_shard=1, policy=policy)

    def test_truncated_file_raises(self, tmp_path):
        # A torn manifest is control state that cannot be trusted: loud,
        # unlike a torn slab, which is re-derived.
        path = tmp_path / "trunc-ckpt"
        partial_journal(path, PROBLEM, REF, completed_layer=2)
        manifest = path / "manifest.json"
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[: len(raw) // 2])
        policy = dataclasses.replace(QUICK, checkpoint=str(path))
        with pytest.raises(StoreCorruption, match="unreadable"):
            solve_dp_parallel(PROBLEM, workers=1, policy=policy)
