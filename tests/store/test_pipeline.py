"""The async commit pipeline: ordering, bounds, drain, error surfacing.

The :class:`~repro.store.pipeline.AsyncCommitter` is tested against a
fake store first (ordering/drain/error semantics are pure thread
mechanics), then end-to-end: an async-committed mmap solve must write
byte-identical slabs, manifest and tables to a synchronous one.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import solve
from repro.core.errors import InvalidProblem, SolverError, StoreWriteError
from repro.core.generators import random_instance
from repro.core.sequential import solve_dp_reference
from repro.store import (
    COMMIT_MODE_ENV,
    AsyncCommitter,
    LayerStore,
    MmapStore,
    StoreSpec,
    commit_mode,
)

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=33)
REF = solve_dp_reference(PROBLEM)


class FakeStore(LayerStore):
    """Records commit order; optionally blocks or fails per layer."""

    def __init__(self, *, fail_layers=(), block=None, commit_s=0.0):
        super().__init__()
        self.committed = []
        self.fail_layers = set(fail_layers)
        self.block = block  # threading.Event the commit waits on
        self.commit_s = commit_s

    def commit_nbytes(self, j):
        return 100 * j

    def commit_layer(self, j):
        if self.block is not None:
            assert self.block.wait(timeout=30.0)
        if self.commit_s:
            time.sleep(self.commit_s)
        if j in self.fail_layers:
            raise StoreWriteError(f"injected failure at layer {j}", layer=j)
        self.committed.append(j)


class TestCommitMode:
    def test_default_is_async(self, monkeypatch):
        monkeypatch.delenv(COMMIT_MODE_ENV, raising=False)
        assert commit_mode() == "async"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(COMMIT_MODE_ENV, "sync")
        assert commit_mode() == "sync"

    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv(COMMIT_MODE_ENV, "sync")
        assert commit_mode("async") == "async"

    def test_env_normalizes_case_and_whitespace(self, monkeypatch):
        monkeypatch.setenv(COMMIT_MODE_ENV, " ASYNC ")
        assert commit_mode() == "async"

    @pytest.mark.parametrize("bad", ["later", "asynchronously", "0"])
    def test_typo_fails_loudly(self, monkeypatch, bad):
        monkeypatch.setenv(COMMIT_MODE_ENV, bad)
        with pytest.raises(InvalidProblem, match="REPRO_COMMIT_MODE"):
            commit_mode()

    def test_explicit_typo_fails_loudly(self):
        with pytest.raises(InvalidProblem, match="commit mode"):
            commit_mode("eventually")


class TestAsyncCommitter:
    def test_commits_in_submission_order(self):
        store = FakeStore()
        committer = AsyncCommitter(store)
        try:
            for j in range(1, 9):
                committer.submit(j)
            committer.drain()
        finally:
            committer.close()
        assert store.committed == list(range(1, 9))

    def test_drain_blocks_until_retired(self):
        gate = threading.Event()
        store = FakeStore(block=gate)
        committer = AsyncCommitter(store)
        try:
            committer.submit(1)
            assert store.committed == []  # still parked behind the gate
            gate.set()
            committer.drain()
            assert store.committed == [1]
        finally:
            committer.close()

    def test_bounded_queue_blocks_submit(self):
        # max_pending=1: with one commit in flight and one queued, the
        # next submit must wait for a slot instead of growing a backlog.
        gate = threading.Event()
        store = FakeStore(block=gate)
        committer = AsyncCommitter(store, max_pending=1)
        t_blocked = {}

        def feeder():
            t0 = time.monotonic()
            committer.submit(1)  # taken in flight
            committer.submit(2)  # queued
            committer.submit(3)  # must block until 1 retires
            t_blocked["s"] = time.monotonic() - t0

        thread = threading.Thread(target=feeder)
        try:
            thread.start()
            time.sleep(0.15)
            assert store.committed == []
            gate.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            committer.drain()
            assert store.committed == [1, 2, 3]
            assert t_blocked["s"] >= 0.1
        finally:
            committer.close()

    def test_error_surfaces_at_next_submit(self):
        store = FakeStore(fail_layers={2})
        committer = AsyncCommitter(store)
        try:
            committer.submit(1)
            committer.submit(2)
            committer.drain()  # let the failure land
            pytest.fail("drain should have raised")
        except StoreWriteError as exc:
            assert exc.layer == 2
        finally:
            committer.close()
        assert store.committed == [1]

    def test_queued_commits_discarded_after_error(self):
        gate = threading.Event()
        store = FakeStore(fail_layers={1}, block=gate)
        committer = AsyncCommitter(store, max_pending=2)
        try:
            committer.submit(1)
            committer.submit(2)
            committer.submit(3)
            gate.set()
            with pytest.raises(StoreWriteError):
                committer.drain()
            committer.drain()  # error already surfaced; queue is empty
        finally:
            committer.close()
        assert store.committed == []  # 2 and 3 never ran after 1 failed

    def test_submit_after_close_raises(self):
        committer = AsyncCommitter(FakeStore())
        committer.close()
        with pytest.raises(SolverError, match="closed"):
            committer.submit(1)

    def test_close_is_idempotent(self):
        committer = AsyncCommitter(FakeStore())
        committer.close()
        committer.close()

    def test_unexpected_exception_wrapped(self):
        class Exploding(FakeStore):
            def commit_layer(self, j):
                raise RuntimeError("boom")

        committer = AsyncCommitter(Exploding())
        try:
            committer.submit(1)
            with pytest.raises(SolverError, match="async layer commit failed"):
                committer.drain()
        finally:
            committer.close()


class TestCommitStats:
    def test_queued_then_retired(self):
        gate = threading.Event()
        store = FakeStore(block=gate)
        committer = AsyncCommitter(store, max_pending=2)
        try:
            committer.submit(1)
            committer.submit(2)
            stats = store.commit_stats()
            assert stats["queued_bytes"] == 100 + 200
            assert stats["committed_bytes"] == 0
            gate.set()
            committer.drain()
            stats = store.commit_stats()
            assert stats["queued_bytes"] == 0
        finally:
            committer.close()

    def test_no_torn_reads_under_concurrent_commits(self):
        # Hammer commit_stats from the "solve thread" while the committer
        # retires layers; every snapshot must be internally consistent
        # (queued_bytes only ever holds whole per-layer contributions).
        store = FakeStore(commit_s=0.002)
        committer = AsyncCommitter(store, max_pending=4)
        seen = []

        def reader():
            for _ in range(300):
                seen.append(store.commit_stats()["queued_bytes"])

        thread = threading.Thread(target=reader)
        try:
            thread.start()
            for j in range(1, 9):
                committer.submit(j)
            committer.drain()
            thread.join(timeout=30.0)
        finally:
            committer.close()
        partial_sums = {
            sum(100 * j for j in range(lo, hi + 1))
            for lo in range(1, 9)
            for hi in range(lo - 1, 9)
        } | {0}
        assert set(seen) <= partial_sums


class TestEndToEnd:
    def _solve(self, tmp_path, name, commit):
        spec = StoreSpec(kind="mmap", spill_dir=os.fspath(tmp_path / name))
        return solve(
            PROBLEM, backend="parallel", workers=1, store=spec, commit=commit
        )

    def test_async_solve_matches_sync_bytes(self, tmp_path):
        sync = self._solve(tmp_path, "sync", "sync")
        async_ = self._solve(tmp_path, "async", "async")
        assert np.array_equal(sync.cost, async_.cost)
        assert np.array_equal(sync.best_action, async_.best_action)
        assert np.array_equal(async_.cost, REF.cost)
        # Durable artifacts are byte-identical too: same slabs, same
        # manifest layer entries (sha256 + sizes).
        for j in range(1, PROBLEM.k + 1):
            slab = f"layers/layer_{j:02d}.slab"
            a = (tmp_path / "sync" / slab).read_bytes()
            b = (tmp_path / "async" / slab).read_bytes()
            assert a == b, f"slab bytes differ for layer {j}"
        with open(tmp_path / "sync" / "manifest.json") as fh:
            m_sync = json.load(fh)
        with open(tmp_path / "async" / "manifest.json") as fh:
            m_async = json.load(fh)
        assert m_sync["layers"] == m_async["layers"]
        assert m_async["complete"] is True

    def test_async_metrics_present(self, tmp_path):
        result = self._solve(tmp_path, "m", "async")
        assert result.metrics["commit.async"] == PROBLEM.k
        assert "commit.overlap_s" in result.metrics
        assert result.metrics["store.commits"] == PROBLEM.k

    def test_sync_solve_has_no_async_commits(self, tmp_path):
        result = self._solve(tmp_path, "s", "sync")
        assert result.metrics.get("commit.async", 0) == 0

    def test_env_typo_fails_before_any_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv(COMMIT_MODE_ENV, "pipelined")
        with pytest.raises(InvalidProblem, match="REPRO_COMMIT_MODE"):
            self._solve(tmp_path, "t", None)

    def test_checkpointed_ram_solve_async(self, tmp_path):
        # The RAM store persists through its checkpoint journal; async
        # mode must produce the same tables and clean up on success.
        ckpt = tmp_path / "ckpt"
        result = solve(
            PROBLEM,
            backend="parallel",
            workers=1,
            checkpoint=os.fspath(ckpt),
            commit="async",
        )
        assert np.array_equal(result.cost, REF.cost)
        assert not ckpt.exists()

    def test_mmap_store_commit_nbytes(self, tmp_path):
        store = MmapStore(PROBLEM, spill_dir=os.fspath(tmp_path / "sp"))
        store.open()
        try:
            total = sum(store.commit_nbytes(j) for j in range(1, PROBLEM.k + 1))
            # Every mask except the empty set, cost + best halves.
            assert total == ((1 << PROBLEM.k) - 1) * 16
        finally:
            store.close()
