"""The async commit pipeline: ordering, bounds, drain, error surfacing.

The :class:`~repro.store.pipeline.AsyncCommitter` is tested against a
fake store first (ordering/drain/error semantics and the byte counts are
pure thread mechanics), then end-to-end: an mmap solve must write the
reference tables, a complete manifest, and progress bytes that cover
every computed layer.
"""

import io
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import solve
from repro.core.errors import SolverError, StoreWriteError
from repro.core.generators import random_instance
from repro.core.kernels import BEST_DTYPE, COST_DTYPE
from repro.core.sequential import solve_dp_reference
from repro.obs import ProgressReporter
from repro.store import AsyncCommitter, LayerStore, MmapStore, StoreSpec, pipeline

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=33)
REF = solve_dp_reference(PROBLEM)
# Slab bytes per committed mask: its cost, then its best action.
SLAB = COST_DTYPE.itemsize + BEST_DTYPE.itemsize


class FakeStore(LayerStore):
    """Records commit order; optionally blocks or fails per layer."""

    def __init__(self, *, fail_layers=(), block=None, commit_s=0.0):
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
        return self.commit_nbytes(j)


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

    def test_bounded_queue_blocks_submit(self, monkeypatch):
        # MAX_PENDING=1: with one commit in flight and one queued, the
        # next submit must wait for a slot instead of growing a backlog.
        monkeypatch.setattr(pipeline, "MAX_PENDING", 1)
        gate = threading.Event()
        store = FakeStore(block=gate)
        committer = AsyncCommitter(store)
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

    def test_queued_commits_discarded_after_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PENDING", 2)
        gate = threading.Event()
        store = FakeStore(fail_layers={1}, block=gate)
        committer = AsyncCommitter(store)
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
    def test_queued_then_retired(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PENDING", 2)
        gate = threading.Event()
        store = FakeStore(block=gate)
        committer = AsyncCommitter(store)
        try:
            committer.submit(1)
            committer.submit(2)
            stats = committer.stats()
            assert stats["queued_bytes"] == 100 + 200
            assert stats["committed_bytes"] == 0
            gate.set()
            committer.drain()
            stats = committer.stats()
            assert stats["queued_bytes"] == 0
            assert stats["committed_bytes"] == 100 + 200
        finally:
            committer.close()

    def test_no_torn_reads_under_concurrent_commits(self, monkeypatch):
        # Hammer stats() from reader threads while the committer retires
        # layers.  No layer fails, so every submitted layer is queued, in
        # flight or committed: each snapshot's committed + queued bytes
        # must be the sum over a prefix of the submitted layers.  A layer
        # counted in both (or in neither) breaks that.
        monkeypatch.setattr(pipeline, "MAX_PENDING", 4)
        store = FakeStore(commit_s=0.002)
        committer = AsyncCommitter(store)
        seen = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                stats = committer.stats()
                seen.append(stats["committed_bytes"] + stats["queued_bytes"])

        readers = [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in readers:
                thread.start()
            for j in range(1, 9):
                committer.submit(j)
            committer.drain()
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
            committer.close()
        assert not any(thread.is_alive() for thread in readers)
        prefix_sums = {sum(100 * j for j in range(1, m + 1)) for m in range(9)}
        assert seen and set(seen) <= prefix_sums
        assert committer.stats() == {"committed_bytes": 3600, "queued_bytes": 0}


class TestEndToEnd:
    def _solve(self, tmp_path, name, problem=PROBLEM, **kw):
        spec = StoreSpec(kind="mmap", spill_dir=os.fspath(tmp_path / name))
        return solve(problem, backend="parallel", workers=1, store=spec, **kw)

    def test_mmap_solve_commits_every_layer(self, tmp_path):
        result = self._solve(tmp_path, "a")
        assert result.cost.tobytes() == REF.cost.tobytes()
        assert result.best_action.tobytes() == REF.best_action.tobytes()
        with open(tmp_path / "a" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["complete"] is True
        assert sorted(manifest["layers"], key=int) == [
            str(j) for j in range(1, PROBLEM.k + 1)
        ]
        # Every slab verifies on reopen: nothing is computed again.
        again = self._solve(tmp_path, "a")
        assert again.metrics["layers.computed"] == 0
        assert again.recovery["resumed_from_layer"] == PROBLEM.k
        assert again.cost.tobytes() == REF.cost.tobytes()

    def test_async_metrics_present(self, tmp_path):
        result = self._solve(tmp_path, "m")
        assert result.metrics["commit.async"] == PROBLEM.k
        assert "commit.overlap_s" in result.metrics
        assert result.metrics["store.commits"] == PROBLEM.k

    def test_progress_bytes_cover_every_computed_layer(self, tmp_path):
        # At each barrier the layer just computed has been submitted, so
        # committed + queued bytes are the slabs of layers 1..layer: one
        # cost and one best action for every mask solved so far except
        # the empty set.
        class Recording(ProgressReporter):
            def __init__(self):
                super().__init__(stream=io.StringIO())
                self.seen = []

            def layer_done(self, layer, masks_done, spilled_bytes=0, queued_bytes=0):
                self.seen.append((layer, masks_done, spilled_bytes + queued_bytes))
                super().layer_done(layer, masks_done, spilled_bytes, queued_bytes)

        problem = random_instance(10, n_tests=6, n_treatments=4, seed=34)
        progress = Recording()
        self._solve(tmp_path, "p", problem, progress=progress)
        assert [layer for layer, _, _ in progress.seen] == list(range(1, 11))
        for layer, masks_done, nbytes in progress.seen:
            assert nbytes == (masks_done - 1) * SLAB, layer

    def test_checkpointed_ram_solve_async(self, tmp_path):
        # The RAM store persists through its checkpoint journal; the
        # committer must produce the same tables and clean up on success.
        ckpt = tmp_path / "ckpt"
        result = solve(
            PROBLEM,
            backend="parallel",
            workers=1,
            checkpoint=os.fspath(ckpt),
        )
        assert np.array_equal(result.cost, REF.cost)
        assert not ckpt.exists()

    def test_mmap_store_commit_nbytes(self, tmp_path):
        store = MmapStore(PROBLEM, spill_dir=os.fspath(tmp_path / "sp"))
        store.open()
        try:
            total = sum(store.commit_nbytes(j) for j in range(1, PROBLEM.k + 1))
            # Every mask except the empty set, cost then best.
            assert total == ((1 << PROBLEM.k) - 1) * SLAB
        finally:
            store.close()
