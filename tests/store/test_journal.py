"""The slab journal shared by both durable stores.

Two stores, one durable format: the spill store and in-RAM tables under
``checkpoint=DIR`` both commit through :class:`SlabJournal`.  This suite
pins what is specific to the journal itself — the order it indexes
through, its cleanup of a user-supplied checkpoint directory, and the
telemetry a checkpointed solve reports.
"""

import errno
import hashlib
import os

import numpy as np
import pytest

from repro.core import kernels, solve
from repro.core.generators import random_instance
from repro.core.kernels import (
    BEST_DTYPE,
    COST_DTYPE,
    ORDER_DTYPE,
    LayerPlan,
    popcount_order_into,
)
from repro.core.sequential import solve_dp_reference
from repro.core.supervisor import ResiliencePolicy
from repro.obs import Tracer
from repro.store import MmapStore, RamStore, journal
from repro.store.journal import MANIFEST_NAME, order_digest
from repro.util.bitops import popcount_array

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=61)
REF = solve_dp_reference(PROBLEM)


def generated_order(k: int) -> np.ndarray:
    out = np.full(1 << k, -1, dtype=ORDER_DTYPE)
    popcount_order_into(out, k)
    return out


def argsort_oracle(k: int) -> tuple:
    """``(order, starts)`` by a stable argsort of every mask's popcount."""
    layer_of = popcount_array(np.arange(1 << k, dtype=np.int64), k)
    order = np.argsort(layer_of, kind="stable")
    return order, np.searchsorted(layer_of[order], np.arange(k + 2))


class TestOrderGeneration:
    """Order generation and ``LayerPlan`` against the stable-argsort oracle."""

    def assert_matches_oracle(self, k):
        order, starts = argsort_oracle(k)
        plan = LayerPlan(k)
        assert np.array_equal(generated_order(k), order)
        assert np.array_equal(plan.order, order)
        assert np.array_equal(plan.starts, starts)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 19])
    def test_matches_layer_plan(self, k):
        self.assert_matches_oracle(k)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 19])
    def test_matches_layer_plan_with_layers_split_across_chunks(
        self, monkeypatch, k
    ):
        # 8-mask chunks split every layer of k >= 4 into many runs.
        monkeypatch.setattr(kernels, "_ORDER_CHUNK", 8)
        self.assert_matches_oracle(k)

    def test_spill_order_sha_is_the_canonical_digest(self, tmp_path):
        # order.dat is byte-identical to LayerPlan.order, so the digest a
        # spill manifest records is the one a checkpoint journal records
        # — and spill directories written before stay valid.
        store = MmapStore(PROBLEM, spill_dir=str(tmp_path / "spill"))
        store.open()
        try:
            sha = store._journal.manifest["order_sha"]
        finally:
            store.close()
        plan_sha = hashlib.sha256(LayerPlan(PROBLEM.k).order.tobytes()).hexdigest()
        assert sha == plan_sha == order_digest(PROBLEM.k)


class TestCheckpointPath:
    def test_cleanup_unlinks_manifest_first(self, tmp_path, monkeypatch):
        # A removal interrupted half-way must leave slabs no manifest
        # vouches for, never a manifest naming deleted slabs.
        removed = []
        real_unlink = os.unlink

        def unlink(path):
            removed.append(os.path.basename(path))
            real_unlink(path)

        monkeypatch.setattr(journal.os, "unlink", unlink)
        ckpt = tmp_path / "ckpt"
        solve(PROBLEM, backend="parallel", workers=1, checkpoint=str(ckpt))
        assert removed[0] == MANIFEST_NAME
        assert {f"layer_{j:02d}.slab" for j in range(1, PROBLEM.k + 1)} <= set(removed)
        assert not ckpt.exists()

    def test_cleanup_keeps_directories_holding_foreign_files(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        (ckpt / "layers").mkdir(parents=True)
        (ckpt / "layers" / "README").write_text("not the journal's")
        (ckpt / "run.log").write_text("not the journal's either")
        result = solve(PROBLEM, backend="parallel", workers=1, checkpoint=str(ckpt))
        assert np.array_equal(result.cost, REF.cost)
        assert sorted(os.listdir(ckpt)) == ["layers", "run.log"]
        assert os.listdir(ckpt / "layers") == ["README"]

    def test_keep_checkpoint_marks_the_journal_complete(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        keep = ResiliencePolicy(keep_checkpoint=True)
        solve(PROBLEM, backend="parallel", workers=1, checkpoint=str(ckpt), policy=keep)
        store = RamStore(PROBLEM, policy=ResiliencePolicy(checkpoint=ckpt))
        store.open()
        try:
            assert store._journal.manifest["complete"] is True
        finally:
            store.close()


class TestDegradation:
    def test_unwritable_checkpoint_degrades_at_open(self, tmp_path, monkeypatch):
        # A journal whose manifest cannot be written (a full disk) takes
        # the spill store's open-time path: the solve runs unpersisted
        # in RAM, with the degradation on record, and frees its tables.
        def full_disk(path, payload, *, fsync=True):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(journal, "atomic_write_bytes", full_disk)
        result = solve(
            PROBLEM, backend="parallel", workers=1, checkpoint=str(tmp_path / "ckpt")
        )
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["degraded"] is True
        (event,) = [
            e for e in result.recovery["events"] if e["kind"] == "store-degraded"
        ]
        assert event["fallback"] == "ram" and "manifest write failed" in event["reason"]


class TestTelemetryParity:
    @pytest.mark.parametrize("store", ["mmap", "ram"])
    def test_checkpointed_and_spilled_solves_report_alike(self, tmp_path, store):
        where = (
            {"store": "mmap", "spill_dir": str(tmp_path / "spill")}
            if store == "mmap"
            else {"checkpoint": str(tmp_path / "ckpt")}
        )
        tracer = Tracer()
        result = solve(PROBLEM, backend="parallel", workers=1, tracer=tracer, **where)
        m = result.metrics
        assert m["store.commits"] == PROBLEM.k
        slab = COST_DTYPE.itemsize + BEST_DTYPE.itemsize
        assert m["store.bytes_written"] == ((1 << PROBLEM.k) - 1) * slab
        assert m["store.fsync_s"]["count"] == PROBLEM.k
        names = [e["name"] for e in tracer.raw_events() if e.get("cat") == "store"]
        assert names.count("store.commit") == PROBLEM.k
        assert "store.checkpoint" not in names
        # One metrics key set whatever the store.
        plain = solve(PROBLEM, backend="parallel", workers=1)
        assert set(m) == set(plain.metrics)
