"""Corruption drills for the spill store.

The durability model (DESIGN.md §5.5): truth lives in the slabs and the
manifest; anything that fails validation on open — flipped bits, torn
sizes, deleted files, a stale temp from a dead process — is *recovered*
by re-deriving the layer from the layers below, bit-for-bit.  Only two
things are loud: unreadable control state (:class:`StoreCorruption`) and
a manifest from a different problem (:class:`CheckpointMismatch`).
"""

import json
import os

import numpy as np
import pytest

from repro.core.errors import CheckpointMismatch, StoreCorruption
from repro.core.generators import random_instance
from repro.core.kernels import BEST_DTYPE, layer_plan
from repro.core.parallel import MIN_SHARD, solve_dp_parallel
from repro.core.sequential import solve_dp_reference
from repro.store import StoreSpec
from repro.store.journal import MANIFEST_NAME

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=31)
REF = solve_dp_reference(PROBLEM)


@pytest.fixture
def spill(tmp_path):
    """A completed, manifest-verified spill directory for PROBLEM."""
    spill_dir = tmp_path / "spill"
    result = solve_dp_parallel(
        PROBLEM, workers=1, store=StoreSpec(kind="mmap", spill_dir=str(spill_dir))
    )
    assert np.array_equal(result.cost, REF.cost)
    return spill_dir


def reopen(spill_dir, workers=1, min_shard=MIN_SHARD):
    return solve_dp_parallel(
        PROBLEM, workers=workers, min_shard=min_shard,
        store=StoreSpec(kind="mmap", spill_dir=str(spill_dir)),
    )


def slab(spill_dir, j):
    return spill_dir / "layers" / f"layer_{j:02d}.slab"


def events_of(result, kind):
    return [e for e in result.recovery["events"] if e["kind"] == kind]


class TestSlabCorruptionIsRecovered:
    def test_bitflip_rederives_layer(self, spill):
        raw = bytearray(slab(spill, 3).read_bytes())
        raw[7] ^= 0x40
        slab(spill, 3).write_bytes(bytes(raw))
        result = reopen(spill)
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["rederived"] == 1
        assert events_of(result, "slab-corrupt") == [
            {"kind": "slab-corrupt", "layer": 3}
        ]
        # Only the corrupt layer was recomputed.
        assert [e["layer"] for e in result.recovery["layers"]] == [3]

    def test_truncated_slab_rederives_layer(self, spill):
        raw = slab(spill, 4).read_bytes()
        slab(spill, 4).write_bytes(raw[: len(raw) // 2])
        result = reopen(spill)
        assert np.array_equal(result.cost, REF.cost)
        assert events_of(result, "slab-corrupt") == [
            {"kind": "slab-corrupt", "layer": 4}
        ]

    def test_deleted_slab_rederives_layer(self, spill):
        os.unlink(slab(spill, 2))
        result = reopen(spill)
        assert np.array_equal(result.cost, REF.cost)
        assert events_of(result, "slab-missing") == [
            {"kind": "slab-missing", "layer": 2}
        ]
        assert [e["layer"] for e in result.recovery["layers"]] == [2]

    def test_every_slab_gone_recomputes_everything(self, spill):
        for j in range(1, PROBLEM.k + 1):
            os.unlink(slab(spill, j))
        result = reopen(spill)
        assert np.array_equal(result.cost, REF.cost)
        assert result.recovery["rederived"] == PROBLEM.k
        assert len(result.recovery["layers"]) == PROBLEM.k

    def test_corruption_recovery_under_worker_pool(self, spill):
        raw = bytearray(slab(spill, 3).read_bytes())
        raw[0] ^= 0x01
        slab(spill, 3).write_bytes(bytes(raw))
        result = reopen(spill, workers=2)
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)

    def test_rederived_layer_recommits_durably(self, spill):
        os.unlink(slab(spill, 2))
        reopen(spill)
        # The re-derived slab is back on disk and verifies: a third open
        # resumes instantly.
        third = reopen(spill)
        assert third.recovery["resumed_from_layer"] == PROBLEM.k
        assert third.recovery["layers"] == []


class TestTableGarbageOnResume:
    @pytest.mark.parametrize("workers,min_shard", [(1, MIN_SHARD), (2, 1)])
    def test_garbage_in_unfinished_layers_gives_reference_bytes(
        self, spill, workers, min_shard
    ):
        # Layers 3..k lose their slabs, and the table files hold NaN
        # costs and garbage actions at those layers' masks.
        plan = layer_plan(PROBLEM.k)
        cost = np.memmap(spill / "cost.dat", dtype=np.float64, mode="r+")
        best = np.memmap(spill / "best.dat", dtype=BEST_DTYPE, mode="r+")
        for j in range(3, PROBLEM.k + 1):
            os.unlink(slab(spill, j))
            cost[plan.layer(j)] = np.nan
            best[plan.layer(j)] = 12345
        cost.flush()
        best.flush()
        del cost, best
        result = reopen(spill, workers=workers, min_shard=min_shard)
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        layers = result.recovery["layers"]
        assert [e["layer"] for e in layers] == list(range(3, PROBLEM.k + 1))
        if workers > 1:
            assert "pool" in [e["mode"] for e in layers]


class TestControlStateIsLoud:
    def test_garbage_manifest_raises(self, spill):
        (spill / MANIFEST_NAME).write_bytes(b"{not json")
        with pytest.raises(StoreCorruption, match="unreadable"):
            reopen(spill)

    def test_wrong_format_raises(self, spill):
        path = spill / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="format"):
            reopen(spill)

    def test_format_one_is_refused_naming_both_formats(self, spill):
        # Format 1 slabs hold int64 best actions; re-deriving them would
        # silently drop a checkpoint the caller asked to resume.
        path = spill / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        assert manifest["format"] == 2
        manifest["format"] = 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match=r"has format 1\b.*only format 2\b"):
            reopen(spill)

    def test_missing_keys_raise(self, spill):
        path = spill / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["order_sha"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="order_sha"):
            reopen(spill)

    def test_wrong_problem_raises(self, spill):
        other = random_instance(6, n_tests=6, n_treatments=4, seed=99)
        with pytest.raises(CheckpointMismatch, match="different problem"):
            solve_dp_parallel(
                other, workers=1,
                store=StoreSpec(kind="mmap", spill_dir=str(spill)),
            )

    def test_out_of_range_layer_key_raises(self, spill):
        path = spill / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["layers"]["40"] = {"sha256": "x", "nbytes": 1}
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruption, match="outside"):
            reopen(spill)


class TestDerivableStateIsRepaired:
    def test_corrupt_order_file_is_rebuilt(self, spill):
        order = spill / "order.dat"
        raw = bytearray(order.read_bytes())
        raw[11] ^= 0xFF
        order.write_bytes(bytes(raw))
        result = reopen(spill)
        # order.dat is derivable from k alone: rebuilt, then the (still
        # valid) slabs scatter through the repaired order.
        assert events_of(result, "order-rebuilt") == [{"kind": "order-rebuilt"}]
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["layers"] == []

    def test_stale_tmp_files_swept(self, spill):
        litter = spill / "layers" / "layer_03.slab.tmp"
        litter.write_bytes(b"half a slab from a dead process")
        result = reopen(spill)
        assert not litter.exists()
        assert events_of(result, "tmp-swept") == [{"kind": "tmp-swept", "count": 1}]
        assert np.array_equal(result.cost, REF.cost)
