"""Injected storage faults: detected or recovered, never silent.

``REPRO_FAULT_SPEC`` carries four storage fault kinds fired at slab
commit time (see :mod:`repro.core.faults`).  Both journaled stores — the
mmap spill store and in-RAM tables under ``checkpoint=DIR`` — commit
through the same slab journal, so the contract holds for each:

* ``torn-write`` / ``bitflip`` — the bytes on disk are corrupted while
  the manifest records the true payload's checksum, so the *next open*
  must flag the slab and re-derive it (the solve that wrote it is
  unaffected: its tables were never the corrupted copy);
* ``enospc`` — the commit fails; the solve degrades to in-RAM tables
  when they fit ``REPRO_RAM_BUDGET_BYTES`` (observable in the recovery
  log) and fails loudly when they do not;
* ``slow-io`` — pure latency, no effect on any byte.
"""

import numpy as np
import pytest

from repro.core.errors import InvalidProblem, SolverError
from repro.core.faults import parse_fault_spec, storage_faults_for
from repro.core.generators import random_instance
from repro.core.parallel import solve_dp_parallel
from repro.core.sequential import solve_dp_reference
from repro.core.supervisor import ResiliencePolicy
from repro.store import StoreSpec

PROBLEM = random_instance(6, n_tests=6, n_treatments=4, seed=41)
REF = solve_dp_reference(PROBLEM)


def spilled_solve(spill_dir, monkeypatch=None, fault=None, workers=1, store="mmap"):
    """Solve into the journal at ``spill_dir`` with ``fault`` armed.

    ``store="mmap"`` spills there; ``store="ram"`` keeps the tables in
    RAM and checkpoints there (kept after success, so it can be
    reopened).
    """
    if store == "mmap":
        where = {"store": StoreSpec(kind="mmap", spill_dir=str(spill_dir))}
    else:
        policy = ResiliencePolicy(checkpoint=str(spill_dir), keep_checkpoint=True)
        where = {"policy": policy}
    if fault is not None:
        monkeypatch.setenv("REPRO_FAULT_SPEC", fault)
    try:
        return solve_dp_parallel(PROBLEM, workers=workers, **where)
    finally:
        if fault is not None:
            monkeypatch.delenv("REPRO_FAULT_SPEC")


class TestSpecGrammar:
    def test_storage_kinds_parse(self):
        faults = parse_fault_spec("torn-write:layer=3;bitflip;enospc;slow-io:ms=5")
        assert [f.kind for f in faults] == [
            "torn-write", "bitflip", "enospc", "slow-io"
        ]
        assert all(f.is_storage for f in faults)

    def test_shard_selector_rejected_for_storage(self):
        # Storage faults fire in the parent at commit time; a shard
        # selector can never match and must not parse quietly.
        with pytest.raises(InvalidProblem, match="shard"):
            parse_fault_spec("torn-write:shard=1")

    def test_storage_faults_for_matches_layer_and_attempt(self):
        spec = "bitflip:layer=3"
        assert [f.kind for f in storage_faults_for(3, 0, spec=spec)] == ["bitflip"]
        assert list(storage_faults_for(2, 0, spec=spec)) == []
        # times=1 default: the re-commit after recovery escapes the fault.
        assert list(storage_faults_for(3, 1, spec=spec)) == []

    def test_worker_faults_not_returned_as_storage(self):
        assert list(storage_faults_for(3, 0, spec="kill:layer=3")) == []

    def test_typod_spec_fails_solve_before_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "torn-wrote:layer=1")
        with pytest.raises(InvalidProblem, match="unknown kind"):
            solve_dp_parallel(
                PROBLEM, workers=1,
                store=StoreSpec(kind="mmap", spill_dir=str(tmp_path / "s")),
            )


class TestCorruptingFaultsAreCaughtOnReopen:
    @pytest.mark.parametrize("store", ["mmap", "ram"])
    @pytest.mark.parametrize("kind", ["torn-write", "bitflip"])
    def test_corruption_detected_and_rederived(
        self, tmp_path, monkeypatch, kind, store
    ):
        spill = tmp_path / "spill"
        # The writing solve is unaffected: its tables never held the
        # corrupted bytes.
        first = spilled_solve(
            spill, monkeypatch, fault=f"{kind}:layer=3", store=store
        )
        assert np.array_equal(first.cost, REF.cost)

        # The next open must catch the checksum mismatch — silence here
        # would resume from rotted bytes.
        second = spilled_solve(spill, store=store)
        assert np.array_equal(second.cost, REF.cost)
        assert np.array_equal(second.best_action, REF.best_action)
        assert second.recovery["rederived"] == 1
        assert {"kind": "slab-corrupt", "layer": 3} in second.recovery["events"]
        assert [e["layer"] for e in second.recovery["layers"]] == [3]


class TestEnospc:
    @staticmethod
    def degrades_and_finishes(spill, monkeypatch, store):
        result = spilled_solve(spill, monkeypatch, fault="enospc:layer=3", store=store)
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)
        assert result.recovery["degraded"] is True
        degr = [e for e in result.recovery["events"] if e["kind"] == "store-degraded"]
        assert degr and degr[0]["fallback"] == "ram"
        assert "ENOSPC" in degr[0]["reason"]

    def test_degrades_to_ram_and_finishes(self, tmp_path, monkeypatch):
        self.degrades_and_finishes(tmp_path / "spill", monkeypatch, "mmap")

    def test_checkpoint_degrades_to_ram_and_finishes(self, tmp_path, monkeypatch):
        # The in-RAM store's checkpoint journal takes the same path: the
        # solve finishes unpersisted, with the degradation on record.
        self.degrades_and_finishes(tmp_path / "ckpt", monkeypatch, "ram")

    def test_degradation_respects_ram_budget(self, tmp_path, monkeypatch):
        # Tables over the budget: the spill store existed to honour the
        # limit, so falling back to RAM is refused and the original
        # disk failure surfaces loudly.
        monkeypatch.setenv("REPRO_RAM_BUDGET_BYTES", "1024")  # < the 2 KiB of k=6 tables
        spill = tmp_path / "spill"
        with pytest.raises(SolverError, match="not possible"):
            spilled_solve(spill, monkeypatch, fault="enospc:layer=3")

    def test_degraded_solve_still_bit_identical_with_pool(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "enospc:layer=2")
        try:
            result = solve_dp_parallel(
                PROBLEM, workers=2, min_shard=1,
                store=StoreSpec(kind="mmap", spill_dir=str(spill)),
            )
        finally:
            monkeypatch.delenv("REPRO_FAULT_SPEC")
        # Layers 1-2 ran on the pool against the spill tables; 3-6 ran
        # in-process on the adopted RAM tables.  Same bytes regardless.
        assert np.array_equal(result.cost, REF.cost)
        assert np.array_equal(result.best_action, REF.best_action)


class TestSlowIo:
    def test_latency_only(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        result = spilled_solve(spill, monkeypatch, fault="slow-io:ms=20:layer=2")
        assert np.array_equal(result.cost, REF.cost)
        # No recovery events: latency is not a failure.
        assert result.recovery["rederived"] == 0
        assert result.recovery["degraded"] is False
        # And the commits it slowed are intact: instant resume.
        again = spilled_solve(spill)
        assert again.recovery["resumed_from_layer"] == PROBLEM.k
