"""SIGKILL crash drills through the real commit protocol.

Each drill SIGKILLs a subprocess solve at one point of the slab commit
protocol (``REPRO_STORE_CRASH``), resumes from the surviving journal
directory, and holds the resumed tables bit-for-bit to an undisturbed
solve.  The four points bracket both durability boundaries of the
protocol — see :mod:`repro.store.drill` — and mean the same for the
spill store and for in-RAM tables under ``--checkpoint``.
"""

import pytest

from repro.core.errors import InvalidProblem
from repro.core.faults import CRASH_POINTS, maybe_crash, parse_crash_spec
from repro.core.generators import random_instance
from repro.store.drill import run_crash_drill

pytestmark = pytest.mark.slow

PROBLEM = random_instance(7, n_tests=6, n_treatments=4, seed=51)


class TestCrashSpecParsing:
    def test_point_with_layer(self):
        assert parse_crash_spec("pre-rename:layer=3") == ("pre-rename", 3)

    def test_point_alone_matches_any_layer(self):
        assert parse_crash_spec("mid-write") == ("mid-write", None)

    def test_unknown_point_rejected(self):
        with pytest.raises(InvalidProblem):
            parse_crash_spec("post-fsync:layer=1")

    def test_maybe_crash_without_spec_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_CRASH", raising=False)
        maybe_crash("pre-rename", 3)  # must not kill the test process


class TestDrills:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path, point):
        self.drill(tmp_path, point, "mmap")

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_checkpoint_sigkill_then_resume_is_bit_identical(self, tmp_path, point):
        self.drill(tmp_path, point, "ram")

    @staticmethod
    def drill(tmp_path, point, store):
        report = run_crash_drill(
            PROBLEM, point, workdir=str(tmp_path / point), layer=3, store=store
        )
        assert report["store"] == store
        assert report["killed"], report
        assert report["identical"], report
        if point == "post-commit":
            # The kill landed after the manifest entry: layer 3 is
            # durable, the resume skips it.
            assert report["committed_at_kill"] == 3
            assert report["resumed_from_layer"] == 3
        else:
            # Before the manifest entry: layers 1-2 are durable, layer 3
            # is recomputed on resume.
            assert report["committed_at_kill"] == 2
            assert report["resumed_from_layer"] == 2

    def test_unknown_point_raises(self, tmp_path):
        with pytest.raises(InvalidProblem, match="crash point"):
            run_crash_drill(PROBLEM, "post-fsync", workdir=str(tmp_path))

    def test_unknown_store_raises(self, tmp_path):
        with pytest.raises(InvalidProblem, match="drill store"):
            run_crash_drill(PROBLEM, "pre-rename", workdir=str(tmp_path), store="tape")

    def test_out_of_range_layer_raises(self, tmp_path):
        with pytest.raises(InvalidProblem, match="layer"):
            run_crash_drill(
                PROBLEM, "pre-rename", workdir=str(tmp_path), layer=99
            )
