"""Lanes of the packed backend against the single-instance machines.

Every lane of a ``PackedBVM(r, L, lanes=B)`` must be bit-for-bit the
machine state a standalone one-lane machine — and the boolean oracle —
reaches on the same program and the same lane data: registers, output
log and cycle count.  A lane never reads or writes another lane, and a
lane outside the machine is rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvm.isa import FN, A, B, E, Instruction, Operand, R
from repro.bvm.machine import BVM
from repro.bvm.packed import PackedBVM
from repro.bvm.program import CompiledProgram
from repro.obs import trace as obs_trace
from tests.bvm.test_differential import instructions

REGS_TO_CHECK = [R(j) for j in range(4)] + [A, B, E]


def _seed_lanes(batch, singles, rng):
    for lane, m in enumerate(singles):
        for reg in REGS_TO_CHECK:
            row = rng.integers(0, 2, batch.n).astype(bool)
            m.poke(reg, row)
            batch.poke(reg, row, lane)
        bits = rng.integers(0, 2, 8).astype(bool).tolist()
        m.feed_input(bits)
        batch.feed_input(bits, lane)


def _lanes_agree(batch, singles):
    for lane, m in enumerate(singles):
        for reg in REGS_TO_CHECK:
            if not np.array_equal(batch.read(reg, lane), m.read(reg)):
                return False
        if [bool(x) for x in batch.output_logs[lane]] != [
            bool(x) for x in m.output_log
        ]:
            return False
        if batch.cycles != m.cycles:
            return False
    return True


def _tail_clear(machine) -> bool:
    """No row holds a bit above the last lane's last PE."""
    return all(row >> (machine.lanes * machine.n) == 0 for row in machine._rows)


class TestLockstepDifferential:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=10_000))
    def test_random_programs_match_packed_r1(self, data, seed):
        r, Q, lanes = 1, 2, 3
        batch = PackedBVM(r, L=16, lanes=lanes)
        singles = [BVM(r, L=16, backend="packed") for _ in range(lanes)]
        rng = np.random.default_rng(seed)
        _seed_lanes(batch, singles, rng)
        program = data.draw(st.lists(instructions(Q), min_size=1, max_size=8))
        for instr in program:
            batch.execute(instr)
            for m in singles:
                m.execute(instr)
        assert _lanes_agree(batch, singles)

    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=10_000))
    def test_random_programs_match_packed_r2(self, data, seed):
        r, Q, lanes = 2, 4, 2
        batch = PackedBVM(r, L=16, lanes=lanes)
        singles = [BVM(r, L=16, backend="packed") for _ in range(lanes)]
        rng = np.random.default_rng(seed)
        _seed_lanes(batch, singles, rng)
        program = data.draw(st.lists(instructions(Q), min_size=1, max_size=5))
        for instr in program:
            batch.execute(instr)
            for m in singles:
                m.execute(instr)
        assert _lanes_agree(batch, singles)

    @settings(max_examples=40, deadline=None)
    @given(
        st.data(),
        st.sampled_from([1, 2]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_random_programs_match_bool(self, data, r, lanes, seed):
        # Each lane held to its own boolean oracle, through the compiled
        # replay (the lane map) rather than per-instruction execute.
        batch = PackedBVM(r, L=16, lanes=lanes)
        oracles = [BVM(r, L=16, backend="bool") for _ in range(lanes)]
        _seed_lanes(batch, oracles, np.random.default_rng(seed))
        program = data.draw(
            st.lists(instructions(1 << r), min_size=1, max_size=8)
        )
        compiled = CompiledProgram(program, r, 16)
        assert compiled.run(batch) == len(program)
        for m in oracles:
            m.run(program)
        assert _lanes_agree(batch, oracles)
        assert _tail_clear(batch)

    def test_batch_of_one_equals_single(self):
        r = 2
        batch = PackedBVM(r, L=16, lanes=1)
        single = BVM(r, L=16, backend="packed")
        rng = np.random.default_rng(3)
        _seed_lanes(batch, [single], rng)
        program = [
            Instruction(dest=R(0), f=FN.XOR, fsrc=R(0), dsrc=Operand(R(1), "S")),
            Instruction(dest=R(2), f=FN.D, fsrc=R(2), dsrc=Operand(R(0), "I")),
            Instruction(dest=E, f=FN.F, fsrc=R(3), dsrc=Operand(R(3))),
            Instruction(dest=R(1), f=FN.OR, fsrc=R(1), dsrc=Operand(R(2), "L"),
                        g=FN.AND),
            Instruction(dest=E, f=FN.ONE, fsrc=E, dsrc=Operand(E)),
        ]
        for instr in program:
            batch.execute(instr)
            single.execute(instr)
        assert _lanes_agree(batch, [single])


class TestLaneIsolation:
    @pytest.mark.parametrize("mode", ["S", "P", "L", "XS", "XP", "I"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_ones_in_one_lane_stay_there(self, mode, r):
        # All-ones in one lane, zeros elsewhere: the hot lane ends as a
        # one-lane machine does, and no other lane changes.
        lanes = 3
        program = [
            Instruction(dest=R(1), f=FN.D, fsrc=R(1), dsrc=Operand(R(0), mode))
        ]
        for hot in range(lanes):
            m = PackedBVM(r, L=4, lanes=lanes)
            alone = PackedBVM(r, L=4)
            for machine, lane in ((m, hot), (alone, 0)):
                machine.poke(R(0), np.ones(machine.n, dtype=bool), lane)
                machine.feed_input([True], lane)
                machine.run(program)
            for lane in range(lanes):
                if lane == hot:
                    want = alone.plane(R(0)), alone.plane(R(1)), alone.output_log
                else:
                    want = 0, 0, [False] if mode == "I" else []
                got = m.plane(R(0), lane), m.plane(R(1), lane), m.output_logs[lane]
                assert got == want, (mode, hot, lane)
            assert _tail_clear(m)


class TestHostAccess:
    def test_poke_read_roundtrip_per_lane(self):
        batch = PackedBVM(1, L=8, lanes=3)
        rng = np.random.default_rng(0)
        rows = [rng.integers(0, 2, batch.n).astype(bool) for _ in range(3)]
        for lane, row in enumerate(rows):
            batch.poke(R(0), row, lane)
        for lane, row in enumerate(rows):
            assert batch.read(R(0), lane).tolist() == row.tolist()
        # One pack over the (lanes, n) array loads the same row.
        whole = PackedBVM(1, L=8, lanes=3)
        whole.poke(R(0), np.stack(rows))
        assert whole.plane(R(0), 2) == batch.plane(R(0), 2)
        assert whole._rows == batch._rows

    def test_poke_lane_shape_checked(self):
        batch = PackedBVM(1, L=8, lanes=2)
        with pytest.raises(ValueError, match="shape"):
            batch.poke(R(0), np.zeros(batch.n + 1, dtype=bool), 0)
        with pytest.raises(ValueError, match="shape"):
            batch.poke(R(0), np.zeros((3, batch.n), dtype=bool))

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError, match="lanes"):
            PackedBVM(1, lanes=0)

    @pytest.mark.parametrize("lane", [-1, 2])
    def test_lane_outside_machine_rejected(self, lane):
        m = PackedBVM(1, L=8, lanes=2)
        row = np.ones(m.n, dtype=bool)
        for call in (
            lambda: m.poke(R(0), row, lane),
            lambda: m.read(R(0), lane),
            lambda: m.plane(R(0), lane),
            lambda: m.feed_input([True], lane),
        ):
            with pytest.raises(ValueError, match="lane"):
                call()
        assert _tail_clear(m)
        assert all(not q for q in m.input_queues)

    def test_tail_bits_stay_zero(self):
        # The tail invariant (bits >= lanes * n are zero) must survive
        # pokes of all-ones rows and constant-1 writes.
        batch = PackedBVM(1, L=8, lanes=2)
        batch.poke(R(0), np.ones(batch.n, dtype=bool), 1)
        full = batch.topology.full_mask
        assert batch.plane(R(0), 1) == full
        assert batch.plane(R(0), 0) == 0
        batch.execute(
            Instruction(dest=R(1), f=FN.ONE, fsrc=R(1), dsrc=Operand(R(1)))
        )
        for lane in range(2):
            assert batch.plane(R(1), lane) == full
        assert _tail_clear(batch)


class TestTelemetry:
    def test_replay_emits_one_span_with_batch_attr(self):
        program = [
            Instruction(dest=R(0), f=FN.ONE, fsrc=R(0), dsrc=Operand(R(0)))
        ] * 3
        batch = PackedBVM(1, L=8, lanes=5)
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            batch.run(program)
        replays = [e for e in tracer.raw_events() if e["name"] == "bvm.replay"]
        assert len(replays) == 1
        assert replays[0]["args"]["batch"] == 5
        assert replays[0]["args"]["cycles"] == 3

    def test_tracing_does_not_change_state(self):
        program = [
            Instruction(dest=R(0), f=FN.XOR, fsrc=R(0), dsrc=Operand(R(1)))
        ] * 4

        def run(traced):
            batch = PackedBVM(1, L=8, lanes=2)
            r = np.random.default_rng(11)
            for lane in range(2):
                batch.poke(R(1), r.integers(0, 2, batch.n).astype(bool), lane)
            if traced:
                with obs_trace.tracing(obs_trace.Tracer()):
                    batch.run(program)
            else:
                batch.run(program)
            return [batch.plane(R(0), lane) for lane in range(2)]

        assert run(False) == run(True)
