"""Program builder and register pool."""

import numpy as np
import pytest

from repro.bvm.isa import A, FN, R
from repro.bvm.machine import BVM
from repro.bvm.program import ProgramBuilder, RegisterPool


class TestRegisterPool:
    def test_alloc_low_first(self):
        pool = RegisterPool(0, 8)
        regs = pool.alloc(3)
        assert [r.index for r in regs] == [0, 1, 2]

    def test_exhaustion(self):
        pool = RegisterPool(0, 2)
        pool.alloc(2)
        with pytest.raises(RuntimeError):
            pool.alloc1()

    def test_free_and_reuse(self):
        pool = RegisterPool(0, 2)
        a = pool.alloc1()
        pool.free(a)
        b = pool.alloc1()
        assert b.index == a.index

    def test_double_free_rejected(self):
        pool = RegisterPool(0, 4)
        a = pool.alloc1()
        pool.free(a)
        with pytest.raises(ValueError):
            pool.free(a)

    def test_reserved_range(self):
        pool = RegisterPool(4, 8)
        assert pool.alloc1().index == 4

    def test_high_water(self):
        pool = RegisterPool(0, 16)
        pool.alloc(5)
        assert pool.high_water == 5

    def test_in_use(self):
        pool = RegisterPool(0, 8)
        regs = pool.alloc(3)
        assert pool.in_use == 3
        pool.free(*regs)
        assert pool.in_use == 0

    def test_state_restore_replays_allocations(self):
        pool = RegisterPool(0, 8)
        a, b, _ = pool.alloc(3)
        pool.free(b, a)
        state = pool.state()
        other = RegisterPool(0, 8)
        other.restore(state)
        assert other.state() == state
        assert other.alloc(4) == pool.alloc(4)
        assert other.high_water == pool.high_water


class TestProgramBuilder:
    def test_macros_execute(self):
        prog = ProgramBuilder(r=1)
        x = prog.pool.alloc1()
        y = prog.pool.alloc1()
        prog.set_ones(x)
        prog.copy(y, x)
        prog.clear(x)
        m = prog.build_machine()
        prog.run(m)
        assert m.read(y).all()
        assert not m.read(x).any()

    def test_copy_neighbor(self):
        prog = ProgramBuilder(r=1)
        x, y = prog.pool.alloc(2)
        prog.copy_neighbor(y, x, "L")
        m = prog.build_machine()
        vals = np.zeros(m.n, bool)
        vals[0] = True
        m.poke(x, vals)
        prog.run(m)
        assert m.read(y)[2]  # lateral of (1,0) is (0,0)

    def test_logic(self):
        prog = ProgramBuilder(r=1)
        x, y, z = prog.pool.alloc(3)
        prog.set_ones(x)
        prog.logic(z, FN.XOR, x, y)
        m = prog.build_machine()
        prog.run(m)
        assert m.read(z).all()

    def test_enable_macros(self):
        prog = ProgramBuilder(r=1)
        mask, out = prog.pool.alloc(2)
        prog.enable_from(mask)
        prog.set_ones(out)   # gated: only where mask
        prog.enable_all()
        m = prog.build_machine()
        mk = np.zeros(m.n, bool)
        mk[:3] = True
        m.poke(mask, mk)
        prog.run(m)
        assert (m.read(out) == mk).all()

    def test_geometry_mismatch_rejected(self):
        prog = ProgramBuilder(r=1)
        from repro.bvm.machine import BVM

        with pytest.raises(ValueError):
            prog.run(BVM(r=2))

    def test_register_budget_checked(self):
        prog = ProgramBuilder(r=1, L=300)
        prog.pool.alloc(280)
        from repro.bvm.machine import BVM

        with pytest.raises(ValueError):
            prog.run(BVM(r=1, L=256))

    def test_listing(self):
        prog = ProgramBuilder(r=1)
        prog.set_ones(A)
        text = prog.listing()
        assert "A" in text

    def test_listing_truncates(self):
        prog = ProgramBuilder(r=1)
        for _ in range(50):
            prog.set_ones(A)
        assert "more" in prog.listing(limit=10)

    def test_len(self):
        prog = ProgramBuilder(r=1)
        prog.set_ones(A)
        prog.clear(A)
        assert len(prog) == 2

    def test_set_b(self):
        prog = ProgramBuilder(r=1)
        x = prog.pool.alloc1()
        prog.set_ones(x)
        prog.set_b(FN.F, x, x)  # B = x = 1
        y = prog.pool.alloc1()
        prog.emit(y, FN.B, x, x)
        m = prog.build_machine()
        prog.run(m)
        assert m.read(y).all()


class TestSplice:
    """A continuation emitted from a builder's allocator state, spliced in."""

    @staticmethod
    def _pair(r=1):
        prog = ProgramBuilder(r=r)
        x, y = prog.pool.alloc(2)
        prog.mark("pre")
        prog.set_ones(x)
        loop = ProgramBuilder(r=r, pool_state=prog.pool.state())
        scratch = loop.pool.alloc1()
        loop.mark("loop")
        loop.copy(scratch, x)
        loop.copy(y, scratch)
        loop.pool.free(scratch)
        return prog, loop, y

    def test_splice_appends_stream_marks_and_allocator_state(self):
        prog, loop, y = self._pair()
        prog.splice(loop)
        assert len(prog) == 3
        assert prog.instructions[1:] == loop.instructions
        assert prog.phase_breakdown() == {"pre": 1, "loop": 2}
        assert prog.pool.state() == loop.pool.state()
        for backend in ("bool", "packed"):
            m = prog.build_machine(backend=backend)
            prog.run(m)
            assert m.read(y).all()

    def test_splice_rejects_another_allocator_state(self):
        prog, loop, _ = self._pair()
        prog.pool.alloc1()
        with pytest.raises(ValueError, match="allocator state"):
            prog.splice(loop)

    def test_splice_rejects_another_geometry(self):
        prog, _, _ = self._pair()
        with pytest.raises(ValueError, match="geometry"):
            prog.splice(ProgramBuilder(r=2, pool_state=prog.pool.state()))

    def test_compiled_reuses_spliced_steps_for_own_l_only(self):
        prog, loop, y = self._pair()
        prog.splice(loop)
        own = prog.compiled()
        assert all(a is b for a, b in zip(own.steps[1:], loop.compiled().steps))
        wider = prog.compiled(prog.L + 8)  # recompiled from the instructions
        assert len(wider.steps) == len(prog)
        assert all(a is not b for a, b in zip(wider.steps[1:], own.steps[1:]))
        m = BVM(1, L=prog.L + 8, backend="packed")
        wider.run(m)
        assert m.read(y).all()

    def test_intern_shares_equal_instructions(self):
        prog = ProgramBuilder(r=1)
        x, y = prog.pool.alloc(2)
        prog.copy(x, y)
        prog.copy(y, x)
        prog.copy(x, y)
        prog.emit(x, FN.F, y, y, note="same fields, own note")
        prog.intern()
        first, _, third, noted = prog.instructions
        assert third is first
        assert noted == first and noted is not first
