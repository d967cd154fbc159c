"""Macro-assembler for BVM programs.

BVM algorithms are built as Python functions that *emit* instructions
into a :class:`ProgramBuilder`.  The builder provides

* a tiny fluent emit API over the raw :class:`~repro.bvm.isa.Instruction`,
* a scratch-register allocator over the ``R`` file (the paper's programs
  juggle register indices by hand; the allocator keeps our macros
  composable and overflow-checked against ``L``),
* convenience macros for the ubiquitous moves (copy row, clear row, set
  row, read a neighbor, write a host constant bit pattern).

The builder only *records* instructions; :meth:`ProgramBuilder.run`
executes them on a machine.  This split lets the test suite assert on
instruction counts (the complexity claims) independent of execution.

Allocation discipline: macros allocate and free scratch registers, so a
freed index may be *reused* by a later allocation.  Data rows the host
pokes before :meth:`ProgramBuilder.run` must therefore be allocated
**before** emitting any macro — otherwise an earlier macro's scratch
traffic will overwrite the poked values during execution.
"""

from __future__ import annotations

from contextlib import nullcontext

from .isa import FN, Instruction, Operand, Reg
from .machine import BVM
from .topology import CCCTopology

__all__ = ["ProgramBuilder", "RegisterPool", "CompiledProgram"]


class CompiledProgram:
    """An instruction sequence pre-lowered for the packed backend.

    Compilation resolves everything resolvable ahead of replay: register
    names to row slots, truth tables to their lowered bitwise
    evaluators, neighbor modes to the topology's cached
    :class:`~repro.bvm.topology.PackedPlan` pipelines, activation sets
    to bit-plane masks — and fuses constant-table and no-op assignments
    (see :func:`repro.bvm.packed.compile_step`).  Replay is then a tight
    loop over flat tuples; compiling once and replaying many times is
    the intended pattern for benchmarks and batch solves.

    Each distinct instruction is lowered once per compile: equal
    instructions share one step tuple.  ``reuse`` holds ``(start, cp)``
    pairs, in program order, whose compiled steps stand for
    ``instructions[start:start + len(cp)]`` (a spliced program's, see
    :meth:`ProgramBuilder.splice`); only the rest is lowered here, under
    one ``bvm.compile`` span, and none when nothing is left to lower.

    The slot mapping depends on ``L``, so a compiled program binds to
    machines of exactly the geometry it was compiled for.  A machine of
    several lanes replays the steps mapped by
    :func:`~repro.bvm.packed.lane_steps`, once per lane count.
    """

    def __init__(self, instructions, r: int, L: int, reuse=()):
        from ..obs import trace as _trace
        from .packed import compile_step

        self.r = r
        self.L = L
        self.instructions = list(instructions)
        topo = CCCTopology.shared(r)
        memo: dict[Instruction, tuple] = {}

        def lower(instrs) -> list[tuple]:
            out = []
            for instr in instrs:
                step = memo.get(instr)
                if step is None:
                    step = memo[instr] = compile_step(instr, topo, L)
                out.append(step)
            return out

        fresh = len(self.instructions) - sum(len(cp) for _, cp in reuse)
        span = (
            _trace.current().span(
                "bvm.compile", cat="bvm", r=r, L=L, instructions=fresh,
                reused=len(self.instructions) - fresh,
            )
            if fresh else nullcontext()
        )
        steps: list[tuple] = []
        with span:
            pos = 0
            for start, cp in reuse:  # in program order
                steps += lower(self.instructions[pos:start])
                steps += cp.steps
                pos = start + len(cp)
            steps += lower(self.instructions[pos:])
        self.steps = steps
        self._lane_steps: dict[int, list[tuple]] = {1: steps}

    def __len__(self) -> int:
        return len(self.instructions)

    def run(self, machine) -> int:
        """Replay on a packed machine of any lane count; returns cycles
        consumed."""
        if getattr(machine, "backend", "bool") != "packed":
            # The boolean oracle has no compiled form; replay the source.
            return machine.run(self.instructions)
        if machine.topology.r != self.r or machine.L != self.L:
            raise ValueError(
                f"compiled for CCC(r={self.r}), L={self.L}; machine is "
                f"CCC(r={machine.topology.r}), L={machine.L}"
            )
        steps = self._lane_steps.get(machine.lanes)
        if steps is None:
            from .packed import lane_steps

            steps = self._lane_steps[machine.lanes] = lane_steps(
                self.steps, machine.topology, machine.lanes
            )
        return machine.run_compiled(steps)


class RegisterPool:
    """Allocator over the general register file ``R[lo..hi)``."""

    def __init__(self, lo: int, hi: int):
        if not (0 <= lo <= hi):
            raise ValueError("bad register range")
        self._free = list(range(hi - 1, lo - 1, -1))  # allocate low-first
        self.high_water = lo
        self.lo, self.hi = lo, hi

    def alloc(self, count: int = 1) -> list[Reg]:
        if count > len(self._free):
            raise RuntimeError(
                f"register file exhausted: wanted {count}, "
                f"{len(self._free)} of R[{self.lo}:{self.hi}] free"
            )
        out = [Reg("R", self._free.pop()) for _ in range(count)]
        self.high_water = max(self.high_water, max(r.index for r in out) + 1)
        return out

    def alloc1(self) -> Reg:
        return self.alloc(1)[0]

    def free(self, *regs: Reg) -> None:
        for r in regs:
            if r.kind != "R":
                raise ValueError("only R registers are pooled")
            if r.index in self._free:
                raise ValueError(f"double free of {r}")
            self._free.append(r.index)

    @property
    def in_use(self) -> int:
        return (self.hi - self.lo) - len(self._free)

    def state(self) -> tuple[tuple[int, ...], int]:
        """Hashable allocator state: the free list (in pop order) and the
        high-water mark — everything that decides future allocations."""
        return tuple(self._free), self.high_water

    def restore(self, state: tuple[tuple[int, ...], int]) -> None:
        """Return to a :meth:`state` taken from a pool of the same range."""
        free, self.high_water = state
        self._free = list(free)


class ProgramBuilder:
    """Accumulates instructions for a CCC(r) machine of ``L`` registers.

    ``pool_state`` starts the allocator from a :meth:`RegisterPool.state`
    instead of empty: the builder then emits a *continuation* of a
    program left in that state, to be :meth:`splice`-d into it.
    """

    def __init__(
        self, r: int, L: int = 256, reserved: int = 0, pool_state=None
    ):
        self.r = r
        self.Q = 1 << r
        self.L = L
        self.instructions: list[Instruction] = []
        self.pool = RegisterPool(reserved, L)
        if pool_state is not None:
            self.pool.restore(pool_state)
        self._entry_state = self.pool.state()
        self._marks: list[tuple[str, int]] = []
        self._compiled: dict[int, tuple[int, CompiledProgram]] = {}
        self._spliced: list[tuple[int, ProgramBuilder]] = []

    # ------------------------------------------------------------------
    # Raw emit
    # ------------------------------------------------------------------

    def emit(
        self,
        dest: Reg,
        f: int,
        fsrc: Reg,
        dsrc: Reg | Operand,
        g: int = FN.B,
        activation=None,
        note: str = "",
    ) -> None:
        if isinstance(dsrc, Reg):
            dsrc = Operand(dsrc)
        self.instructions.append(
            Instruction(
                dest=dest, f=f, fsrc=fsrc, dsrc=dsrc, g=g,
                activation=activation, note=note,
            )
        )

    def __len__(self) -> int:
        return len(self.instructions)

    def splice(self, other: ProgramBuilder) -> None:
        """Append ``other``, a continuation emitted from this builder's
        current allocator state: its instructions, its phase marks and
        its allocator state on exit.

        The instruction objects are shared, not copied, and
        :meth:`compiled` reuses ``other``'s compiled steps — so splicing
        a cached program costs neither an emit nor a compile.
        """
        if (other.r, other.L) != (self.r, self.L):
            raise ValueError("spliced program targets another machine geometry")
        if other._entry_state != self.pool.state():
            raise ValueError("spliced program starts from another allocator state")
        base = len(self.instructions)
        self.instructions += other.instructions
        self._marks += [(label, base + at) for label, at in other._marks]
        self.pool.restore(other.pool.state())
        self._spliced.append((base, other))

    def intern(self) -> None:
        """Make equal instructions (notes included) one shared object.

        Emitted loops repeat a few hundred distinct instructions tens of
        thousands of times; a program kept in a cache holds each once.
        """
        table: dict[tuple[Instruction, str], Instruction] = {}
        self.instructions = [
            table.setdefault((i, i.note), i) for i in self.instructions
        ]

    # ------------------------------------------------------------------
    # Common macros
    # ------------------------------------------------------------------

    # The ``note`` field stays empty on these hot macros: the listing
    # decodes every instruction anyway, and f-string notes measurably
    # tax program build (tens of thousands of emits per solve).

    def copy(self, dst: Reg, src: Reg, activation=None) -> None:
        """``dst = src`` (one instruction)."""
        self.emit(dst, FN.F, src, src, activation=activation)

    def copy_neighbor(self, dst: Reg, src: Reg, neighbor: str, activation=None) -> None:
        """``dst = src.<neighbor>`` (one instruction)."""
        self.emit(
            dst, FN.D, src, Operand(src, neighbor), activation=activation,
        )

    def clear(self, dst: Reg, activation=None) -> None:
        self.emit(dst, FN.ZERO, dst, dst, activation=activation)

    def set_ones(self, dst: Reg, activation=None) -> None:
        self.emit(dst, FN.ONE, dst, dst, activation=activation)

    def set_const(self, dst: Reg, bit: int, activation=None) -> None:
        """Write the host-immediate ``bit`` to every (active) PE."""
        self.emit(
            dst, FN.ONE if bit else FN.ZERO, dst, dst, activation=activation,
        )

    def logic(self, dst: Reg, f: int, x: Reg, y: Reg | Operand, activation=None) -> None:
        """``dst = f(x, y, B)`` — general two/three-input gate."""
        self.emit(dst, f, x, y, activation=activation)

    def set_b(self, g: int, x: Reg, y: Reg | Operand, activation=None) -> None:
        """Update only ``B``: ``B = g(x, y, B)`` (dest write is a no-op
        self-copy of ``x``)."""
        self.emit(x, FN.F, x, y, g=g, activation=activation)

    def enable_from(self, src: Reg) -> None:
        """``E = src`` — load the enable register from a mask row."""
        self.emit(Reg("E"), FN.F, src, src)

    def enable_all(self) -> None:
        e = Reg("E")
        self.emit(e, FN.ONE, e, e, note="E=1")

    # ------------------------------------------------------------------
    # Phase accounting
    # ------------------------------------------------------------------

    def mark(self, label: str) -> None:
        """Start a named phase at the current instruction position.

        Phases partition the program; :meth:`phase_breakdown` reports the
        instruction (= machine-cycle) count of each — the ablation data
        behind the complexity benches.
        """
        self._marks.append((label, len(self.instructions)))

    def phase_breakdown(self) -> dict[str, int]:
        """Instruction count per phase (labels repeat -> counts sum)."""
        out: dict[str, int] = {}
        if not self._marks:
            return {"(unmarked)": len(self.instructions)} if self.instructions else {}
        bounds = self._marks + [("<end>", len(self.instructions))]
        if bounds[0][1] > 0:
            out["(prelude)"] = bounds[0][1]
        for (label, start), (_, end) in zip(bounds, bounds[1:]):
            out[label] = out.get(label, 0) + (end - start)
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, machine: BVM) -> int:
        """Execute the recorded program; returns cycles consumed.

        On a packed machine this goes through the compile/replay path
        (cached per machine geometry, invalidated when new instructions
        are emitted); the boolean machine interprets the source stream.
        """
        if machine.topology.r != self.r:
            raise ValueError("machine geometry does not match program")
        if self.pool.high_water > machine.L:
            raise ValueError("program uses more registers than the machine has")
        if getattr(machine, "backend", "bool") == "packed":
            return self.compiled(machine.L).run(machine)
        return machine.run(self.instructions)

    def compiled(self, L: int | None = None) -> CompiledProgram:
        """The program lowered for packed replay (cached per ``L``).

        Spliced programs contribute their own (cached) compiled steps
        when ``L`` is the builder's own; any other ``L`` compiles them
        from the instructions.
        """
        L = self.L if L is None else L
        cached = self._compiled.get(L)
        if cached is not None and cached[0] == len(self.instructions):
            return cached[1]
        reuse = [(at, seg.compiled()) for at, seg in self._spliced] if L == self.L else []
        cp = CompiledProgram(self.instructions, self.r, L, reuse)
        self._compiled[L] = (len(self.instructions), cp)
        return cp

    def build_machine(
        self, L: int | None = None, backend: str | None = None
    ) -> BVM:
        """A fresh machine sized for this program."""
        return BVM(self.r, L=L if L is not None else self.L, backend=backend)

    def listing(self, limit: int | None = 40) -> str:
        """Human-readable instruction listing (truncated)."""
        rows = [str(i) for i in self.instructions[: limit or None]]
        if limit is not None and len(self.instructions) > limit:
            rows.append(f"... ({len(self.instructions) - limit} more)")
        return "\n".join(rows)
