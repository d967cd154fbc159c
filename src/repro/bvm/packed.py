"""Word-packed execution backend for the BVM: 64 PEs per machine word.

The boolean simulator (:mod:`repro.bvm.machine`) spends one *byte* per
bit and interprets every instruction through an 8-entry fancy-indexed
truth-table lookup — a dozen full-row NumPy kernels per single-bit
machine cycle.  This backend stores each register row as a *bit-plane*:
one arbitrary-precision integer whose machine words carry 64 PEs apiece
(``PE q`` = bit ``q``; lane 0's ``(L, ceil(n/64))`` uint64 view is
exposed as :attr:`PackedBVM.planes`).  Execution then becomes
straight-line bitwise arithmetic on whole planes:

* each 8-bit F/G truth table is *lowered once* (`lower_table`) to a
  minimal AND/OR/XOR/NOT expression over the packed ``F``, ``D``, ``B``
  planes via Shannon decomposition on ``B`` — e.g. ``FN.SEL_B_FD``
  becomes ``(B&F)|((B^M)&D)``, ``FN.XOR`` becomes ``F^D`` — evaluated
  as 2–7 word-wide operations with no per-PE work at all;
* neighbor reads use the topology's cached :class:`~repro.bvm.topology.
  PackedPlan` shift+mask pipelines (2 terms for ``S``/``P``, 4 for
  ``XS``/``XP``, ``2Q`` for the lateral), and the ``I`` input shift is a
  single funnel shift through the plane;
* ``(IF|NF)`` activation sets are cached bit-plane masks, and the
  dual-assignment/enable semantics are masked merges
  ``dst = (dst & ~gate) | (out & gate)``.

Negation is always expressed as ``x ^ M`` (``M`` = the valid-PE mask),
which keeps the *tail invariant*: bits above ``n - 1`` of every plane
are zero at all times, so shifts never smear garbage into live PEs.

A machine may hold ``lanes`` instances of the same program: lane ``b``
holds PEs at bits ``[b*n, (b+1)*n)`` of every row, ``M`` covers every
lane, and :func:`lane_steps` repeats each step's activation plane and
neighbour plan per lane, so no operation crosses a lane and one replay
advances every lane in lockstep.

Cycle accounting is backend-invariant by construction: the packed
machine executes the identical instruction stream one instruction per
cycle, consumes the same input bits and emits the same output bits, so
``cycles``, ``output_log`` and every register row are bit-for-bit equal
to the boolean oracle (enforced by the differential suite).

:func:`compile_step` pre-resolves one instruction — operand plan,
lowered tables, activation plane, register slots — into a flat tuple;
:class:`~repro.bvm.program.CompiledProgram` does this once per program
so replay is a tight loop over integer ops.  Constant truth tables
(``FN.ZERO``/``FN.ONE``) fuse into masked clear/set, the default
``g = FN.B`` skips the ``B`` write entirely, and self-copy destination
writes (``dst = dst``) are dropped.
"""

from __future__ import annotations

import time
from collections import deque
from functools import lru_cache

import numpy as np

from ..obs import trace as _trace
from .isa import FN, Instruction, Operand, Reg
from .topology import CCCTopology, pack_row, unpack_plane

__all__ = ["PackedBVM", "lower_table", "lowered_fn", "compile_step", "lane_steps"]


# ----------------------------------------------------------------------
# Truth-table lowering
# ----------------------------------------------------------------------

# Minimal expressions for every 2-input Boolean function of (F, D); the
# 4-bit key holds the output at bit ``f*2 + d``.  ``M`` is the valid-PE
# mask, so ``x ^ M`` is a masked NOT (tail bits stay zero).
_EXPR2 = {
    0b0000: "0",
    0b1111: "M",
    0b1100: "F",
    0b0011: "(F^M)",
    0b1010: "D",
    0b0101: "(D^M)",
    0b1000: "(F&D)",
    0b0111: "((F&D)^M)",
    0b1110: "(F|D)",
    0b0001: "((F|D)^M)",
    0b0110: "(F^D)",
    0b1001: "((F^D)^M)",
    0b0100: "(F&(D^M))",
    0b1011: "((F^M)|D)",
    0b0010: "((F^M)&D)",
    0b1101: "(F|(D^M))",
}


def lower_table(table: int) -> str:
    """Lower an 8-bit (F, D, B) truth table to a bitwise expression.

    Shannon decomposition on ``B``: with ``g0``/``g1`` the 2-input
    cofactors at ``B = 0``/``B = 1``, the common shapes (independent of
    ``B``, ``B``-xor, ``B``-mux with constant arm) each collapse to a
    shorter form than the generic ``(B & g1) | (~B & g0)`` mux.
    """
    if not 0 <= table <= 255:
        raise ValueError("truth tables are 8-bit")
    g0 = g1 = 0
    for f in (0, 1):
        for d in (0, 1):
            if (table >> (f * 4 + d * 2)) & 1:
                g0 |= 1 << (f * 2 + d)
            if (table >> (f * 4 + d * 2 + 1)) & 1:
                g1 |= 1 << (f * 2 + d)
    e0, e1 = _EXPR2[g0], _EXPR2[g1]
    if g0 == g1:
        return e0
    if g0 ^ g1 == 0b1111:  # out = g0 ^ B
        if g0 == 0b0000:
            return "B"
        if g0 == 0b1111:
            return "(B^M)"
        return f"({e0}^B)"
    if g0 == 0b0000:
        return f"(B&{e1})"
    if g1 == 0b0000:
        return f"((B^M)&{e0})"
    if g0 == 0b1111:
        return f"((B^M)|{e1})"
    if g1 == 0b1111:
        return f"(B|{e0})"
    return f"((B&{e1})|((B^M)&{e0}))"


@lru_cache(maxsize=256)
def lowered_fn(table: int):
    """Compiled evaluator ``(F, D, B, M) -> plane`` for a truth table."""
    return eval(  # noqa: S307 - expression is generated, not user input
        f"lambda F, D, B, M: {lower_table(table)}", {"__builtins__": {}}
    )


# ----------------------------------------------------------------------
# Instruction compilation
# ----------------------------------------------------------------------

# f-write modes of a compiled step.
F_GENERIC = 0  # evaluate the lowered f table
F_CONST0 = 1   # fused `dst &= ~gate` (FN.ZERO)
F_CONST1 = 2   # fused `dst |= gate` (FN.ONE)
F_SKIP = 3     # dst = dst (identity self-copy) — no write at all


def _slot_of(reg: Reg, L: int) -> int:
    """Row index in the packed register file: R[0..L-1], then A, B, E."""
    if reg.kind == "R":
        if reg.index >= L:
            raise IndexError(f"register R[{reg.index}] beyond L={L}")
        return reg.index
    return L + ("A", "B", "E").index(reg.kind)


def compile_step(instr: Instruction, topology: CCCTopology, L: int) -> tuple:
    """Pre-resolve one instruction for packed replay.

    Returns a flat tuple consumed by :meth:`PackedBVM._exec_step`:
    ``(dest_slot, is_e, f_mode, f_fn, g_fn, act_plane, fsrc_slot,
    d_slot, d_plan, d_is_input)``.
    """
    dest_slot = _slot_of(instr.dest, L)
    is_e = instr.dest.kind == "E"
    fsrc_slot = _slot_of(instr.fsrc, L)
    op: Operand = instr.dsrc
    d_slot = _slot_of(op.reg, L)
    d_is_input = op.neighbor == "I"
    d_plan = (
        None
        if op.neighbor is None or d_is_input
        else topology.packed_plan(op.neighbor)
    )
    act = None if instr.activation is None else topology.packed_activation(
        instr.activation
    )
    if instr.f == FN.ZERO:
        f_mode, f_fn = F_CONST0, None
    elif instr.f == FN.ONE:
        f_mode, f_fn = F_CONST1, None
    elif instr.f == FN.F and fsrc_slot == dest_slot and not is_e:
        f_mode, f_fn = F_SKIP, None
    else:
        f_mode, f_fn = F_GENERIC, lowered_fn(instr.f)
    g_fn = None if instr.g == FN.B else lowered_fn(instr.g)  # FN.B keeps B
    return (
        dest_slot, is_e, f_mode, f_fn, g_fn, act,
        fsrc_slot, d_slot, d_plan, d_is_input,
    )


def lane_steps(steps: list, topology: CCCTopology, lanes: int) -> list:
    """``steps`` mapped to a machine of ``lanes`` lanes (identity at one).

    Only a step's activation plane and neighbour plan see the lane
    layout; both are replaced by their per-lane repeats.  Each distinct
    step is mapped once, so equal steps stay one object.
    """
    if lanes == 1:
        return steps
    memo: dict[int, tuple] = {}
    out = []
    for step in steps:
        mapped = memo.get(id(step))
        if mapped is None:
            act, plan = step[5], step[8]
            if act is not None:
                act = topology.lane_activation(act, lanes)
            if plan is not None:
                plan = topology.lane_plan(plan.name, lanes)
            mapped = memo[id(step)] = (*step[:5], act, *step[6:8], plan, step[9])
        out.append(mapped)
    return out


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------


class PackedBVM:
    """A CCC(r) BVM whose register file lives in bit-plane words.

    Drop-in replacement for :class:`repro.bvm.machine.BVM` (same public
    API: ``read``/``poke``/``feed_input``/``execute``/``run``/``render``,
    ``cycles``, ``output_log``, ``input_queue``); construct directly or
    via ``BVM(r, backend="packed")`` / ``REPRO_BVM_BACKEND=packed``.

    ``lanes`` machines share one register file and advance in lockstep.
    Host access takes ``lane=0``; ``input_queues``/``output_logs`` hold
    each lane's ``I`` port, and ``input_queue``/``output_log`` are lane
    0's.  ``cycles`` counts lockstep machine cycles, not cycles x lanes.
    """

    backend = "packed"

    def __init__(
        self, r: int, L: int = 256, backend: str | None = None, lanes: int = 1
    ):
        if backend not in (None, "packed"):
            raise ValueError(f"PackedBVM cannot provide backend {backend!r}")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.topology = CCCTopology.shared(r)
        self.L = L
        self.lanes = lanes
        self.mask = (1 << (lanes * self.topology.n)) - 1  # every lane's PEs
        # The I shift keeps every bit but each lane's PE 0.
        self._shift_keep = self.mask ^ self.topology.lane_ones(lanes)
        # Row slots: R[0..L-1], then A, B, E (see _slot_of).
        self._rows: list[int] = [0] * (L + 3)
        self._rows[L + 2] = self.mask  # fully enabled at power-on
        self.cycles = 0
        self.input_queues: list[deque[bool]] = [deque() for _ in range(lanes)]
        self.output_logs: list[list[bool]] = [[] for _ in range(lanes)]
        self.input_queue = self.input_queues[0]
        self.output_log = self.output_logs[0]

    # ------------------------------------------------------------------
    # Introspection / host access
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def Q(self) -> int:
        return self.topology.Q

    @property
    def n_words(self) -> int:
        """64-bit words per plane."""
        return (self.n + 63) // 64

    @property
    def planes(self) -> np.ndarray:
        """Lane 0's general register file as an ``(L, n_words)`` uint64
        array.

        A host-side snapshot of the packed representation (the live
        planes are Python integers, i.e. the same words in CPython limb
        form); mutating the returned array does not write the machine.
        """
        nw = self.n_words
        out = np.empty((self.L, nw), dtype=np.uint64)
        for j in range(self.L):
            raw = self.plane(Reg("R", j)).to_bytes(nw * 8, "little")
            out[j] = np.frombuffer(raw, dtype="<u8")
        return out

    def _check_lane(self, lane: int) -> int:
        """``lane``, if the machine has it: a lane outside would write
        above ``M`` and break the tail invariant every shift relies on."""
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} outside [0, {self.lanes})")
        return lane

    def plane(self, reg: Reg, lane: int = 0) -> int:
        """The raw ``n``-bit plane of one lane's register row."""
        row = self._rows[_slot_of(reg, self.L)]
        return (row >> (self._check_lane(lane) * self.n)) & self.topology.full_mask

    def read(self, reg: Reg, lane: int = 0) -> np.ndarray:
        """Host read of one lane's register row (unpacked bool copy)."""
        return unpack_plane(self.plane(reg, lane), self.n)

    def poke(self, reg: Reg, values, lane: int = 0) -> None:
        """Host write of one lane's register row, or of every lane from a
        ``(lanes, n)`` array in one pack (costs no machine cycles)."""
        row = np.asarray(values, dtype=bool)
        slot = _slot_of(reg, self.L)
        if row.ndim == 2:
            if row.shape != (self.lanes, self.n):
                raise ValueError(f"rows must have shape ({self.lanes}, {self.n})")
            self._rows[slot] = pack_row(row)
            return
        if row.shape != (self.n,):
            raise ValueError(f"row must have shape ({self.n},)")
        shift = self._check_lane(lane) * self.n
        keep = self.mask ^ (self.topology.full_mask << shift)
        self._rows[slot] = (self._rows[slot] & keep) | (pack_row(row) << shift)

    def feed_input(self, bits, lane: int = 0) -> None:
        """Queue bits for one lane's ``I`` input port (consumed FIFO)."""
        self.input_queues[self._check_lane(lane)].extend(bool(b) for b in bits)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, instr: Instruction) -> None:
        """Run one instruction (one machine cycle)."""
        topo = self.topology
        (step,) = lane_steps([compile_step(instr, topo, self.L)], topo, self.lanes)
        self._exec_step(step)

    def run(self, instructions) -> int:
        """Execute a sequence; returns the cycles it consumed."""
        topo, L = self.topology, self.L
        steps = [compile_step(i, topo, L) for i in instructions]
        return self.run_compiled(lane_steps(steps, topo, self.lanes))

    def run_compiled(self, steps) -> int:
        """Replay steps already mapped to this machine's lanes
        (:func:`lane_steps`); returns the cycles consumed."""
        # One span per replay, never per step or per lane: _exec_step is
        # the hot loop and must stay untouched by telemetry.
        tr = _trace.current()
        t0 = time.monotonic() if tr.collecting else 0.0
        start = self.cycles
        for step in steps:
            self._exec_step(step)
        cycles = self.cycles - start
        if tr.collecting:
            tr.complete(
                "bvm.replay", "bvm", t0, time.monotonic(),
                r=self.topology.r, steps=len(steps), cycles=cycles,
                batch=self.lanes,
            )
        return cycles

    def _shift_in(self, plane: int) -> int:
        """The ``I`` port, per lane: every PE takes its linear
        predecessor's bit, PE 0 the lane's next input bit, and PE
        ``n - 1``'s bit goes to the lane's output log."""
        n = self.n
        out = (plane << 1) & self._shift_keep
        for b, (queue, log) in enumerate(zip(self.input_queues, self.output_logs)):
            log.append(bool((plane >> (b * n + n - 1)) & 1))
            if queue and queue.popleft():
                out |= 1 << (b * n)
        return out

    def _exec_step(self, step: tuple) -> None:
        (
            dest_slot, is_e, f_mode, f_fn, g_fn, act,
            fsrc_slot, d_slot, d_plan, d_is_input,
        ) = step
        rows = self._rows
        M = self.mask
        L = self.L
        # Operand fetch (the I shift's port traffic happens regardless
        # of activation, exactly as on the boolean machine).
        if d_is_input:
            d_plane = self._shift_in(rows[d_slot])
        elif d_plan is not None:
            d_plane = d_plan.apply(rows[d_slot])
        else:
            d_plane = rows[d_slot]
        e = rows[L + 2]
        gate = e if act is None else act & e  # old E gates this cycle
        f_plane = rows[fsrc_slot]
        b_plane = rows[L + 1]

        if is_e:
            # E ignores both deactivation and disable (always enabled).
            if f_mode == F_CONST0:
                rows[L + 2] = 0
            elif f_mode == F_CONST1:
                rows[L + 2] = M
            else:
                rows[L + 2] = f_fn(f_plane, d_plane, b_plane, M)
        elif f_mode == F_CONST0:
            rows[dest_slot] &= M ^ gate
        elif f_mode == F_CONST1:
            rows[dest_slot] |= gate
        elif f_mode == F_GENERIC:
            out_f = f_fn(f_plane, d_plane, b_plane, M)
            dst = rows[dest_slot]
            rows[dest_slot] = (dst & (M ^ gate)) | (out_f & gate)
        # F_SKIP: dst = dst — nothing to do.

        if g_fn is not None:
            out_b = g_fn(f_plane, d_plane, b_plane, M)
            rows[L + 1] = (b_plane & (M ^ gate)) | (out_b & gate)
        self.cycles += 1

    # ------------------------------------------------------------------
    # Debug rendering (Fig. 2 style)
    # ------------------------------------------------------------------

    def render(self, rows, max_pes: int = 64) -> str:
        """ASCII dump of selected rows, PEs as columns (cf. ``BVM.render``)."""
        n_show = min(self.n, max_pes)
        header = "PE        " + " ".join(f"{q%10}" for q in range(n_show))
        lines = [header]
        for label, reg in rows:
            bits = self.read(reg)[:n_show]
            lines.append(f"{label:<10}" + " ".join("1" if x else "." for x in bits))
        return "\n".join(lines)
