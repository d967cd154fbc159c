"""The Boolean Vector Machine simulator (paper §2, Fig. 2).

Logically the BVM is a bit array: each of the ``L`` register rows spans
all ``n`` PEs, each PE is one column (Fig. 2).  The simulator stores the
register file as an ``(L, n)`` boolean matrix plus the dedicated ``A``,
``B`` and ``E`` rows, and executes one instruction as a handful of
vectorized NumPy operations:

1. gather ``F`` (own register row) and ``D`` (own row, or a neighbor's via
   a precomputed gather index; ``I`` shifts the whole row one PE to the
   right, consuming an input bit and emitting an output bit),
2. index the two 8-bit truth tables with ``F*4 + D*2 + B``,
3. write both results back under the activation/enable mask.

Masking semantics follow the paper exactly: ``(IF|NF) <set>`` activates
by within-cycle position; the enable register ``E`` gates every write
except writes to ``E`` itself ("the value of PE's will not be affected
(except that of register E) if it is deactivated or disabled" — which is
also what makes re-enabling possible).

Every executed instruction costs one machine cycle; ``cycles`` is the
counter the complexity benchmarks read.

Two execution backends share this constructor: ``BVM(r, backend="bool")``
is this byte-per-bit machine (the differential oracle — deliberately
close to the paper's prose), ``backend="packed"`` returns the
word-parallel :class:`~repro.bvm.packed.PackedBVM` (64 PEs per machine
word, lowered truth tables, cached route permutations).  The default
comes from ``REPRO_BVM_BACKEND`` (``bool`` if unset); both backends are
bit-for-bit identical in registers, output log and cycle count.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import BVM_BACKENDS, knob
from ..core.errors import InvalidProblem
from .isa import Instruction, Operand, Reg
from .topology import CCCTopology

__all__ = ["BVM", "resolve_backend"]

# Truth-table decode for the whole ISA: row ``t`` holds the 8 output bits
# of table ``t`` (precomputed once instead of per executed instruction).
_TT_BITS = np.array(
    [[(t >> i) & 1 for i in range(8)] for t in range(256)], dtype=bool
)


def resolve_backend(backend: str | None = None) -> str:
    """Pick the execution backend: explicit arg, else ``REPRO_BVM_BACKEND``.

    An unknown explicit backend fails loudly instead of falling back: a
    typo'd ``packd`` that silently ran the boolean machine would turn a
    64x word-packed run into a 64x slowdown nobody notices.  The error
    is :class:`~repro.core.errors.InvalidProblem` — the CLI's taxonomy
    reports it as a one-line user error (exit 2), and it still
    ``isinstance`` ``ValueError`` for older callers.  The environment
    value is checked the same way by :func:`repro.config.knob`.
    """
    if backend is not None and backend not in BVM_BACKENDS:
        raise InvalidProblem(
            f"unknown BVM backend {backend!r} from backend argument "
            f"(choose from {BVM_BACKENDS})"
        )
    return knob("REPRO_BVM_BACKEND", backend)


class BVM:
    """A CCC(r) Boolean Vector Machine with ``L`` general registers."""

    backend = "bool"

    def __new__(cls, r: int, L: int = 256, backend: str | None = None):
        if cls is BVM and resolve_backend(backend) == "packed":
            from .packed import PackedBVM

            return PackedBVM(r, L=L)
        return super().__new__(cls)

    def __init__(self, r: int, L: int = 256, backend: str | None = None):
        self.topology = CCCTopology.shared(r)
        self.L = L
        n = self.topology.n
        self.regs = np.zeros((L, n), dtype=bool)
        self.a = np.zeros(n, dtype=bool)
        self.b = np.zeros(n, dtype=bool)
        self.e = np.ones(n, dtype=bool)  # fully enabled at power-on
        self.cycles = 0
        self.input_queue: deque[bool] = deque()
        self.output_log: list[bool] = []
        self._idx_buf = np.empty(n, dtype=np.uint8)  # reused F*4+D*2+B index

    # ------------------------------------------------------------------
    # Introspection / host access
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def Q(self) -> int:
        return self.topology.Q

    def read(self, reg: Reg) -> np.ndarray:
        """Host read of a full register row (copy)."""
        return self._row(reg).copy()

    def poke(self, reg: Reg, values) -> None:
        """Host write of a full register row (costs no machine cycles;
        models the host loading data, which the paper assumes for the
        problem inputs ``T_i``)."""
        row = np.asarray(values, dtype=bool)
        if row.shape != (self.n,):
            raise ValueError(f"row must have shape ({self.n},)")
        self._set_row(reg, row)

    def feed_input(self, bits) -> None:
        """Queue bits for the ``I`` input port (consumed FIFO)."""
        for b in bits:
            self.input_queue.append(bool(b))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, instr: Instruction) -> None:
        """Run one instruction (one machine cycle)."""
        f_vec = self._row(instr.fsrc)
        d_vec = self._fetch_operand(instr.dsrc)
        b_vec = self.b

        # F*4 + D*2 + B into the preallocated index buffer; bool rows are
        # one byte per element, so viewing them as uint8 is free.
        idx = self._idx_buf
        np.copyto(idx, f_vec)
        idx <<= 1
        idx |= d_vec.view(np.uint8)
        idx <<= 1
        idx |= b_vec.view(np.uint8)
        out_f = _TT_BITS[instr.f][idx]
        out_b = _TT_BITS[instr.g][idx]

        active = self._activation_mask(instr.activation)
        gated = active & self.e  # old E gates this cycle's ordinary writes
        if instr.dest.kind == "E":
            # E ignores both deactivation and disable (always enabled).
            self.e = out_f.copy()
        else:
            dst = self._row(instr.dest)
            self._set_row(instr.dest, np.where(gated, out_f, dst))
        self.b = np.where(gated, out_b, self.b)
        self.cycles += 1

    def run(self, instructions) -> int:
        """Execute a sequence; returns the cycles it consumed."""
        start = self.cycles
        for instr in instructions:
            self.execute(instr)
        return self.cycles - start

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _row(self, reg: Reg) -> np.ndarray:
        if reg.kind == "A":
            return self.a
        if reg.kind == "B":
            return self.b
        if reg.kind == "E":
            return self.e
        if reg.index >= self.L:
            raise IndexError(f"register R[{reg.index}] beyond L={self.L}")
        return self.regs[reg.index]

    def _set_row(self, reg: Reg, row: np.ndarray) -> None:
        if reg.kind == "A":
            self.a = row
        elif reg.kind == "B":
            self.b = row
        elif reg.kind == "E":
            self.e = row
        else:
            if reg.index >= self.L:
                raise IndexError(f"register R[{reg.index}] beyond L={self.L}")
            self.regs[reg.index] = row

    def _fetch_operand(self, op: Operand) -> np.ndarray:
        row = self._row(op.reg)
        if op.neighbor is None:
            return row
        if op.neighbor == "I":
            # Global shift: PE q reads PE q-1; PE 0 reads the input port;
            # the last PE's value leaves through the output port.
            self.output_log.append(bool(row[-1]))
            in_bit = self.input_queue.popleft() if self.input_queue else False
            shifted = np.empty_like(row)
            shifted[1:] = row[:-1]
            shifted[0] = in_bit
            return shifted
        idx = self.topology.neighbor_index(op.neighbor)
        return row[idx]

    def _activation_mask(self, activation) -> np.ndarray:
        # Cached per (activation, r) on the shared topology; the returned
        # mask is read-only and must be combined, not mutated.
        return self.topology.activation_mask(activation)

    # ------------------------------------------------------------------
    # Debug rendering (Fig. 2 style)
    # ------------------------------------------------------------------

    def render(self, rows, max_pes: int = 64) -> str:
        """ASCII dump of selected rows, PEs as columns — the bit-array
        picture of the paper's Fig. 2.  ``rows`` is a list of (label, Reg)."""
        n_show = min(self.n, max_pes)
        header = "PE        " + " ".join(f"{q%10}" for q in range(n_show))
        lines = [header]
        for label, reg in rows:
            bits = self._row(reg)[:n_show]
            lines.append(f"{label:<10}" + " ".join("1" if x else "." for x in bits))
        return "\n".join(lines)
