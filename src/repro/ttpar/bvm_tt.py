"""The complete TT algorithm as a bit-level BVM program (paper §7).

This is the paper's actual artifact: the §6 ASCEND scheme compiled down
to single-bit CCC instructions.  Per the implementation scheme of §7:

* each PE stands for a pair ``(S, i)`` — ``S`` on the high address bits,
  the action index ``i`` on the low bits (which land inside the cycles);
* the predicates ``e ∈ S ∩ T_i`` and ``e ∈ S - T_i`` are built from the
  **processor-ID** bits and per-action membership rows ``TB[e]`` loaded
  by matching the ``i`` bits against each action index (the paper:
  "``T_i`` should be input to the BVM");
* the ``e``-loop moves ``R``/``Q`` words along the subset dimensions via
  the lateral sweeps of :mod:`repro.bvm.hyperops`, with the dataflow
  controlled by the enable register;
* the minimization is the §6 ASCEND over the ``i`` dimensions, done with
  the bit-serial tagged-min so the argmin rides along;
* arithmetic is ``W``-bit saturating fixed point; the all-ones word is
  ``INF`` and stays absorbing, which implements the paper's sentinel
  argument at the bit level.

Everything after the initial host pokes (none are needed — even the
processor-ID, layer popcounts, ``p(S)`` prefix sums and ``t_i * p(S)``
products are computed *in machine* with host-immediate constants folded
into instruction truth tables) runs through the simulator's five-line
execution core, so the returned tables carry an honest cycle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from ..bvm import bitserial as bs
from ..bvm.hyperops import route_dim
from ..bvm.isa import FN, Reg
from ..bvm.machine import BVM
from ..bvm.packed import PackedBVM
from ..bvm.primitives import processor_id
from ..bvm.program import ProgramBuilder
from ..config import BVM_BACKENDS
from ..core.errors import InvalidProblem
from ..core.kernels import BEST_DTYPE
from ..core.problem import TTProblem
from ..util.bitops import popcount_array
from ..util.fixedpoint import FixedPointScale, choose_scale
from .layout import TTLayout, pad_actions

__all__ = [
    "BVMTTResult",
    "build_bvm_tt",
    "build_bvm_tt_batch",
    "solve_tt_bvm",
    "solve_tt_bvm_batch",
]


@dataclass
class BVMTTResult:
    """Decoded output of a bit-level TT run.

    ``cost``/``best_action`` have the same shape and semantics as the
    sequential :class:`~repro.core.sequential.DPResult` tables; ``cycles``
    is the exact number of single-bit machine instructions executed and
    ``scale`` the fixed-point encoding used.
    """

    problem: TTProblem
    layout: TTLayout
    scale: FixedPointScale
    cost: np.ndarray
    best_action: np.ndarray
    cycles: int
    r: int
    width: int
    backend: str = "bool"

    @property
    def optimal_cost(self) -> float:
        return float(self.cost[self.problem.universe])

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.optimal_cost)

    def tree(self):
        from .extract import tree_from_tables

        return tree_from_tables(self.problem, self.cost, self.best_action)


def _choose_r(dims: int, r: int | None = None) -> int:
    """The CCC order for ``dims`` hypercube dims: the smallest that fits,
    or ``r`` itself once checked to fit."""
    if r is None:
        for r in range(1, 5):
            if r + (1 << r) >= dims:
                return r
        raise InvalidProblem(f"problem needs {dims} hypercube dims; CCC(r<=4) is the cap")
    if r + (1 << r) < dims:
        raise InvalidProblem(f"CCC(r={r}) too small for {dims} dims")
    return r


@dataclass
class _Plan:
    """Program plus the register map needed to decode the results."""

    prog: ProgramBuilder
    layout: TTLayout
    scale: FixedPointScale
    M: list
    ARG: list
    r: int
    width: int

    def input_bits(self) -> list[int]:
        return [0] * self.prog.Q  # consumed by cycle-ID inside processor-ID


def _encode_instance(
    problem: TTProblem, padded: TTProblem, k: int, width: int
) -> tuple[FixedPointScale, list[int], list[int]]:
    """Fixed-point encode one instance's costs and weights.

    Split scaling: the machine multiplies encoded costs by encoded
    weights, so the two factors must carry *square roots* of the overall
    scale — encoding both at ``scale.scale`` would square it and
    overflow.
    """
    finite_costs = [a.cost for a in problem.actions if math.isfinite(a.cost)]
    scale = choose_scale(finite_costs or [1.0], problem.weights, k, width)
    m_exp = int(round(math.log2(scale.scale)))
    scale_w = 2.0 ** (m_exp - m_exp // 2)
    scale_c = 2.0 ** (m_exp // 2)
    enc_costs = [
        scale.inf if math.isinf(a.cost) else int(round(a.cost * scale_c))
        for a in padded.actions
    ]
    enc_weights = [int(round(w * scale_w)) for w in problem.weights]
    if any(c > scale.max_value for c in enc_costs if c != scale.inf) or any(
        w > scale.max_value for w in enc_weights
    ):
        raise OverflowError("split-scale encoding overflows the word width")
    return scale, enc_costs, enc_weights


class _LoopRegs(NamedTuple):
    """The register map the §6 loop reads and writes."""

    M: Sequence[Reg]
    Rw: Sequence[Reg]
    Qw: Sequence[Reg]
    TP: Sequence[Reg]
    PB: Sequence[Reg]        # shared partner-copy buffer (R/Q/M routes)
    ARG: Sequence[Reg]
    ARG0: Sequence[Reg]
    PARG: Sequence[Reg]
    LAYER: Sequence[Reg]
    TB: Sequence[Reg]
    IS_TEST: Reg
    GATE: Reg
    GATE2: Reg
    SBITS: Sequence[Reg]     # subset-membership bits of the PE address


@lru_cache(maxsize=16)
def _tt_loop(
    r: int, k: int, p: int, width: int, L: int, regs: _LoopRegs, pool_state
) -> ProgramBuilder:
    """The §6 TT() loop — k layers of e-loop, finalize and min-ASCEND —
    emitted, interned and (on first packed use) compiled once per key.

    The key is everything the loop reads: the machine shape ``(r, k, p,
    width, L)``, the register map, and the allocator's free list and
    high-water mark on entry (the loop's scratch allocations depend on
    them).  Every immediate is a shape fact (layer indices, subset
    dimensions) and instance data reaches the loop only through the
    registers, so every instance of a shape — alone or in a batch —
    splices the same program.  Interning makes a cached loop *smaller*
    than one emitted per instance: at k=4, N=16 its 14,316 instructions
    are 542 objects and its compiled steps 541 tuples.
    """
    prog = ProgramBuilder(r, L=L, pool_state=pool_state)
    layout = TTLayout(k=k, p=p)
    M, Rw, Qw, TP, PB, ARG, ARG0, PARG, LAYER, TB, IS_TEST, GATE, GATE2, SBITS = regs
    for j in range(1, layout.k + 1):
        prog.mark("copy-buffers")
        bs.copy_word(prog, Rw, M)
        bs.copy_word(prog, Qw, M)

        # e-loop: R[S,i] = R[S-{e},i] if e ∈ S∩T_i ; Q likewise for S-T_i.
        prog.mark("e-loop")
        for e in range(layout.k):
            dim = layout.subset_dim(e)
            # cond_r = s_bit_e & TB[e] ; cond_q = s_bit_e & ~TB[e]
            route_dim(prog, Rw, PB, dim)
            prog.logic(GATE2, FN.AND, SBITS[e], TB[e])
            bs.select_word(prog, Rw, GATE2, PB, Rw)
            route_dim(prog, Qw, PB, dim)
            prog.logic(GATE2, FN.ANDN, SBITS[e], TB[e])
            bs.select_word(prog, Qw, GATE2, PB, Qw)

        # finalize layer j: M = R + TP (+ Q if test), ARG = own index.
        prog.mark("finalize")
        bs.equals_const(prog, LAYER, j, GATE)
        prog.enable_from(GATE)
        bs.copy_word(prog, M, Rw)
        bs.add_into(prog, M, TP)
        prog.enable_all()
        prog.logic(GATE2, FN.AND, GATE, IS_TEST)
        prog.enable_from(GATE2)
        bs.add_into(prog, M, Qw)
        prog.enable_all()
        prog.enable_from(GATE)
        bs.copy_word(prog, ARG, ARG0)
        prog.enable_all()

        # §6 ASCEND minimization over the i dimensions, argmin riding along.
        prog.mark("min-ascend")
        for t in range(layout.p):
            route_dim(prog, M, PB, t)
            route_dim(prog, ARG, PARG, t)
            bs.min_tagged_into(prog, M, ARG, PB, PARG, gate=GATE)
    prog.intern()
    return prog


def build_bvm_tt(problem: TTProblem, width: int = 16, r: int | None = None) -> _Plan:
    """Emit the full TT program for ``problem`` (no execution)."""
    problem.require_adequate()
    padded = pad_actions(problem)
    layout = TTLayout.for_problem(problem)
    k, p = layout.k, layout.p
    r = _choose_r(layout.dims, r)

    scale, enc_costs, enc_weights = _encode_instance(problem, padded, k, width)

    prog = ProgramBuilder(r, L=256)
    pool = prog.pool
    W = width

    # ------------------------------------------------------------------
    # Register map (data first — see the allocation discipline note).
    # ------------------------------------------------------------------
    M = pool.alloc(W)
    Rw = pool.alloc(W)
    Qw = pool.alloc(W)
    TP = pool.alloc(W)
    PB = pool.alloc(W)       # shared partner-copy buffer (R/Q/M routes)
    ARG = pool.alloc(p)
    ARG0 = pool.alloc(p)
    PARG = pool.alloc(p)
    lk = max(1, k.bit_length())
    LAYER = pool.alloc(lk)
    TB = pool.alloc(k)       # TB[e] = (e ∈ T_i) per PE
    IS_TEST = pool.alloc1()
    GATE = pool.alloc1()
    GATE2 = pool.alloc1()
    pid = pool.alloc(r + (1 << r))

    # ------------------------------------------------------------------
    # Phase 1: self-knowledge — processor-ID and per-action structure.
    # ------------------------------------------------------------------
    prog.mark("processor-id")
    processor_id(prog, pid)
    i_word = pid[:p]          # action index bits
    s_bits = pid[p : p + k]   # subset membership bits

    prog.mark("control-bits")
    prog.clear(IS_TEST)
    for row in TB:
        prog.clear(row)
    match = pool.alloc1()
    for v, act in enumerate(padded.actions):
        bs.equals_const(prog, i_word, v, match)
        if act.is_test:
            prog.logic(IS_TEST, FN.OR, IS_TEST, match)
        for e in range(k):
            if (act.subset >> e) & 1:
                prog.logic(TB[e], FN.OR, TB[e], match)

    # LAYER = popcount of the S bits (in-machine, gated unit adds).
    for row in LAYER:
        prog.clear(row)
    for e in range(k):
        prog.enable_from(s_bits[e])
        bs.add_const_into(prog, LAYER, 1, saturate=False)
        prog.enable_all()

    # ------------------------------------------------------------------
    # Phase 2: arithmetic inputs — p(S), t_i, TP = t_i * p(S).
    # ------------------------------------------------------------------
    prog.mark("arith-inputs")
    PS = pool.alloc(W)
    CW = pool.alloc(W)
    for row in PS:
        prog.clear(row)
    for e in range(k):
        prog.enable_from(s_bits[e])
        bs.add_const_into(prog, PS, enc_weights[e])
        prog.enable_all()
    for v, act in enumerate(padded.actions):
        bs.equals_const(prog, i_word, v, match)
        prog.enable_from(match)
        bs.set_word_const(prog, CW, min(enc_costs[v], scale.inf))
        prog.enable_all()
    bs.mult_into(prog, TP, PS, CW)
    # Infinite-cost actions (pads and any user INF) force TP = INF
    # directly — the sentinel must not depend on p(S)'s encoding.
    for v, act in enumerate(padded.actions):
        if enc_costs[v] == scale.inf:
            bs.equals_const(prog, i_word, v, match)
            prog.enable_from(match)
            bs.set_word_const(prog, TP, scale.inf)
            prog.enable_all()
    pool.free(*PS, *CW, match)

    # M init: INF everywhere, 0 on the empty set's PEs.
    prog.mark("m-init")
    bs.set_word_const(prog, M, scale.inf)
    bs.equals_const(prog, LAYER, 0, GATE)
    prog.enable_from(GATE)
    bs.set_word_const(prog, M, 0)
    prog.enable_all()
    bs.copy_word(prog, ARG0, i_word)
    bs.copy_word(prog, ARG, ARG0)

    # ------------------------------------------------------------------
    # Phase 3: the §6 TT() loop — instance-free, so emitted and compiled
    # once per key and spliced in.
    # ------------------------------------------------------------------
    regs = _LoopRegs(
        tuple(M), tuple(Rw), tuple(Qw), tuple(TP), tuple(PB), tuple(ARG),
        tuple(ARG0), tuple(PARG), tuple(LAYER), tuple(TB), IS_TEST, GATE,
        GATE2, tuple(s_bits),
    )
    prog.splice(_tt_loop(r, k, p, width, prog.L, regs, pool.state()))

    return _Plan(prog=prog, layout=layout, scale=scale, M=M, ARG=ARG, r=r, width=width)


def _decode_tables(
    M_rows, ARG_rows, read, n: int, layout: TTLayout,
    scale: FixedPointScale, problem: TTProblem,
) -> tuple[np.ndarray, np.ndarray]:
    """Read the M/ARG planes (via ``read(row) -> bool array``) and decode
    them into the DP-shaped cost/best-action tables."""
    n_sub = 1 << layout.k
    m_words = np.zeros(n, dtype=np.int64)
    for w, row in enumerate(M_rows):
        m_words |= read(row).astype(np.int64) << w
    args = np.zeros(n, dtype=BEST_DTYPE)
    for w, row in enumerate(ARG_rows):
        args |= read(row).astype(BEST_DTYPE) << w

    masks = np.arange(n_sub, dtype=np.int64)
    addr0 = masks << layout.p
    cost = scale.decode_array(m_words[addr0])
    best = args[addr0]
    best = np.where(np.isfinite(cost), best, -1)
    best[0] = -1
    # Clamp pad indices (only reachable on infeasible subsets anyway).
    best = np.where(best >= problem.n_actions, -1, best)
    return cost, best


def _decode(plan: _Plan, machine: BVM, problem: TTProblem) -> tuple[np.ndarray, np.ndarray]:
    return _decode_tables(
        plan.M, plan.ARG, machine.read, machine.n, plan.layout, plan.scale, problem
    )


def solve_tt_bvm(
    problem: TTProblem,
    width: int = 16,
    r: int | None = None,
    backend: str | None = None,
) -> BVMTTResult:
    """Build, run and decode the bit-level TT program.

    Practical sizes: ``k + ceil(log2 N) <= 11`` (a 2048-PE CCC(3) at
    most), which covers the same instances the CCC emulator handles.

    ``backend`` selects the execution engine (``"bool"``/``"packed"``;
    default from ``REPRO_BVM_BACKEND``).  Both return identical tables
    and the identical ``cycles`` count — the packed backend only changes
    how fast the simulation runs, not what the simulated machine does.
    """
    plan = build_bvm_tt(problem, width=width, r=r)
    machine = plan.prog.build_machine(backend=backend)
    machine.feed_input(plan.input_bits())
    cycles = plan.prog.run(machine)
    cost, best = _decode(plan, machine, problem)
    return BVMTTResult(
        problem=problem,
        layout=plan.layout,
        scale=plan.scale,
        cost=cost,
        best_action=best,
        cycles=cycles,
        r=plan.r,
        width=width,
        backend=machine.backend,
    )


# ----------------------------------------------------------------------
# Instance batching: one shape-generic program, B lockstep instances
# ----------------------------------------------------------------------
#
# ``build_bvm_tt`` folds the per-problem constants (action membership,
# encoded weights and costs) into its prologue's truth tables, so two
# different instances share only the §6 loop, never a whole program,
# and cannot replay in lockstep.  The batch path splits the
# two concerns: a *shape-generic* program — a pure function of
# ``(r, k, p, width)`` — carries the whole §6/§7 dataflow, and the
# per-instance data lands in host-poked register rows (the paper's
# "T_i should be input to the BVM" host-load, which costs no machine
# cycles).  Every instance of the same shape then replays the identical
# compiled instruction stream, which is exactly what lets one
# :class:`~repro.bvm.packed.PackedBVM` of B lanes run B of them in
# lockstep.


@dataclass
class _BatchPlan:
    """Shape-generic program plus the rows the host pokes per lane."""

    prog: ProgramBuilder
    layout: TTLayout
    M: list
    ARG: list
    IWORD: list
    SBITS: list
    LAYER: list
    TB: list
    IS_TEST: Reg
    PS: list
    CW: list
    INFM: Reg
    r: int
    width: int
    # Shape-level PE decodes (action index / subset / popcount per PE).
    i_pe: np.ndarray
    s_pe: np.ndarray
    layer_pe: np.ndarray


@lru_cache(maxsize=64)
def _batch_plan(r: int, k: int, p: int, width: int) -> _BatchPlan:
    """Emit the shape-generic TT program for ``(r, k, p, width)``.

    The emitted stream is *identical* for every instance of the shape:
    all immediates are shape facts (the INF sentinel of the word width,
    the layer indices, the subset dimensions), never problem data — so
    the compiled program and its replay cycle count are properties of
    the shape, and one compile serves every batch of that shape.
    """
    layout = TTLayout(k=k, p=p)
    _choose_r(layout.dims, r)  # rejects a CCC(r) too small for the shape
    inf = (1 << width) - 1  # FixedPointScale's INF sentinel for this width
    prog = ProgramBuilder(r, L=256)
    pool = prog.pool
    W = width

    # ------------------------------------------------------------------
    # Register map — every host-poked row allocated before any macro
    # emits (see the allocation discipline note in bvm.program).
    # ------------------------------------------------------------------
    M = pool.alloc(W)
    Rw = pool.alloc(W)
    Qw = pool.alloc(W)
    TP = pool.alloc(W)
    PB = pool.alloc(W)       # shared partner-copy buffer (R/Q/M routes)
    ARG = pool.alloc(p)
    ARG0 = pool.alloc(p)
    PARG = pool.alloc(p)
    lk = max(1, k.bit_length())
    LAYER = pool.alloc(lk)   # poked: popcount of S per PE
    TB = pool.alloc(k)       # poked: TB[e] = (e ∈ T_i) per PE
    IS_TEST = pool.alloc1()  # poked
    GATE = pool.alloc1()
    GATE2 = pool.alloc1()
    IWORD = pool.alloc(p)    # poked: action-index bits of the PE address
    SBITS = pool.alloc(k)    # poked: subset-membership bits of the address
    PS = pool.alloc(W)       # poked: encoded p(S) per PE
    CW = pool.alloc(W)       # poked: encoded cost t_i per PE
    INFM = pool.alloc1()     # poked: 1 where t_i = INF (pads, user INF)

    # ------------------------------------------------------------------
    # Arithmetic: TP = t_i * p(S), with the INF sentinel forced.
    # ------------------------------------------------------------------
    prog.mark("arith-inputs")
    bs.mult_into(prog, TP, PS, CW)
    # Infinite-cost actions force TP = INF directly — the sentinel must
    # not depend on p(S)'s encoding.
    prog.enable_from(INFM)
    bs.set_word_const(prog, TP, inf)
    prog.enable_all()
    pool.free(*PS, *CW, INFM)

    # M init: INF everywhere, 0 on the empty set's PEs.
    prog.mark("m-init")
    bs.set_word_const(prog, M, inf)
    bs.equals_const(prog, LAYER, 0, GATE)
    prog.enable_from(GATE)
    bs.set_word_const(prog, M, 0)
    prog.enable_all()
    bs.copy_word(prog, ARG0, IWORD)
    bs.copy_word(prog, ARG, ARG0)

    # The §6 TT() loop — the cached program phase 3 of a single
    # instance splices too.
    regs = _LoopRegs(
        tuple(M), tuple(Rw), tuple(Qw), tuple(TP), tuple(PB), tuple(ARG),
        tuple(ARG0), tuple(PARG), tuple(LAYER), tuple(TB), IS_TEST, GATE,
        GATE2, tuple(SBITS),
    )
    prog.splice(_tt_loop(r, k, p, width, prog.L, regs, pool.state()))

    n = (1 << r) * (1 << (1 << r))
    q = np.arange(n, dtype=np.int64)
    i_pe = q & ((1 << p) - 1)
    s_pe = (q >> p) & ((1 << k) - 1)
    layer_pe = popcount_array(s_pe, k)
    return _BatchPlan(
        prog=prog, layout=layout, M=M, ARG=ARG,
        IWORD=IWORD, SBITS=SBITS, LAYER=LAYER, TB=TB, IS_TEST=IS_TEST,
        PS=PS, CW=CW, INFM=INFM, r=r, width=width,
        i_pe=i_pe, s_pe=s_pe, layer_pe=layer_pe,
    )


def build_bvm_tt_batch(r: int, k: int, p: int, width: int = 16) -> _BatchPlan:
    """Public wrapper of the cached shape-generic batch program."""
    return _batch_plan(r, k, p, width)


def _saturating_subset_sums(enc_weights: list[int], k: int, width: int) -> np.ndarray:
    """Encoded p(S) for every subset, replicating the machine's sticky
    saturating bit-serial adds (element order, all-ones absorbing)."""
    limit = 1 << width
    inf = limit - 1
    acc = np.zeros(1 << k, dtype=np.int64)
    sub = np.arange(1 << k, dtype=np.int64)
    for e in range(k):
        sel = ((sub >> e) & 1) == 1
        acc[sel] += enc_weights[e]
        acc[acc >= limit] = inf
    return acc


def _lane_rows(plan: _BatchPlan, padded: TTProblem, scale, enc_costs, enc_weights) -> list:
    """One instance's host-loaded rows as ``(register, bool row)`` pairs
    (the host pokes them at zero machine cycles)."""
    i_pe, s_pe = plan.i_pe, plan.s_pe
    rows = []
    for w, row in enumerate(plan.IWORD):
        rows.append((row, ((i_pe >> w) & 1).astype(bool)))
    for e, row in enumerate(plan.SBITS):
        rows.append((row, ((s_pe >> e) & 1).astype(bool)))
    for w, row in enumerate(plan.LAYER):
        rows.append((row, ((plan.layer_pe >> w) & 1).astype(bool)))
    subs = np.array([a.subset for a in padded.actions], dtype=np.int64)
    tests = np.array([a.is_test for a in padded.actions], dtype=bool)
    for e, row in enumerate(plan.TB):
        rows.append((row, ((subs[i_pe] >> e) & 1).astype(bool)))
    rows.append((plan.IS_TEST, tests[i_pe]))
    ps = _saturating_subset_sums(enc_weights, plan.layout.k, plan.width)[s_pe]
    for w, row in enumerate(plan.PS):
        rows.append((row, ((ps >> w) & 1).astype(bool)))
    cw = np.array([min(c, scale.inf) for c in enc_costs], dtype=np.int64)[i_pe]
    for w, row in enumerate(plan.CW):
        rows.append((row, ((cw >> w) & 1).astype(bool)))
    is_inf = np.array([c == scale.inf for c in enc_costs], dtype=bool)
    rows.append((plan.INFM, is_inf[i_pe]))
    return rows


def _lane_machine(plan: _BatchPlan, encs) -> PackedBVM:
    """A packed machine with one lane per encoded instance of ``encs``.

    Each row is loaded whole, one pack over its ``(lanes, n)`` array:
    poking lane by lane would rewrite the row once per lane.
    """
    machine = PackedBVM(plan.r, L=plan.prog.L, lanes=len(encs))
    loads = [_lane_rows(plan, *enc) for enc in encs]
    for j, (reg, _) in enumerate(loads[0]):
        machine.poke(reg, np.stack([rows[j][1] for rows in loads]))
    return machine


def solve_tt_bvm_batch(
    problems,
    width: int = 16,
    r: int | None = None,
    backend: str = "packed",
) -> list[BVMTTResult]:
    """Solve many TT instances through lockstep batched replays.

    Instances are grouped by shape ``(r, k, p)``; each group loads its
    per-lane data into one :class:`~repro.bvm.packed.PackedBVM` with a
    lane per instance and replays the shape's compiled program *once*,
    so B instances cost one replay's interpreter overhead.  Ragged
    batches (mixed ``k``/``N``) simply form several groups.  Results
    come back in input order, each lane bit-identical to a ``B = 1`` run
    and to :func:`solve_tt_bvm` on the same instance.

    ``backend="bool"`` runs each lane of the *same* shape-generic poked
    program on the boolean oracle machine instead (slow; differential
    use).  ``cycles`` is the lockstep replay's machine-cycle count — a
    shape property, identical for every lane of a group.
    """
    if backend not in BVM_BACKENDS:
        raise InvalidProblem(
            f"unknown batch backend {backend!r} (choose from {BVM_BACKENDS})"
        )
    problems = list(problems)
    results: list[BVMTTResult | None] = [None] * len(problems)
    groups: dict[tuple[int, int, int], list] = {}
    for idx, problem in enumerate(problems):
        problem.require_adequate()
        padded = pad_actions(problem)
        layout = TTLayout.for_problem(problem)
        rr = _choose_r(layout.dims, r)
        scale, enc_costs, enc_weights = _encode_instance(
            problem, padded, layout.k, width
        )
        groups.setdefault((rr, layout.k, layout.p), []).append(
            (idx, problem, (padded, scale, enc_costs, enc_weights))
        )

    for (rr, k, p), group in groups.items():
        plan = _batch_plan(rr, k, p, width)
        if backend == "packed":
            machine = _lane_machine(plan, [enc for _, _, enc in group])
            cycles = plan.prog.compiled().run(machine)
        for lane, (idx, problem, enc) in enumerate(group):
            if backend == "packed":
                read = partial(machine.read, lane=lane)
            else:
                machine = plan.prog.build_machine(backend="bool")
                for reg, bits in _lane_rows(plan, *enc):
                    machine.poke(reg, bits)
                cycles = plan.prog.run(machine)
                read = machine.read
            scale = enc[1]
            cost, best = _decode_tables(
                plan.M, plan.ARG, read, machine.n, plan.layout, scale, problem
            )
            results[idx] = BVMTTResult(
                problem=problem, layout=plan.layout, scale=scale,
                cost=cost, best_action=best, cycles=cycles, r=rr, width=width,
                backend="packed-batch" if backend == "packed" else "bool",
            )
    return results  # type: ignore[return-value]
