"""The paper's parallel TT algorithm (§5–§6) as an ASCEND program.

One PE per ``(S, i)`` pair.  Registers:

=========  ====================================================
``M``      the DP value table ``M[S,i]`` (``C(S)`` after flooding)
``R``      propagation buffer for ``M[S - T_i, i]``
``Q``      propagation buffer for ``M[S ∩ T_i, i]``
``TP``     precomputed charge ``t_i * p(S)``
``ARG``    action index carried through the minimization
``LAYER``  ``#S`` (which DP layer this PE belongs to)
``GATE``   scratch: "my layer is the one being finalized"
=========  ====================================================

Program structure, per layer ``j = 1..k`` (exactly the TT() loop of §6):

1. ``R = Q = M`` everywhere (local);
2. the ``e``-loop: for ``e = 0..k-1``, one exchange along subset
   dimension ``p+e``; a PE with ``e ∈ S ∩ T_i`` pulls ``R`` from its
   ``S - {e}`` neighbour, and a PE with ``e ∈ S - T_i`` pulls ``Q`` —
   after which ``R[S,i] = M[S-T_i, i]`` and ``Q[S,i] = M[S∩T_i, i]``
   (the broadcast of Figs. 8–9);
3. finalize (local, layer ``j`` only):
   ``M = TP (+ Q if i is a test) + R``, in the DP's float association
   — ``INF`` charges automatically exclude non-splitting tests and
   non-progressing treatments;
4. the §6 ASCEND minimization over the ``i`` dimensions ``0..p-1``,
   flooding ``C(S)`` (and the argmin index) into every ``(S, ·)`` PE.

The whole program is built once and runs on either the ideal
:class:`~repro.hypercube.machine.Hypercube` or the
:class:`~repro.hypercube.ccc.CCC` emulator (with replication when the CCC
is larger than the problem), giving identical tables — one of the central
correctness claims of the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import BEST_DTYPE
from ..core.problem import TTProblem
from ..core.sequential import subset_weights
from ..hypercube.ccc import CCC, CCCStats
from ..hypercube.machine import DimOp, Hypercube, LocalOp, Program, RunStats, State
from .layout import TTLayout, choose_ccc_r, pad_actions

__all__ = [
    "ParallelTTResult",
    "build_tt_state",
    "build_tt_program",
    "solve_tt_hypercube",
    "solve_tt_ccc",
    "EloopTrace",
    "trace_r_propagation",
]

INF = np.inf


@dataclass
class ParallelTTResult:
    """Cost table and machine counters from a parallel TT run."""

    problem: TTProblem
    layout: TTLayout
    cost: np.ndarray         # C(S) per subset mask, shape (2^k,)
    best_action: np.ndarray  # argmin action per subset (into *padded* list)
    stats: RunStats | None = None
    ccc_stats: CCCStats | None = None

    @property
    def optimal_cost(self) -> float:
        return float(self.cost[self.problem.universe])

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.optimal_cost)

    def tree(self):
        """Extract an optimal procedure (see :mod:`repro.ttpar.extract`)."""
        from .extract import tree_from_tables

        return tree_from_tables(self.problem, self.cost, self.best_action)


def build_tt_state(problem: TTProblem, state_dims: int | None = None) -> tuple[TTLayout, State]:
    """Initialize machine registers for ``problem``.

    ``state_dims`` may exceed the layout's ``k + p`` (CCC replication):
    all register contents depend only on the low ``k + p`` address bits,
    so replica PEs march in lockstep with their originals.
    """
    padded = pad_actions(problem)
    layout = TTLayout.for_problem(problem)
    dims = layout.dims if state_dims is None else state_dims
    if dims < layout.dims:
        raise ValueError(f"need at least {layout.dims} dims, got {dims}")

    st = State(dims)
    addr = st.addresses
    s_of = layout.subset_of(addr)
    i_of = layout.action_of(addr)

    p_table = subset_weights(problem)  # p(S) over 2^k masks
    costs = padded.cost_array          # padded costs; pads are INF
    is_test = padded.test_mask_array

    ps = p_table[s_of]
    with np.errstate(invalid="ignore"):  # INF pad cost * p(∅)=0 -> overwritten
        tp = costs[i_of] * ps
    tp[s_of == 0] = 0.0

    st["M"] = np.where(s_of == 0, 0.0, INF)
    st["R"] = st["M"]
    st["Q"] = st["M"]
    st["TP"] = tp
    st["ARG"] = i_of
    st["LAYER"] = layout.layer_of(addr)
    st["GATE"] = np.zeros(st.n, dtype=bool)
    st["IS_TEST"] = is_test[i_of]
    return layout, st


def _eloop_op(layout: TTLayout, padded: TTProblem, e: int) -> DimOp:
    """One ``e``-loop exchange: fused R- and Q-pulls along dim ``p+e``."""
    t_masks = padded.subset_array
    dim = layout.subset_dim(e)

    def fn(own, partner, addr):
        i_of = layout.action_of(addr)
        in_t = ((t_masks[i_of] >> e) & 1).astype(bool)
        in_s = ((addr >> dim) & 1).astype(bool)  # e ∈ S for the receiver
        take_r = in_s & in_t          # e ∈ S ∩ T_i : pull R from S - {e}
        take_q = in_s & ~in_t         # e ∈ S - T_i : pull Q from S - {e}
        return {
            "R": np.where(take_r, partner["R"], own["R"]),
            "Q": np.where(take_q, partner["Q"], own["Q"]),
        }

    return DimOp(dim=dim, fn=fn, label=f"e-loop e={e}")


def _copy_buffers_op() -> LocalOp:
    def fn(own, addr):
        return {"R": own["M"].copy(), "Q": own["M"].copy()}

    return LocalOp(fn, label="R = Q = M")


def _finalize_op(j: int) -> LocalOp:
    """Layer-``j`` combine: ``M = TP (+ Q if test) + R``; reset ``ARG``."""

    def fn(own, addr):
        gate = own["LAYER"] == j
        # The DP's association, ((c_i * p) + C(S ∩ T_i)) + C(S - T_i):
        # another order rounds differently, and a near-tie then flips
        # the argmin.
        m = (own["TP"] + np.where(own["IS_TEST"], own["Q"], 0.0)) + own["R"]
        return {
            "M": np.where(gate, m, own["M"]),
            # ARG restarts from this PE's own action index each layer
            # (stored once in ARG0 at init).
            "ARG": np.where(gate, own["ARG0"], own["ARG"]),
            "GATE": gate,
        }

    return LocalOp(fn, label=f"finalize layer {j}")


def _min_op(t: int) -> DimOp:
    """§6 minimization step ``M[S,i] = min(M[S,i], M[S,i#t])`` with argmin
    carried along (smaller action index wins ties, matching the DP)."""

    def fn(own, partner, addr):
        better = partner["M"] < own["M"]
        tie = (partner["M"] == own["M"]) & (partner["ARG"] < own["ARG"])
        take = own["GATE"] & (better | tie)
        return {
            "M": np.where(take, partner["M"], own["M"]),
            "ARG": np.where(take, partner["ARG"], own["ARG"]),
        }

    return DimOp(dim=t, fn=fn, label=f"min dim {t}")


def build_tt_program(problem: TTProblem) -> tuple[TTLayout, Program]:
    """The complete TT() program of §6 for ``problem``."""
    padded = pad_actions(problem)
    layout = TTLayout.for_problem(problem)
    program: Program = []
    for j in range(1, layout.k + 1):
        program.append(_copy_buffers_op())
        for e in range(layout.k):
            program.append(_eloop_op(layout, padded, e))
        program.append(_finalize_op(j))
        for t in range(layout.p):
            program.append(_min_op(t))
    return layout, program


def _prepare(problem: TTProblem, state_dims: int | None):
    layout, st = build_tt_state(problem, state_dims)
    # Keep each PE's own action index available for ARG resets.
    st["ARG0"] = st["ARG"]
    _, program = build_tt_program(problem)
    return layout, st, program


def _collect(problem: TTProblem, layout: TTLayout, st: State) -> tuple[np.ndarray, np.ndarray]:
    n_sub = 1 << layout.k
    masks = np.arange(n_sub, dtype=np.int64)
    addr0 = (masks << layout.p)  # representative PE (S, i=0)
    cost = np.asarray(st["M"])[addr0].astype(np.float64)
    best = np.asarray(st["ARG"])[addr0].astype(BEST_DTYPE)
    best[~np.isfinite(cost)] = -1
    best[0] = -1
    return cost, best


def solve_tt_hypercube(problem: TTProblem) -> ParallelTTResult:
    """Run the parallel TT algorithm on the ideal hypercube simulator."""
    problem.require_adequate()
    layout, st, program = _prepare(problem, state_dims=None)
    hc = Hypercube(layout.dims)
    stats = hc.run(st, program)
    cost, best = _collect(problem, layout, st)
    return ParallelTTResult(problem, layout, cost, best, stats=stats)


def solve_tt_ccc(
    problem: TTProblem, r: int | None = None, schedule: str = "pipelined"
) -> ParallelTTResult:
    """Run the parallel TT algorithm on the CCC emulator.

    ``r`` defaults to the smallest CCC that fits ``k + p`` dimensions;
    smaller problems are replicated across the unused high dimensions.
    """
    problem.require_adequate()
    layout = TTLayout.for_problem(problem)
    r = choose_ccc_r(layout.dims) if r is None else r
    ccc = CCC(r)
    if ccc.dims < layout.dims:
        raise ValueError(f"CCC(r={r}) has {ccc.dims} dims; need {layout.dims}")
    layout, st, program = _prepare(problem, state_dims=ccc.dims)
    ccc_stats = ccc.run(st, program, schedule=schedule)
    cost, best = _collect(problem, layout, st)
    return ParallelTTResult(problem, layout, cost, best, ccc_stats=ccc_stats)


# ----------------------------------------------------------------------
# Fig 8/9 tracing: the R-propagation broadcast, step by step
# ----------------------------------------------------------------------


@dataclass
class EloopTrace:
    """Snapshots of where each ``R[S,i]`` value originates, per ``e`` step.

    ``source[e][S]`` is the subset whose ``M`` value PE ``(S, i)`` holds
    after the ``e``-th iteration — the contents of the paper's Fig. 9
    table (which tracks ``R`` for one fixed test ``T``)."""

    test_mask: int
    k: int
    source: list[dict[int, int]]


def trace_r_propagation(k: int, test_mask: int) -> EloopTrace:
    """Reproduce Fig. 9: run the ``e``-loop on symbolic origins.

    Instead of numeric ``M`` values each PE carries the *mask it got its
    value from*; after the full loop PE ``S`` must hold ``S - T`` — the
    correctness invariant proved in §6 (Fig. 8's table).
    """
    n_sub = 1 << k
    origin = np.arange(n_sub, dtype=np.int64)  # R[S] = M[S] initially
    snaps: list[dict[int, int]] = []
    masks = np.arange(n_sub, dtype=np.int64)
    for e in range(k):
        in_s = (masks >> e) & 1
        in_t = (test_mask >> e) & 1
        take = (in_s == 1) & (in_t == 1)
        partner = masks ^ (1 << e)
        origin = np.where(take, origin[partner], origin)
        snaps.append({int(s): int(origin[s]) for s in range(n_sub)})
    return EloopTrace(test_mask=test_mask, k=k, source=snaps)
