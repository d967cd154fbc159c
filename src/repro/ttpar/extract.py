"""Optimal-tree reconstruction from parallel cost tables.

After the parallel run, every PE ``(S, ·)`` holds ``C(S)`` and the index
of a minimizing action (the ``ARG`` register flooded alongside ``M``).
Turning the tables into an explicit procedure is the standard DP policy
walk; the only wrinkle is that ``ARG`` may name a *padding* treatment only
on infeasible subsets, which reconstruction must treat as failure.

``tree_from_tables`` also re-derives the argmin from the cost table when
the recorded policy is missing/stale (``best_action=None``), which doubles
as an internal consistency check between ``C`` and the recurrence.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import BEST_DTYPE
from ..core.problem import TTProblem
from ..core.tree import TTNode, TTTree

__all__ = ["tree_from_tables", "rederive_policy"]


def rederive_policy(problem: TTProblem, cost: np.ndarray) -> np.ndarray:
    """Recompute a minimizing action per subset from the cost table alone.

    Follows the determinism contract of :mod:`repro.core.sequential`
    exactly — candidates scanned in action-index order, strict ``<``
    replacement, and the float evaluation order
    ``((c_i * p(S)) + C(inter)) + C(rest)`` — so on a table produced by
    any in-tree backend the result is bit-for-bit ``DPResult.best_action``.
    (An earlier version added ``C(rest)`` before ``C(inter)``; float
    addition is not associative, so on near-tied candidates that flipped
    argmins relative to the DP and could claim values the table never
    contained.)

    Infeasible subsets (``C(S)`` infinite) always get ``-1``: even on an
    inconsistent table no action is ever emitted for a live-set that has
    no successful sub-procedure.
    """
    n_sub = 1 << problem.k
    best = np.full(n_sub, -1, dtype=BEST_DTYPE)
    masks = np.arange(n_sub, dtype=np.int64)
    running = np.full(n_sub, np.inf)
    p = _subset_weight_vector(problem)
    for i, act in enumerate(problem.actions):
        t = act.subset
        inter = masks & t
        rest = masks & ~t
        value = act.cost * p
        if act.is_test:
            value = value + cost[inter] + cost[rest]
            invalid = (inter == 0) | (rest == 0)
        else:
            value = value + cost[rest]
            invalid = inter == 0
        value = np.where(invalid, np.inf, value)
        better = value < running
        running = np.where(better, value, running)
        best = np.where(better, i, best)
    best[0] = -1
    best[~np.isfinite(np.asarray(cost, dtype=np.float64))] = -1
    return best


def _subset_weight_vector(problem: TTProblem) -> np.ndarray:
    from ..core.sequential import subset_weights

    return subset_weights(problem)


def tree_from_tables(
    problem: TTProblem, cost: np.ndarray, best_action: np.ndarray | None
) -> TTTree:
    """Build an optimal :class:`TTTree` from ``C(S)`` (+ optional policy)."""
    if not np.isfinite(cost[problem.universe]):
        raise ValueError("no successful procedure exists (C(U) is infinite)")
    if best_action is None:
        best_action = rederive_policy(problem, cost)

    n_real = problem.n_actions

    def build(live: int) -> TTNode | None:
        if live == 0:
            return None
        i = int(best_action[live])
        if i < 0 or i >= n_real:
            raise ValueError(
                f"policy names action {i} on subset {live:#x}; table is "
                "inconsistent or the subset is infeasible"
            )
        act = problem.actions[i]
        node = TTNode(action_index=i, live_set=live)
        if act.is_test:
            node.pos = build(live & act.subset)
            node.neg = build(live & ~act.subset)
        else:
            node.cont = build(live & ~act.subset)
        return node

    return TTTree(problem, build(problem.universe))
