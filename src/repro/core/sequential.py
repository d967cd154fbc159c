"""Sequential DP solver for the TT problem (the paper's comparator).

The paper's speedup claims are made against "the known sequential algorithm
which could be obtained by modifying the backward induction algorithm given
by Garey": process the ``2^k`` subsets in order of increasing size and, for
each subset ``S`` and action ``i``, evaluate

* test ``i``:       ``M[S,i] = c_i * p(S) + C(S ∩ T_i) + C(S - T_i)``
* treatment ``i``:  ``M[S,i] = c_i * p(S) + C(S - T_i)``

taking ``C(S) = min_i M[S,i]``.  Non-splitting tests and non-progressing
treatments are excluded via ``INF`` sentinels exactly as in the paper.

Two entry points are provided:

* :func:`solve_dp` — the production solver at one worker: the one layer
  loop, :func:`repro.core.parallel.run_layers`, over unshared in-RAM
  tables with no worker pool; this is the throughput baseline used by the
  speedup benchmarks.
* :func:`solve_dp_reference` — a deliberately plain, loop-based rendition of
  the same recurrence used as an internal cross-check in the test suite.

Determinism contract (relied upon by every backend, including the
multiprocess engine in :mod:`repro.core.parallel`):

* **Tie-break rule.**  ``best_action[S]`` is the *lowest* action index
  attaining ``C(S)``: candidates are scanned in index order and only a
  strictly smaller value (``<``) replaces the incumbent.  Backends shard
  over *subsets*, never over actions, so sharding order can never flip a
  tie.
* **Float evaluation order.**  Every backend evaluates
  ``((c_i * p(S)) + C(S ∩ T_i)) + C(S - T_i)`` for tests and
  ``(c_i * p(S)) + C(S - T_i)`` for treatments, in exactly that
  association; float addition is not associative, so a fixed order is what
  makes ``cost`` and ``best_action`` match bit-for-bit across backends.
* **op_count semantics.**  ``op_count`` counts every ``M[S,i]``
  candidate evaluation, *including* the ones rejected by the
  non-splitting / non-progressing sentinels — i.e. exactly
  ``(2^k - 1) * N`` — matching the paper's sequential work measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.metrics import zeroed_metrics, zeroed_recovery
from ..util.bitops import subsets_of_size
from .kernels import BEST_DTYPE, COST_DTYPE, LayerArena
from .problem import TTProblem
from .tree import TTNode, TTTree

__all__ = [
    "DPResult",
    "solve_dp",
    "solve_dp_reference",
    "solve_layer_kernel",
    "subset_weights",
    "optimal_cost",
    "layer_sizes",
]

INF = np.inf


def subset_weights(problem: TTProblem, out: np.ndarray | None = None) -> np.ndarray:
    """Vector ``p`` with ``p[S]`` = total weight of subset ``S`` (all ``2^k``).

    Uses the in-place butterfly accumulation: viewing ``p`` as blocks of
    ``2^(j+1)``, the upper half of each block is exactly the masks with bit
    ``j`` set, so one strided ``+= w_j`` per object suffices — no ``2^k``
    temporaries.  Per entry the additions happen in ascending object order
    over the *set* bits only, which is bit-for-bit the order of
    :meth:`TTProblem.weight_of` (skipped zero-additions are exact no-ops).

    ``out`` — a float64 array of ``2^k`` entries, e.g. a store's shared
    or file-backed ``p`` — is zeroed and filled in place (and returned)
    instead of allocating a new vector.
    """
    n_sub = 1 << problem.k
    if out is None:
        out = np.zeros(n_sub, dtype=np.float64)
    elif out.shape != (n_sub,):
        raise ValueError(f"out must hold {n_sub} weights, got shape {out.shape}")
    else:
        out[:] = 0.0
    for j, w in enumerate(problem.weights):
        half = 1 << j
        out.reshape(-1, 2 * half)[:, half:] += w
    return out


@dataclass
class DPResult:
    """Output of a DP solve: full cost table plus argmin policy.

    Attributes
    ----------
    problem:
        The instance solved.
    cost:
        ``C(S)`` for every subset mask ``S`` (``np.inf`` where no successful
        sub-procedure exists).
    best_action:
        Index of a minimizing action per subset (``-1`` for the empty set
        and for infeasible subsets), as ``int32``
        (:data:`~repro.core.kernels.BEST_DTYPE`) from every backend.
    op_count:
        Number of ``M[S,i]`` evaluations performed — the sequential work
        measure ``(2^k - 1) * N`` used by the speedup analysis.
    recovery:
        Machine-readable recovery log of the layer loop (retries,
        respawns, fallbacks, per-layer wall clock; see
        :class:`repro.core.supervisor.RecoveryLog`).  The reference
        oracle, which runs no layer loop, reports the same keys with
        everything zeroed — consumers never have to guard against absent
        fields.
    metrics:
        Flat metrics snapshot from the solve's
        :class:`repro.obs.metrics.MetricsRegistry` (shard/layer timings,
        store commit latency, cache hit rates).  Same uniformity rule:
        the reference oracle carries the full key set, zeroed.
    backend:
        What ran, derived from ``workers``: ``"numpy"`` for one worker,
        ``"parallel"`` for more, or ``"reference"`` for the plain-Python
        oracle.
    workers:
        Processes the solve ran on, the parent included.
    """

    problem: TTProblem
    cost: np.ndarray
    best_action: np.ndarray
    op_count: int
    recovery: dict | None = None
    metrics: dict | None = None
    backend: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        # Uniform observability contract: every backend's result exposes
        # the full recovery/metrics key set, so `result.recovery["retries"]`
        # is always valid — no `is not None` guards, no missing keys.
        if self.recovery is None:
            self.recovery = zeroed_recovery()
        if self.metrics is None:
            self.metrics = zeroed_metrics()

    @property
    def optimal_cost(self) -> float:
        """``C(U)``: minimum expected cost of a successful TT procedure."""
        return float(self.cost[self.problem.universe])

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.optimal_cost)

    def tree(self) -> TTTree:
        """Extract an optimal procedure by following the argmin policy."""
        if not self.feasible:
            raise ValueError("no successful procedure exists (inadequate spec)")
        return TTTree(self.problem, self._build(self.problem.universe))

    def _build(self, live: int) -> TTNode | None:
        if live == 0:
            return None
        i = int(self.best_action[live])
        if i < 0:
            raise ValueError(f"no feasible action recorded for subset {live:#x}")
        act = self.problem.actions[i]
        node = TTNode(action_index=i, live_set=live)
        inter = live & act.subset
        rest = live & ~act.subset
        if act.is_test:
            node.pos = self._build(inter)
            node.neg = self._build(rest)
        else:
            node.cont = self._build(rest)
        return node


def solve_layer_kernel(
    layer: np.ndarray,
    p_layer: np.ndarray,
    cost: np.ndarray,
    subsets: np.ndarray,
    costs: np.ndarray,
    is_test: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one (slice of a) popcount layer of the recurrence.

    ``layer`` holds the subset masks to solve, ``p_layer`` their weights,
    ``cost`` the (partially filled) global ``C`` table — every gather index
    with a *valid* candidate lands in an already-completed smaller layer.
    Returns ``(layer_cost, layer_arg)`` for exactly those masks.

    This is the *reference* kernel: a straight-line rendition of the
    per-subset argmin whose tie-break rule (lowest action index wins)
    and float evaluation order ``((c_i * p) + C(inter)) + C(rest)``
    define the determinism contract.  The production backends run
    :func:`repro.core.kernels.solve_layer_kernel_fused`, which is held
    bit-for-bit to this kernel by the differential test suite; this one
    is kept as the oracle and as the baseline the kernel benchmarks
    compare against.
    """
    layer_best = np.full(layer.size, INF, dtype=COST_DTYPE)
    layer_arg = np.full(layer.size, -1, dtype=BEST_DTYPE)
    for i in range(len(costs)):
        t = int(subsets[i])
        inter = layer & t
        rest = layer & ~t
        value = costs[i] * p_layer
        if is_test[i]:
            value = value + cost[inter] + cost[rest]
            invalid = (inter == 0) | (rest == 0)
        else:
            value = value + cost[rest]
            invalid = inter == 0
        value = np.where(invalid, INF, value)
        better = value < layer_best
        layer_best = np.where(better, value, layer_best)
        layer_arg = np.where(better, i, layer_arg)
    return layer_best, layer_arg


def solve_dp(
    problem: TTProblem,
    *,
    p: np.ndarray | None = None,
    arena: LayerArena | None = None,
) -> DPResult:
    """Vectorized backward-induction solve of the TT recurrence.

    :func:`~repro.core.parallel.solve_dp_parallel` at one worker: every
    popcount layer is one parent slice over unshared RAM tables, which
    borrow a precomputed ``p`` (from :func:`subset_weights`) instead of
    copying it.  Pass a warm :class:`~repro.core.kernels.LayerArena` to
    reuse kernel scratch across solves.
    """
    from .parallel import solve_dp_parallel  # runtime import: parallel builds on this

    return solve_dp_parallel(problem, workers=1, p=p, arena=arena)


def solve_dp_reference(problem: TTProblem) -> DPResult:
    """Plain-Python rendition of the recurrence (test oracle for
    :func:`solve_dp`; identical semantics, no vectorization).

    Follows the same determinism contract as the vectorized/parallel
    backends — candidates scanned in action-index order, strict ``<``
    replacement (lowest index wins ties), and the float evaluation order
    ``((c_i * p(S)) + C(inter)) + C(rest)`` — so ``cost`` and
    ``best_action`` agree with the other backends bit-for-bit, not just
    within tolerance.
    """
    k, n_act = problem.k, problem.n_actions
    n_sub = 1 << k
    cost = np.full(n_sub, INF, dtype=COST_DTYPE)
    cost[0] = 0.0
    best = np.full(n_sub, -1, dtype=BEST_DTYPE)
    ops = 0

    for j in range(1, k + 1):
        for s in subsets_of_size(k, j):
            ps = problem.weight_of(s)
            best_val, best_i = INF, -1
            for i, act in enumerate(problem.actions):
                ops += 1
                inter = s & act.subset
                rest = s & ~act.subset
                if act.is_test:
                    if inter == 0 or rest == 0:
                        continue
                    val = act.cost * ps + cost[inter] + cost[rest]
                else:
                    if inter == 0:
                        continue
                    val = act.cost * ps + cost[rest]
                if val < best_val:
                    best_val, best_i = val, i
            cost[s] = best_val
            best[s] = best_i

    return DPResult(
        problem=problem, cost=cost, best_action=best, op_count=ops,
        backend="reference", workers=1,
    )


def optimal_cost(problem: TTProblem) -> float:
    """Convenience: just the minimum expected cost ``C(U)``."""
    return solve_dp(problem).optimal_cost


def layer_sizes(k: int) -> list[int]:
    """Number of subsets per popcount layer (binomials) — used by analysis."""
    out = [1]
    for j in range(1, k + 1):
        out.append(out[-1] * (k - j + 1) // j)
    return out
