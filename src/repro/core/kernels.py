"""Fused, allocation-free layer kernels and the cached layer partition.

The reference kernel, ``solve_layer_kernel`` in
:mod:`repro.core.sequential`, materializes for each action ~8
full-layer temporaries (two bitwise intersections, a scaled weight
vector, two table gathers, a validity mask and two ``np.where`` copies),
so a ``k = 18, N = 32`` solve allocates and immediately discards several
hundred MiB — most of it going through ``mmap``/``munmap`` because the
middle layers are far past glibc's malloc threshold.  The kernel here,
:func:`solve_layer_kernel_fused`, removes every per-action allocation:

* all scratch lives in a :class:`LayerArena` of preallocated buffers
  that are reused across actions, tiles, layers and solves;
* every elementwise op writes ``out=`` into the arena
  (``np.bitwise_and``, ``np.multiply``, in-place ``np.add`` for the
  gathered table values, ``cost.take(..., out=)`` for the gathers);
* mask scratch is ``int32`` (masks fit for every ``k <= MAX_K``),
  which halves the bitwise traffic and costs nothing on the gathers;
* the running argmin is updated *branch-free*: ``np.minimum`` for the
  value, and for the action index an ``int32`` max-blend
  (``arg = max(arg, (i + 1) * better)``, decoded by a single ``- 1``
  pass at the end) — valid because the winning action is the *last*
  improving one and ``i`` only ascends, so the running max of
  improving ``i + 1`` is exactly the argmin.  Masked copies
  (``np.copyto(..., where=)``) cost up to 7x more when the
  improvement mask is dense, which it always is for the first few
  actions of a layer scan; the blend is memory-bound so the narrow
  dtype halves its cost, and the ``best`` table is ``int32`` too
  (:data:`BEST_DTYPE`), so the result scatters without a cast;
* the explicit validity masks of the legacy kernel are *dropped
  entirely* — see "table-state invariant" below;
* the subset axis is optionally *tiled* so one tile's working set
  stays L2-resident across the whole action scan instead of streaming
  each full layer N times.

Table-state invariant
---------------------

The fused kernel needs one precondition from its caller: when a layer
is evaluated, ``cost[S] == INF`` for every mask ``S`` *in* that layer.
That makes the legacy validity masks redundant: an invalid candidate
has ``inter == 0`` or ``rest == 0``, and since ``inter | rest == S``
(disjointly), the *other* operand is then ``S`` itself — so the gather
reads ``cost[S] == INF`` and the candidate's value is already ``INF``,
exactly what the legacy kernel's ``np.where(invalid, INF, value)``
produced.  (``cost[0] == 0`` never leaks in: whenever a zero index is
gathered, the companion gather hits ``cost[S] == INF`` and the sum is
``INF``.)  Dropping the masks removes two to three full array passes
per action.

One caller holds the invariant: :func:`solve_slice`, which every host
path runs — every pool shard and every parent slice of the one layer
loop, :func:`~repro.core.parallel.run_layers`, including each layer of
the single-process :func:`~repro.core.sequential.solve_dp`.  It first
sets its own masks to ``INF``.  A slice reads the layer being computed
only at those masks (the self-reads above), and no other process
writes them while it runs: the other slices of the layer write only
their own masks, and the supervisor reaps a killed or timed-out
attempt, or finds a raising one idle, before it retries the slice.  So
that one scatter clears whatever an earlier attempt left there, NaNs
included.  (On a freshly opened store the reset is redundant, and costs
one pass over the layer's masks.)

Bit-for-bit contract
--------------------

The fused kernel is a drop-in replacement for ``solve_layer_kernel``
behind :func:`solve_slice`, so every host backend runs it and it must
preserve the determinism contract of :mod:`repro.core.sequential`
*exactly*:

* candidates are scanned in action-index order and only a strictly
  smaller value (``<``) replaces the incumbent — the masked
  ``np.copyto`` writes exactly the lanes where ``value < best`` held
  *before* the update, which is the same lowest-index tie-break;
* the float evaluation order is ``((c_i * p) + C(inter)) + C(rest)``:
  the in-place adds run left to right, which is the same association;
* invalid candidates evaluate to exactly ``INF`` (table-state
  invariant above), and ``INF < best`` is always false — the same
  reject set as the legacy kernel's explicit masks.

The gathers use ``cost.take(idx, mode="wrap")``: the table has exactly
``2^k`` entries and every index is a mask below ``2^k``, so wrap is an
identity that merely skips per-element bounds checks (the cheap
``layer.max()`` guard at entry keeps a short table from silently
wrapping).  Tiling partitions the subset axis only; each subset's
argmin is computed independently, so the tile size can never change a
result.

:class:`LayerPlan` is the other half of the fix: ``solve_dp`` and
``solve_dp_parallel`` used to recompute the popcount layer partition on
every call.  The plan — popcount-sorted mask order
(:func:`popcount_order_into`, no ``2^k`` sort) plus layer start offsets
(binomial prefix sums) — is computed once per ``k`` and cached, shared
by the sequential path, the parallel engine, checkpoint resume and the
:class:`~repro.core.engine.SolverEngine`.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..config import knob
from ..util.bitops import popcount_array
from .errors import InvalidProblem

__all__ = [
    "COST_DTYPE",
    "BEST_DTYPE",
    "P_DTYPE",
    "ORDER_DTYPE",
    "TABLE_DTYPES",
    "MAX_K",
    "check_k",
    "LayerPlan",
    "layer_plan",
    "layer_starts",
    "popcount_order_into",
    "plan_cache_stats",
    "LayerArena",
    "solve_layer_kernel_fused",
    "solve_slice",
    "PARENT_CHUNK",
]

INF = np.inf


# ----------------------------------------------------------------------
# Table widths
# ----------------------------------------------------------------------

# The dtype of each of a solve's four 2^k tables.  Every site that
# allocates, maps, persists or decodes a table spells its dtype through
# these: 24 bytes per mask in all.  ``best`` holds action indices (-1 =
# none) and ``order`` holds masks, so both fit int32 — the masks because
# k is at most MAX_K.
COST_DTYPE = np.dtype(np.float64)
BEST_DTYPE = np.dtype(np.int32)
P_DTYPE = np.dtype(np.float64)
ORDER_DTYPE = np.dtype(np.int32)
TABLE_DTYPES = {"cost": COST_DTYPE, "best": BEST_DTYPE, "p": P_DTYPE, "order": ORDER_DTYPE}

# The largest k whose masks fit ORDER_DTYPE (and the kernel's int32 mask
# scratch).  A 2^31-mask solve needs 48 GiB of tables, so the limit only
# turns a silent wrap into an error.
MAX_K = 31


def check_k(k: int) -> None:
    """Raise :class:`InvalidProblem` when ``k`` is above :data:`MAX_K`.

    Every DP path calls it before it allocates a ``2^k`` array or a
    spill file.
    """
    if k > MAX_K:
        raise InvalidProblem(
            f"k={k} is above the DP solver's limit of k <= {MAX_K}: "
            f"subset masks are stored as {ORDER_DTYPE}"
        )


# ----------------------------------------------------------------------
# Cached layer partition
# ----------------------------------------------------------------------

# Masks per aligned chunk of popcount_order_into.
_ORDER_CHUNK = 1 << 18


def layer_starts(k: int) -> np.ndarray:
    """The ``k + 2`` layer offsets: ``starts[j]`` = masks of popcount < j."""
    return np.cumsum([0] + [math.comb(k, j) for j in range(k + 1)], dtype=np.int64)


def popcount_order_into(out, k: int) -> None:
    """Fill ``out[:2^k]`` with every mask sorted stably by popcount.

    Masks are placed one power-of-two-aligned chunk ``[lo, lo + 2^c)`` at
    a time: there ``popcount(lo + i) = popcount(lo) + popcount(i)``, so
    one stable popcount sort of ``arange(2^c)`` splits every chunk into
    ascending runs, one per layer.  Chunks are visited in ascending order
    and each run is appended at its layer's cursor, so every layer stays
    ascending — the order a stable argsort of all ``2^k`` popcounts
    gives, without that sort.  ``out`` may be a file-backed memmap: it
    is written one run at a time.
    """
    c = min(k, _ORDER_CHUNK.bit_length() - 1)
    runs = np.argsort(popcount_array(np.arange(1 << c), c), kind="stable")
    run_starts = layer_starts(c)
    cursor = layer_starts(k)
    for lo in range(0, 1 << k, 1 << c):
        base = bin(lo).count("1")
        for p in range(c + 1):
            a, b = run_starts[p], run_starts[p + 1]
            at = cursor[base + p]
            out[at:at + b - a] = runs[a:b] + lo
            cursor[base + p] += b - a


class LayerPlan:
    """Popcount partition of all ``2^k`` masks, computed once per ``k``.

    ``order`` holds every mask sorted stably by popcount (so masks are
    ascending inside each layer — the same order the legacy boolean-mask
    selection produced), and ``starts[j] : starts[j+1]`` brackets layer
    ``j``.  Both arrays are frozen: they are shared by every solve of
    the same ``k`` — a RAM store's ``order`` *is* this array, and each
    pool worker takes it from its own plan — and the checkpoint journal
    stores each layer's slab in this order.
    """

    __slots__ = ("k", "order", "starts")

    def __init__(self, k: int):
        if k < 0:
            raise InvalidProblem(f"layer plan needs k >= 0, got {k}")
        check_k(k)
        order = np.empty(1 << k, dtype=ORDER_DTYPE)
        popcount_order_into(order, k)
        starts = layer_starts(k)
        order.setflags(write=False)
        starts.setflags(write=False)
        self.k = k
        self.order = order
        self.starts = starts

    def bounds(self, j: int) -> tuple[int, int]:
        """``(lo, hi)`` such that ``order[lo:hi]`` is layer ``j``."""
        return int(self.starts[j]), int(self.starts[j + 1])

    def layer(self, j: int) -> np.ndarray:
        """The masks of popcount layer ``j`` (read-only view, ascending)."""
        lo, hi = self.bounds(j)
        return self.order[lo:hi]

    @property
    def max_layer_size(self) -> int:
        """Size of the largest layer — what a :class:`LayerArena` must hold."""
        return int(np.max(np.diff(self.starts)))

    @property
    def nbytes(self) -> int:
        return int(self.order.nbytes + self.starts.nbytes)


_PLAN_LOCK = threading.Lock()
_PLAN_CACHE: dict[int, LayerPlan] = {}
_PLAN_STATS = {"hits": 0, "misses": 0}

# A plan is 4 bytes per mask; 8 cached k's at k <= 20 is at most ~32 MiB
# and in practice a handful of small ones.  Plans for distinct k are
# evicted least-recently-inserted beyond this bound.
_PLAN_CACHE_MAX = 8


def layer_plan(k: int) -> LayerPlan:
    """The cached :class:`LayerPlan` for universe size ``k``.

    Thread-safe; every caller of the same ``k`` shares one frozen plan,
    so building the ``2^k`` mask order is paid once per process instead
    of once per solve.
    """
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(k)
        if plan is None:
            _PLAN_STATS["misses"] += 1
            plan = LayerPlan(k)
            _PLAN_CACHE[k] = plan
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        else:
            _PLAN_STATS["hits"] += 1
        return plan


def plan_cache_stats() -> dict:
    """Process-lifetime hit/miss counts of the layer-plan cache."""
    with _PLAN_LOCK:
        return dict(_PLAN_STATS)


def _clear_plan_cache() -> None:
    """Test hook: drop every cached plan (and its hit/miss stats)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_STATS["hits"] = _PLAN_STATS["misses"] = 0


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------


class LayerArena:
    """Preallocated scratch buffers for :func:`solve_layer_kernel_fused`.

    One arena per thread of execution (the kernel mutates every buffer):
    the sequential solver keeps one per solve-or-engine, each pool worker
    keeps a process-global one.  Buffers grow monotonically to the
    largest request and are reused forever after, so a warm arena makes
    the kernel allocation-free.

    Two pools are kept: *output* buffers sized to one kernel call (the
    running ``best``/``arg``; at most :data:`PARENT_CHUNK` masks under
    :func:`solve_slice`), and *scratch* rows sized to one tile.
    """

    __slots__ = (
        "_out_cap",
        "_scratch_cap",
        "grows",
        "best",
        "arg",
        "masks32",
        "inter",
        "rest",
        "value",
        "gather",
        "better",
        "argdelta",
    )

    def __init__(self) -> None:
        self._out_cap = 0
        self._scratch_cap = 0
        # Pool-growth count: a warm arena should stop growing after its
        # first layer; a nonzero steady-state rate means churn (surfaced
        # as the "arena.grows" metric).
        self.grows = 0
        # Zero-capacity buffers so zero-length requests (empty layers,
        # k = 0 tables) return valid empty views without special-casing.
        self.best = np.empty(0, dtype=np.float64)
        self.arg = np.empty(0, dtype=np.int32)
        self.masks32 = np.empty(0, dtype=np.int32)
        self.inter = np.empty(0, dtype=np.int32)
        self.rest = np.empty(0, dtype=np.int32)
        self.value = np.empty(0, dtype=np.float64)
        self.gather = np.empty(0, dtype=np.float64)
        self.better = np.empty(0, dtype=bool)
        self.argdelta = np.empty(0, dtype=np.int32)

    def out(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the ``best`` (float64) / ``arg`` (int32) output
        buffers, length ``n``.  ``arg`` is int32 on purpose: action
        indices are tiny, the branch-free blend that updates it is
        memory-bound, and it scatters into the int32 ``best`` table
        (:data:`BEST_DTYPE`) without a cast."""
        if n > self._out_cap:
            self.grows += 1
            self.best = np.empty(n, dtype=np.float64)
            self.arg = np.empty(n, dtype=np.int32)
            self._out_cap = n
        return self.best[:n], self.arg[:n]

    def scratch(self, n: int) -> tuple[np.ndarray, ...]:
        """Views of the seven per-tile scratch rows, length ``n``."""
        if n > self._scratch_cap:
            self.grows += 1
            self.masks32 = np.empty(n, dtype=np.int32)
            self.inter = np.empty(n, dtype=np.int32)
            self.rest = np.empty(n, dtype=np.int32)
            self.value = np.empty(n, dtype=np.float64)
            self.gather = np.empty(n, dtype=np.float64)
            self.better = np.empty(n, dtype=bool)
            self.argdelta = np.empty(n, dtype=np.int32)
            self._scratch_cap = n
        return (
            self.masks32[:n],
            self.inter[:n],
            self.rest[:n],
            self.value[:n],
            self.gather[:n],
            self.better[:n],
            self.argdelta[:n],
        )

    @property
    def nbytes(self) -> int:
        """Bytes currently held (capacity, not live use)."""
        return (
            self._out_cap * (8 + 4)
            + self._scratch_cap * (4 + 4 + 4 + 8 + 8 + 1 + 4)
        )


# ----------------------------------------------------------------------
# The fused kernel
# ----------------------------------------------------------------------


def solve_layer_kernel_fused(
    layer: np.ndarray,
    p_layer: np.ndarray,
    cost: np.ndarray,
    subsets: np.ndarray,
    costs: np.ndarray,
    is_test: np.ndarray,
    *,
    arena: LayerArena | None = None,
    tile: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-free, tiled evaluation of one popcount layer.

    Drop-in replacement for
    :func:`repro.core.sequential.solve_layer_kernel` — same arguments,
    same ``(layer_cost, layer_arg)`` result, bit-for-bit — *provided*
    the table-state invariant holds: ``cost[S] == INF`` for every ``S``
    in ``layer`` (see the module docstring: :func:`solve_slice`, the one
    caller in this package, holds it by resetting its own masks).

    ``arena`` supplies the scratch buffers; omit it for a private
    throwaway arena (correct, but the allocation savings then only apply
    within this one call).  ``tile`` bounds how many subsets one pass
    over the actions touches (``0`` disables tiling; default the
    ``REPRO_KERNEL_TILE`` knob, see :mod:`repro.config`).

    The returned arrays are *views into the arena*: valid until the next
    kernel call on the same arena, so scatter them into the cost table
    (or copy) before reusing it.  Every caller in this package scatters
    immediately.
    """
    n = layer.size
    if arena is None:
        arena = LayerArena()
    tile = knob("REPRO_KERNEL_TILE", tile)
    best, arg = arena.out(n)
    best.fill(INF)
    n_act = len(costs)
    if n == 0 or n_act == 0:
        arg.fill(-1)
        return best, arg
    if int(layer.max()) >= cost.size:
        raise InvalidProblem(
            f"cost table has {cost.size} entries but the layer holds mask "
            f"{int(layer.max())} — the table must cover all 2^k subsets"
        )
    # arg runs in the +1 encoding (0 = no action) so the per-action
    # update can be a running max; decoded by the single -1 pass below.
    arg.fill(0)

    step = n if tile <= 0 else min(tile, n)
    masks32, inter, rest, value, gather, better, argdelta = arena.scratch(step)
    take = cost.take

    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = hi - lo
        lay = masks32[:m]
        np.copyto(lay, layer[lo:hi])
        p_t = p_layer[lo:hi]
        b_t = best[lo:hi]
        a_t = arg[lo:hi]
        it = inter[:m]
        rs = rest[:m]
        val = value[:m]
        gat = gather[:m]
        bet = better[:m]
        adel = argdelta[:m]
        for i in range(n_act):
            t = int(subsets[i])
            np.bitwise_and(lay, ~t, out=rs)
            # ((c_i * p) + C(inter)) + C(rest): in-place adds keep the
            # association of the determinism contract.
            np.multiply(p_t, costs[i], out=val)
            if is_test[i]:
                np.bitwise_and(lay, t, out=it)
                np.add(val, take(it, out=gat, mode="wrap"), out=val)
            np.add(val, take(rs, out=gat, mode="wrap"), out=val)
            # Strict <: invalid candidates hold exactly INF (table-state
            # invariant) and can never be strictly below the incumbent,
            # so this is the same accept set — and the same lowest-index
            # tie-break — as the legacy masked update.  The update itself
            # is branch-free and density-independent: np.minimum keeps
            # the incumbent's bits on a tie (all values are >= +0.0, so
            # the -0.0 != +0.0 corner cannot arise), and the arg
            # max-blend is exact in int32 — the winner is the last
            # improving action, and i only ascends, so the running max
            # of improving i + 1 is the argmin in the +1 encoding.
            np.less(val, b_t, out=bet)
            np.minimum(b_t, val, out=b_t)
            np.multiply(bet, np.int32(i + 1), out=adel)
            np.maximum(a_t, adel, out=a_t)
    np.subtract(arg, 1, out=arg)
    return best, arg


# Masks per kernel call of solve_slice: bounds the arena's output
# buffers on every slice — a child's shard and the parent's alike (each
# subset's argmin is independent, so chunking cannot change a result).
PARENT_CHUNK = 1 << 18


def solve_slice(cost, best, p, order, lo, hi, subsets, costs, is_test, arena) -> int:
    """Solve masks ``order[lo:hi]`` of one layer in place over four tables.

    ``cost``, ``best``, ``p`` and ``order`` are the four ``2^k`` tables
    of a :class:`~repro.store.LayerStore` (shared memory, plain RAM or
    file-backed memmaps), as the parent or a pool child maps them.  Each
    chunk of :data:`PARENT_CHUNK` masks sets its own ``cost`` entries to
    ``INF`` — the table-state invariant, whatever an earlier attempt left
    there (see the module docstring) — then runs the fused kernel and
    scatters ``cost`` and ``best``.  Returns the number of masks solved.
    """
    for off in range(lo, hi, PARENT_CHUNK):
        end = min(off + PARENT_CHUNK, hi)
        # numpy converts a non-intp index array to intp on every fancy
        # index, so the int32 order is converted once per chunk, here.
        layer = np.asarray(order[off:end], dtype=np.intp)
        cost[layer] = INF
        layer_best, layer_arg = solve_layer_kernel_fused(
            layer, p[layer], cost, subsets, costs, is_test, arena=arena,
        )
        cost[layer] = layer_best
        best[layer] = layer_arg
    return hi - lo
