"""Optional numba-jitted layer kernel (the ``backend="native"`` tier).

The fused numpy kernel (:func:`repro.core.kernels.solve_layer_kernel_fused`)
removed the allocation traffic, but each of its ~10 ufunc passes per
action still streams the whole tile through memory and pays interpreter
dispatch.  A compiled scalar loop nest does the entire per-subset argmin
in one pass with everything in registers — the classic next tier after
vectorization.

numba is an *optional* dependency (``pip install repro[native]``): this
module degrades loudly-but-gracefully when it is absent.
:func:`native_available` reports the auto-detection result;
:func:`warn_native_fallback` emits the single loud ``RuntimeWarning``
the dispatch layer uses before falling back to the fused numpy kernel.
Nothing in the default install path imports numba at module load.

Bit-for-bit contract
--------------------

:func:`solve_layer_kernel_native` is a drop-in for
``solve_layer_kernel_fused`` — same signature (``arena``, ``tile``),
same ``(layer_cost, layer_arg)`` arena views — and must preserve the
determinism contract of :mod:`repro.core.sequential` exactly:

* candidates scanned in action-index order, strict ``<`` replacement
  (lowest index wins ties);
* float association ``((c_i * p) + C(inter)) + C(rest)`` for tests,
  ``(c_i * p) + C(rest)`` for treatments — the scalar expressions below
  are written in exactly that order, and the JIT is compiled with
  ``fastmath=False`` so IEEE semantics (ordering, NaN behaviour) are
  untouched;
* it relies on the same table-state invariant as the fused kernel
  (own-layer entries hold ``INF``), so invalid candidates evaluate to
  exactly ``INF`` and never win;
* ``tile`` partitions the subset axis only — each subset's argmin is
  independent, so the tile size can never change a result (the loop
  honours it to mirror the fused kernel's working-set shape).

The exhaustive verify sweep (``--backends native``) and the 50+ instance
kernel differential hold this kernel to the reference oracle bit for
bit; both skip loudly when numba is missing.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import InvalidProblem
from .kernels import LayerArena, _env_tile

__all__ = [
    "native_available",
    "solve_layer_kernel_native",
    "warn_native_fallback",
    "NATIVE_FALLBACK_MSG",
]

INF = np.inf

NATIVE_FALLBACK_MSG = (
    "backend='native' requested but numba is not installed; falling back "
    "to the fused numpy kernel (results are bit-identical, only slower). "
    "Install the optional extra: pip install 'repro[native]'"
)


@lru_cache(maxsize=1)
def native_available() -> bool:
    """True iff numba imports cleanly (checked once per process)."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def warn_native_fallback(stacklevel: int = 3) -> None:
    """The loud part of loud-but-graceful degradation."""
    warnings.warn(NATIVE_FALLBACK_MSG, RuntimeWarning, stacklevel=stacklevel)


def _layer_kernel_py(layer, p_layer, cost, subsets, costs, is_test,
                     best, arg, tile):
    # Compiled by numba; also runnable as plain Python (the unit tests
    # cross-check the uncompiled body so the logic is covered even where
    # numba is absent).
    n = layer.shape[0]
    n_act = costs.shape[0]
    step = n if tile <= 0 else min(tile, n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for s in range(lo, hi):
            mask = layer[s]
            ps = p_layer[s]
            b = np.inf
            a = -1
            for i in range(n_act):
                t = subsets[i]
                inter = mask & t
                rest = mask & ~t
                if is_test[i]:
                    val = (costs[i] * ps + cost[inter]) + cost[rest]
                else:
                    val = costs[i] * ps + cost[rest]
                if val < b:
                    b = val
                    a = i
            best[s] = b
            arg[s] = a


@lru_cache(maxsize=1)
def _compiled_kernel():
    """The jitted loop nest, compiled lazily on first native solve."""
    import numba

    return numba.njit(cache=False, fastmath=False, nogil=True)(_layer_kernel_py)


def solve_layer_kernel_native(
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
    """Compiled evaluation of one popcount layer (numba required).

    Drop-in for :func:`repro.core.kernels.solve_layer_kernel_fused`;
    raises :class:`InvalidProblem` on the same bad-table guard and
    ``RuntimeError`` if numba is missing (callers are expected to have
    routed through the dispatch fallback first).  The returned arrays
    are arena views, valid until the next kernel call on the arena.
    """
    if not native_available():
        raise RuntimeError(NATIVE_FALLBACK_MSG)
    n = layer.size
    if arena is None:
        arena = LayerArena()
    if tile is None:
        tile = _env_tile()
    best, arg = arena.out(n)
    n_act = len(costs)
    if n == 0 or n_act == 0:
        best.fill(INF)
        arg.fill(-1)
        return best, arg
    if int(layer.max()) >= cost.size:
        raise InvalidProblem(
            f"cost table has {cost.size} entries but the layer holds mask "
            f"{int(layer.max())} — the table must cover all 2^k subsets"
        )
    _compiled_kernel()(
        np.ascontiguousarray(layer),
        np.ascontiguousarray(p_layer),
        cost,
        np.ascontiguousarray(subsets),
        np.ascontiguousarray(costs),
        np.ascontiguousarray(is_test),
        best, arg, tile,
    )
    return best, arg


solve_layer_kernel_native.kernel_mode = "native"
