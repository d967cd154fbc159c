"""Cube-connected-cycles geometry of the BVM (paper §2).

With ``r`` a positive integer and ``Q = 2^r``, the machine has ``2^Q``
cycles of ``Q`` PEs each — ``n = Q * 2^Q`` PEs total.  PE ``Q*i + j`` is
written ``(i, j)``: cycle number ``i``, position ``j`` within the cycle.
Connections (three per PE, hence ``3n/2`` links):

* ``S`` — successor ``(i, (j+1) % Q)``,
* ``P`` — predecessor ``(i, (j+Q-1) % Q)``,
* ``L`` — lateral ``(i ^ 2^j, j)`` (the *highsheaf* for cycle bit ``j``).

Derived addressing modes of the instruction set:

* ``XS`` — even-successor exchange: partner ``S`` if ``j`` even else ``P``
  (pairs positions ``(0,1), (2,3), ..``),
* ``XP`` — even-predecessor exchange: partner ``P`` if ``j`` even else
  ``S`` (pairs ``(1,2), (3,4), .., (Q-1,0)``),
* ``I`` — the global input shift: every PE takes the value of its linear
  predecessor ``addr-1``; PE ``(0,0)`` takes a bit from the input stream
  and PE ``(2^Q - 1, Q - 1)`` emits its value to the output stream.

All neighbor reads are precomputed gather-index arrays so the simulator's
inner loop is pure vectorized NumPy.  For the word-packed backend
(:mod:`repro.bvm.packed`) every neighbor gather is additionally lowered
*once* to a :class:`PackedPlan` — an OR of masked shifts over bit-plane
words — so a route sweep is a handful of machine-word operations instead
of a per-PE fancy index.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "CCCTopology",
    "NEIGHBOR_NAMES",
    "PackedPlan",
    "pack_row",
    "unpack_plane",
]

NEIGHBOR_NAMES = ("S", "P", "L", "XS", "XP", "I")


def pack_row(bits) -> int:
    """Pack a boolean PE row into a bit-plane integer (PE ``q`` -> bit ``q``).

    The plane is an arbitrary-precision integer whose machine words hold
    64 PEs each — the host's ALU operates on all of them per operation.
    """
    arr = np.ascontiguousarray(bits, dtype=bool)
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def unpack_plane(plane: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_row`: bit-plane integer -> ``(n,)`` bool row."""
    raw = plane.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")
    return bits.astype(bool)


class PackedPlan:
    """A gather ``dst[p] = src[index[p]]`` lowered to masked word shifts.

    Grouping PEs by the signed distance ``d = index[p] - p`` turns the
    permutation into ``OR_d ((src >> d) & mask_d)`` — for the CCC modes
    at most 2 distances (``S``/``P``), 4 (``XS``/``XP``) or ``2Q``
    (lateral), each a constant shift of the whole bit-plane.  Built once
    per topology and cached; applying one costs ``O(terms)`` word ops
    instead of an ``n``-entry index build + gather per call.
    """

    __slots__ = ("name", "terms", "apply")

    def __init__(self, name: str, index: np.ndarray):
        self.name = name
        pes = np.arange(index.size, dtype=np.int64)
        deltas = index.astype(np.int64) - pes
        terms = []
        for d in np.unique(deltas):
            mask = pack_row(deltas == d)
            if mask:
                terms.append((int(d), mask))
        self.terms = tuple(terms)
        # Unroll the OR-of-shifts into one generated expression; the
        # lateral plan has 2Q terms and sits on the route hot path, so
        # per-term Python loop overhead is worth eliminating.
        env = {f"m{i}": m for i, (_, m) in enumerate(self.terms)}
        body = "|".join(
            f"((x>>{d})&m{i})" if d >= 0 else f"((x<<{-d})&m{i})"
            for i, (d, _) in enumerate(self.terms)
        )
        env["__builtins__"] = {}
        self.apply = eval(  # noqa: S307 - generated from integer terms
            f"lambda x: {body or '0'}", env
        )

    def __call__(self, plane: int) -> int:
        return self.apply(plane)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PackedPlan({self.name!r}, {len(self.terms)} shift terms)"


class CCCTopology:
    """Precomputed neighbor maps for a CCC(r) machine."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self.Q = 1 << r
        self.n_cycles = 1 << self.Q
        self.n = self.Q * self.n_cycles
        self._act_masks: dict = {}
        self._act_planes: dict = {}
        self._lane_plans: dict = {}
        self._lane_acts: dict = {}

    @classmethod
    @lru_cache(maxsize=None)
    def shared(cls, r: int) -> "CCCTopology":
        """Process-wide topology for ``CCC(r)``.

        Topologies are immutable apart from their derived caches (gather
        indices, packed plans, activation masks), so machines and
        compiled programs of the same ``r`` can share one instance and
        every cache is warmed exactly once per process.
        """
        return cls(r)

    @cached_property
    def addresses(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    @cached_property
    def cycle_of(self) -> np.ndarray:
        """Cycle number ``i`` of every PE."""
        return self.addresses // self.Q

    @cached_property
    def pos_of(self) -> np.ndarray:
        """Within-cycle position ``j`` of every PE."""
        return self.addresses % self.Q

    def address(self, cycle, pos):
        """PE address of ``(cycle, pos)`` (arrays or scalars)."""
        return cycle * self.Q + pos

    # ------------------------------------------------------------------
    # Gather indices: reading ``X.N`` gathers X at ``index_N[pe]``.
    # ------------------------------------------------------------------

    @cached_property
    def succ_index(self) -> np.ndarray:
        return self.address(self.cycle_of, (self.pos_of + 1) % self.Q)

    @cached_property
    def pred_index(self) -> np.ndarray:
        return self.address(self.cycle_of, (self.pos_of + self.Q - 1) % self.Q)

    @cached_property
    def lateral_index(self) -> np.ndarray:
        return self.address(self.cycle_of ^ (1 << self.pos_of), self.pos_of)

    @cached_property
    def xs_index(self) -> np.ndarray:
        even = (self.pos_of % 2) == 0
        return np.where(even, self.succ_index, self.pred_index)

    @cached_property
    def xp_index(self) -> np.ndarray:
        even = (self.pos_of % 2) == 0
        return np.where(even, self.pred_index, self.succ_index)

    @cached_property
    def linear_pred_index(self) -> np.ndarray:
        """For ``I``: PE ``q`` reads PE ``q-1`` (PE 0 handled separately)."""
        return np.maximum(self.addresses - 1, 0)

    @cached_property
    def _neighbor_table(self) -> dict[str, np.ndarray]:
        return {
            "S": self.succ_index,
            "P": self.pred_index,
            "L": self.lateral_index,
            "XS": self.xs_index,
            "XP": self.xp_index,
            "I": self.linear_pred_index,
        }

    def neighbor_index(self, name: str) -> np.ndarray:
        try:
            return self._neighbor_table[name]
        except KeyError:
            raise ValueError(f"unknown neighbor {name!r}") from None

    # ------------------------------------------------------------------
    # Word-packed plans and masks (the packed backend's working set)
    # ------------------------------------------------------------------

    @cached_property
    def full_mask(self) -> int:
        """Bit-plane with every PE position set (the valid-bit mask)."""
        return (1 << self.n) - 1

    @cached_property
    def packed_plans(self) -> dict[str, PackedPlan]:
        """Shift+mask pipelines for every point-to-point neighbor mode.

        ``I`` is excluded: the input shift is stateful (consumes the
        input queue, emits to the output log) and is realized by the
        machines as a single funnel shift.
        """
        return {
            name: PackedPlan(name, self.neighbor_index(name))
            for name in ("S", "P", "L", "XS", "XP")
        }

    def packed_plan(self, name: str) -> PackedPlan:
        try:
            return self.packed_plans[name]
        except KeyError:
            raise ValueError(f"unknown neighbor {name!r}") from None

    def activation_mask(self, activation) -> np.ndarray:
        """Boolean PE mask of an ``(IF|NF) <set>`` clause, cached per clause.

        The returned array is shared and read-only; callers combine it
        (``mask & e``) rather than mutating it.
        """
        if activation is None:
            activation = (True, frozenset())  # NF {} == all active
        mask = self._act_masks.get(activation)
        if mask is None:
            invert, positions = activation
            mask = np.isin(self.pos_of, list(positions))
            if invert:
                mask = ~mask
            mask.flags.writeable = False
            self._act_masks[activation] = mask
        return mask

    def packed_activation(self, activation) -> int:
        """Bit-plane form of :meth:`activation_mask`, cached per clause."""
        if activation is None:
            return self.full_mask
        plane = self._act_planes.get(activation)
        if plane is None:
            plane = pack_row(self.activation_mask(activation))
            self._act_planes[activation] = plane
        return plane

    # ------------------------------------------------------------------
    # Lanes: one row of ``lanes`` machines, lane ``b`` at bits [b*n, (b+1)*n)
    # ------------------------------------------------------------------

    def lane_ones(self, lanes: int) -> int:
        """Bit 0 of every lane.  ``plane * lane_ones(lanes)`` repeats an
        ``n``-bit plane in every lane (each partial product fits its own
        lane, so nothing carries)."""
        return sum(1 << (b * self.n) for b in range(lanes))

    def lane_plan(self, name: str, lanes: int) -> PackedPlan:
        """:meth:`packed_plan` over ``lanes`` lanes, cached per pair.

        Built from the lane-tiled gather index (``index + b*n`` in lane
        ``b``): each shift term ``(x >> d) & m`` then repeats per lane,
        and ``m`` sets bit ``p`` of a lane only where ``p + d`` lies in
        ``[0, n)``, so no term reads across a lane.
        """
        plan = self._lane_plans.get((name, lanes))
        if plan is None:
            index = self.neighbor_index(name)
            tiled = (index + self.n * np.arange(lanes)[:, None]).ravel()
            plan = self._lane_plans[name, lanes] = PackedPlan(name, tiled)
        return plan

    def lane_activation(self, plane: int, lanes: int) -> int:
        """An activation plane repeated in every lane, cached per pair."""
        tiled = self._lane_acts.get((plane, lanes))
        if tiled is None:
            tiled = self._lane_acts[plane, lanes] = plane * self.lane_ones(lanes)
        return tiled

    # ------------------------------------------------------------------
    # Structural facts (for the link-census benchmark)
    # ------------------------------------------------------------------

    def degree(self) -> int:
        """Links per PE: predecessor, successor, lateral."""
        return 3

    def link_count(self) -> int:
        """Distinct undirected links: ``3n/2`` for ``Q >= 4`` (for ``Q = 2``
        the pred and succ of a 2-cycle coincide)."""
        if self.Q == 2:
            return self.n_cycles + self.n // 2
        return 3 * self.n // 2

    def hypercube_dims(self) -> int:
        """Dimensions of the hypercube this CCC simulates: ``r + Q``."""
        return self.r + self.Q
