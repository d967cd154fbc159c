"""The four workloads: inputs from a seed, set-up, items and output checks.

Every workload is a closed loop with one client: the next item starts
when the previous one returned, and at most ``nproc`` threads are busy
at any moment.  Each workload makes one layer of the program do most of
its work and leaves others idle, so a change to one layer shows on one
workload and not on another:

``large``
    cold ``solve(backend="parallel")`` at k=22, one instance per domain
    of ``repro.core.generators.WORKLOADS``.  An item is one sweep over
    the five instances (one latency cluster; single solves range over
    N = 33-64).  Kernel and pool do the work; nothing is persisted.
``stream``
    ``solve(problem, engine=engine)`` on a warm ``SolverEngine`` over a
    seeded mix of k = 12-17; every other item re-solves the previous
    universe with one test removed, so the weights cache hits.  Per-solve
    overhead, the caches and the warm pool dominate.
``durable``
    cold k=21 solves with one worker, each instance solved through the
    mmap spill store and through ``checkpoint=`` (alternating which goes
    first).  The store does most of the work here and none elsewhere.
``bvm``
    the paper's machine: k = 3-4 instances on 2048-PE CCC(3) shapes,
    each solved alone by ``solve_tt_bvm`` (the items) and again with the
    rest of its chunk by ``SolverEngine.solve_many(solver="bvm")``.

Items are sized so a run's timed phase spans roughly ``--seconds`` on a
2-core host; the item count depends only on ``--seconds``, never on
measured speed, so two commits always do the same work.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import SolverEngine, solve
from repro.core.dispatch import cached_subset_weights, weights_cache_stats
from repro.core.generators import WORKLOADS as DOMAINS
from repro.core.kernels import layer_plan
from repro.core.problem import Action, TTProblem
from repro.core.sequential import solve_dp_reference
from repro.ttpar.bvm_tt import build_bvm_tt_batch, solve_tt_bvm

from host import Meter, nproc

DOMAIN_NAMES = tuple(DOMAINS)


@dataclass
class Solve:
    """One program call's outcome, kept small: digests, not tables."""

    key: str
    path: str
    digest: str
    candidates: int
    seconds: float
    wchar: int = 0
    n_tests: int = 0
    n_actions: int = 0
    pool: bool = False
    metrics: dict | None = None
    recovery: dict | None = None
    weights_hit: bool | None = None
    cycles: int = 0
    pes: int = 0
    tables: tuple | None = None


@dataclass
class Item:
    index: int
    latency: float
    solves: list = field(default_factory=list)
    error: str | None = None


def digest(cost, best) -> str:
    """sha256 over both tables' bytes (and dtypes)."""
    h = hashlib.sha256()
    for arr in (cost, best):
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def instance_key(problem: TTProblem) -> str:
    return hashlib.sha256(problem.to_json().encode()).hexdigest()[:32]


def candidates(problem: TTProblem) -> int:
    """The paper's work unit: ``(2^k - 1) * N`` (S, i) pairs per solve."""
    return ((1 << problem.k) - 1) * problem.n_actions


class References:
    """numpy-backend table digests, one per instance, cached per checkout.

    ``fresh=True`` recomputes (and times) every reference instead of
    reading the cache: the traced run needs the numpy time as the
    single-threaded baseline of ``parallel.speedup_vs_numpy``.
    """

    def __init__(self, cache_dir: str, fresh: bool = False):
        self.cache_dir = cache_dir
        self.fresh = fresh
        self.seconds: dict[str, float] = {}
        self._memo: dict[str, str] = {}
        os.makedirs(cache_dir, exist_ok=True)

    def digest(self, problem: TTProblem) -> str:
        key = instance_key(problem)
        if key in self._memo:
            return self._memo[key]
        path = os.path.join(self.cache_dir, key)
        value = None
        if not self.fresh and os.path.exists(path):
            with open(path) as fh:
                value = fh.read().strip()
        if not value:
            t0 = time.perf_counter()
            ref = solve(problem, backend="numpy")
            self.seconds[key] = time.perf_counter() - t0
            value = digest(ref.cost, ref.best_action)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                fh.write(value)
            os.replace(tmp, path)
        self._memo[key] = value
        return value


def _dp_record(problem, path, result, span, hit=None) -> Solve:
    layers = result.recovery.get("layers") or []
    return Solve(
        key=instance_key(problem),
        path=path,
        digest=digest(result.cost, result.best_action),
        candidates=candidates(problem),
        seconds=span["seconds"],
        wchar=span["wchar"],
        n_tests=problem.n_tests,
        n_actions=problem.n_actions,
        pool=any(layer["mode"] == "pool" for layer in layers),
        metrics=result.metrics,
        recovery={k: v for k, v in result.recovery.items() if k != "layers"},
        weights_hit=hit,
    )


def _weights(problem: TTProblem, meter: Meter) -> bool:
    """The memoized subset-weights call, timed; returns whether it hit."""
    before = weights_cache_stats()["hits"]
    with meter.call("cached_subset_weights", k=problem.k):
        cached_subset_weights(problem)
    return weights_cache_stats()["hits"] > before


def _seed(rng) -> int:
    return int(rng.integers(2**31))


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.workers = nproc()
        self.problems: dict[str, TTProblem] = {}

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def keep(self, problem: TTProblem) -> TTProblem:
        self.problems[instance_key(problem)] = problem
        return problem

    # The timed loop calls these in order: n_items, then per item
    # run_item (inside the item) and between_items (timed, outside it),
    # then end_pass.  after_pass and rearm run untimed.
    def setup(self, meter: Meter) -> None:
        raise NotImplementedError

    def n_items(self) -> int:
        raise NotImplementedError

    def run_item(self, i: int, meter: Meter) -> list:
        raise NotImplementedError

    def between_items(self, i: int, meter: Meter) -> list:
        return []

    def end_pass(self, meter: Meter) -> None:
        pass

    def after_pass(self) -> None:
        pass

    def rearm(self) -> None:
        """Restore the state set-up left, for a second pass over the items."""

    def close(self) -> None:
        pass

    def check(self, items: list, extras: list, refs: References) -> dict:
        """``{item index: reason}`` for every item whose output is wrong."""
        bad = {}
        for item in items:
            for s in item.solves:
                want = refs.digest(self.problems[s.key])
                if s.digest != want:
                    bad[item.index] = f"{s.path} tables differ from the numpy backend"
        return bad


class Large(Workload):
    name = "large"
    K = 22
    SWEEP_S = 6.4  # one item: five cold k=22 solves

    def setup(self, meter):
        rng = self.rng(0)
        order = rng.permutation(len(DOMAIN_NAMES))
        self.instances = [
            self.keep(DOMAINS[DOMAIN_NAMES[d]](self.K, seed=_seed(rng))) for d in order
        ]
        # A fixed-N domain keeps set-up work the same for every seed.
        warm = DOMAINS["taxonomy"](self.K, seed=_seed(rng))
        with meter.call("layer_plan", k=self.K):
            layer_plan(self.K)
        self._solve(warm, meter)

    def n_items(self):
        return max(2, round(self.seconds / self.SWEEP_S))

    def _solve(self, problem, meter) -> Solve:
        hit = _weights(problem, meter)
        with meter.call("solve", backend="parallel", workers=self.workers) as span:
            result = solve(problem, backend="parallel", workers=self.workers)
        with meter.aside():
            return _dp_record(problem, "parallel", result, span, hit)

    def run_item(self, i, meter):
        return [self._solve(problem, meter) for problem in self.instances]


class Stream(Workload):
    name = "stream"
    # k of each (base, variant) pair, cycled.  Pool pairs alternate 16/17,
    # so every pool base rebuilds the engine's tables and every pool
    # variant reuses them; k=15 is the largest in-process share, so the
    # median item sits inside one cluster instead of between two.
    K_CYCLE = (12, 16, 15, 14, 17, 15)
    ITEMS_PER_S = 24.0

    def setup(self, meter):
        rng = self.rng(0)
        self.sequence = []
        for i in range(self.n_items() // 2):
            # Every seed gets the same (k, domain) mix; only the instances
            # differ, so the work per run hardly depends on the seed.
            k = self.K_CYCLE[i % len(self.K_CYCLE)]
            domain = DOMAIN_NAMES[i % len(DOMAIN_NAMES)]
            base = DOMAINS[domain](k, seed=_seed(rng))
            tests = [j for j, a in enumerate(base.actions) if a.is_test]
            drop = tests[int(rng.integers(len(tests)))]
            variant = base.with_actions(
                a for j, a in enumerate(base.actions) if j != drop
            )
            self.sequence += [self.keep(base), self.keep(variant)]
        warm_rng = self.rng(1)
        self.warm = [
            DOMAINS[DOMAIN_NAMES[k % len(DOMAIN_NAMES)]](k, seed=_seed(warm_rng))
            for k in sorted(set(self.K_CYCLE))
        ]
        for k in sorted(set(self.K_CYCLE)):
            with meter.call("layer_plan", k=k):
                layer_plan(k)
        self._start(meter)

    def _start(self, meter):
        with meter.call("SolverEngine", workers=self.workers):
            self.engine = SolverEngine(workers=self.workers)
        for problem in self.warm:
            self._solve(problem, meter)

    def n_items(self):
        return 2 * max(50, round(self.seconds * self.ITEMS_PER_S / 2))

    def _solve(self, problem, meter) -> Solve:
        hit = _weights(problem, meter)
        with meter.call("solve", engine=True, k=problem.k) as span:
            result = solve(problem, engine=self.engine)
        with meter.aside():
            return _dp_record(problem, "engine", result, span, hit)

    def run_item(self, i, meter):
        return [self._solve(self.sequence[i], meter)]

    def end_pass(self, meter):
        # Closing reaps the pool workers, so their CPU reaches
        # RUSAGE_CHILDREN inside the timed phase.
        with meter.call("SolverEngine.close", extra=True):
            self.engine.close()

    def rearm(self):
        evict_weights_cache()
        self._start(Meter())

    def close(self):
        self.engine.close()


def evict_weights_cache() -> None:
    """Push every cached weights vector out with throwaway k=20 vectors.

    The cache is a 64 MiB LRU; nine 8 MiB vectors overflow it, so a
    second pass over the same instances starts as cold as the first.
    """
    rng = np.random.default_rng(2**31 - 1)
    for _ in range(9):
        weights = rng.uniform(1.0, 2.0, size=20)
        cached_subset_weights(
            TTProblem.build(weights, [Action.treatment((1 << 20) - 1, 1.0)])
        )


class Durable(Workload):
    name = "durable"
    K = 21
    DOMAIN = "taxonomy"
    # One mmap solve plus one checkpointed solve take ~3.8 s; the item
    # count is kept even so each format goes first equally often.
    ITEM_S = 3.0

    def setup(self, meter):
        rng = self.rng(0)
        gen = DOMAINS[self.DOMAIN]
        self.instances = [
            self.keep(gen(self.K, seed=_seed(rng))) for _ in range(self.n_items())
        ]
        warm = gen(self.K, seed=_seed(rng))
        self.root = os.path.join(self.workdir, "spill", str(os.getpid()))
        self.passes = 0
        with meter.call("layer_plan", k=self.K):
            layer_plan(self.K)
        self._item(warm, ("mmap", "ckpt"), "warm", meter)
        self.after_pass()

    def n_items(self):
        return 2 * max(2, round(self.seconds / self.ITEM_S / 2))

    def _item(self, problem, order, tag, meter) -> list:
        out = []
        for fmt in order:
            where = os.path.join(self.root, f"{tag}-{fmt}")
            os.makedirs(where)
            if fmt == "mmap":
                with meter.call("solve", store="mmap", workers=1) as span:
                    result = solve(problem, workers=1, store="mmap", spill_dir=where)
            else:
                ckpt = os.path.join(where, "solve.ckpt")
                with meter.call("solve", checkpoint=True, workers=1) as span:
                    result = solve(problem, workers=1, checkpoint=ckpt)
            with meter.aside():
                out.append(_dp_record(problem, fmt, result, span))
        return out

    def run_item(self, i, meter):
        order = ("mmap", "ckpt") if i % 2 == 0 else ("ckpt", "mmap")
        return self._item(
            self.instances[i], order, f"p{self.passes}-{i}", meter
        )

    def after_pass(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self.passes += 1

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def check(self, items, extras, refs):
        bad = super().check(items, extras, refs)
        for item in items:
            if len({s.digest for s in item.solves}) != 1:
                bad[item.index] = "mmap and checkpointed tables differ"
        return bad


def bvm_instance(rng, k: int, n: int) -> TTProblem:
    """Integral instance with exactly ``n`` actions (fixed point is exact)."""
    full = (1 << k) - 1
    weights = rng.integers(1, 6, k).astype(float)
    n_tests = n // 2
    actions = [
        Action.test(int(rng.integers(1, full)), float(rng.integers(0, 6)))
        for _ in range(n_tests)
    ]
    cover = 0
    for _ in range(n - n_tests - 1):
        subset = int(rng.integers(1, full + 1))
        cover |= subset
        actions.append(Action.treatment(subset, float(rng.integers(1, 6))))
    actions.append(Action.treatment(full & ~cover or full, float(rng.integers(1, 6))))
    return TTProblem.build(weights, actions)


class Bvm(Workload):
    name = "bvm"
    # Every instance lands on CCC(3) (r + 2^r >= k + ceil(log2 N)).  k
    # alternates 3, 4 and N sweeps 9-32 (k=3) or 5-16 (k=4), so a chunk
    # holds the same (k, N) multiset for every seed and forms four
    # ragged shape groups.  Single-solve latencies then spread evenly
    # over 0.06-0.18 s: one cluster without a gap, so the median moves
    # smoothly when the host speeds up or slows down instead of jumping.
    N_RANGE = {3: (9, 32), 4: (5, 16)}
    R = 3
    CHUNK = 51
    ITEMS_PER_S = 5.0

    def deck(self) -> list:
        """The (k, N) of each instance in one chunk."""
        out = []
        for j in range(self.CHUNK):
            k = 3 + j % 2
            lo, hi = self.N_RANGE[k]
            out.append((k, lo + (j // 2) % (hi - lo + 1)))
        return out

    def setup(self, meter):
        rng = self.rng(0)
        deck = self.deck()
        self.instances = []
        for _ in range(self.n_items() // self.CHUNK):
            self.instances += [
                self.keep(bvm_instance(rng, *deck[j])) for j in rng.permutation(len(deck))
            ]
        # One warm-up instance per shape group: (k, p) with p = ceil(log2 N).
        shapes = {(k, (n - 1).bit_length()): n for k, n in deck}
        warm_rng = self.rng(1)
        self.warm = [bvm_instance(warm_rng, k, n) for (k, _), n in shapes.items()]
        for k, p in shapes:
            with meter.call("build_bvm_tt_batch", r=self.R, k=k, p=p):
                build_bvm_tt_batch(self.R, k, p).prog.compiled()
        with meter.call("SolverEngine", workers=self.workers):
            self.engine = SolverEngine(workers=self.workers)
        for problem in self.warm:
            self._single(problem, meter)
        self._batch(self.warm, meter)

    def n_items(self):
        n = max(100, round(self.seconds * self.ITEMS_PER_S))
        return -(-n // self.CHUNK) * self.CHUNK

    def _single(self, problem, meter) -> Solve:
        with meter.call("solve_tt_bvm", k=problem.k, n=problem.n_actions) as span:
            result = solve_tt_bvm(problem, backend="packed")
        with meter.aside():
            return self._record(problem, "bvm", result, span["seconds"])

    def _batch(self, problems, meter) -> list:
        with meter.call("solve_tt_bvm_batch", extra=True, instances=len(problems)) as span:
            results = self.engine.solve_many(problems, solver="bvm")
        share = span["seconds"] / len(problems)
        return [
            self._record(problem, "bvm-batch", result, share)
            for problem, result in zip(problems, results)
        ]

    def _record(self, problem, path, result, seconds) -> Solve:
        return Solve(
            key=instance_key(problem),
            path=path,
            digest=digest(result.cost, result.best_action),
            candidates=candidates(problem),
            seconds=seconds,
            n_actions=problem.n_actions,
            cycles=result.cycles,
            pes=(1 << result.r) << (1 << result.r),
            tables=(result.cost.copy(), result.best_action.copy()),
        )

    def run_item(self, i, meter):
        return [self._single(self.instances[i], meter)]

    def between_items(self, i, meter):
        if (i + 1) % self.CHUNK:
            return []
        chunk = self.instances[i + 1 - self.CHUNK:i + 1]
        return self._batch(chunk, meter)

    def check(self, items, extras, refs):
        lanes = {s.key: s for s in extras}
        bad = {}
        for item in items:
            for s in item.solves:
                lane = lanes.get(s.key)
                if lane is None:
                    bad[item.index] = "no batch lane for this instance"
                elif lane.digest != s.digest:
                    bad[item.index] = "batch lane differs from the single solve"
                else:
                    ref = solve_dp_reference(self.problems[s.key])
                    cost, best = s.tables
                    if not (
                        np.allclose(cost, ref.cost)
                        and np.array_equal(best, ref.best_action)
                    ):
                        bad[item.index] = "BVM tables differ from the DP reference"
        return bad

    def close(self):
        self.engine.close()


WORKLOAD_TYPES = {cls.name: cls for cls in (Large, Stream, Durable, Bvm)}
