"""Per-layer metrics from one JSONL trace plus ``DPResult.metrics``.

Layers are named after modules: ``dispatch`` (core/dispatch.py),
``kernels`` (core/kernels.py), ``parallel`` (core/parallel.py and
core/supervisor.py), ``engine`` (core/engine.py), ``store`` (store/),
``bvm`` (bvm/ and ttpar/bvm_tt.py) and ``obs`` (obs/).

The trace holds the program's own spans (``layer``, ``shard``,
``parent-slice``, ``store.*``, ``bvm.*``) and the benchmark's spans in
category ``bench`` around each item and each public call.  Time metrics
are seconds per item (the mean over the traced pass); a span's self time
is its duration minus the child spans it covers.  Spans on different
threads and processes overlap (two shards at once, the async committer
beside the next layer), so self times of different layers may sum to
more than the item time.
"""

from __future__ import annotations

import statistics

# Bytes one (S, i) candidate moves through the fused kernel's arrays,
# computed from its per-action numpy calls (DESIGN §5.2): each call
# reads and writes one element of every operand.  A treatment makes
# eight calls (rest mask, c_i*p, one table gather, add, less, minimum,
# the two arg-blend calls): 126 bytes.  A test adds the intersection
# mask, a second gather and a second add: 178 bytes.  The strict
# (validity-masked) discipline of the parallel and engine paths adds
# the mask calls: 22 bytes.  Computed, not measured: cache misses on the
# 2^k table gathers are not in it.
BYTES_TREATMENT = 126
BYTES_TEST = 178
BYTES_STRICT = 22

_US = 1e-6
# The one benchmark span inside items that brackets a single layer's
# call (dispatch's weights cache); the generic entry points (solve,
# solve_tt_bvm, ...) do not count, so what no program span covers inside
# them stays unattributed.
_LAYER_BENCH_SPAN = "cached_subset_weights"


def _end(ev) -> int:
    return ev["ts"] + (ev["dur"] or 0)


def _inside(ev, outer) -> bool:
    return outer["ts"] <= ev["ts"] and _end(ev) <= _end(outer)


def _union_us(spans) -> int:
    total, hi = 0, None
    for ev in sorted(spans, key=lambda e: e["ts"]):
        lo, end = ev["ts"], _end(ev)
        if hi is None or lo > hi:
            total += end - lo
            hi = end
        elif end > hi:
            total += end - hi
            hi = end
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(events, meta, items, extras, *, untraced_wall, traced_wall,
              numpy_seconds, probe) -> dict:
    """Per-layer values for one traced pass (``items``/``extras``).

    The names and units are listed once, in BENCHMARK.json.
    """
    spans = sorted((e for e in events if e["ph"] == "X"), key=lambda e: e["ts"])
    item_spans = [e for e in spans if e["name"] == "item" and e["cat"] == "bench"]
    by_item: list[list] = [[] for _ in item_spans]
    loose = []
    cursor = 0
    for ev in spans:
        if ev["name"] == "item" and ev["cat"] == "bench":
            continue
        while cursor < len(item_spans) and _end(item_spans[cursor]) < ev["ts"]:
            cursor += 1
        if cursor < len(item_spans) and _inside(ev, item_spans[cursor]):
            by_item[cursor].append(ev)
        else:
            loose.append(ev)

    n_items = max(1, len(item_spans))
    item_s: list[float] = []
    unattributed = outside = kernel = idle = 0.0
    weights = store_open = commit = checkpoint = 0.0
    bvm_compile = bvm_replay = bvm_build = 0.0
    imbalance: list[float] = []
    pool_layers = 0
    for item, inner in zip(item_spans, by_item):
        aside = sum(e["dur"] for e in inner if e["name"] == "bench.check")
        length = item["dur"] - aside
        item_s.append(length * _US)
        covered = [
            e for e in inner
            if e["cat"] != "bench" or e["name"] == _LAYER_BENCH_SPAN
        ]
        unattributed += (length - _union_us(covered)) * _US
        layers = [e for e in inner if e["name"] == "layer"]
        if layers:
            outside += (length - sum(e["dur"] for e in layers)) * _US
        for ev in inner:
            name, dur = ev["name"], ev["dur"] * _US
            if name in ("shard", "parent-slice"):
                kernel += dur
            elif name == "layer" and (ev["args"] or {}).get("mode") in ("numpy", "native"):
                kernel += dur  # single-process solve: the layer span is the kernel
            elif name == "cached_subset_weights":
                weights += dur
            elif name == "store.open":
                store_open += dur
            elif name == "store.commit":
                commit += dur
            elif name == "store.checkpoint":
                checkpoint += dur
        for layer in layers:
            if (layer["args"] or {}).get("mode") != "pool":
                continue
            j = layer["args"]["layer"]
            shards = [
                e["dur"] for e in inner
                if e["name"] in ("shard", "parent-slice")
                and (e["args"] or {}).get("layer") == j and _inside(e, layer)
            ]
            pool_layers += 1
            if shards:
                idle += (layer["dur"] - max(shards)) * _US
                imbalance.append(max(shards) / (sum(shards) / len(shards)))
        for single in (e for e in inner if e["name"] == "solve_tt_bvm"):
            parts = [e for e in inner if e["name"] in ("bvm.compile", "bvm.replay")
                     and _inside(e, single)]
            c = sum(e["dur"] for e in parts if e["name"] == "bvm.compile") * _US
            r = sum(e["dur"] for e in parts if e["name"] == "bvm.replay") * _US
            bvm_compile += c
            bvm_replay += r
            bvm_build += single["dur"] * _US - c - r

    # Spans outside items: set-up's (before the first item) and the bvm
    # batch calls made between items of the traced pass.
    start = item_spans[0]["ts"] if item_spans else 0
    batch_s = sum(
        e["dur"] for e in loose if e["name"] == "solve_tt_bvm_batch" and e["ts"] >= start
    ) * _US
    plan_s = sum(
        e["dur"] for e in loose if e["name"] == "layer_plan" and e["ts"] < start
    ) * _US

    solves = [s for item in items for s in item.solves]
    dp = [s for s in solves if s.metrics is not None]
    dp_candidates = sum(s.candidates for s in dp)
    # Strict kernels run on every store-driven or pool solve; the
    # engine's single-process path (no store, no pool) is not strict.
    model_bytes = sum(
        s.candidates / s.n_actions * (
            s.n_tests * BYTES_TEST + (s.n_actions - s.n_tests) * BYTES_TREATMENT
            + (s.n_actions * BYTES_STRICT if s.pool or s.recovery["store"] else 0)
        )
        for s in dp
    )
    hits = [s.weights_hit for s in dp if s.weights_hit is not None]
    engine = [s for s in dp if s.path == "engine"]
    rebuilds = sum(s.metrics["engine.table_rebuilds"] for s in engine)
    reuses = sum(s.metrics["engine.pool_reuses"] for s in engine)
    engine_items = [
        (lat, item.solves[0].pool)
        for lat, item in zip(item_s, items)
        if item.solves and item.solves[0].path == "engine"
    ]
    pool_solves = [s for s in dp if s.pool and s.key in numpy_seconds]
    async_total = sum(s.metrics["commit.async_s"]["total"] for s in dp)
    by_format = {
        fmt: [s.wchar for s in dp if s.path == fmt] for fmt in ("mmap", "ckpt")
    }
    singles = [s for s in solves if s.path == "bvm"]
    pe_cycles = sum(s.pes * s.cycles for s in singles)

    return {
        "dispatch.weights_s": weights / n_items,
        "dispatch.weights_hit_ratio": _ratio(sum(hits), len(hits)),
        "dispatch.outside_layers_s": outside / n_items,
        "kernels.plan_s": plan_s,
        "kernels.ns_per_candidate": _ratio(kernel * 1e9, dp_candidates),
        "kernels.bytes_per_candidate": _ratio(model_bytes, dp_candidates),
        "kernels.arena_grows": sum(s.metrics["arena.grows"] for s in dp),
        "parallel.barrier_idle_s": idle / n_items,
        "parallel.shard_imbalance": _ratio(sum(imbalance), len(imbalance)),
        "parallel.pool_layers": pool_layers,
        "parallel.retries": sum(
            s.recovery["retries"] + s.recovery["respawns"] + s.recovery["fallback_shards"]
            for s in dp
        ),
        "parallel.speedup_vs_numpy": _ratio(
            sum(numpy_seconds[s.key] for s in pool_solves),
            sum(s.seconds for s in pool_solves),
        ),
        "engine.table_rebuilds": rebuilds,
        "engine.pool_reuses": reuses,
        "engine.rebuild_ratio": _ratio(rebuilds, rebuilds + reuses),
        "engine.pool_item_p50_s": _median([lat for lat, pool in engine_items if pool]),
        "engine.inproc_item_p50_s": _median([lat for lat, pool in engine_items if not pool]),
        "store.open_s": store_open / n_items,
        "store.commit_s": commit / n_items,
        "store.commit_blocked_s": sum(s.metrics["commit.blocked_s"] for s in dp) / n_items,
        "store.overlap_frac": _ratio(
            sum(s.metrics["commit.overlap_s"] for s in dp), async_total
        ),
        "store.fsync_s": sum(s.metrics["store.fsync_s"]["total"] for s in dp) / n_items,
        "store.checkpoint_s": checkpoint / n_items,
        "store.write_mb_mmap": _ratio(sum(by_format["mmap"]), len(by_format["mmap"])) / 2**20,
        "store.write_mb_ckpt": _ratio(sum(by_format["ckpt"]), len(by_format["ckpt"])) / 2**20,
        "store.bytes_written_mb": sum(s.metrics["store.bytes_written"] for s in dp)
        / n_items / 2**20,
        "bvm.compile_s": _ratio(bvm_compile, len(singles)),
        "bvm.replay_s": _ratio(bvm_replay, len(singles)),
        "bvm.build_s": _ratio(bvm_build, len(singles)),
        "bvm.batch_s_per_instance": _ratio(batch_s, len(extras)),
        "bvm.ns_per_pe_cycle": _ratio(bvm_replay * 1e9, pe_cycles),
        "bvm.cycles": sum(s.cycles for s in singles),
        "obs.trace_overhead": _ratio(traced_wall, untraced_wall) - 1.0,
        "obs.events": len(events),
        "obs.dropped": meta.get("dropped", 0),
        "unattributed_s": unattributed / n_items,
        "host.probe_s": probe,
    }
