"""Trace exporters and the trace-report summarizer.

Two on-disk formats, chosen by file extension in :func:`write_trace`:

* ``*.jsonl`` — one JSON object per line.  The first line is a meta
  record (``{"type": "meta", "schema": ..., ...}``), every following
  line an event record (``{"type": "event", ...}``).  Greppable and
  streamable; the schema is pinned by a golden-file test.
* anything else (``*.json``, ``*.trace``) — Chrome ``trace_event``
  format (``{"traceEvents": [...]}``), loadable directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.

Both formats carry the same information: timestamps are microsecond
offsets from the owning tracer's epoch (raw monotonic floats never
leave the process), durations are microseconds, ``pid``/``tid``
identify the recording process so cross-worker spans lay out on
separate tracks.

:func:`load_trace` reads either format back; :func:`summarize_trace`
folds events into per-layer / per-shard tables for the ``repro
trace-report`` subcommand.
"""

from __future__ import annotations

import json

from .trace import TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "normalized_events",
    "write_trace",
    "write_jsonl",
    "write_chrome",
    "chrome_trace",
    "load_trace",
    "summarize_trace",
    "render_report",
]


def _us(seconds: float) -> int:
    return int(round(seconds * 1e6))


def normalized_events(tracer: Tracer) -> list[dict]:
    """Raw tracer events → schema records with µs offsets from epoch.

    Events are sorted by start time: workers' events arrive through the
    result channel in completion order, not wall-clock order, and a
    stable timeline is what both exports and the report want.
    """
    epoch = tracer.epoch
    out = []
    for ev in tracer.raw_events():
        t0 = ev["t0"]
        t1 = ev["t1"]
        out.append(
            {
                "type": "event",
                "ph": ev["ph"],
                "name": ev["name"],
                "cat": ev["cat"],
                "ts": _us(t0 - epoch),
                "dur": _us(t1 - t0) if t1 is not None else None,
                "pid": ev["pid"],
                "tid": ev["tid"],
                "args": ev["args"],
            }
        )
    out.sort(key=lambda e: (e["ts"], e["name"]))
    return out


def _meta_record(tracer: Tracer, meta: dict | None) -> dict:
    return {
        "type": "meta",
        "schema": TRACE_SCHEMA_VERSION,
        "clock": "monotonic",
        "unit": "us",
        "events": len(tracer),
        "dropped": tracer.dropped,
        **(meta or {}),
    }


def write_jsonl(path, tracer: Tracer, meta: dict | None = None) -> None:
    records = [_meta_record(tracer, meta)] + normalized_events(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def chrome_trace(tracer: Tracer, meta: dict | None = None) -> dict:
    """Chrome ``trace_event`` document for Perfetto / chrome://tracing."""
    trace_events = []
    for ev in normalized_events(tracer):
        out = {
            "name": ev["name"],
            "cat": ev["cat"],
            "ph": ev["ph"],
            "ts": ev["ts"],
            "pid": ev["pid"],
            "tid": ev["tid"],
        }
        if ev["ph"] == "X":
            out["dur"] = ev["dur"] or 0
        elif ev["ph"] == "i":
            out["s"] = "p"  # process-scoped instant
        if ev["args"]:
            out["args"] = ev["args"]
        trace_events.append(out)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": _meta_record(tracer, meta),
    }


def write_chrome(path, tracer: Tracer, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer, meta), fh, separators=(",", ":"))
        fh.write("\n")


def write_trace(path, tracer: Tracer, meta: dict | None = None) -> None:
    """Write a trace file; ``.jsonl`` selects JSONL, anything else Chrome."""
    if str(path).endswith(".jsonl"):
        write_jsonl(path, tracer, meta)
    else:
        write_chrome(path, tracer, meta)


def load_trace(path) -> tuple[dict, list[dict]]:
    """Read either trace format back as ``(meta, events)``.

    Events come back in the normalized JSONL record shape regardless of
    which format the file used.
    """
    with open(path, encoding="utf-8") as fh:
        # Both formats start with "{": JSONL iff the *first line* parses
        # on its own as a record carrying the framing "type" field.
        first = fh.readline()
        fh.seek(0)
        try:
            rec = json.loads(first)
            is_jsonl = isinstance(rec, dict) and rec.get("type") in ("meta", "event")
        except json.JSONDecodeError:
            is_jsonl = False  # multi-line document: Chrome
        if not is_jsonl:  # Chrome format: one JSON document
            doc = json.load(fh)
            meta = doc.get("otherData", {})
            events = []
            for ev in doc.get("traceEvents", []):
                events.append(
                    {
                        "type": "event",
                        "ph": ev.get("ph"),
                        "name": ev.get("name"),
                        "cat": ev.get("cat"),
                        "ts": ev.get("ts", 0),
                        "dur": ev.get("dur") if ev.get("ph") == "X" else None,
                        "pid": ev.get("pid"),
                        "tid": ev.get("tid"),
                        "args": ev.get("args"),
                    }
                )
            return meta, events
        meta, events = {}, []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("type") == "meta":
                meta = rec
            elif rec.get("type") == "event":
                events.append(rec)
        return meta, events


def summarize_trace(events: list[dict]) -> dict:
    """Fold normalized events into per-layer and per-category tables.

    Each layer row carries ``barrier_idle_us``: the layer's wall time
    minus its longest shard, floored at 0 — the time the barrier waited
    on its straggler, which owned workers with a computing parent keep
    small.
    """
    layers: dict[int, dict] = {}

    def row(j: int) -> dict:
        return layers.setdefault(
            int(j),
            {
                "layer": int(j),
                "wall_us": 0,
                "masks": 0,
                "shards": 0,
                "mode": "",
                "shard_spans": 0,
                "shard_us": 0,
                "shard_max_us": 0,
                "workers": set(),
                "commit_us": 0,
                "commit_bytes": 0,
                "faults": 0,
                "recovery": 0,
            },
        )

    wall_lo = None
    wall_hi = None
    by_cat: dict[str, int] = {}
    for ev in events:
        cat = ev.get("cat") or "?"
        by_cat[cat] = by_cat.get(cat, 0) + 1
        ts = ev.get("ts", 0)
        end = ts + (ev.get("dur") or 0)
        wall_lo = ts if wall_lo is None else min(wall_lo, ts)
        wall_hi = end if wall_hi is None else max(wall_hi, end)
        args = ev.get("args") or {}
        j = args.get("layer")
        if j is None:
            continue
        r = row(j)
        if cat == "layer" and ev.get("ph") == "X":
            r["wall_us"] += ev.get("dur") or 0
            r["masks"] = args.get("masks", r["masks"])
            r["shards"] = args.get("shards", r["shards"])
            r["mode"] = args.get("mode", r["mode"])
        elif cat == "shard" and ev.get("ph") == "X":
            dur = ev.get("dur") or 0
            r["shard_spans"] += 1
            r["shard_us"] += dur
            r["shard_max_us"] = max(r["shard_max_us"], dur)
            if ev.get("pid") is not None:
                r["workers"].add(ev["pid"])
        elif cat == "store" and ev.get("ph") == "X":
            r["commit_us"] += ev.get("dur") or 0
            r["commit_bytes"] += args.get("bytes", 0)
        elif cat == "fault":
            r["faults"] += 1
        elif cat == "recovery":
            r["recovery"] += 1

    rows = []
    for j in sorted(layers):
        r = layers[j]
        r["workers"] = len(r.pop("workers"))
        # Barrier idle: layer wall clock past its longest shard (a worker
        # shard or the parent's slice).  A layer without shard spans —
        # a single-process solve — has no barrier to wait at.
        r["barrier_idle_us"] = (
            max(0, r["wall_us"] - r["shard_max_us"]) if r["shard_spans"] else 0
        )
        rows.append(r)
    return {
        "events": len(events),
        "wall_us": (wall_hi - wall_lo) if events else 0,
        "by_cat": by_cat,
        "layers": rows,
    }


def _fmt_ms(us: int) -> str:
    return f"{us / 1000:.2f}"


def render_report(summary: dict) -> str:
    """Fixed-width per-layer table plus totals, for terminal output."""
    headers = [
        "layer",
        "masks",
        "shards",
        "mode",
        "wall_ms",
        "shard_ms",
        "max_shard_ms",
        "idle_ms",
        "workers",
        "commit_ms",
        "commit_MB",
        "faults",
        "recovery",
    ]
    rows = []
    for r in summary["layers"]:
        rows.append(
            [
                r["layer"],
                r["masks"],
                r["shards"] or r["shard_spans"],
                r["mode"] or "-",
                _fmt_ms(r["wall_us"]),
                _fmt_ms(r["shard_us"]),
                _fmt_ms(r["shard_max_us"]),
                _fmt_ms(r["barrier_idle_us"]),
                r["workers"],
                _fmt_ms(r["commit_us"]),
                f"{r['commit_bytes'] / (1 << 20):.2f}",
                r["faults"],
                r["recovery"],
            ]
        )
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(str(h).rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))
    cats = ", ".join(f"{c}={n}" for c, n in sorted(summary["by_cat"].items()))
    lines.append(
        f"total: {summary['events']} events, "
        f"{summary['wall_us'] / 1e6:.3f} s span ({cats})"
    )
    return "\n".join(lines)
