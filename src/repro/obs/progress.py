"""Live stderr progress reporting for long solves.

A k≥24 out-of-core solve runs for minutes; :class:`ProgressReporter`
turns the layer barrier — the one natural heartbeat of the solve loop —
into a single self-overwriting stderr line::

    layer 17/24  61.8% masks  elapsed 84.3s  eta 52.1s  spilled 96 MB (+8 MB queued)

Masks completed is the honest progress measure (layer sizes follow the
binomial distribution, so "layers done" alone misrepresents the middle
bulge); the ETA extrapolates from the masks-completed fraction.  Output
goes to ``stream`` (default ``sys.stderr``) only when the solve loop
calls in — constructing a reporter costs nothing.

The byte counts arrive as one snapshot from
:meth:`repro.store.pipeline.AsyncCommitter.stats`, taken under the lock
the committer retires layers under, so no line counts a layer twice.
``spilled`` is what the committer durably wrote; ``queued`` is what the
commit in flight and the queue behind it will write.  Both are zero for
a store that persists nothing.
"""

from __future__ import annotations

import sys
import time

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """One-line live progress for the layer loop, at any worker count."""

    def __init__(self, stream=None, min_interval: float = 0.0):
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval
        self._t0 = None
        self._last_emit = 0.0
        self._total_layers = 0
        self._total_masks = 0
        self._wrote = False

    def begin(self, total_layers: int, total_masks: int) -> None:
        self._t0 = time.monotonic()
        self._total_layers = total_layers
        self._total_masks = total_masks

    def layer_done(
        self,
        layer: int,
        masks_done: int,
        spilled_bytes: int = 0,
        queued_bytes: int = 0,
    ) -> None:
        if self._t0 is None:
            self.begin(layer, masks_done)
        now = time.monotonic()
        final = layer >= self._total_layers
        if not final and self._min_interval and now - self._last_emit < self._min_interval:
            return
        self._last_emit = now
        elapsed = now - self._t0
        frac = masks_done / self._total_masks if self._total_masks else 1.0
        eta = elapsed * (1.0 - frac) / frac if frac > 0 else float("inf")
        parts = [
            f"layer {layer}/{self._total_layers}",
            f"{frac * 100:5.1f}% masks",
            f"elapsed {elapsed:.1f}s",
            f"eta {eta:.1f}s" if eta != float("inf") else "eta ?",
        ]
        if spilled_bytes or queued_bytes:
            spilled = f"spilled {spilled_bytes >> 20} MB"
            if queued_bytes:
                spilled += f" (+{queued_bytes >> 20} MB queued)"
            parts.append(spilled)
        self._write("\r" + "  ".join(parts))
        self._wrote = True

    def finish(self) -> None:
        if self._wrote:
            self._write("\n")
            self._wrote = False

    def _write(self, text: str) -> None:
        try:
            self._stream.write(text)
            self._stream.flush()
        except (OSError, ValueError):
            # A closed or broken stderr must never kill the solve.
            pass
