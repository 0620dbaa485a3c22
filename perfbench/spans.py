"""Spans and allocation peaks around calls into oct_cascade's public functions.

Nothing here changes the package. Each probe replaces a function's name in
every loaded ``oct_cascade`` module that bound it (callers use
``from .x import y``, so patching the defining module alone would miss
them) and restores the original names afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

import numpy as np

#: Functions the traced pass times, as "module.function" under oct_cascade.
TRACED = (
    "phantom.generate",
    "kernels.raster_tubes",
    "kernels.apply_shadows",
    "kernels.dp_trace",
    "layers.trace_boundary",
    "layers.segment_boundaries",
    "enface.project_rpe",
    "enface.segment_shadows",
    "cascade.vessel_probability",
    "cascade.longitudinal_mask",
    "cascade.transverse_mask",
    "cascade.infuse",
    "cascade.binarize_and_label",
    "cascade.run_cascade",
    "metrics.auc",
    "metrics.confusion",
    "fileio.read_volume",
    "fileio.write_volume",
    "fileio.read_boundaries",
    "fileio.write_boundaries",
    "fileio.write_pgm",
    "pipeline.run_to_files",
    "pipeline.ablate",
)

#: Functions whose allocation peak the tracemalloc pass records.
ALLOCATING = (
    "layers.segment_boundaries",
    "enface.project_rpe",
    "cascade.vessel_probability",
    "cascade.binarize_and_label",
    "metrics.auc",
    "cascade.run_cascade",
)

_MIB = 1024.0 * 1024.0


def _payload_bytes(data: np.ndarray) -> int:
    # grid payloads are one byte per mask voxel and four per float
    return int(data.size) * (1 if data.dtype == bool else 4)


def _dp_states(args, kwargs, result):
    lo, hi = np.asarray(args[1]), np.asarray(args[2])
    return {"dp_states": int(np.sum(hi - lo + 1))}


def _auc_voxels(args, kwargs, result):
    region = args[2] if len(args) > 2 else kwargs.get("region")
    if region is not None:
        return {"voxels": int(np.count_nonzero(region.data))}
    return {"voxels": int(np.size(getattr(args[0], "data", args[0])))}


def _shadow_pixels(args, kwargs, result):
    mask = result[0].data
    return {"shadow_px": int(np.count_nonzero(mask)), "px": int(mask.size)}


#: Counters taken from a call's arguments or result: name -> fn(args, kwargs, result).
COUNTERS = {
    "kernels.dp_trace": _dp_states,
    "metrics.auc": _auc_voxels,
    "enface.segment_shadows": _shadow_pixels,
    "cascade.binarize_and_label": lambda a, k, r: {"components_kept": int(r[1])},
    "fileio.read_volume": lambda a, k, r: {"bytes_read": _payload_bytes(r.data)},
    "fileio.write_volume": lambda a, k, r: {"bytes_written": _payload_bytes(a[0].data)},
}


@contextlib.contextmanager
def patched(names, wrap):
    """Replace each named function by ``wrap(name, fn)`` wherever it is bound,
    skipping names the package no longer defines."""
    undo = []
    try:
        for name in names:
            module_name, attr = name.split(".")
            original = getattr(importlib.import_module(f"oct_cascade.{module_name}"), attr, None)
            if original is None:  # the function is gone; its metrics read 0
                continue
            wrapper = wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("oct_cascade"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield
    finally:
        for module, key, original in reversed(undo):
            setattr(module, key, original)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    volume: int | None
    counts: dict


class Tracer:
    """Records one span per wrapped call, in memory.

    A call made on a worker thread (the layer tracer's slice pool) has no
    open span of its own thread; its parent is the innermost open span of
    the thread that created the tracer, which is the call that started the
    pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.volume: int | None = None
        self._ids = itertools.count()
        self._home = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks[thread]
            home = self._stacks[self._home]
            parent = stack[-1] if stack else (home[-1] if home else None)
            span_id = next(self._ids)
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter and returned else {}
                self.spans.append(Span(span_id, name, start, end, parent, self.volume, counts))

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        inside = [(max(s, sp.start), min(e, sp.end)) for s, e in children[sp.id]]
        out[sp.id] = (sp.end - sp.start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


def layer_metrics(spans: list[Span], n_volumes: int, traced_wall_s: float) -> dict[str, float]:
    """Per-volume self time, calls and counters of every traced function."""
    own = self_times(spans)
    self_s = dict.fromkeys(TRACED, 0.0)
    calls = dict.fromkeys(TRACED, 0)
    counts: dict[str, int] = defaultdict(int)
    for sp in spans:
        self_s[sp.name] += own[sp.id]
        calls[sp.name] += 1
        for key, value in sp.counts.items():
            counts[key] += value
    dp_wall = _covered([(sp.start, sp.end) for sp in spans if sp.name == "kernels.dp_trace"])

    per = 1.0 / n_volumes
    out = {}
    for name in TRACED:
        out[f"{name}.self_s"] = self_s[name] * per
        out[f"{name}.calls"] = calls[name] * per
    out["kernels.dp_states"] = counts["dp_states"] * per
    dp_s = self_s["kernels.dp_trace"]
    out["kernels.dp_states_per_s"] = counts["dp_states"] / dp_s if dp_s > 0 else 0.0
    out["metrics.auc.voxels"] = counts["voxels"] * per
    out["cascade.components_kept"] = counts["components_kept"] * per
    out["enface.shadow_px_frac"] = counts["shadow_px"] / counts["px"] if counts["px"] else 0.0
    out["fileio.read_volume.bytes"] = counts["bytes_read"] * per
    out["fileio.write_volume.bytes"] = counts["bytes_written"] * per
    out["trace.dp_wall_frac"] = dp_wall / traced_wall_s
    return out


class AllocationProbe:
    """Peak traced allocation above the entry level, per wrapped function.

    tracemalloc keeps one process-wide peak, so each call resets it; the
    peak seen before a nested call's reset is carried in the caller's
    frame so no enclosing call loses it.
    """

    def __init__(self):
        self.peak_bytes: dict[str, int] = dict.fromkeys(ALLOCATING, 0)
        self.volume_ratio = 0.0
        self._frames: list[list[int]] = []

    def wrap(self, name, fn):
        def probed(*args, **kwargs):
            base, peak_so_far = tracemalloc.get_traced_memory()
            if self._frames:
                self._frames[-1][0] = max(self._frames[-1][0], peak_so_far)
            tracemalloc.reset_peak()
            frame = [0]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
                peak = max(tracemalloc.get_traced_memory()[1], frame[0])
                if self._frames:
                    self._frames[-1][0] = max(self._frames[-1][0], peak)
                grown = peak - base
                self.peak_bytes[name] = max(self.peak_bytes[name], grown)
                if name == "cascade.run_cascade":
                    self.volume_ratio = max(self.volume_ratio, grown / args[0].data.nbytes)

        return probed

    def measure(self, call) -> dict[str, float]:
        tracemalloc.start()
        try:
            with patched(ALLOCATING, self.wrap):
                call()
        finally:
            tracemalloc.stop()
        out = {
            f"{name}.peak_alloc_mib": self.peak_bytes[name] / _MIB
            for name in ALLOCATING
            if name != "cascade.run_cascade"
        }
        out["cascade.run_cascade.peak_alloc_x_volume"] = self.volume_ratio
        return out
