"""Spans and counters taken from outside bevtrack, by replacing module attributes.

Nothing in ``src/`` knows about tracing. :func:`install` swaps the public
functions that the workloads reach (and the names other modules imported
them under) for wrappers that record a span around each call; a VJP, which
is only reachable through the tensor a forward op returns, is wrapped on
that tensor. :meth:`Tracer.restore` puts every original back.

Spans are kept in memory as ``[name, alias, start, end, parent]`` and
summarised or written out when the run ends. A span's self time is its
duration minus the time covered by its children; ``alias`` (a conv layer's
label) only gets inclusive time, so self times are never counted twice.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import defaultdict

import numpy as np

from bevtrack import geom, metrics, net, pipeline, sim, track, train, voxel
from bevtrack import tensor as T

CONV_LABELS = (
    "g1.c1", "g1.c2", "g2.c1", "g2.c2", "g3.c1", "g3.c2", "g3.c3",
    "g4.c1", "g4.c2", "g4.c3", "head.cls.c", "head.cls.p", "head.reg.c", "head.reg.p",
)

# span name -> per-layer metric name (``<name>_ms``)
SPAN_NAMES = (
    "sim.import_dataset", "sim.make_samples", "voxel.stack_temporal",
    "train.assign_targets", "train.total_loss", "net.forward",
    "tensor.conv3d.fwd", "tensor.conv3d.vjp", "tensor.conv2d.fwd", "tensor.conv2d.vjp",
    "tensor.maxpool2d.fwd", "tensor.maxpool2d.vjp", "tensor.backward", "tensor.adam_step",
    "net.decode", "geom.nms", "track.step", "track.decode_tracklets", "track.hungarian_track",
    "metrics.average_precision", "metrics.map_by_distance", "metrics.clear_mot",
    "metrics.forecast_error", "pipeline.evaluate_detection", "pipeline.evaluate_tracking",
    "pipeline.evaluate_forecast",
) + tuple(f"net.{label}.{d}" for label in CONV_LABELS for d in ("fwd", "vjp"))

# counters summed over a step (or a set-up) and averaged per step
COUNT_NAMES = (
    "train.positives", "train.mined_negatives", "runtime.gc_collections",
    "runtime.gc_freed_objects", "runtime.gc_ms", "net.decode.candidates", "net.decode.kept",
    "track.live", "track.coasting", "track.ids_created",
)
IOU_COUNTS = tuple(f"geom.iou.calls.{caller}" for caller in ("nms", "track", "metrics", "train"))
COUNT_NAMES += IOU_COUNTS

# (sum counter, call counter): reported as a mean per call
PER_CALL = {
    "voxel.occupied_share": ("voxel.occupied_sum", "voxel.stack_temporal.calls"),
    "tensor.tape_nodes": ("tensor.tape_nodes_sum", "net.forward.calls"),
}

TRACE_OVERALL = (
    ("trace.untraced_step_ms_p50", "ms"),
    ("trace.traced_step_ms_p50", "ms"),
    ("trace.self_sum_ms", "ms"),
    ("trace.self_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{n}_ms": "ms" for n in SPAN_NAMES}
    units.update({n: "count" for n in COUNT_NAMES})
    units["runtime.gc_ms"] = "ms"
    units["voxel.occupied_share"] = "ratio"
    units["tensor.tape_nodes"] = "count"
    units.update(dict(TRACE_OVERALL))
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def open(self, name, alias=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, alias, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, name, fn, after=None):
        """fn in a span (none if ``name`` is None); ``after(result, args)`` runs once it closed."""
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args)
                return out
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, args)
            return out

        return traced

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        c = self.counts
        c["runtime.gc_collections"] += 1
        c["runtime.gc_freed_objects"] += info["collected"]
        c["runtime.gc_ms"] += (time.perf_counter() - self._gc_start) * 1e3

    # -- summaries -----------------------------------------------------------

    def summarise(self, roots):
        """Per-root {metric: value}: inclusive ms by name and alias, self ms of the layers."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        root_of = [-1] * len(spans)
        for i, (_n, _a, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent] if root_of[parent] >= 0 else parent
        wanted = set(roots)
        per_root = {r: {"incl": defaultdict(float), "self": 0.0} for r in roots}
        for i, (name, alias, start, end, _parent) in enumerate(spans):
            r = root_of[i]
            if r not in wanted:
                continue
            agg = per_root[r]
            dur = (end - start) * 1e3
            agg["incl"][name] += dur
            if alias is not None:
                agg["incl"][alias] += dur
            agg["self"] += dur - child_time[i] * 1e3
        return [per_root[r] for r in roots]

    def write(self, path, extra):
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {"name": n, "alias": a, "start": s, "end": e, "parent": p}
                        for n, a, s, e, p in self.spans
                    ],
                    **extra,
                },
                f,
            )


def per_layer_metrics(tracer, setup_roots, step_roots, setup_counts, step_counts):
    """Each layer's inclusive ms and each counter, as a mean per step.

    A layer or counter that never moves inside a step (set-up only on that
    workload) reports its value per set-up instead; voxel.occupied_share and
    tensor.tape_nodes are means per call. trace.self_sum_ms is the median
    over steps of the layers' self times summed within the step.
    """
    steps = tracer.summarise(step_roots)
    setups = tracer.summarise(setup_roots)
    out = {}
    for name in SPAN_NAMES:
        pool = steps if any(name in s["incl"] for s in steps) else setups
        out[f"{name}_ms"] = statistics.fmean(s["incl"].get(name, 0.0) for s in pool)
    for name in COUNT_NAMES:
        if step_counts.get(name):
            out[name] = step_counts[name] / len(step_roots)
        else:
            out[name] = setup_counts.get(name, 0.0) / len(setup_roots)
    for name, (total, calls) in PER_CALL.items():
        n = step_counts.get(calls, 0.0) + setup_counts.get(calls, 0.0)
        s = step_counts.get(total, 0.0) + setup_counts.get(total, 0.0)
        out[name] = s / n if n else 0.0
    out["trace.self_sum_ms"] = statistics.median(s["self"] for s in steps)
    return out


def install(tracer):
    """Replace the public functions the workloads reach with traced wrappers."""
    c = tracer.counts

    def occupancy(out, _args):
        occ = out.occupancy
        c["voxel.occupied_sum"] += np.count_nonzero(occ) / occ.size
        c["voxel.stack_temporal.calls"] += 1

    def forward_done(out, _args):
        c["tensor.tape_nodes_sum"] += len(out[1].tape._nodes)
        c["net.forward.calls"] += 1

    def mined(mask, args):
        labels = args[1]
        pos = float((labels > 0.5).sum())
        c["train.positives"] += pos
        c["train.mined_negatives"] += float(mask.sum()) - pos

    def nms_done(kept, args):
        c["net.decode.candidates"] += len(args[0])
        c["net.decode.kept"] += len(kept)

    def op(kind, fn):
        """Forward span around a tensor op, and a VJP span on the tensor it returns."""

        def traced(*args, **kwargs):
            weights = args[1] if len(args) > 1 else None
            name = getattr(weights, "name", None)
            label = name[: -len(".w")] if name else None
            idx = tracer.open(f"tensor.{kind}.fwd", f"net.{label}.fwd" if label else None)
            try:
                y = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            vjp = y._vjp
            if vjp is not None:

                def traced_vjp(g):
                    j = tracer.open(f"tensor.{kind}.vjp", f"net.{label}.vjp" if label else None)
                    try:
                        return vjp(g)
                    finally:
                        tracer.close(j)

                y._vjp = traced_vjp
            return y

        return traced

    orig_step = track.TrackletDecoder.step

    def tracker_step(decoder, detections, frame):
        idx = tracer.open("track.step")
        before = decoder._next_id
        try:
            records = orig_step(decoder, detections, frame)
        finally:
            tracer.close(idx)
        c["track.ids_created"] += decoder._next_id - before
        for r in records:
            c["track.live" if r.status == track.LIVE else "track.coasting"] += 1
        return records

    p = tracer.patch
    p(sim, "import_dataset", tracer.wrap("sim.import_dataset", sim.import_dataset))
    p(sim, "make_samples", tracer.wrap("sim.make_samples", sim.make_samples))
    stack = tracer.wrap("voxel.stack_temporal", voxel.stack_temporal, occupancy)
    p(voxel, "stack_temporal", stack)
    p(sim, "stack_temporal", stack)
    p(train, "assign_targets", tracer.wrap("train.assign_targets", train.assign_targets))
    p(train, "total_loss", tracer.wrap("train.total_loss", train.total_loss))
    p(train, "mine_hard_negatives", tracer.wrap(None, train.mine_hard_negatives, mined))
    p(net.Model, "forward", tracer.wrap("net.forward", net.Model.forward, forward_done))
    p(T, "conv3d", op("conv3d", T.conv3d))
    p(T, "conv2d", op("conv2d", T.conv2d))
    p(T, "maxpool2d", op("maxpool2d", T.maxpool2d))
    p(T, "backward", tracer.wrap("tensor.backward", T.backward))
    p(T, "adam_step", tracer.wrap("tensor.adam_step", T.adam_step))
    p(net, "decode", tracer.wrap("net.decode", net.decode))
    p(net, "nms", tracer.wrap("geom.nms", net.nms, nms_done))
    p(track.TrackletDecoder, "step", tracker_step)
    p(pipeline, "decode_tracklets", tracer.wrap("track.decode_tracklets", pipeline.decode_tracklets))
    p(pipeline, "hungarian_track", tracer.wrap("track.hungarian_track", pipeline.hungarian_track))
    ap = metrics.average_precision
    p(pipeline, "average_precision", tracer.wrap("metrics.average_precision", ap))
    p(metrics, "average_precision", tracer.wrap("metrics.average_precision", ap))
    p(pipeline, "map_by_distance", tracer.wrap("metrics.map_by_distance", pipeline.map_by_distance))
    p(pipeline, "clear_mot", tracer.wrap("metrics.clear_mot", pipeline.clear_mot))
    p(pipeline, "forecast_error", tracer.wrap("metrics.forecast_error", pipeline.forecast_error))
    for stage in ("detection", "tracking", "forecast"):
        attr = f"evaluate_{stage}"
        p(pipeline, attr, tracer.wrap(f"pipeline.{attr}", getattr(pipeline, attr)))
    gc.callbacks.append(tracer._gc_callback)


def install_iou_counters(tracer):
    """Count IoU calls per calling module (kept out of timed rounds)."""
    c = tracer.counts

    def counted(name, fn):
        def count_call(*args):
            c[name] += 1
            return fn(*args)

        return count_call

    for module, caller in ((geom, "nms"), (track, "track"), (metrics, "metrics"), (train, "train")):
        tracer.patch(module, "iou", counted(f"geom.iou.calls.{caller}", module.iou))
