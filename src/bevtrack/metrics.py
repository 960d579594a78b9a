"""Detection AP, CLEAR-MOT tracking metrics and forecast displacement errors."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geom import BoxSet, iou
from .track import linear_sum_assignment


@dataclass
class EvalConfig:
    iou_thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    min_points: int = 3
    distance_bins: tuple[float, ...] = tuple(float(d) for d in range(10, 101, 10))
    assoc_iou: float = 0.5
    track_score_thr: float = 0.9
    forecast_horizons: tuple[int, ...] = (1, 2, 3, 4)
    forecast_match_iou: float = 0.5
    score_thr: float = 0.5
    nms_thr: float = 0.1

    def __post_init__(self):
        if any(not 0.0 < t <= 1.0 for t in self.iou_thresholds):
            raise ValueError("iou thresholds must lie in (0, 1]")
        if list(self.distance_bins) != sorted(self.distance_bins):
            raise ValueError("distance bins must be ordered")
        for name in ("assoc_iou", "forecast_match_iou"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        for name in ("score_thr", "nms_thr", "track_score_thr"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if any(type(h) is not int or h < 1 for h in self.forecast_horizons):
            raise ValueError(f"forecast horizons must be ints >= 1, got {tuple(self.forecast_horizons)}")
        if self.min_points < 0:
            raise ValueError(f"min_points must be >= 0, got {self.min_points}")


@dataclass
class ScoredBox:
    """One detection for evaluation purposes."""

    frame: int
    box: object
    score: float


@dataclass
class PRCurve:
    recall: list
    precision: list
    ap: float


def frame_ious(dets, gts):
    """IoU of each detection with each ground truth of its frame, one matrix
    per frame, as ``{id(det): {id(gt): iou}}``: calls on the same boxes, or
    on subsets of them, can share it."""
    dets_by_frame = {}
    for d in dets:
        dets_by_frame.setdefault(d.frame, []).append(d)
    gts_by_frame = {}
    for g in gts:
        gts_by_frame.setdefault(g.frame, []).append(g)
    out = {}
    for f, frame_dets in dets_by_frame.items():
        frame_gts = gts_by_frame.get(f, [])
        keys = [id(g) for g in frame_gts]
        rows = iou(BoxSet([d.box for d in frame_dets])[:, None], [g.box for g in frame_gts]).tolist()
        out.update((id(d), dict(zip(keys, row))) for d, row in zip(frame_dets, rows))
    return out


def average_precision(dets, gts, iou_thr, min_points=3, ious=None):
    """All-point interpolated AP with the minimum-points don't-care rule.

    ``gts`` are ground-truth records (``sim.LabelRecord``) with their boxes
    in the detections' coordinates. Detections are ranked globally by score
    and matched greedily to the not-yet-matched ground truth of their frame.
    A detection whose best match is a don't-care box counts neither as hit
    nor false positive. ``ious`` is :func:`frame_ious` of these boxes or of a
    superset, computed when None. Returns None when no cared-for ground truth
    exists.
    """
    care = [g for g in gts if g.num_points >= min_points]
    dontcare = [g for g in gts if g.num_points < min_points]
    if not care:
        return None
    if ious is None:
        ious = frame_ious(dets, gts)

    care_by_frame = {}
    for g in care:
        care_by_frame.setdefault(g.frame, []).append(g)
    dc_by_frame = {}
    for g in dontcare:
        dc_by_frame.setdefault(g.frame, []).append(g)

    order = sorted(
        dets,
        key=lambda d: (-d.score, d.frame, d.box.cx, d.box.cy, d.box.w, d.box.h, d.box.theta),
    )
    matched = set()
    tp_flags = []
    for det in order:
        row = ious[id(det)]
        best_iou, best_gt, best_dc = 0.0, None, False
        for g in care_by_frame.get(det.frame, ()):
            if id(g) in matched:
                continue
            v = row[id(g)]
            if v > best_iou:
                best_iou, best_gt, best_dc = v, g, False
        for g in dc_by_frame.get(det.frame, ()):
            v = row[id(g)]
            if v > best_iou:
                best_iou, best_gt, best_dc = v, g, True
        if best_iou >= iou_thr:
            if best_dc:
                continue  # neither TP nor FP
            matched.add(id(best_gt))
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    n_gt = len(care)
    recall, precision = [], []
    tp = fp = 0
    for flag in tp_flags:
        tp += flag
        fp += not flag
        recall.append(tp / n_gt)
        precision.append(tp / (tp + fp))

    ap = 0.0
    prev_r = 0.0
    # monotone envelope from the right, integrated over recall
    env = list(precision)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    for r, p_ in zip(recall, env):
        ap += (r - prev_r) * p_
        prev_r = r
    return PRCurve(recall=recall, precision=precision, ap=ap)


def map_by_distance(dets, gts, iou_thr, bins, min_points=3, ious=None):
    """AP per ego-distance bin; empty bins are reported as absent (None).

    ``ious`` is :func:`frame_ious` of these boxes, computed when None.
    """
    edges = [0.0] + list(bins)

    def bin_of(box):
        d = math.hypot(box.cx, box.cy)
        for b in range(len(edges) - 1):
            if edges[b] <= d < edges[b + 1]:
                return b
        return len(edges) - 2 if d == edges[-1] else None

    if ious is None:
        ious = frame_ious(dets, gts)
    gt_bins = {}
    for g in gts:
        b = bin_of(g.box)
        if b is not None:
            gt_bins.setdefault(b, []).append(g)

    # a detection evaluates in the bin of its nearest ground truth (its
    # matched one whenever a match exists)
    det_bins = {}
    for det in dets:
        row = ious[id(det)]
        best, best_v = None, -1.0
        for g in gts:
            if g.frame != det.frame:
                continue
            v = row[id(g)]
            if v > best_v:
                best, best_v = g, v
        if best is None or best_v == 0.0:
            best = min(
                (g for g in gts if g.frame == det.frame),
                key=lambda g: math.hypot(g.box.cx - det.box.cx, g.box.cy - det.box.cy),
                default=None,
            )
        b = bin_of(best.box) if best is not None else bin_of(det.box)
        if b is not None:
            det_bins.setdefault(b, []).append(det)

    out = {}
    for b in range(len(edges) - 1):
        label = (edges[b], edges[b + 1])
        if b not in gt_bins:
            out[label] = None
            continue
        pr = average_precision(det_bins.get(b, []), gt_bins[b], iou_thr, min_points, ious)
        out[label] = pr.ap if pr is not None else None
    return out


@dataclass
class MotResult:
    mota: float
    motp: float
    mt: float
    ml: float
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    num_gt: int = 0


def clear_mot(tracklets, gt_tracks, assoc_iou=0.5, score_thr=0.9):
    """CLEAR-MOT bookkeeping with identity-preserving per-frame matching.

    ``tracklets`` are TrackletFrame-like records (frame, track_id, box,
    score); ``gt_tracks`` maps gt id -> {frame: RotatedBox}.
    """
    hyp_by_frame = {}
    for r in tracklets:
        if r.score >= score_thr:
            hyp_by_frame.setdefault(r.frame, []).append(r)
    frames = set(hyp_by_frame)
    for track in gt_tracks.values():
        frames.update(track)

    fp = fn = idsw = 0
    num_gt = 0
    iou_sum = 0.0
    n_match = 0
    last_match = {}  # gt id -> hyp id, persists across gaps
    prev_pairs = {}  # gt id -> hyp id matched in the previous frame

    gt_cover = {gid: 0 for gid in gt_tracks}

    for f in sorted(frames):
        gts = [(gid, track[f]) for gid, track in gt_tracks.items() if f in track]
        hyps = list(hyp_by_frame.get(f, []))
        num_gt += len(gts)
        ious = iou(BoxSet([gbox for _gid, gbox in gts])[:, None], [h.box for h in hyps])

        pairs = {}
        used_hyp = set()
        # keep last frame's associations first when still valid
        for i, (gid, _gbox) in enumerate(gts):
            want = prev_pairs.get(gid)
            if want is None:
                continue
            for j, h in enumerate(hyps):
                if h.track_id == want and h.track_id not in used_hyp:
                    v = float(ious[i, j])
                    if v >= assoc_iou:
                        pairs[gid] = (h.track_id, v)
                        used_hyp.add(h.track_id)
                    break
        rest_gt = [i for i, (gid, _gbox) in enumerate(gts) if gid not in pairs]
        rest_hyp = [j for j, h in enumerate(hyps) if h.track_id not in used_hyp]
        if rest_gt and rest_hyp:
            cost = 1.0 - ious[np.ix_(rest_gt, rest_hyp)]
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                v = 1.0 - cost[i, j]
                if v >= assoc_iou:
                    pairs[gts[rest_gt[i]][0]] = (hyps[rest_hyp[j]].track_id, v)
                    used_hyp.add(hyps[rest_hyp[j]].track_id)

        fn += len(gts) - len(pairs)
        fp += len(hyps) - len(pairs)
        for gid, (hid, v) in pairs.items():
            iou_sum += v
            n_match += 1
            gt_cover[gid] += 1
            if gid in last_match and last_match[gid] != hid:
                idsw += 1
            last_match[gid] = hid
        prev_pairs = {gid: hid for gid, (hid, _v) in pairs.items()}

    mota = 1.0 - (fn + fp + idsw) / num_gt if num_gt else 1.0
    motp = iou_sum / n_match if n_match else 0.0
    mt = ml = 0.0
    if gt_tracks:
        fracs = [gt_cover[gid] / len(track) for gid, track in gt_tracks.items() if track]
        mt = sum(f >= 0.8 for f in fracs) / len(fracs)
        ml = sum(f <= 0.2 for f in fracs) / len(fracs)
    return MotResult(mota=mota, motp=motp, mt=mt, ml=ml, fp=fp, fn=fn, idsw=idsw, num_gt=num_gt)


@dataclass
class ForecastResult:
    l1: dict  # horizon -> mean L1 center distance
    l2: dict  # horizon -> mean L2 center distance
    recall: float


def forecast_error(detection_sets, gt_tracks, horizons, match_iou=0.5):
    """Center displacement of forecasts, evaluated on true positives only.

    Detections are matched to ground truth at their own frame; horizon h
    compares the detection's h-step forecast with the matched track's box
    at frame + h, skipping horizons past the track's end.
    """
    sums_l1 = {h: 0.0 for h in horizons}
    sums_l2 = {h: 0.0 for h in horizons}
    counts = {h: 0 for h in horizons}
    matched_total = 0
    gt_total = 0

    for ds in detection_sets:
        f = ds.frame
        gts = [(gid, track[f]) for gid, track in gt_tracks.items() if f in track]
        gt_total += len(gts)
        dets = sorted(ds.detections, key=lambda d: -d.score)
        gt_set = BoxSet([gbox for _gid, gbox in gts])
        taken = set()
        # IoU rows in growing chunks of detections: once every ground truth is
        # taken, no later detection can match, so its row is never computed
        lo, size = 0, 8
        while lo < len(dets) and len(taken) < len(gts):
            chunk = dets[lo : lo + size]
            lo, size = lo + size, 2 * size
            ious = iou(BoxSet([d.boxes[0] for d in chunk])[:, None], gt_set)
            for det, row in zip(chunk, ious.tolist()):
                best_gid, best_v = None, 0.0
                for (gid, _gbox), v in zip(gts, row):
                    if gid in taken:
                        continue
                    if v > best_v:
                        best_gid, best_v = gid, v
                if best_gid is None or best_v < match_iou:
                    continue
                taken.add(best_gid)
                matched_total += 1
                track = gt_tracks[best_gid]
                for h in horizons:
                    if h >= len(det.boxes) or (f + h) not in track:
                        continue
                    fut = det.boxes[h]
                    gt_fut = track[f + h]
                    dx = fut.cx - gt_fut.cx
                    dy = fut.cy - gt_fut.cy
                    sums_l1[h] += abs(dx) + abs(dy)
                    sums_l2[h] += math.hypot(dx, dy)
                    counts[h] += 1

    l1 = {h: (sums_l1[h] / counts[h] if counts[h] else None) for h in horizons}
    l2 = {h: (sums_l2[h] / counts[h] if counts[h] else None) for h in horizons}
    recall = matched_total / gt_total if gt_total else 0.0
    return ForecastResult(l1=l1, l2=l2, recall=recall)


def write_report(path, entries):
    """Structured metrics report: deterministic JSON, one object per metric.

    A NaN or inf value, which JSON cannot hold, raises ValueError before
    anything is written.
    """
    try:
        text = json.dumps(entries, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"report {path} holds a non-finite number ({e}); nothing written") from None
    with open(path, "w") as f:
        f.write(text + "\n")
