"""Slow reference implementations that the fast paths in bevtrack are tested against."""

import itertools
import math

import numpy as np

from bevtrack import tensor as T
from bevtrack import geom, net, track, train
from bevtrack.geom import MIN_INTERSECTION_AREA, RotatedBox, clip_polygon, polygon_area


def _fast_reject(a: RotatedBox, b: RotatedBox):
    ra = 0.5 * math.hypot(a.w, a.h)
    rb = 0.5 * math.hypot(b.w, b.h)
    return math.hypot(a.cx - b.cx, a.cy - b.cy) > ra + rb


def intersection_area(a: RotatedBox, b: RotatedBox):
    if _fast_reject(a, b):
        return 0.0
    # canonical operand order makes the computation bitwise symmetric
    if (b.cx, b.cy, b.w, b.h, b.theta) < (a.cx, a.cy, a.w, a.h, a.theta):
        a, b = b, a
    inter = clip_polygon(a.corners(), b.corners())
    area = polygon_area(inter)
    return area if area > MIN_INTERSECTION_AREA else 0.0


def iou(a: RotatedBox, b: RotatedBox):
    """Scalar IoU of two rotated boxes: the bitwise oracle for ``geom.iou``."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (a.w * a.h + b.w * b.h - inter)


def scalar_encode_box(anchor: RotatedBox, gt: RotatedBox):
    """Regression code of one ground-truth box against one anchor, value by value
    with ``math``: the oracle for ``net.encode_boxes``."""
    return np.array(
        [
            (anchor.cx - gt.cx) / gt.w,
            (anchor.cy - gt.cy) / gt.h,
            math.log(anchor.w / gt.w),
            math.log(anchor.h / gt.h),
            math.sin(gt.theta),
            math.cos(gt.theta),
        ]
    )


def scalar_decode_box(anchor: RotatedBox, code, max_size_code=math.log(1000.0)):
    """One box decoded value by value with ``math``: the oracle for ``net.decode_boxes``."""
    lx, ly, sw, sh, asin, acos = np.asarray(code, dtype=np.float64).tolist()
    w = anchor.w * math.exp(-min(max(sw, -max_size_code), max_size_code))
    h = anchor.h * math.exp(-min(max(sh, -max_size_code), max_size_code))
    return RotatedBox(anchor.cx - lx * w, anchor.cy - ly * h, w, h, math.atan2(asin, acos))


def greedy_nms(dets, iou_thr):
    """NMS over (RotatedBox, score) pairs, one oracle ``iou`` per kept box until one suppresses.

    Same order and tie-break as ``geom.nms``: descending score, then lower
    (cx, cy, theta), then lower index.
    """
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i][1], dets[i][0].cx, dets[i][0].cy, dets[i][0].theta),
    )
    kept = []
    for i in order:
        if all(iou(dets[i][0], dets[j][0]) < iou_thr for j in kept):
            kept.append(i)
    return kept


class PairwiseTrackletDecoder(track.TrackletDecoder):
    """``track.TrackletDecoder`` grouping candidates with one oracle ``iou`` per pair.

    Each unassigned candidate, in score order, leads a group of every later
    unassigned one it overlaps at ``MATCH_THR`` or more.
    """

    def step(self, detections, frame):
        if self._frame is not None and frame <= self._frame:
            raise ValueError(f"frame {frame} does not come after frame {self._frame}")
        self._frame = frame
        candidates = [(d.boxes[0], d.score, -1, d.boxes[: self.n_out]) for d in detections.detections]
        for past, tid, boxes, score in self._buffer:
            age = frame - past
            if age < len(boxes):
                candidates.append((boxes[age], score * track.SCORE_DECAY**age, tid, None))
        order = sorted(range(len(candidates)), key=lambda i: (-candidates[i][1], i))
        assigned = [False] * len(candidates)
        claimed = set()
        emitted = []
        for i in order:
            if assigned[i]:
                continue
            group = []
            for j in order:
                if not assigned[j] and (j == i or iou(candidates[i][0], candidates[j][0]) >= track.MATCH_THR):
                    group.append(candidates[j])
                    assigned[j] = True
            free = [tid for _box, _score, tid, _boxes in group if tid >= 0 and tid not in claimed]
            current = [(boxes, score) for _box, score, _tid, boxes in group if boxes is not None]
            if free:
                tid = min(free)
            elif current:
                tid = self._next_id
                self._next_id += 1
            else:
                continue
            claimed.add(tid)
            emitted.append(track.TrackletFrame(
                frame=frame, track_id=tid, box=track._average_boxes([c[0] for c in group]),
                score=max(c[1] for c in group), status=track.LIVE if current else track.COASTING,
            ))
            self._buffer.extend((frame, tid, boxes, score) for boxes, score in current)
        self._buffer = [e for e in self._buffer if frame + 1 - e[0] < len(e[2])]
        return emitted


def dense_assign_targets(anchors, objects, n_out, iou_thr=0.4):
    """``train.assign_targets`` from one dense anchor x box IoU matrix: its oracle.

    Anchors above ``iou_thr`` take their best box; each box left unmatched
    then takes, in box order, its first highest-IoU anchor, when that IoU is
    above 0.
    """
    K, I, J = anchors.shape
    n = K * I * J
    labels = np.zeros(n)
    matched = np.full(n, -1, dtype=np.int64)
    targets = np.zeros((n, n_out, net.CODE_SIZE))
    valid = np.zeros((n, n_out))
    if objects:
        ious = geom.iou(anchors.box_set[:, None], [obj.boxes[0] for obj in objects])
        best_gt = ious.argmax(axis=1)
        pos = ious[np.arange(n), best_gt] > iou_thr
        matched[pos] = best_gt[pos]
        for m in range(len(objects)):
            if not np.any(matched == m) and ious[:, m].max() > 0.0:
                matched[ious[:, m].argmax()] = m
        labels[matched >= 0] = 1.0
        for a in np.flatnonzero(matched >= 0).tolist():
            for t, box in enumerate(objects[matched[a]].boxes[:n_out]):
                if box is not None:
                    targets[a, t] = net.encode_boxes(anchors.array[a], [box.cx, box.cy, box.w, box.h, box.theta])
                    valid[a, t] = 1.0
    return train.TargetAssignment(
        labels=labels.reshape(K, I, J),
        targets=targets.reshape(K, I, J, n_out, net.CODE_SIZE).transpose(0, 3, 4, 1, 2),
        valid=valid.reshape(K, I, J, n_out).transpose(0, 3, 1, 2),
    )


def exhaustive_assignment(cost):
    """Least total cost over every injective map of the smaller side into the larger, up to 7 per side."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    nr, nc = cost.shape
    if nr > 7 or nc > 7:
        raise ValueError(f"exhaustive search is for up to 7 per side, got {cost.shape}")
    return min(sum(cost[i, j] for i, j in enumerate(cols)) for cols in itertools.permutations(range(nc), nr))


def mc_iou(a: RotatedBox, b: RotatedBox, samples=1_000_000, seed=0):
    """Monte-Carlo IoU estimate over the joint bounding region.

    Returns (estimate, standard_error). Oracle for the analytic ``geom.iou``.
    """
    pts = np.concatenate([np.asarray(a.corners()), np.asarray(b.corners())])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    rng = np.random.default_rng(seed)
    in_a_total = in_b_total = in_both_total = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        xy = rng.uniform(lo, hi, size=(n, 2))
        in_a = _contains_batch(a, xy)
        in_b = _contains_batch(b, xy)
        in_a_total += int(in_a.sum())
        in_b_total += int(in_b.sum())
        in_both_total += int((in_a & in_b).sum())
        remaining -= n
    union = in_a_total + in_b_total - in_both_total
    if union == 0:
        return 0.0, 0.0
    est = in_both_total / union
    # binomial error of the hit fraction among union samples
    se = math.sqrt(max(est * (1.0 - est), 1e-30) / union)
    return est, se


def _contains_batch(box: RotatedBox, xy):
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx = xy[:, 0] - box.cx
    dy = xy[:, 1] - box.cy
    lon = c * dx + s * dy
    lat = -s * dx + c * dy
    return (np.abs(lon) <= box.h / 2.0) & (np.abs(lat) <= box.w / 2.0)


def temporal_group_conv(x, weights):
    """Weighted sum over the leading time axis of [T,C,H,W], weights shared by all channels.

    Early fusion collapsed the frames this way before a dense conv2d; by
    linearity that equals ``conv3d`` with ``tensor.temporal_kernel``, which it
    is the oracle for. Records on the tape like the ops in ``bevtrack.tensor``.
    """
    xd, wd = T._as_array(x), T._as_array(weights)
    if xd.ndim != 4:
        raise T.TensorError(f"temporal_group_conv input must be [T,C,H,W], got {xd.shape}")
    if wd.shape != (xd.shape[0],):
        raise T.TensorError(
            f"temporal weight count {wd.shape} does not match temporal extent {xd.shape[0]}"
        )
    y = np.tensordot(wd, xd, axes=(0, 0))
    return T._node(
        y,
        (x, lambda g: wd[:, None, None, None] * g[None]),
        (weights, lambda g: np.tensordot(xd, g, axes=((1, 2, 3), (0, 1, 2)))),
    )


# taped ops that no model code uses, kept for the gradient checks; they
# record on the tape like the ops in ``bevtrack.tensor``


def sigmoid(x):
    y = T.sigmoid_array(T._as_array(x))
    return T._node(y, (x, lambda g: y * (1.0 - y) * g))


def mul(a, b):
    ad, bd = T._as_array(a), T._as_array(b)
    if ad.shape != bd.shape:
        raise T.TensorError(f"mul shape mismatch {ad.shape} vs {bd.shape}")
    return T._node(ad * bd, (a, lambda g: g * bd), (b, lambda g: g * ad))


def tensor_sum(x):
    xd = T._as_array(x)
    return T._node(np.asarray(xd.sum()), (x, lambda g: np.full_like(xd, float(g.reshape(())))))


def dense_forward(model, occupancy, tape):
    """``net.Model.forward`` with every layer dense, recorded on ``tape``: the oracle for its fields.

    Each conv3d runs as :func:`conv2d_frames` over the kT frames of each
    output frame, early fusion collapses the frames with
    :func:`temporal_group_conv`, and no layer keeps a background. Returns the
    cls logits and the reg Tensor.
    """
    cfg = model.config
    p = {name: tape.parameter(name, v) for name, v in model.params.items()}
    x = occupancy.transpose(1, 0, 2, 3)  # [Z, T, X, Y]
    for name, shape, pool in net._conv_specs(cfg):
        w, b = p[f"{name}.w"], p[f"{name}.b"]
        if name == "g1.c1" and cfg.fusion == "early":
            x = T.conv2d(temporal_group_conv(T.Tensor(occupancy), p["temporal.w"]), w, b, pad=1)
        elif len(shape) == 5:  # frames still to collapse
            kt, t = shape[2], x.shape[1]
            frames = [conv2d_frames(x if kt == t else take(x, np.s_[:, to : to + kt]), w, b, pad=1)
                      for to in range(t - kt + 1)]
            x = frames[0] if len(frames) == 1 else stack_frames(frames)
        else:
            x = T.conv2d(x[:, 0] if len(x.shape) == 4 else x, w, b, pad=1)
        x = T.relu(x)
        if pool:
            x = T.maxpool2d(x)

    def head(branch):
        h = T.relu(T.conv2d(x, p[f"head.{branch}.c.w"], p[f"head.{branch}.c.b"], pad=1))
        return T.conv2d(h, p[f"head.{branch}.p.w"], p[f"head.{branch}.p.b"], pad=0)

    I, J = cfg.feat_shape
    return head("cls"), T.reshape(head("reg"), (cfg.num_anchors, cfg.n_out, net.CODE_SIZE, I, J))


def conv2d_frames(x, weights, bias, pad=0):
    """Cross-correlation of [C_in,T,H,W] with a [C_out,C_in,T,kH,kW] kernel that spans all T frames, so time collapses.

    One ``T.conv2d`` per frame, summed with ``T.add``, the bias added once:
    the dense oracle for one output frame of a field's conv3d. Records on the
    tape like the ops in ``bevtrack.tensor``.
    """
    xd, wd = T._as_array(x), T._as_array(weights)
    if xd.ndim != 4 or wd.ndim != 5 or xd.shape[1] != wd.shape[2]:
        raise T.TensorError(f"conv2d_frames takes [C,T,H,W] with a kernel spanning its T frames, got {xd.shape} and {wd.shape}")
    zero = np.zeros(wd.shape[0])
    y = T.conv2d(take(x, np.s_[:, 0]), take(weights, np.s_[:, :, 0]), bias, pad=pad)
    for t in range(1, xd.shape[1]):
        y = T.add(y, T.conv2d(take(x, np.s_[:, t]), take(weights, np.s_[:, :, t]), zero, pad=pad))
    return y


def take(x, index):
    """``x[index]`` of an array or Tensor, recorded on its tape; the VJP puts the gradient back in place."""
    xd = T._as_array(x)

    def grad(g):
        gx = np.zeros_like(xd)
        gx[index] = g
        return gx

    return T._node(xd[index], (x, grad))


def stack_frames(frames):
    """[C,H,W] Tensors stacked into [C,T,H,W]."""
    return T._node(np.stack([f.data for f in frames], axis=1),
                   *((f, lambda g, i=i: g[:, i]) for i, f in enumerate(frames)))
