"""Anchor/ground-truth assignment, the joint loss, and the training loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geom import BoxSet, iou, iou_bound
from .net import CODE_SIZE, AnchorGrid, Model, encode_boxes
from .sim import GtObject, Sample
from .voxel import InputTensor

BOUND_PAIRS = 65536  # anchor x box pairs per iou_bound call in assign_targets


@dataclass
class TargetAssignment:
    labels: np.ndarray  # [K, I, J] in {0, 1}
    targets: np.ndarray  # [K, n_out, 6, I, J]
    valid: np.ndarray  # [K, n_out, I, J] timestamps with an existing gt box


@dataclass
class TrainConfig:
    iterations: int = 1000
    lr: float = 1e-4
    alpha: float = 1.0
    milestones: tuple[float, ...] = (0.6, 0.8)
    hnm_ratio: int = 3
    iou_match_thr: float = 0.4
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if any(not 0.0 < m < 1.0 for m in self.milestones):
            raise ValueError("milestones must be fractions in (0, 1)")
        if self.hnm_ratio < 1:
            raise ValueError("hnm_ratio must be >= 1")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.iou_match_thr <= 1.0:
            raise ValueError(f"iou_match_thr must lie in (0, 1], got {self.iou_match_thr}")


def assign_targets(anchors: AnchorGrid, objects: list[GtObject], n_out, iou_thr=0.4):
    """Match anchors to ground truth on the current frame.

    Anchors overlapping a gt box above ``iou_thr`` become positive; every gt
    left unmatched that some anchor overlaps is force-assigned to its
    highest-IoU anchor, the lowest index among ties. Positive anchors carry
    encoded targets for each timestamp where the matched track still exists.

    Every anchor x box pair is bounded by ``geom.iou_bound``, in calls of at
    most ``BOUND_PAIRS`` pairs so its temporaries stay small, and only the
    pairs the bound leaves open are clipped: those bounded above
    ``iou_thr`` for the positives, and a forced box's pairs as
    :func:`_forced_anchor` reaches them.
    """
    K, I, J = anchors.shape
    n = K * I * J
    labels = np.zeros(n)
    matched = np.full(n, -1, dtype=np.int64)
    targets = np.zeros((n, n_out, CODE_SIZE))
    valid = np.zeros((n, n_out))

    if objects:
        for obj in objects:
            if obj.boxes[0] is None:
                raise ValueError(f"gt object {obj.track_id} lacks a current-frame box")
        gt = BoxSet([obj.boxes[0] for obj in objects])
        rows = max(1, BOUND_PAIRS // len(objects))  # anchors per iou_bound call
        bound = np.concatenate([iou_bound(anchors.box_set[k : k + rows, None], gt) for k in range(0, n, rows)])
        # a pair left unclipped has an IoU of at most iou_thr, so it decides no positive
        ious = np.zeros(bound.shape)
        a_open, m_open = np.nonzero(bound > iou_thr)
        ious[a_open, m_open] = iou(anchors.box_set[a_open], gt[m_open])
        best_gt = ious.argmax(axis=1)
        pos = ious[np.arange(n), best_gt] > iou_thr
        matched[pos] = best_gt[pos]
        for m in range(len(objects)):
            if not np.any(matched == m):
                a = _forced_anchor(anchors.box_set, gt[m], bound[:, m])
                if a >= 0:  # a box no anchor overlaps stays unassigned
                    matched[a] = m
        labels[matched >= 0] = 1.0
        # (anchor, timestamp) pairs with a box, all encoded at once
        a_idx, t_idx, gts = [], [], []
        for a in np.flatnonzero(matched >= 0).tolist():
            for t, box in enumerate(objects[matched[a]].boxes[:n_out]):
                if box is not None:
                    a_idx.append(a)
                    t_idx.append(t)
                    gts.append((box.cx, box.cy, box.w, box.h, box.theta))
        targets[a_idx, t_idx] = encode_boxes(anchors.array[a_idx], np.reshape(gts, (-1, 5)))
        valid[a_idx, t_idx] = 1.0

    return TargetAssignment(
        labels=labels.reshape(K, I, J),
        targets=targets.reshape(K, I, J, n_out, CODE_SIZE).transpose(0, 3, 4, 1, 2),
        valid=valid.reshape(K, I, J, n_out).transpose(0, 3, 1, 2),
    )


def _forced_anchor(anchor_set, box, bound):
    """Index of the anchor whose IoU with ``box`` is highest, the lowest among ties; -1 if none overlaps it.

    ``bound`` bounds each anchor's IoU from above. Anchors are clipped in
    falling-bound order, in rounds that each clip one more anchor than all
    the rounds before, but none whose bound is below the best IoU so far.
    The rounds stop once the next bound falls below it, and anchors bounded
    at 0 are never clipped.
    """
    order = np.argsort(-bound, kind="stable")[: np.count_nonzero(bound > 0.0)]
    falling = bound[order]
    clipped, values = [], []
    best, k = 0.0, 0
    while k < len(order) and falling[k] >= best:
        stop = min(2 * k + 1, int(np.searchsorted(-falling, -best, side="right")))
        clipped.append(order[k:stop])
        values.append(iou(anchor_set[order[k:stop]], box))
        best = max(best, values[-1].max())
        k = stop
    if best == 0.0:
        return -1
    clipped, values = np.concatenate(clipped), np.concatenate(values)
    return int(clipped[values == best].min())


def mine_hard_negatives(cls_scores, labels, ratio=3):
    """Mask of all positives plus the highest-scoring negatives at 3:1.

    Score ties break toward the lower flat index. Frames without positives
    keep the top max(1, ratio) negatives so the loss never goes empty.
    """
    scores = np.asarray(cls_scores, dtype=np.float64).reshape(-1)
    lab = np.asarray(labels, dtype=np.float64).reshape(-1)
    if scores.shape != lab.shape:
        raise ValueError("cls_scores and labels must have the same size")
    mask = lab > 0.5
    n_pos = int(mask.sum())
    n_neg_keep = ratio * n_pos if n_pos else max(1, ratio)
    neg_idx = np.flatnonzero(~mask)
    if len(neg_idx):
        order = neg_idx[np.argsort(-scores[neg_idx], kind="stable")]
        mask[order[:n_neg_keep]] = True
    return mask.reshape(np.shape(cls_scores)).astype(np.float64)


def total_loss(cls_logits, reg_tensor, assignment: TargetAssignment, alpha=1.0, hnm_ratio=3):
    """alpha * masked BCE on the logits + smooth-L1 over positive anchors' valid timestamps.

    Negatives are mined on the logits, which rank anchors as their probabilities do.
    """
    cls_mask = mine_hard_negatives(cls_logits.data, assignment.labels, hnm_ratio)
    cls_loss = T.bce_loss(cls_logits, assignment.labels, cls_mask)

    pos = (assignment.labels > 0.5).astype(np.float64)
    reg_mask = (assignment.valid * pos[:, None]) [:, :, None]  # [K,n_out,1,I,J]
    reg_mask = np.broadcast_to(reg_mask, assignment.targets.shape).copy()
    reg_loss = T.smooth_l1(reg_tensor, assignment.targets, reg_mask)

    loss = T.add(T.scale(cls_loss, alpha), reg_loss)
    components = {"cls": cls_loss.item(), "reg": reg_loss.item(), "total": loss.item()}
    return loss, components


def lr_at(iteration, config: TrainConfig):
    """Step schedule: halve at each milestone fraction of the run."""
    lr = config.lr
    for m in config.milestones:
        if iteration >= int(m * config.iterations):
            lr *= 0.5
    return lr


def train(samples: list[Sample], model: Model, anchors: AnchorGrid, config: TrainConfig,
          log_fn=None):
    """Adam training over precomputed assignments; deterministic in the seed.

    Returns the trained parameter dict (updated in place on the model) and
    the per-iteration log: (iteration, lr, total, cls, reg).
    """
    if not samples:
        raise ValueError("training needs a non-empty dataset")
    assignments = [
        assign_targets(anchors, s.objects, model.config.n_out, config.iou_match_thr)
        for s in samples
    ]
    rng = np.random.default_rng(config.seed)
    state = T.AdamState()
    log = []
    order = []
    for it in range(config.iterations):
        grads = {}
        totals = {"cls": 0.0, "reg": 0.0, "total": 0.0}
        for _ in range(config.batch_size):
            if not order:
                order = list(rng.permutation(len(samples)))
            idx = order.pop()
            tape = T.Tape()
            _, cls_t, reg_t = model.forward(InputTensor(samples[idx].occupancy), tape=tape)
            loss, comps = total_loss(
                cls_t, reg_t, assignments[idx], alpha=config.alpha, hnm_ratio=config.hnm_ratio
            )
            if not math.isfinite(comps["total"]):
                raise RuntimeError(f"non-finite loss at iteration {it} (sample {idx})")
            T.backward(loss, tape)
            for name, g in tape.param_grads.items():
                grads[name] = grads.get(name, 0.0) + g
            for k in totals:
                totals[k] += comps[k]
        lr = lr_at(it, config)
        T.adam_step(model.params, grads, state, lr)
        record = (it, lr, totals["total"], totals["cls"], totals["reg"])
        log.append(record)
        if log_fn is not None:
            log_fn(record)
    return model.params, log


def format_log_line(record):
    """Plain-text training-log schema: iter lr total cls reg."""
    it, lr, total, cls, reg = record
    return f"{it} {lr:.10g} {total:.10g} {cls:.10g} {reg:.10g}"
