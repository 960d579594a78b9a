"""End-to-end glue: run a model over a dataset and evaluate every task."""

from __future__ import annotations

from dataclasses import replace

from .metrics import (
    EvalConfig,
    ScoredBox,
    average_precision,
    clear_mot,
    forecast_error,
    frame_ious,
    map_by_distance,
)
from .net import AnchorGrid, Detection, DetectionSet, Model, ModelConfig, build_anchors, decode
from .sim import Dataset, box_ego_to_world, box_world_to_ego, gt_tracks_world, make_samples
from .track import decode_tracklets, hungarian_track
from .train import TrainConfig, train
from .voxel import stack_temporal


def detect_dataset(model: Model, anchors: AnchorGrid, dataset: Dataset, score_thr=0.5, nms_thr=0.1):
    """Per-frame DetectionSets in each frame's own ego coordinates."""
    cfg = model.config
    sets = []
    for t in range(cfg.n_in - 1, dataset.duration):
        history = dataset.frames[t - cfg.n_in + 1 : t + 1]
        inp = stack_temporal(history, cfg.grid, n_expected=cfg.n_in)
        out, _, _ = model.forward(inp)
        sets.append(decode(out, anchors, frame=t, score_thr=score_thr, nms_thr=nms_thr))
    return sets


def detections_to_world(detection_sets, dataset: Dataset):
    """Re-express all boxes (current and forecasts) in world coordinates."""
    world = []
    for ds in detection_sets:
        pose = dataset.frames[ds.frame].pose
        dets = []
        for d in ds.detections:
            dets.append(replace(d, boxes=[box_ego_to_world(b, pose) for b in d.boxes]))
        world.append(DetectionSet(frame=ds.frame, detections=dets))
    return world


def _eval_boxes(detection_sets, dataset: Dataset):
    """(ScoredBox list, LabelRecord list) in ego coordinates, on evaluated frames."""
    frames = {ds.frame for ds in detection_sets}
    dets = [
        ScoredBox(frame=ds.frame, box=d.boxes[0], score=d.score)
        for ds in detection_sets
        for d in ds.detections
    ]
    gts = []
    for t in sorted(frames):
        pose = dataset.frames[t].pose
        gts.extend(replace(lab, box=box_world_to_ego(lab.box, pose)) for lab in dataset.labels.get(t, []))
    return dets, gts


def evaluate_detection(detection_sets, dataset: Dataset, eval_cfg: EvalConfig):
    """mAP table over IoU thresholds, plus min-points and distance sweeps."""
    dets, gts = _eval_boxes(detection_sets, dataset)
    ious = frame_ious(dets, gts)
    by_iou = {}
    for thr in eval_cfg.iou_thresholds:
        pr = average_precision(dets, gts, thr, eval_cfg.min_points, ious)
        by_iou[thr] = pr.ap if pr is not None else None
    by_min_points = {}
    for mp in range(0, eval_cfg.min_points + 1):
        pr = average_precision(dets, gts, 0.7, mp, ious)
        by_min_points[mp] = pr.ap if pr is not None else None
    by_distance = map_by_distance(dets, gts, 0.7, eval_cfg.distance_bins, eval_cfg.min_points, ious)
    return {
        "ap_by_iou": by_iou,
        "ap_by_min_points": by_min_points,
        "ap_by_distance": {f"{lo:g}-{hi:g}": ap for (lo, hi), ap in by_distance.items()},
    }


def evaluate_tracking(detection_sets, dataset: Dataset, n_out, eval_cfg: EvalConfig, min_points=None):
    """CLEAR-MOT for the tracklet decoder and the Hungarian baseline."""
    world = detections_to_world(detection_sets, dataset)
    frames = {ds.frame for ds in detection_sets}
    gt = gt_tracks_world(dataset, frames=frames, min_points=min_points)
    decoded = decode_tracklets(world, n_out)
    baseline = hungarian_track(world)
    return {
        "decoder": clear_mot(decoded, gt, eval_cfg.assoc_iou, eval_cfg.track_score_thr),
        "hungarian": clear_mot(baseline, gt, eval_cfg.assoc_iou, eval_cfg.track_score_thr),
    }, decoded, baseline


def evaluate_forecast(detection_sets, dataset: Dataset, eval_cfg: EvalConfig):
    world = detections_to_world(detection_sets, dataset)
    gt = gt_tracks_world(dataset)
    return forecast_error(world, gt, eval_cfg.forecast_horizons, eval_cfg.forecast_match_iou)


ABLATION_VARIANTS = (
    ("single_frame", dict(n_in=1, n_out=1, fusion="early")),
    ("early_fusion", dict(n_out=1, fusion="early")),
    ("late_fusion", dict(n_out=1, fusion="late")),
    ("late_fusion_forecast", dict(fusion="late")),
)


def tracklets_to_detections(records, frames, dataset: Dataset):
    """Aggregated tracklet boxes re-expressed as ego detections, one DetectionSet per frame.

    A frame of ``frames`` where no record was emitted gets an empty set, so
    its vehicles still count as missed.
    """
    sets = {f: DetectionSet(frame=f) for f in frames}
    for r in records:
        box = box_world_to_ego(r.box, dataset.frames[r.frame].pose)
        sets[r.frame].detections.append(Detection(score=r.score, boxes=[box]))
    return list(sets.values())


def run_ablation(model_cfg: ModelConfig, train_cfg: TrainConfig, eval_cfg: EvalConfig, seed,
                 dataset: Dataset, val_dataset: Dataset = None):
    """Train four variants and evaluate the five-row ablation ladder; returns rows of AP tables.

    The tracking row decodes the last variant's detections: training is deterministic, so its model is that one.
    """
    val = val_dataset or dataset
    scored = []
    for name, overrides in ABLATION_VARIANTS:
        mcfg = replace(model_cfg, **overrides)
        model = Model(mcfg, seed=seed)
        anchors = build_anchors(mcfg)
        samples, _ = make_samples(dataset, mcfg.grid, mcfg.n_in, mcfg.n_out)
        train(samples, model, anchors, train_cfg)
        sets = detect_dataset(model, anchors, val, score_thr=eval_cfg.score_thr, nms_thr=eval_cfg.nms_thr)
        scored.append((name, sets))
    decoded = decode_tracklets(detections_to_world(sets, val), mcfg.n_out)
    scored.append(("late_fusion_forecast_tracking", tracklets_to_detections(decoded, [s.frame for s in sets], val)))
    return [{"variant": name, "ap_by_iou": evaluate_detection(sets, val, eval_cfg)["ap_by_iou"]} for name, sets in scored]
