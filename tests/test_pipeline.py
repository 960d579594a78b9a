from dataclasses import replace

from bevtrack import pipeline
from bevtrack.metrics import EvalConfig
from bevtrack.net import Detection, DetectionSet, Model, ModelConfig, build_anchors
from bevtrack.pipeline import (
    detect_dataset,
    detections_to_world,
    evaluate_detection,
    run_ablation,
    tracklets_to_detections,
)
from bevtrack.sim import SimConfig, box_world_to_ego, generate_dataset, make_samples
from bevtrack.track import decode_tracklets
from bevtrack.train import TrainConfig, train
from bevtrack.voxel import GridSpec


def test_tracked_detections_keep_frames_without_records():
    # exact detections on frames 0-2 and none on frame 3, whose vehicles are missed
    ds = generate_dataset(SimConfig(seed=1, duration=4))
    sets = [
        DetectionSet(t, [Detection(1.0, [box_world_to_ego(lab.box, ds.frames[t].pose)]) for lab in ds.labels[t]])
        for t in range(3)
    ] + [DetectionSet(3)]
    ev = EvalConfig(min_points=0)
    assert evaluate_detection(sets, ds, ev)["ap_by_iou"][0.5] == 0.75
    records = decode_tracklets(detections_to_world(sets, ds), 1)
    tracked = tracklets_to_detections(records, [s.frame for s in sets], ds)
    assert [s.frame for s in tracked] == [0, 1, 2, 3] and tracked[3].detections == []
    assert evaluate_detection(tracked, ds, ev)["ap_by_iou"][0.5] == 0.75


def test_ablation_trains_four_models_for_five_rows(monkeypatch):
    grid = GridSpec((-4.8, 4.8), (-3.2, 3.2), (0.0, 0.4), 0.2)
    mcfg = ModelConfig(grid=grid, n_in=3, n_out=2, widths=(4, 4, 4, 4), head_width=4)
    ds = generate_dataset(SimConfig(seed=0, duration=12, n_vehicles=(1, 2), spawn_x=(-3.0, 3.0), spawn_y=(-2.0, 2.0),
                                    vehicle_width=(1.5, 2.0), vehicle_length=(3.0, 3.5)))
    tcfg, ev = TrainConfig(iterations=40, batch_size=1, lr=1e-2), EvalConfig(score_thr=0.1)
    trained = []
    monkeypatch.setattr(pipeline, "train", lambda s, model, *a: trained.append(model.config) or train(s, model, *a))
    rows = run_ablation(mcfg, tcfg, ev, 0, ds)
    assert [r["variant"] for r in rows] == [
        "single_frame", "early_fusion", "late_fusion", "late_fusion_forecast", "late_fusion_forecast_tracking"
    ]
    assert [(c.n_in, c.n_out, c.fusion) for c in trained] == [(1, 1, "early"), (3, 1, "early"), (3, 1, "late"), (3, 2, "late")]
    # the tracking row equals a fifth model, trained as the forecast variant, decoded into tracklets
    model = Model(replace(mcfg, fusion="late"), seed=0)
    anchors = build_anchors(model.config)
    train(make_samples(ds, grid, 3, 2)[0], model, anchors, tcfg)
    sets = detect_dataset(model, anchors, ds, score_thr=ev.score_thr, nms_thr=ev.nms_thr)
    tracked = tracklets_to_detections(decode_tracklets(detections_to_world(sets, ds), 2), [s.frame for s in sets], ds)
    assert rows[4]["ap_by_iou"] == evaluate_detection(tracked, ds, ev)["ap_by_iou"]
    assert rows[4]["ap_by_iou"][0.5] > 0.0
