from bevtrack.metrics import EvalConfig
from bevtrack.net import Detection, DetectionSet
from bevtrack.pipeline import detections_to_world, evaluate_detection, tracklets_to_detections
from bevtrack.sim import SimConfig, box_world_to_ego, generate_dataset
from bevtrack.track import decode_tracklets


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
