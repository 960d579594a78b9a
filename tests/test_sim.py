import hashlib
import json
import math

import numpy as np
import pytest

from bevtrack.geom import RotatedBox, iou
from bevtrack.sim import (
    SimConfig,
    Scene,
    Vehicle,
    box_ego_to_world,
    box_world_to_ego,
    build_dataset,
    export_dataset,
    generate_dataset,
    generate_scene,
    gt_tracks_world,
    import_dataset,
    make_samples,
    simulate_lidar,
)
from bevtrack.voxel import GridSpec, Pose


def small_config(**kw):
    base = dict(seed=0, duration=5, n_vehicles=(2, 3), dropout=0.0)
    base.update(kw)
    return SimConfig(**base)


def single_vehicle_scene(cx, cy, theta=0.0, w=2.0, length=4.0, duration=1, speed=0.0, dt=0.1):
    poses = {}
    x, y, th = cx, cy, theta
    for f in range(duration):
        poses[f] = (x, y, th)
        x += speed * math.cos(th) * dt
        y += speed * math.sin(th) * dt
    v = Vehicle(track_id=0, width=w, length=length, poses=poses)
    ego = [Pose(0.0, 0.0, 0.0) for _ in range(duration)]
    return Scene(duration=duration, frame_interval=dt, ego=ego, vehicles=[v])


class TestSimConfig:
    @pytest.mark.parametrize(
        "field,value",
        [("duration", 0), ("frame_interval", 0.0), ("frame_interval", math.nan), ("n_vehicles", (5, 2)),
         ("n_vehicles", (-1, 2)), ("speed", (3.0, 1.0)), ("turn_rate", (0.2, -0.2)), ("spawn_x", (5.0, -5.0)),
         ("spawn_y", (1.0, 0.0)), ("z_span", (1.4, 0.2)), ("ego_speed", (2.0, 1.0)), ("vehicle_width", (0.0, 2.0)),
         ("vehicle_length", (-3.0, 4.0)), ("dropout", 1.5), ("static_fraction", -0.1), ("base_density", -1.0),
         ("sensor_range", 0.0)],
    )
    def test_out_of_range_value_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_edge_values_accepted(self):
        SimConfig(duration=1, n_vehicles=(0, 0), speed=(0.0, 0.0), ego_speed=(0.0, 0.0), dropout=1.0,
                  static_fraction=0.0, base_density=0.0)
        SimConfig(n_vehicles=(14, 14), dropout=0.0, static_fraction=1.0)


class TestSceneGeneration:
    def test_deterministic_in_seed(self):
        a = generate_scene(small_config())
        b = generate_scene(small_config())
        assert len(a.vehicles) == len(b.vehicles)
        for va, vb in zip(a.vehicles, b.vehicles):
            assert va.poses == vb.poses
            assert (va.width, va.length) == (vb.width, vb.length)

    def test_seeds_differ(self):
        a = generate_scene(small_config(seed=1))
        b = generate_scene(small_config(seed=2))
        assert any(
            va.poses != vb.poses for va, vb in zip(a.vehicles, b.vehicles)
        ) or len(a.vehicles) != len(b.vehicles)

    def test_zero_vehicles(self):
        scene = generate_scene(small_config(n_vehicles=(0, 0)))
        assert scene.vehicles == []

    def test_no_overlap_at_any_frame(self):
        scene = generate_scene(small_config(seed=3, n_vehicles=(4, 6), duration=10))
        for t in range(scene.duration):
            boxes = [v.box_at(t) for v in scene.vehicles]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) == 0.0

    def test_constant_speed_kinematics(self):
        # straight mover at 5 m/s, 0.1 s frames -> 0.5 m per frame
        scene = generate_scene(
            small_config(
                seed=4,
                n_vehicles=(1, 1),
                static_fraction=0.0,
                speed=(5.0, 5.0),
                turn_rate=(0.0, 0.0),
                duration=4,
            )
        )
        v = scene.vehicles[0]
        for f in range(3):
            x0, y0, _ = v.poses[f]
            x1, y1, _ = v.poses[f + 1]
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(0.5)

    def test_static_fraction_one_freezes_everything(self):
        scene = generate_scene(small_config(seed=5, static_fraction=1.0, duration=6))
        for v in scene.vehicles:
            assert len({p for p in v.poses.values()}) == 1

    def test_impossible_placement_raises(self):
        cfg = small_config(
            n_vehicles=(30, 30),
            spawn_x=(-3.0, 3.0),
            spawn_y=(-3.0, 3.0),
            max_spawn_retries=5,
        )
        with pytest.raises(RuntimeError, match="retries"):
            generate_scene(cfg)


class TestLidar:
    def test_points_on_footprint_perimeter(self):
        scene = single_vehicle_scene(8.0, 0.0, theta=0.4)
        cfg = small_config(duration=1)
        frame, _counts = simulate_lidar(scene, 0, cfg)
        box = scene.vehicles[0].box_at(0)
        c, s = math.cos(box.theta), math.sin(box.theta)
        for x, y, _z in frame.points:
            lon = c * (x - box.cx) + s * (y - box.cy)
            lat = -s * (x - box.cx) + c * (y - box.cy)
            on_edge = min(abs(abs(lon) - box.h / 2), abs(abs(lat) - box.w / 2))
            assert on_edge < 1e-9
            assert abs(lon) <= box.h / 2 + 1e-9 and abs(lat) <= box.w / 2 + 1e-9

    def test_z_within_span(self):
        scene = single_vehicle_scene(6.0, 1.0)
        cfg = small_config(duration=1, z_span=(0.2, 1.4))
        frame, _counts = simulate_lidar(scene, 0, cfg)
        assert len(frame.points) > 0
        assert (frame.points[:, 2] >= 0.2).all() and (frame.points[:, 2] <= 1.4).all()

    def test_density_falls_off_with_distance(self):
        # same footprint at 10 m vs 40 m: expected point ratio ~4:1
        cfg = small_config(duration=1, base_density=12.0)
        counts = []
        for d in (10.0, 40.0):
            n = 0
            for seed in range(30):
                scene = single_vehicle_scene(d, 0.0)
                frame, _counts = simulate_lidar(scene, 0, small_config(seed=seed, duration=1, base_density=12.0))
                n += len(frame.points)
            counts.append(n / 30)
        assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.25)

    def test_beyond_sensor_range_unseen(self):
        scene = single_vehicle_scene(100.0, 0.0)
        frame, _counts = simulate_lidar(scene, 0, small_config(duration=1))
        assert len(frame.points) == 0

    def test_occlusion_blocks_rear_vehicle(self):
        near = Vehicle(track_id=0, width=3.0, length=3.0, poses={0: (6.0, 0.0, 0.0)})
        far = Vehicle(track_id=1, width=3.0, length=3.0, poses={0: (12.0, 0.0, 0.0)})
        scene = Scene(duration=1, frame_interval=0.1, ego=[Pose(0, 0, 0)], vehicles=[near, far])
        _frame, counts = simulate_lidar(scene, 0, small_config(duration=1))
        assert counts.get(0, 0) > 0
        # the far vehicle sits directly behind the near one
        assert counts.get(1, 0) < counts[0] * 0.25

    def test_deterministic_per_frame(self):
        scene = single_vehicle_scene(8.0, 2.0, duration=3, speed=2.0)
        cfg = small_config(duration=3, dropout=0.1)
        a, _ = simulate_lidar(scene, 1, cfg)
        b, _ = simulate_lidar(scene, 1, cfg)
        assert np.array_equal(a.points, b.points)

    def test_frames_decorrelated(self):
        scene = single_vehicle_scene(8.0, 2.0, duration=2)
        cfg = small_config(duration=2)
        a, _ = simulate_lidar(scene, 0, cfg)
        b, _ = simulate_lidar(scene, 1, cfg)
        assert a.points.shape != b.points.shape or not np.array_equal(a.points, b.points)

    def test_invalid_frame_rejected(self):
        scene = single_vehicle_scene(5.0, 0.0)
        with pytest.raises(ValueError, match="duration"):
            simulate_lidar(scene, 5, small_config(duration=1))

    def test_points_in_ego_frame(self):
        # ego yawed 90 degrees: a vehicle straight ahead in world +x appears at -y
        v = Vehicle(track_id=0, width=2.0, length=4.0, poses={0: (8.0, 0.0, 0.0)})
        scene = Scene(duration=1, frame_interval=0.1, ego=[Pose(0, 0, math.pi / 2)], vehicles=[v])
        frame, _counts = simulate_lidar(scene, 0, small_config(duration=1))
        assert len(frame.points) > 0
        assert (frame.points[:, 1] < 0).all()


class TestDatasetIo:
    def test_roundtrip_identity(self, tmp_path):
        ds = generate_dataset(small_config(seed=2, dropout=0.1))
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        export_dataset(ds, p1)
        back = import_dataset(p1)
        export_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for f1, f2 in zip(ds.frames, back.frames):
            assert np.array_equal(f1.points, f2.points)
            assert f1.pose == f2.pose
        assert set(ds.labels) == set(back.labels)

    def test_stable_checksum(self, tmp_path):
        digests = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            export_dataset(generate_dataset(small_config(seed=9)), path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        export_dataset(generate_dataset(small_config(seed=1)), path)
        lines = path.read_text().splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":3:"):
            import_dataset(path)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"kind": "label", "t": 0, "id": 0, "box": [0,0,2,4,0], "points": 3}\n')
        with pytest.raises(ValueError, match="meta"):
            import_dataset(path)

    def test_missing_frame_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        export_dataset(generate_dataset(small_config(seed=1)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if '"t": 2' not in l or '"frame"' not in l) + "\n")
        with pytest.raises(ValueError, match="no frame 2"):
            import_dataset(path)

    def test_mistyped_sim_config_rejected(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        export_dataset(generate_dataset(small_config(seed=1)), path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"n_vehicles": [2, 3]', '"n_vehicles": 3', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r":1:.*sim\.n_vehicles"):
            import_dataset(path)

    @pytest.mark.parametrize("field,index", [("points", 4), ("points", 0), ("pose", 2), ("pose", 0)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_rejected(self, tmp_path, field, index, value):
        path = tmp_path / "ds.jsonl"
        export_dataset(generate_dataset(small_config(seed=1)), path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["kind"] == "frame" and rec["t"] == 2:
                rec[field][index] = value
                lines[i] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="frame 2 has a non-finite point or pose"):
            import_dataset(path)

    def test_label_point_counts_match_lidar(self):
        cfg = small_config(seed=4)
        scene = generate_scene(cfg)
        ds = build_dataset(scene, cfg)
        for t in range(ds.duration):
            _frame, counts = simulate_lidar(scene, t, cfg)
            for lab in ds.labels[t]:
                assert lab.num_points == counts.get(lab.track_id, 0)


class TestCoordinates:
    def test_world_ego_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = RotatedBox(*rng.uniform(-10, 10, 2), *rng.uniform(1, 5, 2), rng.uniform(-3, 3))
            pose = Pose(*rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            back = box_ego_to_world(box_world_to_ego(b, pose), pose)
            assert back.cx == pytest.approx(b.cx)
            assert back.cy == pytest.approx(b.cy)
            assert abs(math.sin(back.theta - b.theta)) < 1e-12

    def test_translation_only(self):
        b = RotatedBox(5.0, 2.0, 2.0, 4.0, 0.3)
        out = box_world_to_ego(b, Pose(1.0, 1.0, 0.0))
        assert (out.cx, out.cy, out.theta) == pytest.approx((4.0, 1.0, 0.3))


class TestSamples:
    grid = GridSpec((-24.0, 24.0), (-16.0, 16.0), (0.0, 1.6), 0.2)

    def test_counts_and_frames(self):
        ds = generate_dataset(small_config(seed=6, duration=8))
        samples, frames = make_samples(ds, self.grid, n_in=3, n_out=2)
        assert frames == list(range(2, 8))
        assert len(samples) == 6
        assert samples[0].occupancy.shape == (3, 8, 240, 160)

    def test_gt_in_ego_coordinates(self):
        cfg = small_config(seed=7, duration=4, ego_speed=(3.0, 3.0))
        ds = generate_dataset(cfg)
        samples, frames = make_samples(ds, self.grid, n_in=1, n_out=1)
        for sample, t in zip(samples, frames):
            pose = ds.frames[t].pose
            labs = {lab.track_id: lab for lab in ds.labels[t]}
            for obj in sample.objects:
                world = box_ego_to_world(obj.boxes[0], pose)
                assert world.cx == pytest.approx(labs[obj.track_id].box.cx)

    def test_future_none_when_track_ends(self):
        ds = generate_dataset(small_config(seed=6, duration=4))
        samples, frames = make_samples(ds, self.grid, n_in=1, n_out=3)
        last = samples[frames.index(3)]
        for obj in last.objects:
            assert obj.boxes[1] is None and obj.boxes[2] is None

    def test_gt_tracks_world_shape(self):
        ds = generate_dataset(small_config(seed=6, duration=5))
        tracks = gt_tracks_world(ds)
        for tid, track in tracks.items():
            assert set(track) == set(range(5))
        only_late = gt_tracks_world(ds, frames={3, 4})
        assert all(set(t) <= {3, 4} for t in only_late.values())
