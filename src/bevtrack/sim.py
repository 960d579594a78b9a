"""Synthetic BEV world and LiDAR model producing labeled sequences.

Vehicles follow constant-speed, bounded-turn-rate trajectories; the sensor
samples 3D points along the ego-facing edges of each footprint with density
falling off with distance, geometric occlusion, and per-point dropout.
Everything is deterministic in the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import from_dict, to_dict
from .geom import RotatedBox, iou, to_global, to_local, wrap_angle
from .voxel import GridSpec, LidarFrame, Pose, stack_temporal

DATASET_VERSION = 1


@dataclass
class SimConfig:
    seed: int = 0
    duration: int = 20
    frame_interval: float = 0.1
    n_vehicles: tuple[int, int] = (3, 6)
    speed: tuple[float, float] = (0.0, 8.0)
    turn_rate: tuple[float, float] = (-0.2, 0.2)  # rad/s
    static_fraction: float = 0.3
    vehicle_width: tuple[float, float] = (1.5, 3.0)
    vehicle_length: tuple[float, float] = (3.5, 8.0)
    spawn_x: tuple[float, float] = (-20.0, 20.0)
    spawn_y: tuple[float, float] = (-12.0, 12.0)
    sensor_range: float = 60.0
    base_density: float = 6.0  # points per meter of visible edge at 10 m
    dropout: float = 0.1
    z_span: tuple[float, float] = (0.2, 1.4)
    ego_speed: tuple[float, float] = (0.0, 0.0)
    ego_clearance: float = 2.0
    max_spawn_retries: int = 200

    def __post_init__(self):
        for name in ("n_vehicles", "speed", "turn_rate", "vehicle_width", "vehicle_length",
                     "spawn_x", "spawn_y", "z_span", "ego_speed"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must be a (low, high) pair with low <= high, got {[low, high]}")
        rules = {
            "duration": (self.duration >= 1, ">= 1"),
            "frame_interval": (self.frame_interval > 0.0, "positive"),
            "n_vehicles": (self.n_vehicles[0] >= 0, ">= 0"),
            "vehicle_width": (self.vehicle_width[0] > 0.0, "positive"),
            "vehicle_length": (self.vehicle_length[0] > 0.0, "positive"),
            "dropout": (0.0 <= self.dropout <= 1.0, "in [0, 1]"),
            "static_fraction": (0.0 <= self.static_fraction <= 1.0, "in [0, 1]"),
            "base_density": (self.base_density >= 0.0, ">= 0"),
            "sensor_range": (self.sensor_range > 0.0, "positive"),
            "ego_clearance": (self.ego_clearance >= 0.0, ">= 0"),
            "max_spawn_retries": (self.max_spawn_retries >= 1, ">= 1"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class Vehicle:
    track_id: int
    width: float
    length: float
    poses: dict  # frame -> (cx, cy, theta) in world coordinates

    def box_at(self, frame):
        if frame not in self.poses:
            return None
        cx, cy, theta = self.poses[frame]
        return RotatedBox(cx, cy, self.width, self.length, theta)


@dataclass
class Scene:
    duration: int
    frame_interval: float
    ego: list  # Pose per frame
    vehicles: list  # of Vehicle


def _integrate(x, y, theta, speed, turn_rate, dt, frames):
    poses = {}
    for f in frames:
        poses[f] = (x, y, wrap_angle(theta))
        x += speed * math.cos(theta) * dt
        y += speed * math.sin(theta) * dt
        theta += turn_rate * dt
    return poses


def generate_scene(config: SimConfig):
    """Seeded scene with non-overlapping vehicle footprints at every frame."""
    rng = np.random.default_rng(config.seed)
    dt = config.frame_interval
    frames = range(config.duration)

    ego_speed = rng.uniform(*config.ego_speed) if config.ego_speed[1] > 0 else 0.0
    ego_poses = [
        Pose(tx=ego_speed * dt * f, ty=0.0, yaw=0.0) for f in frames
    ]

    n = int(rng.integers(config.n_vehicles[0], config.n_vehicles[1] + 1))
    vehicles = []
    for vid in range(n):
        placed = False
        for _attempt in range(config.max_spawn_retries):
            width = rng.uniform(*config.vehicle_width)
            length = rng.uniform(*config.vehicle_length)
            x = rng.uniform(*config.spawn_x)
            y = rng.uniform(*config.spawn_y)
            theta = rng.uniform(-math.pi, math.pi)
            if rng.uniform() < config.static_fraction:
                speed = 0.0
                turn = 0.0
            else:
                speed = rng.uniform(*config.speed)
                turn = rng.uniform(*config.turn_rate)
            candidate = Vehicle(
                track_id=vid,
                width=width,
                length=length,
                poses=_integrate(x, y, theta, speed, turn, dt, frames),
            )
            if _overlap_free(candidate, vehicles) and _clears_ego(
                candidate, ego_poses, config.ego_clearance
            ):
                vehicles.append(candidate)
                placed = True
                break
        if not placed:
            raise RuntimeError(
                f"could not place vehicle {vid} without overlap after "
                f"{config.max_spawn_retries} retries (seed {config.seed})"
            )
    return Scene(duration=config.duration, frame_interval=dt, ego=ego_poses, vehicles=vehicles)


def _box_point_distance(box: RotatedBox, px, py):
    lon, lat = to_local(px, py, box.cx, box.cy, box.theta)
    return math.hypot(max(abs(lon) - box.h / 2.0, 0.0), max(abs(lat) - box.w / 2.0, 0.0))


def _clears_ego(candidate: Vehicle, ego_poses, clearance):
    """Vehicles never come within ``clearance`` of the sensor origin."""
    for f, (cx, cy, theta) in candidate.poses.items():
        ego = ego_poses[f]
        box = RotatedBox(cx, cy, candidate.width, candidate.length, theta)
        if _box_point_distance(box, ego.tx, ego.ty) < clearance:
            return False
    return True


def _overlap_free(candidate: Vehicle, others):
    pairs = [(candidate.box_at(f), other.box_at(f)) for other in others for f in candidate.poses]
    pairs = [(b0, b1) for b0, b1 in pairs if b1 is not None]
    if not pairs:
        return True
    mine, theirs = zip(*pairs)
    return not (iou(mine, theirs) > 0.0).any()


# ---------------------------------------------------------------------------
# LiDAR model


def _segment_hits_box(px, py, qx, qy, box: RotatedBox):
    """True when the open segment p->q passes through the box interior."""
    x0, y0 = to_local(px, py, box.cx, box.cy, box.theta)
    x1, y1 = to_local(qx, qy, box.cx, box.cy, box.theta)
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0 - 1e-9  # exclude the endpoint itself
    for p, q in ((-dx, x0 + box.h / 2), (dx, box.h / 2 - x0), (-dy, y0 + box.w / 2), (dy, box.w / 2 - y0)):
        if p == 0.0:
            if q < 0.0:
                return False
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return False
            t0 = max(t0, r)
        else:
            if r < t0:
                return False
            t1 = min(t1, r)
    return t1 - t0 > 1e-9


def simulate_lidar(scene: Scene, t, config: SimConfig):
    """Sample one frame of edge points in the ego frame; returns (LidarFrame, points per track id)."""
    if not 0 <= t < scene.duration:
        raise ValueError(f"frame {t} outside scene duration {scene.duration}")
    rng = np.random.default_rng([config.seed, 7919, t])
    ego = scene.ego[t]
    pts_world = []
    owners = []
    boxes = {v.track_id: v.box_at(t) for v in scene.vehicles}
    for v in scene.vehicles:
        box = boxes[v.track_id]
        if box is None:
            continue
        d = math.hypot(box.cx - ego.tx, box.cy - ego.ty)
        if d > config.sensor_range:
            continue
        corners = box.corners()
        for e in range(4):
            ax, ay = corners[e]
            bx, by = corners[(e + 1) % 4]
            mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
            # outward normal of a CCW edge points away from the centroid
            nx, ny = (by - ay), -(bx - ax)
            if nx * (ego.tx - mx) + ny * (ego.ty - my) <= 0.0:
                continue
            edge_len = math.hypot(bx - ax, by - ay)
            expected = config.base_density * edge_len * (10.0 / max(d, 1.0))
            count = int(rng.poisson(expected))
            if count == 0:
                continue
            u = rng.uniform(0.0, 1.0, size=count)
            z = rng.uniform(config.z_span[0], config.z_span[1], size=count)
            keep = rng.uniform(size=count) >= config.dropout
            for ui, zi, ki in zip(u, z, keep):
                if not ki:
                    continue
                px = ax + ui * (bx - ax)
                py = ay + ui * (by - ay)
                occluded = any(
                    other_id != v.track_id
                    and other is not None
                    and _segment_hits_box(ego.tx, ego.ty, px, py, other)
                    for other_id, other in boxes.items()
                )
                if not occluded:
                    pts_world.append((px, py, zi))
                    owners.append(v.track_id)

    counts = {}
    for o in owners:
        counts[o] = counts.get(o, 0) + 1
    pw = np.reshape(pts_world, (-1, 3))
    x, y = to_local(pw[:, 0], pw[:, 1], ego.tx, ego.ty, ego.yaw)
    return LidarFrame(points=np.column_stack([x, y, pw[:, 2]]), pose=ego, timestamp=t), counts


# ---------------------------------------------------------------------------
# dataset assembly and I/O


@dataclass
class LabelRecord:
    frame: int
    track_id: int
    box: RotatedBox  # world coordinates
    num_points: int


@dataclass
class Dataset:
    sim: SimConfig
    duration: int
    frame_interval: float
    frames: list  # LidarFrame per timestep
    labels: dict  # frame -> [LabelRecord]


def build_dataset(scene: Scene, config: SimConfig):
    frames = []
    labels = {}
    for t in range(scene.duration):
        frame, counts = simulate_lidar(scene, t, config)
        frames.append(frame)
        recs = []
        for v in scene.vehicles:
            box = v.box_at(t)
            if box is not None:
                recs.append(
                    LabelRecord(frame=t, track_id=v.track_id, box=box, num_points=counts.get(v.track_id, 0))
                )
        labels[t] = recs
    return Dataset(
        sim=config,
        duration=scene.duration,
        frame_interval=scene.frame_interval,
        frames=frames,
        labels=labels,
    )


def generate_dataset(config: SimConfig):
    return build_dataset(generate_scene(config), config)


def export_dataset(dataset: Dataset, path):
    """Newline-delimited JSON records; lossless, deterministic round trip."""
    with open(path, "w") as f:
        meta = {
            "kind": "meta",
            "version": DATASET_VERSION,
            "duration": dataset.duration,
            "frame_interval": dataset.frame_interval,
            "sim": to_dict(dataset.sim),
        }
        f.write(json.dumps(meta, sort_keys=True) + "\n")
        for frame in dataset.frames:
            rec = {
                "kind": "frame",
                "t": frame.timestamp,
                "pose": [frame.pose.tx, frame.pose.ty, frame.pose.yaw],
                "points": [float(x) for x in frame.points.reshape(-1)],
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")
        for t in sorted(dataset.labels):
            for lab in dataset.labels[t]:
                b = lab.box
                rec = {
                    "kind": "label",
                    "t": t,
                    "id": lab.track_id,
                    "box": [b.cx, b.cy, b.w, b.h, b.theta],
                    "points": lab.num_points,
                }
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def import_dataset(path):
    """Read a file written by :func:`export_dataset`.

    A malformed file, a frame or label before the meta record or with a ``t``
    that is not an int in ``range(duration)``, a frame with a NaN or inf
    point or pose or with the ``t`` of an earlier frame, or a label without
    an int id, an int point count >= 0 and five finite box numbers, or one
    whose (t, id) repeats another label's, raises ValueError.
    """
    meta = None
    frames = {}
    labels = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind = rec["kind"]
                if kind == "meta":
                    if rec["version"] != DATASET_VERSION:
                        raise ValueError(f"unsupported dataset version {rec['version']}")
                    meta = (from_dict(SimConfig, rec["sim"], "sim"), range(rec["duration"]),
                            rec["frame_interval"])
                    continue
                if kind not in ("frame", "label"):
                    raise ValueError(f"unknown record kind {kind!r}")
                if meta is None:
                    raise ValueError(f"a {kind} record comes before the meta record")
                t = rec["t"]
                if type(t) is not int or t not in meta[1]:
                    raise ValueError(f"t must be an int frame number below {len(meta[1])}, got {t!r}")
                if kind == "frame":
                    if t in frames:
                        raise ValueError(f"frame record t={t} repeats an earlier one")
                    pts = np.asarray(rec["points"], dtype=np.float64).reshape(-1, 3)
                    if not (np.isfinite(pts).all() and np.isfinite(rec["pose"]).all()):
                        raise ValueError(f"frame {t} has a non-finite point or pose")
                    pose = Pose(*rec["pose"])
                    frames[t] = LidarFrame(points=pts, pose=pose, timestamp=t)
                else:
                    tid, box, n = rec["id"], rec["box"], rec["points"]
                    # checked by hand: from_dict doubles the import time of a dataset
                    if type(tid) is not int or type(n) is not int or n < 0:
                        raise ValueError(f"label needs an int id and an int points >= 0, got {tid!r}, {n!r}")
                    if not (type(box) is list and len(box) == 5
                            and all(type(v) in (int, float) and math.isfinite(v) for v in box)):
                        raise ValueError(f"label box must be five finite numbers, got {box!r}")
                    same_frame = labels.setdefault(t, [])
                    if any(other.track_id == tid for other in same_frame):
                        raise ValueError(f"label (t={t}, id={tid}) repeats an earlier one")
                    same_frame.append(LabelRecord(t, tid, RotatedBox(*box), n))
            except (KeyError, TypeError, json.JSONDecodeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: malformed dataset record: {e}") from None
    if meta is None:
        raise ValueError(f"{path}: dataset has no meta record")
    sim, steps, frame_interval = meta
    for t in steps:
        if t not in frames:
            raise ValueError(f"{path}: dataset has no frame {t}")
        labels.setdefault(t, [])
    return Dataset(
        sim=sim,
        duration=len(steps),
        frame_interval=frame_interval,
        frames=[frames[t] for t in steps],
        labels=labels,
    )


# ---------------------------------------------------------------------------
# coordinate helpers and training-sample assembly


def box_world_to_ego(box: RotatedBox, pose: Pose):
    return RotatedBox(*to_local(box.cx, box.cy, pose.tx, pose.ty, pose.yaw), box.w, box.h, box.theta - pose.yaw)


def box_ego_to_world(box: RotatedBox, pose: Pose):
    return RotatedBox(*to_global(box.cx, box.cy, pose.tx, pose.ty, pose.yaw), box.w, box.h, box.theta + pose.yaw)


@dataclass
class GtObject:
    """One labeled object for a training sample.

    ``boxes[0]`` is the current-frame box (required); ``boxes[t]`` for t >= 1
    is the box t frames ahead, or None where the track no longer exists.
    """

    track_id: int
    boxes: list


@dataclass
class Sample:
    """One training example: stacked occupancy plus its labeled objects."""

    occupancy: np.ndarray  # [T, Z, X, Y] bool
    objects: list  # of GtObject


def make_samples(dataset: Dataset, grid: GridSpec, n_in, n_out):
    """Training samples for every frame with full history.

    Ground-truth boxes (current and future) are read by track and expressed
    in the sample's current ego frame; future boxes of vanished tracks are
    left as None.
    """
    tracks = sorted(gt_tracks_world(dataset).items())
    samples = []
    sample_frames = []
    for t in range(n_in - 1, dataset.duration):
        history = dataset.frames[t - n_in + 1 : t + 1]
        inp = stack_temporal(history, grid, n_expected=n_in)
        pose = dataset.frames[t].pose
        objects = [
            GtObject(tid, [box_world_to_ego(track[t + h], pose) if t + h in track else None for h in range(n_out)])
            for tid, track in tracks
            if t in track
        ]
        samples.append(Sample(occupancy=inp.occupancy, objects=objects))
        sample_frames.append(t)
    return samples, sample_frames


def gt_tracks_world(dataset: Dataset, frames=None, min_points=None):
    """gt id -> {frame: world RotatedBox}, optionally restricted/filtered."""
    tracks = {}
    for t, labs in dataset.labels.items():
        if frames is not None and t not in frames:
            continue
        for lab in labs:
            if min_points is not None and lab.num_points < min_points:
                continue
            tracks.setdefault(lab.track_id, {})[t] = lab.box
    return tracks
