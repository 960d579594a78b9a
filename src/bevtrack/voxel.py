"""Point clouds to binary occupancy, one bool per voxel, with ego-motion compensation.

Past frames are re-expressed in the newest frame's ego coordinates (planar
SE(2) motion), voxelized onto a fixed metric grid, and stacked along a
leading time axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import to_global, to_local, wrap_angle


@dataclass(frozen=True)
class Pose:
    """SE(2) ego pose in a fixed world frame."""

    tx: float
    ty: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@dataclass
class LidarFrame:
    """One sweep: points in the frame's own ego coordinates plus the ego pose."""

    points: np.ndarray  # [N, 3] float64
    pose: Pose
    timestamp: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.points = pts


@dataclass(frozen=True)
class GridSpec:
    """Uniform metric grid; half-open bins [min, max) on every axis, each range whole cells."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    cell: float

    def __post_init__(self):
        if not 0.0 < self.cell < math.inf:
            raise ValueError(f"cell must be a positive finite size, got {self.cell}")
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range), ("z", self.z_range)):
            if hi <= lo:
                raise ValueError(f"{name}_range must have positive length")
            n = (hi - lo) / self.cell
            if abs(n - round(n)) > 1e-9:
                raise ValueError(
                    f"{name}_range {(lo, hi)} length must be an integer number of cells of size {self.cell}"
                )

    @property
    def nx(self):
        return int(round((self.x_range[1] - self.x_range[0]) / self.cell))

    @property
    def ny(self):
        return int(round((self.y_range[1] - self.y_range[0]) / self.cell))

    @property
    def nz(self):
        return int(round((self.z_range[1] - self.z_range[0]) / self.cell))


@dataclass
class InputTensor:
    """4D binary occupancy [T, Z, X, Y] as bool, one byte per voxel; the network input."""

    occupancy: np.ndarray


def transform_to_current(frame: LidarFrame, current_pose: Pose):
    """Map a frame's points into ``current_pose``'s ego coordinates.

    z is untouched: ego motion is modeled as planar.
    """
    pts, p, c = frame.points, frame.pose, current_pose
    x, y = to_local(*to_global(pts[:, 0], pts[:, 1], p.tx, p.ty, p.yaw), c.tx, c.ty, c.yaw)
    return np.column_stack([x, y, pts[:, 2]])


def _cells(points, spec: GridSpec):
    """(z, x, y) index arrays of the grid cells that hold a point; out-of-range points are dropped."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with np.errstate(over="ignore"):  # a far point divides to inf, which the range test drops
        fx = np.floor((pts[:, 0] - spec.x_range[0]) / spec.cell)
        fy = np.floor((pts[:, 1] - spec.y_range[0]) / spec.cell)
        fz = np.floor((pts[:, 2] - spec.z_range[0]) / spec.cell)
    # the range test runs on floats, so only cells inside the grid reach the int64 cast
    ok = (fx >= 0) & (fx < spec.nx) & (fy >= 0) & (fy < spec.ny) & (fz >= 0) & (fz < spec.nz)
    return fz[ok].astype(np.int64), fx[ok].astype(np.int64), fy[ok].astype(np.int64)


def voxelize(points, spec: GridSpec):
    """Binary occupancy [Z, X, Y] as bool; out-of-range points are dropped."""
    grid = np.zeros((spec.nz, spec.nx, spec.ny), dtype=bool)
    grid[_cells(points, spec)] = True
    return grid


def stack_temporal(frames, spec: GridSpec, n_expected=None):
    """Compensate, voxelize and stack the last n frames (oldest first) into one bool [T, Z, X, Y] array."""
    if not frames:
        raise ValueError("stack_temporal needs at least one frame")
    if n_expected is not None and len(frames) != n_expected:
        raise ValueError(f"expected {n_expected} frames, got {len(frames)}")
    current = frames[-1].pose
    occupancy = np.zeros((len(frames), spec.nz, spec.nx, spec.ny), dtype=bool)
    for slot, f in zip(occupancy, frames):
        slot[_cells(transform_to_current(f, current), spec)] = True
    return InputTensor(occupancy=occupancy)
