import math
import warnings

import numpy as np
import pytest

from bevtrack.voxel import GridSpec, LidarFrame, Pose, stack_temporal, transform_to_current, voxelize


FULL_SCALE_GRID = GridSpec(x_range=(-72.0, 72.0), y_range=(-40.0, 40.0), z_range=(-2.0, 3.8), cell=0.2)


def frame(points, pose=Pose(0, 0, 0), t=0):
    return LidarFrame(points=np.asarray(points, dtype=float), pose=pose, timestamp=t)


class TestTransform:
    def test_identity_pose(self):
        f = frame([[1.0, 2.0, 0.5]], pose=Pose(3, 4, 0.7))
        out = transform_to_current(f, Pose(3, 4, 0.7))
        np.testing.assert_allclose(out, [[1.0, 2.0, 0.5]], atol=1e-12)

    def test_forward_motion_shifts_static_point(self):
        f = frame([[5.0, 0.0, 0.0]], pose=Pose(0, 0, 0))
        out = transform_to_current(f, Pose(1.0, 0.0, 0.0))
        np.testing.assert_allclose(out, [[4.0, 0.0, 0.0]], atol=1e-12)

    def test_quarter_turn(self):
        f = frame([[1.0, 0.0, 0.0]], pose=Pose(0, 0, 0))
        out = transform_to_current(f, Pose(0.0, 0.0, math.pi / 2))
        np.testing.assert_allclose(out, [[0.0, -1.0, 0.0]], atol=1e-12)

    def test_z_untouched(self):
        f = frame([[1.0, 2.0, -1.3]], pose=Pose(0, 0, 0.4))
        out = transform_to_current(f, Pose(2, -1, -0.8))
        assert out[0, 2] == -1.3

    def test_empty_frame(self):
        out = transform_to_current(frame(np.zeros((0, 3)), pose=Pose(1, 2, 0.3)), Pose(-1, 0, 1.2))
        assert out.shape == (0, 3)


class TestVoxelize:
    def test_empty_cloud(self):
        assert voxelize(np.zeros((0, 3)), FULL_SCALE_GRID).sum() == 0

    def test_hand_indexing(self):
        g = voxelize([[0.1, 0.1, -1.9]], FULL_SCALE_GRID)
        assert g.dtype == bool and g.shape == (29, 720, 400)
        assert g[0, 360, 200] == 1.0
        assert g.sum() == 1.0

    def test_full_scale_region_extents(self):
        assert FULL_SCALE_GRID.nx == 720
        assert FULL_SCALE_GRID.ny == 400
        assert FULL_SCALE_GRID.nz == 29

    def test_out_of_range_dropped(self):
        g = voxelize([[100.0, 0.0, 0.0], [0.0, 0.0, 10.0]], FULL_SCALE_GRID)
        assert g.sum() == 0

    def test_max_boundary_dropped(self):
        g = voxelize([[72.0, 0.0, 0.0]], FULL_SCALE_GRID)
        assert g.sum() == 0

    @pytest.mark.parametrize("far", [3e18, 1e308, -1e308])
    def test_far_points_dropped_without_a_numpy_warning(self, far):
        pts = [[far, 0.0, 0.0], [0.0, far, 0.0], [0.0, 0.0, far], [0.1, 0.1, -1.9]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = voxelize(pts, FULL_SCALE_GRID)
        assert g[0, 360, 200] == 1.0 and g.sum() == 1.0

    def test_points_within_a_cell_of_the_range_binned_as_before(self):
        rng = np.random.default_rng(1)
        lo, hi = np.array([-72.0, -40.0, -2.0]), np.array([72.0, 40.0, 3.8])
        pts = rng.uniform(lo - 0.3, hi + 0.3, size=(4000, 3))
        pts[:6] = [lo - 0.2, hi + 0.2, lo, hi, np.nextafter(hi, -np.inf), np.nextafter(lo, -np.inf)]
        g = np.zeros((29, 720, 400))
        for x, y, z in pts:
            i, j, k = (int(math.floor((v - o) / 0.2)) for v, o in zip((x, y, z), lo))
            if 0 <= i < 720 and 0 <= j < 400 and 0 <= k < 29:
                g[k, i, j] = 1.0
        assert np.array_equal(voxelize(pts, FULL_SCALE_GRID), g)

    def test_duplicate_points_idempotent(self):
        pts = [[1.0, 1.0, 0.0]] * 5
        g = voxelize(pts, FULL_SCALE_GRID)
        assert g.sum() == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform([-70, -39, -1.9], [70, 39, 3.7], size=(200, 3))
        g1 = voxelize(pts, FULL_SCALE_GRID)
        g2 = voxelize(pts[::-1], FULL_SCALE_GRID)
        assert np.array_equal(g1, g2)

    def test_non_integral_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(x_range=(0.0, 1.1), y_range=(0.0, 1.0), z_range=(0.0, 1.0), cell=0.2)

    @pytest.mark.parametrize("cell", [0.0, -0.2, math.inf])
    def test_non_positive_or_infinite_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="cell"):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=(0.0, 1.0), cell=cell)

    @pytest.mark.parametrize("z_range", [(0.0, 0.1), (-0.05, 0.04)])
    def test_z_range_below_one_cell_rejected(self, z_range):
        with pytest.raises(ValueError, match="z_range"):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=z_range, cell=0.2)

    @pytest.mark.parametrize("z_range", [(0.0, 0.5), (0.0, 1.1)])
    def test_z_range_of_partial_cells_rejected(self, z_range):
        # rounded, [0, 0.5] dropped a point at z = 0.45 and [0, 1.1] kept one at 1.15
        with pytest.raises(ValueError, match="z_range"):
            GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), z_range=z_range, cell=0.2)


class TestStackTemporal:
    small = GridSpec(x_range=(-4.0, 4.0), y_range=(-4.0, 4.0), z_range=(0.0, 1.0), cell=0.2)

    def test_single_frame_equals_voxelize(self):
        pts = [[1.0, 1.0, 0.5], [-2.0, 0.3, 0.1]]
        out = stack_temporal([frame(pts)], self.small)
        assert out.occupancy.shape[0] == 1
        assert np.array_equal(out.occupancy[0], voxelize(pts, self.small))

    def test_stack_is_bool_and_equals_the_voxelized_frames(self):
        rng = np.random.default_rng(0)
        frames = [
            frame(rng.uniform([-5.0, -5.0, -0.2], [5.0, 5.0, 1.2], (300, 3)), pose=Pose(0.4 * t, -0.1 * t, 0.05 * t), t=t)
            for t in range(5)
        ]
        out = stack_temporal(frames, self.small)
        want = np.stack([voxelize(transform_to_current(f, frames[-1].pose), self.small) for f in frames])
        assert out.occupancy.dtype == want.dtype == bool
        assert np.array_equal(out.occupancy, want) and 0 < want.sum() < 5 * 300

    def test_static_world_aligns_after_compensation(self):
        # static point at world (2, 1); ego advances 0.5 m per frame
        frames = []
        for t in range(3):
            pose = Pose(0.5 * t, 0.0, 0.0)
            local = [[2.0 - 0.5 * t, 1.0, 0.5]]
            frames.append(frame(local, pose=pose, t=t))
        out = stack_temporal(frames, self.small)
        assert np.array_equal(out.occupancy[0], out.occupancy[1])
        assert np.array_equal(out.occupancy[1], out.occupancy[2])

    def test_moving_object_leaves_shadows(self):
        # object advances 1 m per frame; static ego
        frames = [frame([[1.0 * t - 2.0, 0.0, 0.5]], t=t) for t in range(3)]
        out = stack_temporal(frames, self.small)
        occupied = [tuple(np.argwhere(out.occupancy[t])[0]) for t in range(3)]
        assert len(set(occupied)) == 3  # displaced occupancy across time slices

    def test_wrong_frame_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            stack_temporal([frame([[0, 0, 0.5]])], self.small, n_expected=3)

    def test_newest_frame_is_last_slice(self):
        f0 = frame([[1.0, 0.0, 0.5]], t=0)
        f1 = frame([[-1.0, 0.0, 0.5]], t=1)
        out = stack_temporal([f0, f1], self.small)
        ix_new = int(np.argwhere(out.occupancy[1])[0][1])
        assert ix_new == int(math.floor((-1.0 + 4.0) / 0.2))
