"""Each of the benchmark's output checks accepts a right output and rejects a wrong one.

Tiny inputs only: these run with the repository's test suite.
"""

import numpy as np

from bevtrack import tensor as T
from bevtrack.geom import RotatedBox, iou
from bevtrack.net import Model, ModelConfig, build_anchors
from bevtrack.train import GtObject, assign_targets, total_loss
from bevtrack.voxel import GridSpec, InputTensor, LidarFrame, Pose, stack_temporal

import checks

GRID = GridSpec((-2.4, 2.4), (-1.6, 1.6), (0.0, 0.8), 0.2)  # 24 x 16 x 4


def tiny_model():
    cfg = ModelConfig(grid=GRID, n_in=5, n_out=2, fusion="late", widths=(2, 3, 3, 4))
    return cfg, Model(cfg, seed=3)


def tiny_occupancy(seed=0):
    return (np.random.default_rng(seed).uniform(size=(5, 4, 24, 16)) < 0.1).astype(float)


def test_reference_forward_rejects_a_perturbed_weight():
    cfg, model = tiny_model()
    occ = tiny_occupancy()
    out, _, _ = model.forward(InputTensor(occ))
    cls, reg = checks.reference_forward(model.params, occ, cfg.num_anchors, cfg.n_out)
    assert checks.close_relative("cls", out.cls, cls) == []
    assert checks.close_relative("reg", out.reg, reg) == []
    bent = {k: v.copy() for k, v in model.params.items()}
    bent["g2.c1.w"][0, 0, 1, 1] += 1e-3
    cls, reg = checks.reference_forward(bent, occ, cfg.num_anchors, cfg.n_out)
    assert checks.close_relative("cls", out.cls, cls) + checks.close_relative("reg", out.reg, reg)


def test_gradient_check_rejects_a_flipped_sign():
    cfg, model = tiny_model()
    inp = InputTensor(tiny_occupancy(1))
    gt = RotatedBox(0.4, -0.3, 1.0, 2.0, 0.3)
    assignment = assign_targets(build_anchors(cfg), [GtObject(0, [gt, gt])], cfg.n_out)

    def loss_at(params):
        _, cls_t, reg_t = Model(cfg, params=params).forward(inp)
        return total_loss(cls_t, reg_t, assignment)[1]["total"]

    tape = T.Tape()
    _, cls_t, reg_t = model.forward(inp, tape=tape)
    grads = T.backward(total_loss(cls_t, reg_t, assignment)[0], tape)
    rng = np.random.default_rng(0)
    direction = {k: rng.standard_normal(v.shape) for k, v in model.params.items()}
    fd = checks.directional_derivative(loss_at, model.params, direction, 1e-5)
    assert checks.gradient_matches(fd, grads, direction) == []
    flipped = {k: -g for k, g in grads.items()}
    assert checks.gradient_matches(fd, flipped, direction)


def test_nms_check_rejects_an_overlapping_pair():
    apart = checks.box_array([RotatedBox(0, 0, 2, 4, 0.1), RotatedBox(3.0, 0, 2, 4, 1.0)])
    assert checks.nms_problems(apart, [0.9, 0.8], 0.5, 0.1) == []
    overlapping = checks.box_array([RotatedBox(0, 0, 2, 4, 0.1), RotatedBox(0.5, 0.2, 2, 4, 0.3)])
    assert checks.nms_problems(overlapping, [0.9, 0.8], 0.5, 0.1)
    assert checks.nms_problems(apart, [0.9, 0.4], 0.5, 0.1)


def test_pairwise_iou_agrees_with_polygon_clipping():
    rng = np.random.default_rng(5)
    a = np.column_stack([rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300), rng.uniform(1, 3, 300),
                         rng.uniform(1, 5, 300), rng.uniform(-3.2, 3.2, 300)])
    b = np.column_stack([rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300), rng.uniform(1, 3, 300),
                         rng.uniform(1, 5, 300), rng.uniform(-3.2, 3.2, 300)])
    b[:20] = a[:20]
    want = [iou(RotatedBox(*x), RotatedBox(*y)) for x, y in zip(a, b)]
    np.testing.assert_allclose(checks.pairwise_iou(a, b), want, atol=1e-12)


def test_track_check_rejects_a_reused_id():
    good = [(0, 1, "live"), (0, 2, "live"), (1, 1, "coasting"), (2, 1, "coasting"), (3, 1, "live")]
    assert checks.track_problems(good, max_coast=2) == []
    assert checks.track_problems(good + [(3, 1, "coasting")], max_coast=2)
    too_long = [(0, 1, "live"), (1, 1, "coasting"), (2, 1, "coasting"), (3, 1, "coasting")]
    assert checks.track_problems(too_long, max_coast=2)


def test_occupied_cells_counts_the_compensated_voxels():
    rng = np.random.default_rng(2)
    frames = [
        LidarFrame(points=rng.uniform([-3, -2, 0], [3, 2, 0.8], size=(40, 3)),
                   pose=Pose(0.3 * t, 0.1 * t, 0.05 * t), timestamp=t)
        for t in range(3)
    ]
    count = int(np.count_nonzero(stack_temporal(frames, GRID).occupancy))
    history = [(f.points, (f.pose.tx, f.pose.ty, f.pose.yaw)) for f in frames]
    assert checks.occupied_cells(history, GRID.x_range, GRID.y_range, GRID.z_range, GRID.cell) == count
