import math

import numpy as np
import pytest

from bevtrack import tensor as T
from bevtrack import train as train_module
from bevtrack.geom import RotatedBox, iou
from bevtrack.net import Model, ModelConfig, build_anchors
from bevtrack.sim import GtObject, Sample, SimConfig, generate_dataset, make_samples
from bevtrack.train import (
    TrainConfig,
    assign_targets,
    format_log_line,
    lr_at,
    mine_hard_negatives,
    total_loss,
    train,
)
from bevtrack.voxel import GridSpec
from oracles import dense_assign_targets, scalar_encode_box


MICRO_GRID = GridSpec((-1.6, 1.6), (-1.6, 1.6), (0.0, 0.4), 0.2)  # 16x16, Z=2


def micro_model(seed=0, n_in=1, n_out=1):
    cfg = ModelConfig(
        grid=MICRO_GRID, n_in=n_in, n_out=n_out, fusion="late", widths=(2, 2, 2, 2), head_width=2
    )
    return Model(cfg, seed=seed)


class TestAssign:
    def setup_method(self):
        self.model = micro_model()
        self.anchors = build_anchors(self.model.config)

    def test_empty_scene_all_background(self):
        a = assign_targets(self.anchors, [], n_out=1)
        assert a.labels.sum() == 0
        assert a.valid.sum() == 0
        assert (a.targets == 0.0).all()

    def test_overlapping_gt_marks_positives(self):
        gt = GtObject(track_id=0, boxes=[RotatedBox(0.0, 0.0, 5.0, 5.0, 0.0)])
        a = assign_targets(self.anchors, [gt], n_out=1)
        assert a.labels.sum() >= 1
        # every positive anchor really overlaps above threshold, except any
        # force-assigned argmax anchor
        flat_labels = a.labels.reshape(-1)
        ious = np.array([iou(RotatedBox(*b), gt.boxes[0]) for b in self.anchors.array.tolist()])
        forced = ious.argmax()
        for i in np.flatnonzero(flat_labels):
            assert ious[i] > 0.4 or i == forced

    def test_force_assign_low_overlap_gt(self):
        # tiny box overlaps no anchor above 0.4, must still get one anchor
        gt = GtObject(track_id=3, boxes=[RotatedBox(0.1, 0.1, 0.5, 0.5, 0.0)])
        a = assign_targets(self.anchors, [gt], n_out=1)
        assert a.labels.sum() == 1
        ious = np.array([iou(RotatedBox(*b), gt.boxes[0]) for b in self.anchors.array.tolist()])
        assert a.labels.reshape(-1)[ious.argmax()] == 1.0

    def test_targets_match_direct_encoding(self):
        # the second track ends inside the horizon: its last timestamp has no box
        gts = [
            GtObject(track_id=0, boxes=[RotatedBox(0.2, -0.3, 5.0, 5.0, 0.1), RotatedBox(0.4, -0.2, 5.0, 5.0, 0.2),
                                        RotatedBox(0.6, -0.1, 5.0, 5.0, 0.3)]),
            GtObject(track_id=1, boxes=[RotatedBox(-0.9, 1.0, 1.0, 2.0, -2.0), RotatedBox(-0.8, 1.1, 1.0, 2.0, -2.1)]),
        ]
        a = assign_targets(self.anchors, gts, n_out=3)
        assert np.isfinite(a.targets).all()
        assert (a.targets[np.broadcast_to((a.valid == 0.0)[:, :, None], a.targets.shape)] == 0.0).all()
        flat = a.labels.reshape(-1)
        tflat = a.targets.transpose(0, 3, 4, 1, 2).reshape(-1, 3, 6)
        vflat = a.valid.transpose(0, 2, 3, 1).reshape(-1, 3)
        for i in np.flatnonzero(flat):
            anchor = RotatedBox(*self.anchors.array[i].tolist())
            # the matched track is the one whose current box encodes to the anchor's first target
            (gt,) = [g for g in gts if scalar_encode_box(anchor, g.boxes[0]).tolist() == tflat[i, 0].tolist()]
            for t in range(3):
                if t < len(gt.boxes):
                    assert vflat[i, t] == 1.0
                    assert tflat[i, t].tolist() == scalar_encode_box(anchor, gt.boxes[t]).tolist()
                else:
                    assert vflat[i, t] == 0.0
        assert vflat[:, 2].sum() < vflat[:, 1].sum() == flat.sum()

    def test_future_box_absent_marks_invalid(self):
        gt = GtObject(track_id=0, boxes=[RotatedBox(0, 0, 5, 5, 0), None])
        a = assign_targets(self.anchors, [gt], n_out=2)
        assert a.valid[:, 0].sum() == a.labels.sum()
        assert a.valid[:, 1].sum() == 0

    def test_missing_current_box_rejected(self):
        with pytest.raises(ValueError, match="current-frame"):
            assign_targets(self.anchors, [GtObject(0, [None])], n_out=1)

    def test_box_no_anchor_overlaps_stays_unassigned(self):
        far = GtObject(track_id=0, boxes=[RotatedBox(40.0, -30.0, 2.0, 4.0, 0.3)])
        a = assign_targets(self.anchors, [far], n_out=1)
        assert a.labels.sum() == 0
        assert a.valid.sum() == 0
        # beside a box the grid holds, it changes nothing
        near = GtObject(track_id=1, boxes=[RotatedBox(0.1, 0.1, 0.5, 0.5, 0.0)])
        alone, both = assign_targets(self.anchors, [near], n_out=1), assign_targets(self.anchors, [far, near], n_out=1)
        assert alone.labels.sum() == 1
        for x, y in ((alone.labels, both.labels), (alone.targets, both.targets), (alone.valid, both.valid)):
            assert np.array_equal(x, y)


def _scene(name):
    if name == "c05":
        grid = GridSpec((-12.0, 12.0), (-8.0, 8.0), (0.0, 1.6), 0.2)
        cfg = SimConfig(
            seed=0, duration=32, n_vehicles=(2, 3), spawn_x=(-8, 8), spawn_y=(-5, 5),
            speed=(0.0, 3.0), vehicle_width=(1.5, 2.5), vehicle_length=(3.0, 5.0),
            max_spawn_retries=500,
        )
    else:  # a seeded 48 x 32 m scene with 14 vehicles
        grid = GridSpec((-24.0, 24.0), (-16.0, 16.0), (0.0, 1.6), 0.2)
        cfg = SimConfig(seed=int(name.split("-")[1]), duration=12, n_vehicles=(14, 14))
    samples, _ = make_samples(generate_dataset(cfg), grid, 5, 5)
    mcfg = ModelConfig(grid=grid, n_in=5, n_out=5, fusion="late", widths=(8, 16, 32, 64))
    return build_anchors(mcfg), samples


class TestAssignAgainstDense:
    """Bounded clipping assigns exactly what the dense IoU matrix does."""

    @pytest.mark.parametrize("scene", ["c05", "seed-0", "seed-1", "seed-2"])
    def test_scene(self, scene):
        anchors, samples = _scene(scene)
        assert sum(len(s.objects) for s in samples) > 0
        for s in samples:
            a = assign_targets(anchors, s.objects, 5, 0.4)
            d = dense_assign_targets(anchors, s.objects, 5, 0.4)
            for x, y in ((a.labels, d.labels), (a.targets, d.targets), (a.valid, d.valid)):
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("bound_pairs", [train_module.BOUND_PAIRS, 5])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_boxes(self, seed, bound_pairs, monkeypatch):
        # small, thin, turned and far boxes, many of them forced; 5 pairs per bound call splits the anchors
        monkeypatch.setattr(train_module, "BOUND_PAIRS", bound_pairs)
        anchors = build_anchors(micro_model().config)
        rng = np.random.default_rng(seed)
        objects = [
            GtObject(track_id=k, boxes=[RotatedBox(*rng.uniform(-2.5, 2.5, 2), *rng.uniform(0.1, 4.0, 2),
                                                   rng.uniform(-math.pi, math.pi))])
            for k in range(rng.integers(1, 9))
        ]
        for thr in (0.1, 0.4, 0.7):
            a = assign_targets(anchors, objects, 1, thr)
            d = dense_assign_targets(anchors, objects, 1, thr)
            for x, y in ((a.labels, d.labels), (a.targets, d.targets), (a.valid, d.valid)):
                assert x.tobytes() == y.tobytes()


class TestMining:
    def test_three_to_one_ratio(self):
        labels = np.zeros(20)
        labels[:4] = 1.0
        scores = np.linspace(0.0, 0.95, 20)
        mask = mine_hard_negatives(scores, labels, ratio=3)
        assert mask[:4].all()
        assert mask.sum() == 4 + 12
        # kept negatives are exactly the highest-scoring ones
        neg_scores = scores[4:]
        keep = np.sort(np.flatnonzero(mask[4:]))
        expect = np.sort(np.argsort(-neg_scores, kind="stable")[:12])
        np.testing.assert_array_equal(keep, expect)

    def test_tie_breaks_to_lower_flat_index(self):
        labels = np.zeros(5)
        labels[0] = 1.0
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.5])
        mask = mine_hard_negatives(scores, labels, ratio=3)
        np.testing.assert_array_equal(mask, [1, 1, 1, 1, 0])

    def test_no_positives_keeps_some_negatives(self):
        scores = np.array([0.1, 0.8, 0.3, 0.9])
        mask = mine_hard_negatives(scores, np.zeros(4), ratio=3)
        assert mask.sum() == 3
        assert mask[3] == 1.0 and mask[1] == 1.0

    def test_fewer_negatives_than_quota(self):
        labels = np.array([1.0, 1.0, 0.0])
        mask = mine_hard_negatives(np.array([0.5, 0.5, 0.5]), labels, ratio=3)
        assert mask.all()

    def test_shape_preserved(self):
        scores = np.zeros((2, 3, 4))
        labels = np.zeros((2, 3, 4))
        labels[0, 0, 0] = 1.0
        assert mine_hard_negatives(scores, labels).shape == (2, 3, 4)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        model = micro_model()
        anchors = build_anchors(model.config)
        a = assign_targets(anchors, [GtObject(0, [RotatedBox(0, 0, 5, 5, 0)])], n_out=1)
        tape = T.Tape()
        # build exact predictions: logits of the labels clipped, codes = targets
        p = np.clip(a.labels, 1e-9, 1 - 1e-9)
        cls_t = T.Tensor(np.log(p / (1 - p)), tape=tape)
        reg_t = T.Tensor(a.targets.copy(), tape=tape)
        loss, comps = total_loss(cls_t, reg_t, a)
        assert comps["reg"] == 0.0
        assert comps["total"] < 1e-6

    def test_alpha_scales_cls_term(self):
        model = micro_model()
        anchors = build_anchors(model.config)
        a = assign_targets(anchors, [GtObject(0, [RotatedBox(0, 0, 5, 5, 0)])], n_out=1)
        rng = np.random.default_rng(0)
        logits = rng.normal(size=a.labels.shape)
        codes = rng.normal(size=a.targets.shape)
        vals = {}
        for alpha in (1.0, 2.0):
            tape = T.Tape()
            cls_t = T.Tensor(logits.copy(), tape=tape)
            reg_t = T.Tensor(codes.copy(), tape=tape)
            _, comps = total_loss(cls_t, reg_t, a, alpha=alpha)
            vals[alpha] = comps
        assert vals[2.0]["reg"] == vals[1.0]["reg"]
        assert vals[2.0]["total"] - vals[2.0]["reg"] == pytest.approx(
            2.0 * (vals[1.0]["total"] - vals[1.0]["reg"])
        )

    def test_confident_logits_keep_the_loss_finite(self):
        model = micro_model()
        anchors = build_anchors(model.config)
        a = assign_targets(anchors, [GtObject(0, [RotatedBox(0, 0, 5, 5, 0)])], n_out=1)
        tape = T.Tape()
        # every anchor confidently positive: sigmoid rounds these logits to 1.0
        cls_t = T.Tensor(np.full(a.labels.shape, 40.0), tape=tape)
        reg_t = T.Tensor(a.targets.copy(), tape=tape)
        loss, comps = total_loss(cls_t, reg_t, a)
        assert math.isfinite(comps["total"]) and comps["cls"] > 0.0
        T.backward(loss, tape)
        assert np.all(np.isfinite(cls_t.grad))

    def test_smooth_l1_cases(self):
        # piecewise values: 0.5 -> 0.125, 2.0 -> 1.5
        tape = T.Tape()
        pred = T.Tensor(np.array([0.5, 2.0]), tape=tape)
        loss = T.smooth_l1(pred, np.zeros(2), np.ones(2))
        assert loss.item() == pytest.approx(0.125 + 1.5)


class TestSchedule:
    def test_halves_at_milestones(self):
        cfg = TrainConfig(iterations=1000, lr=1e-4)
        assert lr_at(0, cfg) == 1e-4
        assert lr_at(599, cfg) == 1e-4
        assert lr_at(600, cfg) == 5e-5
        assert lr_at(799, cfg) == 5e-5
        assert lr_at(800, cfg) == 2.5e-5
        assert lr_at(999, cfg) == 2.5e-5

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(milestones=(0.5, 1.2))
        with pytest.raises(ValueError):
            TrainConfig(hnm_ratio=0)


def toy_sample(n_out=1):
    occ = np.zeros((1, 2, 16, 16))
    occ[:, :, 6:10, 6:10] = 1.0
    box = RotatedBox(0.0, 0.0, 5.0, 5.0, 0.0)
    return Sample(occupancy=occ, objects=[GtObject(0, [box] * n_out)])


class TestTrainLoop:
    def test_zero_iterations_leaves_params_unchanged(self):
        model = micro_model(seed=1)
        anchors = build_anchors(model.config)
        before = {k: v.copy() for k, v in model.params.items()}
        _, log = train([toy_sample()], model, anchors, TrainConfig(iterations=0, batch_size=1))
        assert log == []
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_deterministic_in_seed(self):
        logs = []
        for _ in range(2):
            model = micro_model(seed=2)
            anchors = build_anchors(model.config)
            _, log = train(
                [toy_sample()], model, anchors, TrainConfig(iterations=3, batch_size=1, seed=5)
            )
            logs.append(log)
        assert logs[0] == logs[1]

    def test_empty_dataset_rejected(self):
        model = micro_model()
        with pytest.raises(ValueError, match="non-empty"):
            train([], model, build_anchors(model.config), TrainConfig(iterations=1))

    def test_loss_decreases_over_50_iterations(self):
        # train ten seeds; demand improvement on at least nine
        wins = 0
        for seed in range(10):
            model = micro_model(seed=seed)
            anchors = build_anchors(model.config)
            cfg = TrainConfig(iterations=50, lr=1e-3, batch_size=1, seed=seed)
            _, log = train([toy_sample()], model, anchors, cfg)
            first = np.mean([r[2] for r in log[:5]])
            last = np.mean([r[2] for r in log[-5:]])
            if last < first:
                wins += 1
        assert wins >= 9

    def test_log_line_format(self):
        line = format_log_line((7, 1e-4, 1.25, 1.0, 0.25))
        assert line.split() == ["7", "0.0001", "1.25", "1", "0.25"]
