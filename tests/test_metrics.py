import math

import numpy as np
import pytest

from bevtrack.geom import RotatedBox
from bevtrack.metrics import (
    EvalConfig,
    ForecastResult,
    MotResult,
    ScoredBox,
    average_precision,
    clear_mot,
    forecast_error,
    map_by_distance,
    write_report,
)
from bevtrack.net import Detection, DetectionSet
from bevtrack.sim import LabelRecord
from bevtrack.track import TrackletFrame


def box(cx, cy, w=2.0, h=4.0, theta=0.0):
    return RotatedBox(cx, cy, w, h, theta)


def sbox(cx, cy, score, frame=0):
    return ScoredBox(frame=frame, box=box(cx, cy), score=score)


def gbox(cx, cy, frame=0, num_points=3, track_id=-1):
    return LabelRecord(frame=frame, track_id=track_id, box=box(cx, cy), num_points=num_points)


class TestAveragePrecision:
    def test_perfect_detector(self):
        gts = [gbox(0, 0), gbox(10, 0)]
        dets = [sbox(0, 0, 0.9), sbox(10, 0, 0.8)]
        pr = average_precision(dets, gts, iou_thr=0.5)
        assert pr.ap == pytest.approx(1.0)
        assert pr.recall[-1] == pytest.approx(1.0)

    def test_three_dets_two_gt_hand_value(self):
        # ranked: hit, miss, hit -> precisions 1, 1/2, 2/3; envelope 1, 2/3, 2/3
        gts = [gbox(0, 0), gbox(10, 0)]
        dets = [sbox(0, 0, 0.9), sbox(20, 0, 0.8), sbox(10, 0, 0.7)]
        pr = average_precision(dets, gts, iou_thr=0.5)
        assert pr.ap == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0))

    def test_duplicate_detection_is_false_positive(self):
        gts = [gbox(0, 0)]
        dets = [sbox(0, 0, 0.9), sbox(0, 0, 0.8)]
        pr = average_precision(dets, gts, iou_thr=0.5)
        assert pr.precision == [1.0, 0.5]
        assert pr.ap == pytest.approx(1.0)

    def test_dont_care_neither_hit_nor_miss(self):
        gts = [gbox(0, 0, num_points=5), gbox(10, 0, num_points=1)]
        dets = [sbox(0, 0, 0.9), sbox(10, 0, 0.8)]
        pr = average_precision(dets, gts, iou_thr=0.5)
        # second detection lands on the sparse box: dropped from the ranking
        assert pr.precision == [1.0]
        assert pr.ap == pytest.approx(1.0)

    def test_all_dont_care_returns_none(self):
        assert average_precision([sbox(0, 0, 0.9)], [gbox(0, 0, num_points=0)], 0.5) is None

    def test_no_detections_zero_ap(self):
        pr = average_precision([], [gbox(0, 0)], 0.5)
        assert pr.ap == 0.0

    def test_input_order_invariance(self):
        rng = np.random.default_rng(0)
        gts = [gbox(x * 10.0, 0) for x in range(4)]
        dets = [sbox(x * 10.0 + rng.uniform(-0.3, 0.3), 0, float(rng.uniform(0.2, 1))) for x in range(4)]
        dets += [sbox(100, 100, 0.5), sbox(-50, 0, 0.4)]
        base = average_precision(dets, gts, 0.5).ap
        for seed in range(3):
            r = np.random.default_rng(seed)
            assert average_precision(list(r.permutation(np.array(dets, dtype=object))), gts, 0.5).ap == base

    def test_monotone_score_rescale_invariance(self):
        gts = [gbox(0, 0), gbox(10, 0)]
        dets = [sbox(0, 0, 0.9), sbox(20, 0, 0.6), sbox(10, 0, 0.3)]
        base = average_precision(dets, gts, 0.5).ap
        rescaled = [ScoredBox(d.frame, d.box, d.score * 0.5 + 0.1) for d in dets]
        assert average_precision(rescaled, gts, 0.5).ap == base

    def test_matches_brute_force_on_random_sets(self):
        # brute-force oracle: explicit greedy matching and step integration
        rng = np.random.default_rng(7)
        for _ in range(20):
            gts = [gbox(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20))) for _ in range(4)]
            dets = []
            for g in gts[: int(rng.integers(1, 5))]:
                dets.append(
                    ScoredBox(0, box(g.box.cx + rng.uniform(-0.4, 0.4), g.box.cy), float(rng.uniform()))
                )
            for _ in range(int(rng.integers(0, 3))):
                dets.append(sbox(float(rng.uniform(30, 60)), 0, float(rng.uniform())))
            pr = average_precision(dets, gts, 0.5)
            assert pr.ap == pytest.approx(_oracle_ap(dets, gts, 0.5))


def _oracle_ap(dets, gts, thr):
    from bevtrack.geom import iou as _iou

    order = sorted(dets, key=lambda d: (-d.score, d.frame, d.box.cx, d.box.cy, d.box.w, d.box.h, d.box.theta))
    taken = [False] * len(gts)
    flags = []
    for d in order:
        best, best_v = None, 0.0
        for i, g in enumerate(gts):
            if taken[i] or g.frame != d.frame:
                continue
            v = _iou(d.box, g.box)
            if v > best_v:
                best, best_v = i, v
        if best is not None and best_v >= thr:
            taken[best] = True
            flags.append(1)
        else:
            flags.append(0)
    tp = np.cumsum(flags)
    fp = np.cumsum([1 - f for f in flags])
    rec = tp / len(gts)
    prec = tp / (tp + fp)
    env = np.maximum.accumulate(prec[::-1])[::-1]
    ap = 0.0
    prev = 0.0
    for r, p in zip(rec, env):
        ap += (r - prev) * p
        prev = r
    return ap


class TestMapByDistance:
    def test_gt_falls_in_own_bin(self):
        gts = [gbox(5, 0), gbox(25, 0)]
        dets = [sbox(5, 0, 0.9), sbox(25, 0, 0.8)]
        out = map_by_distance(dets, gts, 0.5, bins=(10.0, 20.0, 30.0))
        assert out[(0.0, 10.0)] == pytest.approx(1.0)
        assert out[(20.0, 30.0)] == pytest.approx(1.0)
        assert out[(10.0, 20.0)] is None

    def test_far_false_positive_charged_to_nearest_gt_bin(self):
        gts = [gbox(5, 0)]
        dets = [sbox(5, 0, 0.8), sbox(8, 0, 0.9)]
        out = map_by_distance(dets, gts, 0.5, bins=(10.0, 20.0))
        assert out[(0.0, 10.0)] < 1.0


def tl(frame, tid, cx, cy, score=1.0):
    return TrackletFrame(frame=frame, track_id=tid, box=box(cx, cy), score=score, status="live")


def gt_tracks_2x3():
    return {
        0: {f: box(0, 0) for f in range(3)},
        1: {f: box(10, 0) for f in range(3)},
    }


class TestClearMot:
    def test_perfect_tracking(self):
        gt = gt_tracks_2x3()
        hyp = [tl(f, tid, 10.0 * tid, 0) for f in range(3) for tid in (0, 1)]
        r = clear_mot(hyp, gt)
        assert r.mota == pytest.approx(1.0)
        assert r.motp == pytest.approx(1.0)
        assert r.mt == 1.0 and r.ml == 0.0
        assert r.fp == r.fn == r.idsw == 0

    def test_one_fp_one_idsw_hand_value(self):
        gt = gt_tracks_2x3()
        hyp = [tl(f, 0, 0, 0) for f in range(3)]
        # second object: id changes at frame 2 -> one switch
        hyp += [tl(0, 1, 10, 0), tl(1, 1, 10, 0), tl(2, 5, 10, 0)]
        hyp += [tl(1, 9, 50, 0)]  # lone false positive
        r = clear_mot(hyp, gt)
        assert r.fp == 1 and r.fn == 0 and r.idsw == 1 and r.num_gt == 6
        assert r.mota == pytest.approx(1.0 - 2.0 / 6.0)

    def test_empty_hypotheses(self):
        r = clear_mot([], gt_tracks_2x3())
        assert r.mota == 0.0  # 6 misses over 6 gt
        assert r.ml == 1.0 and r.mt == 0.0
        assert r.motp == 0.0

    def test_added_fp_lowers_mota(self):
        gt = gt_tracks_2x3()
        hyp = [tl(f, tid, 10.0 * tid, 0) for f in range(3) for tid in (0, 1)]
        base = clear_mot(hyp, gt).mota
        worse = clear_mot(hyp + [tl(0, 7, 99, 99)], gt).mota
        assert worse < base

    def test_score_threshold_filters(self):
        gt = {0: {0: box(0, 0)}}
        r = clear_mot([tl(0, 0, 0, 0, score=0.5)], gt, score_thr=0.9)
        assert r.fn == 1 and r.fp == 0

    def test_gap_without_other_track_is_no_switch(self):
        gt = {0: {f: box(0, 0) for f in range(4)}}
        hyp = [tl(0, 3, 0, 0), tl(1, 3, 0, 0), tl(3, 3, 0, 0)]  # frame 2 missing
        r = clear_mot(hyp, gt)
        assert r.idsw == 0 and r.fn == 1

    def test_identity_preserving_matching_avoids_flapping(self):
        # two coincident gt tracks: keeping last frame's pairing yields 0 switches
        gt = {0: {f: box(0, 0) for f in range(3)}, 1: {f: box(0.5, 0) for f in range(3)}}
        hyp = [tl(f, 0, 0, 0) for f in range(3)] + [tl(f, 1, 0.5, 0) for f in range(3)]
        r = clear_mot(hyp, gt, assoc_iou=0.3)
        assert r.idsw == 0 and r.mota == pytest.approx(1.0)

    def test_mostly_tracked_threshold(self):
        gt = {0: {f: box(0, 0) for f in range(5)}}
        hyp = [tl(f, 0, 0, 0) for f in range(4)]  # covered 4/5 = 0.8
        r = clear_mot(hyp, gt)
        assert r.mt == 1.0


class TestForecastError:
    def test_constant_velocity_hand_values(self):
        # detection forecasts 1 m/frame along x; truth moves 0.6 m/frame
        boxes = [box(0.0 + 1.0 * t, 0.0) for t in range(3)]
        sets = [DetectionSet(frame=0, detections=[Detection(score=1.0, boxes=boxes)])]
        gt = {0: {t: box(0.6 * t, 0.0) for t in range(3)}}
        r = forecast_error(sets, gt, horizons=(1, 2))
        assert r.l1[1] == pytest.approx(0.4)
        assert r.l2[1] == pytest.approx(0.4)
        assert r.l1[2] == pytest.approx(0.8)
        assert r.recall == 1.0

    def test_l1_versus_l2_diagonal(self):
        boxes = [box(0, 0), box(1.0, 1.0)]
        sets = [DetectionSet(frame=0, detections=[Detection(score=1.0, boxes=boxes)])]
        gt = {0: {0: box(0, 0), 1: box(0, 0)}}
        r = forecast_error(sets, gt, horizons=(1,))
        assert r.l1[1] == pytest.approx(2.0)
        assert r.l2[1] == pytest.approx(math.sqrt(2.0))

    def test_unmatched_detection_excluded(self):
        sets = [DetectionSet(frame=0, detections=[Detection(score=1.0, boxes=[box(50, 50)] * 2)])]
        gt = {0: {0: box(0, 0), 1: box(0, 0)}}
        r = forecast_error(sets, gt, horizons=(1,))
        assert r.recall == 0.0
        assert r.l1[1] is None

    def test_track_end_skips_horizon(self):
        boxes = [box(0, 0), box(1, 0), box(2, 0)]
        sets = [DetectionSet(frame=0, detections=[Detection(score=1.0, boxes=boxes)])]
        gt = {0: {0: box(0, 0), 1: box(1, 0)}}  # ends before horizon 2
        r = forecast_error(sets, gt, horizons=(1, 2))
        assert r.l1[1] == pytest.approx(0.0)
        assert r.l1[2] is None


class TestConfigAndReport:
    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=(0.0,))
        with pytest.raises(ValueError):
            EvalConfig(distance_bins=(20.0, 10.0))

    @pytest.mark.parametrize("field,bad,edge", [
        ("assoc_iou", (0.0, -1.0, 1.5), 1.0),
        ("forecast_match_iou", (0.0, 1.01), 1.0),
        ("score_thr", (-0.1, 1.5), 0.0),
        ("nms_thr", (-1e-9, 2.0), 1.0),
        ("track_score_thr", (7.0, -0.5), 0.0),
        ("forecast_horizons", ((0,), (1, -2), (1, 2.0)), (1,)),
        ("min_points", (-1, -5), 0),
    ])
    def test_values_out_of_range_rejected(self, field, bad, edge):
        for value in bad:
            with pytest.raises(ValueError, match=field.split("_")[0]):
                EvalConfig(**{field: value})
        assert getattr(EvalConfig(**{field: edge}), field) == edge

    def test_report_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        entries = {"map": 0.5, "bins": {"0-10": 1.0}}
        write_report(p1, entries)
        write_report(p2, {"bins": {"0-10": 1.0}, "map": 0.5})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_report_rejected_before_writing(self, tmp_path, value):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_report(path, {"map": 0.5, "bins": {"0-10": value}})
        assert not path.exists()
