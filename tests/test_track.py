import math
import tracemalloc

import numpy as np
import pytest

from bevtrack import track
from bevtrack.geom import RotatedBox, iou
from bevtrack.net import Detection, DetectionSet
from bevtrack.track import (
    COASTING,
    LIVE,
    TrackletDecoder,
    decode_tracklets,
    dump_tracklets,
    hungarian_track,
    linear_sum_assignment,
    load_tracklets,
)
from oracles import PairwiseTrackletDecoder, exhaustive_assignment


def det(cx, cy, score=1.0, n_out=3, vx=0.0, w=2.0, h=4.0, theta=0.0):
    boxes = [RotatedBox(cx + vx * t, cy, w, h, theta) for t in range(n_out)]
    return Detection(score=score, boxes=boxes)


def ds(frame, dets):
    return DetectionSet(frame=frame, detections=list(dets))


class TestDecoderBasics:
    def test_single_detection_gets_fresh_id(self):
        out = TrackletDecoder(n_out=3).step(ds(0, [det(0, 0)]), 0)
        assert len(out) == 1
        assert out[0].track_id == 0
        assert out[0].status == LIVE

    def test_distinct_objects_distinct_ids(self):
        out = TrackletDecoder(n_out=3).step(ds(0, [det(0, 0), det(20, 0)]), 0)
        assert sorted(r.track_id for r in out) == [0, 1]

    def test_id_persists_via_forecast_overlap(self):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0, vx=1.0)]), 0)
        out = d.step(ds(1, [det(1.0, 0, vx=1.0)]), 1)
        assert len(out) == 1
        assert out[0].track_id == 0 and out[0].status == LIVE

    def test_averaged_center(self):
        # forecast lands at (0.2, 0), current detection at (0, 0)
        d = TrackletDecoder(n_out=2)
        d.step(ds(0, [det(-0.8, 0, vx=1.0)]), 0)
        out = d.step(ds(1, [det(0.0, 0)]), 1)
        assert out[0].box.cx == pytest.approx(0.1)
        assert out[0].box.cy == pytest.approx(0.0)

    def test_score_is_group_max(self):
        d = TrackletDecoder(n_out=2)
        d.step(ds(0, [det(0, 0, score=1.0)]), 0)
        out = d.step(ds(1, [det(0, 0, score=0.4)]), 1)
        # forecast carries 1.0 * 0.9 decay, above the current 0.4
        assert out[0].score == pytest.approx(0.9)

    def test_heading_average_wraps(self):
        d = TrackletDecoder(n_out=2)
        d.step(ds(0, [det(0, 0, theta=math.pi - 0.1, w=2, h=6)]), 0)
        out = d.step(ds(1, [det(0, 0, theta=-math.pi + 0.1, w=2, h=6)]), 1)
        assert abs(abs(out[0].box.theta) - math.pi) < 1e-9


class TestCoasting:
    def test_gap_bridged_by_forecast(self):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0, vx=1.0)]), 0)
        mid = d.step(ds(1, []), 1)
        assert len(mid) == 1
        assert mid[0].status == COASTING
        assert mid[0].score == pytest.approx(0.9)
        out = d.step(ds(2, [det(2.0, 0, vx=1.0)]), 2)
        assert out[0].track_id == 0 and out[0].status == LIVE

    def test_coast_limited_to_n_out_minus_one(self):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0)]), 0)
        assert len(d.step(ds(1, []), 1)) == 1
        assert len(d.step(ds(2, []), 2)) == 1
        assert len(d.step(ds(3, []), 3)) == 0

    def test_single_frame_decoder_never_coasts(self):
        d = TrackletDecoder(n_out=1)
        d.step(ds(0, [det(0, 0, n_out=1)]), 0)
        assert d.step(ds(1, []), 1) == []

    def test_reappearance_after_expiry_gets_new_id(self):
        d = TrackletDecoder(n_out=2)
        d.step(ds(0, [det(0, 0, n_out=2)]), 0)
        d.step(ds(1, []), 1)  # coast
        d.step(ds(2, []), 2)  # expired
        out = d.step(ds(3, [det(0, 0, n_out=2)]), 3)
        assert out[0].track_id == 1


class TestFrameOrder:
    @pytest.mark.parametrize("second", [4, 3], ids=["repeated", "earlier"])
    def test_frame_that_does_not_advance_rejected(self, second):
        d = TrackletDecoder(n_out=3)
        d.step(ds(4, [det(0, 0)]), 4)
        with pytest.raises(ValueError, match=f"frame {second} does not come after frame 4"):
            d.step(ds(second, [det(0, 0)]), second)

    @pytest.mark.parametrize("after_gap,statuses", [(2, [COASTING]), (3, [])])
    def test_gap_keeps_only_forecasts_that_reach_the_frame(self, after_gap, statuses):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0)]), 0)
        assert [r.status for r in d.step(ds(after_gap, []), after_gap)] == statuses


def clutter(rng, n_out, count):
    """About ``count`` eval-clutter-like detections over a 48 x 32 m scene.

    Random sizes and headings; a fifth score in [0.9, 1), the rest in
    [0.1, 0.5). A third come in pairs of equal boxes moved h/3 apart along
    their long side, whose IoU (h - d) / (h + d) is within 1e-9 of 0.5.
    """
    dets = []
    while len(dets) < count:
        x, y, vx = rng.uniform(-24, 24), rng.uniform(-16, 16), rng.normal(0, 1)
        w, h, theta = rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0), rng.uniform(-math.pi, math.pi)
        pair = [(x, y)]
        if rng.uniform() < 1 / 3:
            d = h / 3.0 * (1.0 + rng.uniform(-2e-9, 2e-9))
            pair.append((x + d * math.cos(theta), y + d * math.sin(theta)))
        for px, py in pair:
            score = rng.uniform(0.9, 1.0) if rng.uniform() < 0.2 else rng.uniform(0.1, 0.5)
            dets.append(det(px, py, score=score, n_out=n_out, vx=vx, w=w, h=h, theta=theta))
    return dets


def random_stream(rng, n_out, gaps, cluttered=False):
    """Frames of noisy, sometimes occluded or duplicated detections of a few moving objects.

    The stream opens with an empty frame and a one-candidate frame. A
    cluttered stream adds clutter to five frames, so each holds 100-400
    candidates counting the buffered forecasts.
    """
    yield ds(0, [])
    yield ds(1, [det(0.0, 0.0, n_out=n_out, vx=1.0)])
    n = int(rng.integers(1, 6))
    xs, ys, vxs = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n), rng.normal(0, 1, n)
    frame = 2
    emitted = []  # (frame, detections) of the cluttered frames
    for k in range(40):
        dets = []
        for x, y, vx in zip(xs, ys, vxs):
            for _copy in range(int(rng.integers(0, 3))):
                jx, jy = rng.normal(0, 0.5, 2)
                dets.append(det(x + jx, y + jy, score=rng.uniform(0.05, 1), n_out=n_out, vx=vx + rng.normal(0, 0.3)))
        if cluttered and 10 <= k < 15:
            # earlier clutter comes back as forecasts while they reach the frame
            back = sum(count for f, count in emitted if frame - f < n_out)
            dets += clutter(rng, n_out, int(rng.integers(100, 401)) - back)
            emitted.append((frame, len(dets)))
        yield ds(frame, dets)
        xs = xs + vxs
        frame += int(rng.integers(1, 4)) if gaps else 1


@pytest.mark.parametrize("seed", range(30))
def test_random_stream_keeps_ids_unique_and_coasts_at_most_n_out_minus_one(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n_out = 1 + seed % 5
    d = TrackletDecoder(n_out)
    pairwise = PairwiseTrackletDecoder(n_out)
    calls = []
    monkeypatch.setattr(track, "iou", lambda *args: calls.append(1) or iou(*args))
    last_live = {}
    for s in random_stream(rng, n_out, gaps=seed % 3 == 0, cluttered=seed % 4 == 1):
        calls.clear()
        out = d.step(s, s.frame)
        assert len(calls) <= 1, f"frame {s.frame}: {len(calls)} iou calls in one step"
        assert out == pairwise.step(s, s.frame), f"frame {s.frame}: grouping differs from the pairwise oracle"
        if s.frame == 0:
            assert out == []
        ids = [r.track_id for r in out]
        assert len(ids) == len(set(ids)), f"frame {s.frame}: an id emitted twice"
        for r in out:
            if r.track_id in last_live:
                # coasting or live again: some forecast of its last live frame must reach here
                assert s.frame - last_live[r.track_id] <= n_out - 1, (s.frame, r)
            else:
                assert r.status == LIVE, f"frame {s.frame}: id {r.track_id} first seen coasting"
            if r.status == LIVE:
                last_live[r.track_id] = s.frame


class TestIds:
    def test_merged_group_takes_min_id(self):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0), det(30, 0)]), 0)
        # both tracks' forecasts now claim the same spot
        out = d.step(ds(1, [det(0, 0)]), 1)
        ids = {r.track_id for r in out}
        assert 0 in ids

    def test_ids_monotonically_increasing(self):
        d = TrackletDecoder(n_out=1)
        seen = []
        for f in range(5):
            out = d.step(ds(f, [det(f * 40.0, 0, n_out=1)]), f)
            seen.extend(r.track_id for r in out)
        assert seen == sorted(seen)
        assert len(set(seen)) == 5  # no reuse: objects never overlap

    def test_two_forecasts_of_one_track_emit_one_id(self):
        # frame 0 and frame 1 forecast track 0 to disjoint spots at frame 2
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0, vx=1.0)]), 0)
        d.step(ds(1, [det(1.0, 0, vx=5.0)]), 1)
        out = d.step(ds(2, []), 2)
        assert [(r.track_id, r.status) for r in out] == [(0, COASTING)]
        assert out[0].box.cx == pytest.approx(6.0)  # the fresher, higher-scoring forecast

    def test_group_left_without_an_id_takes_a_new_one_for_a_detection(self):
        d = TrackletDecoder(n_out=3)
        d.step(ds(0, [det(0, 0, vx=1.0)]), 0)
        d.step(ds(1, [det(1.0, 0, vx=5.0)]), 1)
        # the detection joins the older forecast, whose id the fresher one claimed
        out = d.step(ds(2, [det(2.0, 0, score=0.5)]), 2)
        assert sorted((r.track_id, r.status) for r in out) == [(0, COASTING), (1, LIVE)]

    def test_buffer_stays_bounded_over_a_long_stream(self):
        d = TrackletDecoder(n_out=3)
        sizes = []
        for f in range(10_000):
            # one persistent track plus one that jumps away, and so ends, every frame
            d.step(ds(f, [det(0, 30), det(40.0 * (f % 7), 0)]), f)
            sizes.append(len(d._buffer))
        assert d._next_id > 5_000
        # 2 live emissions a frame, each buffered while it reaches the next frame
        assert max(sizes) <= 4

    def test_decode_tracklets_matches_manual_stepping(self):
        sets = [ds(0, [det(0, 0, vx=1.0)]), ds(1, [det(1, 0, vx=1.0)]), ds(2, [])]
        records = decode_tracklets(sets, n_out=3)
        d = TrackletDecoder(n_out=3)
        manual = []
        for s in sets:
            manual.extend(d.step(s, s.frame))
        assert [(r.frame, r.track_id, r.status) for r in records] == [
            (r.frame, r.track_id, r.status) for r in manual
        ]


class TestWork:
    def test_far_apart_candidates_build_no_pair_arrays(self):
        # 3,000 candidates whose x-extents do not overlap: an N x N float64
        # array alone would take 72 MB, an N x N bool one 9 MB
        frame = ds(0, [det(10.0 * i, 0.0) for i in range(3000)])
        d = TrackletDecoder(n_out=3)
        tracemalloc.start()
        try:
            out = d.step(frame, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 3000
        assert peak < 8e6, f"{peak / 1e6:.1f} MB traced in one step"


class TestHungarian:
    def test_two_by_two_matches_exhaustive(self):
        # cross-assignment beats identity here; verify against brute force
        prev = [det(0, 0, n_out=1), det(3, 0, n_out=1)]
        cur = [det(2.5, 0, n_out=1), det(0.5, 0, n_out=1)]
        records = hungarian_track([ds(0, prev), ds(1, cur)])
        by_frame = {}
        for r in records:
            by_frame.setdefault(r.frame, []).append(r)
        id_of = {r.box.cx: r.track_id for r in by_frame[1]}
        # brute force over both pairings
        def total(pairing):
            return sum(iou(prev[i].boxes[0], cur[j].boxes[0]) for i, j in pairing)

        best = max([[(0, 0), (1, 1)], [(0, 1), (1, 0)]], key=total)
        expect = {cur[j].boxes[0].cx: i for i, j in best}
        assert id_of == expect

    def test_gap_breaks_identity(self):
        sets = [ds(0, [det(0, 0, n_out=1)]), ds(1, []), ds(2, [det(0, 0, n_out=1)])]
        records = hungarian_track(sets)
        ids = {r.frame: r.track_id for r in records}
        assert ids[0] != ids[2]

    def test_low_overlap_spawns_new_id(self):
        sets = [ds(0, [det(0, 0, n_out=1)]), ds(1, [det(10, 0, n_out=1)])]
        records = hungarian_track(sets)
        assert records[0].track_id != records[1].track_id


def _cost_matrix(rng, kind, shape):
    """A cost matrix of one of four kinds: uniform, small integers, 1 - sparse IoU, or tenths."""
    if kind == "uniform":
        return rng.uniform(size=shape)
    if kind == "integers":
        return rng.integers(0, 4, size=shape).astype(np.float64)
    if kind == "sparse-iou":
        return 1.0 - np.where(rng.uniform(size=shape) < 0.2, rng.uniform(size=shape), 0.0)
    return np.round(rng.uniform(size=shape), 1)


KINDS = ("uniform", "integers", "sparse-iou", "tenths")


class TestLinearSumAssignment:
    @pytest.mark.parametrize("kind", KINDS)
    def test_optimal_against_exhaustive_search(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for _ in range(150):
            cost = _cost_matrix(rng, kind, rng.integers(0, 8, size=2))
            rows, cols = linear_sum_assignment(cost)
            assert len(rows) == len(cols) == min(cost.shape)
            assert list(rows) == sorted(set(rows.tolist())) and len(set(cols.tolist())) == len(cols)
            assert cost[rows, cols].sum() == pytest.approx(exhaustive_assignment(cost), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_choices_as_scipy(self, kind):
        # among equally good matchings, CLEAR-MOT and the Hungarian baseline depend on which one is chosen
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(10 + KINDS.index(kind))
        shapes = [(0, 0), (0, 3), (3, 0)] + [tuple(rng.integers(1, 14, size=2)) for _ in range(800)]
        for shape in shapes:
            cost = _cost_matrix(rng, kind, shape)
            ours, theirs = linear_sum_assignment(cost), scipy_optimize.linear_sum_assignment(cost)
            assert [ours[0].tolist(), ours[1].tolist()] == [theirs[0].tolist(), theirs[1].tolist()], cost

    def test_constant_cost_gives_the_identity(self):
        rows, cols = linear_sum_assignment(np.ones((4, 6)))
        assert rows.tolist() == cols.tolist() == [0, 1, 2, 3]
        rows, cols = linear_sum_assignment(np.ones((6, 4)))
        assert rows.tolist() == cols.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.ones((3, 2))
        cost[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linear_sum_assignment(cost)

    def test_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            linear_sum_assignment(np.ones(3))


class TestDump:
    def test_roundtrip(self, tmp_path):
        sets = [ds(0, [det(0.25, -1.5, score=0.875, vx=1.0)]), ds(1, [])]
        records = decode_tracklets(sets, n_out=3)
        path = tmp_path / "tracklets.txt"
        dump_tracklets(records, path)
        back = load_tracklets(path)
        assert len(back) == len(records)
        for a, b in zip(sorted(records, key=lambda r: (r.frame, r.track_id)), back):
            assert (a.frame, a.track_id, a.status) == (b.frame, b.track_id, b.status)
            assert a.box.cx == pytest.approx(b.box.cx)
            assert a.score == pytest.approx(b.score)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1 0 0 2 4 0 1.0 live\n0 2 nonsense\n")
        with pytest.raises(ValueError, match="3"):
            load_tracklets(path)
