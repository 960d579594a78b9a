import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevtrack.geom import (
    BoxSet,
    RotatedBox,
    clip_polygon,
    iou,
    iou_bound,
    near_pairs,
    nms,
    polygon_area,
    to_global,
    to_local,
    wrap_angle,
)
from bevtrack.net import MAX_SIZE_CODE, decode_boxes
from oracles import greedy_nms, mc_iou
from oracles import iou as scalar_iou


def random_box(rng, span=10.0):
    return RotatedBox(
        cx=rng.uniform(-span, span),
        cy=rng.uniform(-span, span),
        w=rng.uniform(0.5, 6.0),
        h=rng.uniform(0.5, 6.0),
        theta=rng.uniform(-math.pi, math.pi),
    )


metres = st.floats(-100.0, 100.0)
poses = st.tuples(metres, metres, st.floats(-10.0, 10.0))


class TestFrameMap:
    @given(poses, st.lists(st.tuples(metres, metres), max_size=8))
    def test_arrays_match_floats_and_round_trip(self, pose, points):
        xy = np.reshape(points, (-1, 2))
        for fn in (to_local, to_global):
            x, y = fn(xy[:, 0], xy[:, 1], *pose)
            assert x.shape == y.shape == (len(points),)
            assert list(zip(x.tolist(), y.tolist())) == [fn(px, py, *pose) for px, py in points]
        back = np.column_stack(to_global(*to_local(xy[:, 0], xy[:, 1], *pose), *pose))
        assert np.abs(back - xy).max(initial=0.0) <= 1e-12

    def test_empty_arrays(self):
        for fn in (to_local, to_global):
            x, y = fn(np.zeros(0), np.zeros(0), 1.0, -2.0, 0.3)
            assert x.shape == y.shape == (0,)

    def test_quarter_turn(self):
        assert to_local(1.0, 3.0, 1.0, 1.0, math.pi / 2) == pytest.approx((2.0, 0.0))
        assert to_global(2.0, 0.0, 1.0, 1.0, math.pi / 2) == pytest.approx((1.0, 3.0))


class TestCorners:
    def test_unit_square(self):
        pts = RotatedBox(0, 0, 1, 1, 0).corners()
        assert sorted(pts) == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_quarter_turn_swaps_footprint(self):
        a = RotatedBox(0, 0, 2, 4, 0).corners()
        b = RotatedBox(0, 0, 4, 2, math.pi / 2).corners()
        assert sorted((round(x, 9), round(y, 9)) for x, y in a) == sorted(
            (round(x, 9), round(y, 9)) for x, y in b
        )

    def test_diagonal_square_vertices_on_axes(self):
        pts = RotatedBox(0, 0, 2, 2, math.pi / 4).corners()
        for x, y in pts:
            assert math.isclose(math.hypot(x, y), math.sqrt(2), abs_tol=1e-12)
            assert min(abs(x), abs(y)) < 1e-12

    def test_ccw_and_centroid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = random_box(rng)
            pts = b.corners()
            assert polygon_area(pts) > 0
            cx = sum(p[0] for p in pts) / 4
            cy = sum(p[1] for p in pts) / 4
            assert math.isclose(cx, b.cx, abs_tol=1e-9)
            assert math.isclose(cy, b.cy, abs_tol=1e-9)

    def test_invalid_sides_rejected(self):
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 0.0, 1.0, 0)

    def test_theta_normalized(self):
        assert RotatedBox(0, 0, 1, 1, 3 * math.pi).theta == pytest.approx(math.pi)
        assert abs(wrap_angle(-math.pi)) == pytest.approx(math.pi)


class TestClip:
    def test_self_clip_keeps_area(self):
        poly = RotatedBox(1, 2, 3, 2, 0.3).corners()
        out = clip_polygon(poly, poly)
        assert math.isclose(polygon_area(out), polygon_area(poly), abs_tol=1e-12)

    def test_disjoint_is_empty(self):
        a = RotatedBox(0, 0, 1, 1, 0).corners()
        b = RotatedBox(5, 5, 1, 1, 0).corners()
        assert clip_polygon(a, b) == []

    def test_offset_squares_intersect_in_1x2(self):
        a = RotatedBox(0, 0, 2, 2, 0).corners()
        b = RotatedBox(1, 0, 2, 2, 0).corners()
        out = clip_polygon(a, b)
        assert math.isclose(polygon_area(out), 2.0, abs_tol=1e-12)

    def test_area_never_exceeds_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = random_box(rng, span=3.0)
            b = random_box(rng, span=3.0)
            inter = polygon_area(clip_polygon(a.corners(), b.corners()))
            assert inter <= min(a.w * a.h, b.w * b.h) + 1e-12


class TestIou:
    def test_identical_boxes(self):
        b = RotatedBox(2, -1, 3, 5, 0.7)
        assert iou(b, b) >= 1.0 - 1e-9

    def test_offset_squares_third(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(1, 0, 2, 2, 0)
        assert math.isclose(iou(a, b), 1.0 / 3.0, abs_tol=1e-9)

    def test_square_vs_rotated_45(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(0, 0, 2, 2, math.pi / 4)
        octagon = 8 * (math.sqrt(2) - 1)
        expect = octagon / (8 - octagon)
        assert math.isclose(iou(a, b), expect, abs_tol=1e-9)
        assert math.isclose(expect, 0.7071, abs_tol=1e-4)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_box(rng, 3.0), random_box(rng, 3.0)
            base = iou(a, b)
            dx, dy, rot = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)

            def move(box):
                c, s = math.cos(rot), math.sin(rot)
                return RotatedBox(
                    c * box.cx - s * box.cy + dx,
                    s * box.cx + c * box.cy + dy,
                    box.w,
                    box.h,
                    box.theta + rot,
                )

            assert abs(iou(move(a), move(b)) - base) < 1e-9

    def test_edge_touching_counts_as_zero(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(2, 0, 2, 2, 0)
        assert iou(a, b) == 0.0


class TestMonteCarloIou:
    def test_identical_boxes(self):
        b = RotatedBox(0, 0, 2, 3, 0.4)
        est, _se = mc_iou(b, b, samples=10_000, seed=0)
        assert est == pytest.approx(1.0, abs=0.02)

    def test_disjoint(self):
        est, _se = mc_iou(RotatedBox(0, 0, 1, 1, 0), RotatedBox(9, 9, 1, 1, 0), samples=10_000, seed=1)
        assert est == 0.0

    def test_converges_to_analytic_third(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(1, 0, 2, 2, 0)
        est, se = mc_iou(a, b, samples=1_000_000, seed=2)
        assert abs(est - 1.0 / 3.0) < 3 * max(se, 1e-4)

    def test_agrees_with_analytic_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_box(rng, 2.0), random_box(rng, 2.0)
            est, _se = mc_iou(a, b, samples=200_000, seed=int(rng.integers(1 << 30)))
            assert abs(est - iou(a, b)) < 0.02


class TestNms:
    def test_single_box_kept(self):
        kept = nms([RotatedBox(0, 0, 1, 1, 0)], [0.9])
        assert kept == [0]

    def test_duplicate_keeps_higher_score(self):
        b = RotatedBox(0, 0, 2, 2, 0)
        kept = nms([b, b], [0.5, 0.9], iou_thr=0.5)
        assert kept == [1]

    def test_chain_matches_greedy_reference(self):
        boxes = [
            (RotatedBox(0, 0, 2, 2, 0), 0.9),
            (RotatedBox(1.0, 0, 2, 2, 0), 0.8),
            (RotatedBox(2.0, 0, 2, 2, 0), 0.7),
        ]
        # reference: exhaustive greedy by descending score
        order = sorted(range(3), key=lambda i: -boxes[i][1])
        expect = []
        for i in order:
            if all(iou(boxes[i][0], boxes[j][0]) < 0.2 for j in expect):
                expect.append(i)
        assert nms([b for b, _ in boxes], [s for _, s in boxes], iou_thr=0.2) == expect

    def test_score_tie_breaks_lexicographically(self):
        a = RotatedBox(5, 0, 2, 2, 0)
        b = RotatedBox(0, 0, 2, 2, 0)
        kept = nms([a, b], [0.5, 0.5], iou_thr=0.9)
        assert kept[0] == 1  # lower cx first

    def test_kept_pairwise_below_threshold(self):
        rng = np.random.default_rng(4)
        dets = [(random_box(rng, 3.0), float(rng.uniform())) for _ in range(30)]
        kept = nms([b for b, _ in dets], [s for _, s in dets], iou_thr=0.3)
        for i in kept:
            for j in kept:
                if i != j:
                    assert iou(dets[i][0], dets[j][0]) < 0.3


# ---------------------------------------------------------------------------
# the broadcasting iou against the scalar oracle: equal, not approximately equal

coord = st.floats(-8.0, 8.0, allow_nan=False)
side = st.floats(0.05, 10.0, allow_nan=False)
heading = st.floats(-7.0, 7.0, allow_nan=False)  # beyond (-pi, pi] to exercise wrapping
boxes = st.builds(RotatedBox, coord, coord, side, side, heading)


def row(b):
    return [b.cx, b.cy, b.w, b.h, b.theta]


def assert_matches_oracle(a, b):
    """iou over RotatedBoxes, rows and BoxSets equals the oracle bitwise, both ways round."""
    want = scalar_iou(a, b)
    for x, y in ((a, b), (row(a), row(b)), (BoxSet(a), BoxSet([b])[0])):
        got = iou(x, y)
        assert type(got) is float and got == want
    assert iou(b, a) == want


class TestIouMatchesScalarOracle:
    @given(boxes, boxes)
    def test_random_pairs(self, a, b):
        assert_matches_oracle(a, b)

    @given(st.tuples(coord, coord, side, side, st.floats(-30.0, 30.0)),
           st.tuples(coord, coord, side, side, st.floats(-30.0, 30.0)))
    def test_unwrapped_headings_in_arrays(self, a, b):
        # arrays are wrapped as RotatedBox wraps, before corners and the operand order
        want = scalar_iou(RotatedBox(*a), RotatedBox(*b))
        assert iou(list(a), list(b)) == want
        assert iou(np.array([a, b]), np.array([b, a])).tolist() == [want, want]

    @given(boxes, st.floats(0.0, 0.1), st.sampled_from([0, 1, 2, 3]), st.floats(-0.05, 0.05))
    def test_corner_to_corner_pairs(self, a, shrink, corner, turn):
        # b's corner points back at a's: the boxes overlap, if at all, near the
        # edge of the bounding-circle prefilter
        cx, cy = a.corners()[corner]
        ux, uy = (cx - a.cx) / math.hypot(cx - a.cx, cy - a.cy), (cy - a.cy) / math.hypot(cx - a.cx, cy - a.cy)
        d = math.hypot(a.w, a.h) * (1.0 - shrink)  # the two bounding radii, shrunk
        b = RotatedBox(a.cx + d * ux, a.cy + d * uy, a.w, a.h, a.theta + math.pi + turn)
        assert_matches_oracle(a, b)

    @given(boxes)
    def test_duplicates(self, a):
        assert_matches_oracle(a, a)
        assert_matches_oracle(a, RotatedBox(a.cx, a.cy, a.w, a.h, a.theta + 2.0 * math.pi))

    @given(boxes, boxes, st.integers(1, 4))
    def test_keys_equal_in_their_leading_fields(self, a, b, shared):
        # the canonical operand order compares (cx, cy, w, h, theta) past the shared fields
        b = RotatedBox(*(row(a)[:shared] + row(b)[shared:]))
        assert_matches_oracle(a, b)

    @given(boxes, side, side, st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats(-1.0, 1.0))
    def test_edge_touching_pairs(self, a, w, h, lateral, slide):
        # b shares a's heading and touches its front edge, or its side edge
        c, s = math.cos(a.theta), math.sin(a.theta)
        along, across = (a.h + h) / 2.0, slide * (a.w + w) / 2.0
        if lateral:
            along, across = slide * (a.h + h) / 2.0, lateral * (a.w + w) / 2.0
        b = RotatedBox(a.cx + c * along - s * across, a.cy + s * along + c * across, w, h, a.theta)
        assert_matches_oracle(a, b)

    @given(boxes, side, side, heading, st.floats(-math.pi, math.pi))
    def test_tangent_bounding_circles(self, a, w, h, theta, phi):
        # circles that touch within rounding: numpy's prefilter may disagree with
        # math.hypot, but the boxes can share at most a sliver below the area floor
        reach = 0.5 * math.hypot(a.w, a.h) + 0.5 * math.hypot(w, h)
        b = RotatedBox(a.cx + reach * math.cos(phi), a.cy + reach * math.sin(phi), w, h, theta)
        assert_matches_oracle(a, b)
        assert iou(a, b) == 0.0

    @given(st.lists(st.sampled_from([-MAX_SIZE_CODE, MAX_SIZE_CODE, 0.0]), min_size=4, max_size=4),
           st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), heading)
    def test_size_code_extremes(self, sizes, offsets, theta):
        codes = [[offsets[0], offsets[1], sizes[0], sizes[1], math.sin(theta), math.cos(theta)],
                 [offsets[2], offsets[3], sizes[2], sizes[3], 0.0, 1.0]]
        a, b = (RotatedBox(*r) for r in decode_boxes([[0.0, 0.0, 2.0, 4.0, 0.0]] * 2, codes).tolist())
        assert_matches_oracle(a, b)

    @given(boxes, st.lists(boxes, max_size=6))
    def test_one_box_against_a_set(self, a, others):
        got = iou(row(a), np.reshape([row(b) for b in others], (-1, 5)))
        assert got.shape == (len(others),)
        assert got.tolist() == [scalar_iou(a, b) for b in others]
        assert iou(a, others).tolist() == got.tolist()

    @given(st.lists(boxes, max_size=5), st.lists(boxes, max_size=5))
    def test_outer_broadcast(self, xs, ys):
        a = np.reshape([row(b) for b in xs], (-1, 1, 5))
        b = np.reshape([row(b) for b in ys], (1, -1, 5))
        got = iou(a, b)
        assert got.shape == (len(xs), len(ys))
        assert got.tolist() == [[scalar_iou(x, y) for y in ys] for x in xs]
        assert iou(BoxSet(xs)[:, None], BoxSet(ys)[None]).tolist() == got.tolist()

    def test_empty_sets(self):
        assert iou(np.zeros((0, 5)), [0.0, 0.0, 1.0, 1.0, 0.0]).shape == (0,)
        assert iou(BoxSet([])[:, None], [RotatedBox(0, 0, 1, 1, 0)] * 3).shape == (0, 3)
        assert iou(np.ones((2, 1, 5)), np.ones((1, 0, 5))).shape == (2, 0)

    def test_rejects_a_bad_shape_or_side(self):
        with pytest.raises(ValueError, match=r"\[\.\.\., 5\]"):
            iou(np.ones(4), np.ones(5))
        with pytest.raises(ValueError, match="positive"):
            BoxSet([[0.0, 0.0, 0.0, 1.0, 0.0]])

    @given(st.lists(st.tuples(boxes, st.sampled_from([0.2, 0.5, 0.9])), max_size=12),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_nms_matches_greedy_oracle(self, dets, thr):
        # few distinct scores, so the tie-break decides often
        assert nms([b for b, _ in dets], [s for _, s in dets], thr) == greedy_nms(dets, thr)


# ---------------------------------------------------------------------------
# the clip-free bound: never below the oracle, and 0 across a separating box axis


def assert_bounds_oracle(a, b):
    want = scalar_iou(a, b)
    for x, y in ((a, b), (b, a)):
        assert float(iou_bound(x, y)) >= want, (x, y, want)
    assert iou_bound(BoxSet([a, b]), BoxSet([b, a])).tolist() == [float(iou_bound(a, b)), float(iou_bound(b, a))]


def turned(a, along, across, w, h, theta):
    """A box at (along, across) in a's frame, of sides w and h, turned by theta from a."""
    return RotatedBox(*to_global(along, across, a.cx, a.cy, a.theta), w, h, a.theta + theta)


class TestIouBound:
    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(0)
        a, b = (
            np.column_stack([rng.uniform(-4, 4, (20_000, 2)), rng.uniform(0.1, 6, (20_000, 2)), rng.uniform(-7, 7, 20_000)])
            for _ in range(2)
        )
        bound, got = iou_bound(a, b), iou(a, b)
        assert (bound >= got).all()
        assert (got >= 0.5).sum() > 20 and ((bound < 0.5) & (got > 0.0)).sum() > 1_000  # both sides are reached
        for i in np.flatnonzero(got > 0.0)[:300]:
            assert_bounds_oracle(RotatedBox(*a[i]), RotatedBox(*b[i]))

    @given(boxes, boxes)
    def test_random_pairs(self, a, b):
        assert_bounds_oracle(a, b)

    @given(boxes, st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), heading)
    def test_identical_and_nested(self, a, fw, fh, u, v, theta):
        assert_bounds_oracle(a, a)
        assert float(iou_bound(a, a)) >= 1.0
        # a box inside a: a smaller box, turned, whose corners stay within a's sides
        w, h = fw * a.w, fh * a.h
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        k = min(a.w / (c * w + s * h), a.h / (s * w + c * h), 1.0)
        along, across = 0.5 * u * (a.h - k * (s * w + c * h)), 0.5 * v * (a.w - k * (c * w + s * h))
        inner = turned(a, along, across, k * w, k * h, theta)
        assert_bounds_oracle(a, inner)

    @given(boxes, side, side, st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats(-1.0, 1.0))
    def test_edge_touching(self, a, w, h, lateral, slide):
        along, across = (a.h + h) / 2.0, slide * (a.w + w) / 2.0
        if lateral:
            along, across = slide * (a.h + h) / 2.0, lateral * (a.w + w) / 2.0
        assert_bounds_oracle(a, turned(a, along, across, w, h, 0.0))

    @given(boxes, st.sampled_from([math.pi / 4, math.pi / 2, -math.pi / 4, 3 * math.pi / 4]),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_quarter_and_eighth_turns(self, a, theta, u, v):
        assert_bounds_oracle(a, turned(a, u * a.h, v * a.w, a.w, a.h, theta))
        assert_bounds_oracle(a, turned(a, u * a.h, v * a.w, a.h, a.w, theta))

    @given(coord, coord, st.floats(0.001, 0.01), heading, st.floats(-0.02, 0.02), st.floats(-0.02, 0.02),
           st.floats(-0.01, 0.01))
    def test_slivers_of_1000_to_1(self, cx, cy, w, theta, along, across, turn):
        a = RotatedBox(cx, cy, w, 1000.0 * w, theta)
        for h in (1000.0 * w, w):  # a sliver against a sliver and against a square of its width
            assert_bounds_oracle(a, turned(a, along * 1000.0 * w, across * w, w, h, turn))
            assert_bounds_oracle(a, turned(a, along * 1000.0 * w, across * w, w, h, math.pi / 2 + turn))

    @given(st.sampled_from([1e6, -1e6]), st.sampled_from([1e6, -1e6]), heading, st.floats(-0.02, 0.02),
           st.floats(-0.02, 0.02), heading)
    def test_centimetre_boxes_a_million_metres_out(self, x, y, theta, dx, dy, phi):
        a = RotatedBox(x, y, 0.01, 0.01, theta)
        assert_bounds_oracle(a, RotatedBox(x + dx, y + dy, 0.01, 0.01, phi))
        assert_bounds_oracle(a, RotatedBox(x + dx, y + dy, 0.005, 0.01, theta))

    @given(boxes, side, side, heading, st.sampled_from([0, 1, 2, 3]), st.floats(1e-6, 5.0), st.floats(-5.0, 5.0))
    def test_zero_across_a_separating_box_axis(self, a, w, h, theta, axis, gap, slide):
        # b clears a's side along one of a's four axis directions by gap; both orders are checked
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        reach = (a.h + c * h + s * w) / 2.0 if axis % 2 == 0 else (a.w + s * h + c * w) / 2.0
        along, across = (reach + gap) * (1 if axis < 2 else -1), slide
        if axis % 2:
            along, across = across, along
        b = turned(a, along, across, w, h, theta)
        assert scalar_iou(a, b) == 0.0
        assert float(iou_bound(a, b)) == 0.0 and float(iou_bound(b, a)) == 0.0


class TestNearPairs:
    @pytest.mark.parametrize("n", [0, 1, 2, 300])
    def test_every_pair_whose_circles_meet(self, n):
        rng = np.random.default_rng(n)
        rows = np.column_stack([rng.uniform(-20, 20, (n, 2)), rng.uniform(0.5, 6, (n, 2)), rng.uniform(-4, 4, n)])
        rows[1::7, 0] = rows[::7, 0][: len(rows[1::7])]  # ties in x
        i, j = near_pairs(rows)
        assert (i < j).all()
        r = BoxSet(rows).data[:, 5]
        meet = np.hypot(*(rows[:, None, :2] - rows[None, :, :2]).transpose(2, 0, 1)) <= r[:, None] + r[None]
        assert sorted(zip(i.tolist(), j.tolist())) == list(zip(*np.nonzero(np.triu(meet, 1))))
