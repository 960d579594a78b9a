import math

import numpy as np
import pytest

from bevtrack.geom import (
    RotatedBox,
    clip_polygon,
    iou,
    nms,
    polygon_area,
    wrap_angle,
)
from oracles import mc_iou


def random_box(rng, span=10.0):
    return RotatedBox(
        cx=rng.uniform(-span, span),
        cy=rng.uniform(-span, span),
        w=rng.uniform(0.5, 6.0),
        h=rng.uniform(0.5, 6.0),
        theta=rng.uniform(-math.pi, math.pi),
    )


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
            assert inter <= min(a.area, b.area) + 1e-12


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
        kept = nms([(RotatedBox(0, 0, 1, 1, 0), 0.9)])
        assert kept == [0]

    def test_duplicate_keeps_higher_score(self):
        b = RotatedBox(0, 0, 2, 2, 0)
        kept = nms([(b, 0.5), (b, 0.9)], iou_thr=0.5)
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
        assert nms(boxes, iou_thr=0.2) == expect

    def test_score_tie_breaks_lexicographically(self):
        a = RotatedBox(5, 0, 2, 2, 0)
        b = RotatedBox(0, 0, 2, 2, 0)
        kept = nms([(a, 0.5), (b, 0.5)], iou_thr=0.9)
        assert kept[0] == 1  # lower cx first

    def test_kept_pairwise_below_threshold(self):
        rng = np.random.default_rng(4)
        dets = [(random_box(rng, 3.0), float(rng.uniform())) for _ in range(30)]
        kept = nms(dets, iou_thr=0.3)
        for i in kept:
            for j in kept:
                if i != j:
                    assert iou(dets[i][0], dets[j][0]) < 0.3
