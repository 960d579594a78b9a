"""Rotated rectangles in the BEV plane: corners, clipping, IoU and NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Intersections thinner than this are treated as empty so that edge-touching
# boxes never register as overlapping.
MIN_INTERSECTION_AREA = 1e-12


def wrap_angle(theta):
    """Normalize an angle into (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True)
class RotatedBox:
    """BEV rectangle: center (cx, cy), lateral w, longitudinal h, heading theta.

    At theta = 0 the longitudinal extent h runs along +x and the lateral
    extent w along +y; theta rotates the box counter-clockwise.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.w > 0.0 and self.h > 0.0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def area(self):
        return self.w * self.h

    def corners(self):
        """Four CCW corner points; centroid equals the box center."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        ux, uy = c * self.h / 2.0, s * self.h / 2.0  # longitudinal half axis
        vx, vy = -s * self.w / 2.0, c * self.w / 2.0  # lateral half axis
        return [
            (self.cx + ux + vx, self.cy + uy + vy),
            (self.cx - ux + vx, self.cy - uy + vy),
            (self.cx - ux - vx, self.cy - uy - vy),
            (self.cx + ux - vx, self.cy + uy - vy),
        ]


def polygon_area(vertices):
    """Signed shoelace area; positive for CCW order."""
    if len(vertices) < 3:
        return 0.0
    a = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def clip_polygon(subject, clip):
    """Sutherland-Hodgman intersection of two convex CCW polygons."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        cx0, cy0 = clip[i]
        cx1, cy1 = clip[(i + 1) % n]
        ex, ey = cx1 - cx0, cy1 - cy0
        inputs = output
        output = []
        sx, sy = inputs[-1]
        s_in = ex * (sy - cy0) - ey * (sx - cx0) >= 0.0
        for px, py in inputs:
            p_in = ex * (py - cy0) - ey * (px - cx0) >= 0.0
            if p_in != s_in:
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                if denom != 0.0:
                    t = (ex * (cy0 - sy) - ey * (cx0 - sx)) / denom
                    output.append((sx + t * dx, sy + t * dy))
            if p_in:
                output.append((px, py))
            sx, sy, s_in = px, py, p_in
    return output


def _fast_reject(a: RotatedBox, b: RotatedBox):
    ra = 0.5 * math.hypot(a.w, a.h)
    rb = 0.5 * math.hypot(b.w, b.h)
    return math.hypot(a.cx - b.cx, a.cy - b.cy) > ra + rb


def intersection_area(a: RotatedBox, b: RotatedBox):
    if _fast_reject(a, b):
        return 0.0
    # canonical operand order makes the computation bitwise symmetric
    if (b.cx, b.cy, b.w, b.h, b.theta) < (a.cx, a.cy, a.w, a.h, a.theta):
        a, b = b, a
    inter = clip_polygon(a.corners(), b.corners())
    area = polygon_area(inter)
    return area if area > MIN_INTERSECTION_AREA else 0.0


def iou(a: RotatedBox, b: RotatedBox):
    """Intersection over union of two rotated boxes, in [0, 1]."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def nms(dets, iou_thr=0.1):
    """Greedy non-maximum suppression over (RotatedBox, score) pairs.

    Returns indices into ``dets`` of the kept entries, in descending score
    order. Score ties break toward lower (cx, cy, theta).
    """
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i][1], dets[i][0].cx, dets[i][0].cy, dets[i][0].theta),
    )
    kept = []
    for i in order:
        box = dets[i][0]
        if all(iou(box, dets[j][0]) < iou_thr for j in kept):
            kept.append(i)
    return kept

