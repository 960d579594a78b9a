"""Rotated rectangles in the BEV plane: the planar frame map, corners, clipping, IoU and NMS.

Box sets are ``[..., 5]`` arrays of (cx, cy, w, h, theta); ``iou`` broadcasts
over them and clips only the pairs whose bounding circles meet.
``iou_bound`` bounds ``iou`` from above without clipping, and
``near_pairs`` lists a set's pairs whose bounding circles may meet without
an N x N array, so a caller that only asks whether an IoU reaches a
threshold clips only the pairs the bound leaves open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Intersections thinner than this are treated as empty so that edge-touching
# boxes never register as overlapping.
MIN_INTERSECTION_AREA = 1e-12
_HYPOT_TOL = 1e-12  # relative; see iou
# relative to the coordinates' magnitude: covers the rounding of the clip
# and of the bounds; see iou_bound and near_pairs
_BOUND_TOL = 1e-12


def wrap_angle(theta):
    """Normalize an angle into (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


def to_local(x, y, ox, oy, heading):
    """Coordinates of the point (x, y) in the frame with origin (ox, oy) turned by ``heading``.

    Floats or arrays. Inverse of :func:`to_global`; every ego<->world and
    box-frame map in the package goes through this pair.
    """
    c, s = math.cos(heading), math.sin(heading)
    dx, dy = x - ox, y - oy
    return c * dx + s * dy, -s * dx + c * dy


def to_global(x, y, ox, oy, heading):
    """The point given in the frame with origin (ox, oy) turned by ``heading``, in the outer frame."""
    c, s = math.cos(heading), math.sin(heading)
    return c * x - s * y + ox, s * x + c * y + oy


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


class BoxSet:
    """Boxes as a ``[..., 5]`` array of (cx, cy, w, h, theta), with each box's
    bounding radius, area and corners computed once.

    Built from a RotatedBox, a list of them or an array-like; thetas are
    wrapped as RotatedBox wraps them. Indexing selects boxes over the leading
    axes, like the array, and shares what was computed. ``data`` holds each
    box's five numbers, radius, area, its index into the ``rows`` and
    ``corners`` tuples, which the scalar clipping of :func:`iou` reads, and
    the cosine and sine of its heading.
    Tuples of floats, unlike lists, drop out of the cyclic GC's scans.
    """

    def __init__(self, boxes):
        if isinstance(boxes, RotatedBox):
            boxes = [boxes.cx, boxes.cy, boxes.w, boxes.h, boxes.theta]
        elif isinstance(boxes, (list, tuple)) and (not boxes or isinstance(boxes[0], RotatedBox)):
            boxes = np.reshape([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes], (-1, 5))
        arr = np.array(boxes, dtype=np.float64)
        if arr.shape[-1:] != (5,):
            raise ValueError(f"boxes must be a [..., 5] array, got shape {arr.shape}")
        if not (arr[..., 2:4] > 0.0).all():
            raise ValueError("box sides must be positive")
        flat = arr.reshape(-1, 5)
        t = np.fmod(flat[:, 4], 2.0 * math.pi)  # wrap_angle, elementwise
        flat[:, 4] = np.where(t <= -math.pi, t + 2.0 * math.pi, np.where(t > math.pi, t - 2.0 * math.pi, t))
        self.rows = tuple(map(tuple, flat.tolist()))
        # math, not numpy, so radii and corners are bitwise those of RotatedBox
        trig = np.array([(0.5 * math.hypot(w, h), math.cos(th), math.sin(th)) for _, _, w, h, th in self.rows])
        radius, c, s = trig.reshape(-1, 3).T
        cx, cy, w, h, _theta = flat.T
        ux, uy = c * h / 2.0, s * h / 2.0  # longitudinal half axis
        vx, vy = -s * w / 2.0, c * w / 2.0  # lateral half axis
        corners = np.stack([
            cx + ux + vx, cy + uy + vy, cx - ux + vx, cy - uy + vy,
            cx - ux - vx, cy - uy - vy, cx + ux - vx, cy + uy - vy,
        ], axis=-1).tolist()
        self.corners = tuple(tuple(zip(c[0::2], c[1::2])) for c in corners)
        index = np.arange(len(flat))
        self.data = np.column_stack([flat, radius, w * h, index, c, s]).reshape(arr.shape[:-1] + (10,))

    def __getitem__(self, key):
        sub = object.__new__(BoxSet)
        sub.rows, sub.corners, sub.data = self.rows, self.corners, self.data[key]
        return sub


def iou(a, b):
    """Intersection over union of rotated boxes, in [0, 1], broadcast like a ufunc.

    ``a`` and ``b`` are each a RotatedBox, a ``[..., 5]`` array or a BoxSet;
    two single boxes give a float. The bounding-circle prefilter runs over
    the whole broadcast in numpy; each pair that passes it is clipped as one
    scalar Sutherland-Hodgman polygon, so every value is bitwise that of the
    pairwise computation (``tests/oracles.py``).
    """
    a, b = (x if isinstance(x, BoxSet) else BoxSet(x) for x in (a, b))
    da, db = a.data, b.data
    dx = da[..., 0] - db[..., 0]
    dy = da[..., 1] - db[..., 1]
    shape = dx.shape
    dx, dy, reach = dx.ravel(), dy.ravel(), (da[..., 5] + db[..., 5]).ravel()
    dist = np.hypot(dx, dy)
    # np.hypot can differ from math.hypot by an ulp, so math.hypot decides near the edge
    near = np.flatnonzero(np.abs(dist - reach) <= _HYPOT_TOL * reach)
    if len(near):
        dist[near] = [math.hypot(x, y) for x, y in zip(dx[near].tolist(), dy[near].tolist())]
    hit = np.flatnonzero(~(dist > reach))
    out = np.zeros(dist.shape)
    if len(hit):
        n = len(b.rows)
        ia, ib = np.divmod((da[..., 7] * n + db[..., 7]).ravel()[hit].astype(np.int64), n)
        out[hit] = [
            _pair_iou(a.rows[i], a.corners[i], b.rows[j], b.corners[j]) for i, j in zip(ia.tolist(), ib.tolist())
        ]
    return out.reshape(shape) if shape else float(out[0])


def iou_bound(a, b):
    """An upper bound on :func:`iou` that clips nothing, broadcast like it.

    A box's intersection with the other lies within either box and within
    its overlap with the other's bounding rectangle in its own frame (the
    separating-axis test along the four box axes, as in OBBTree). Each side
    of that overlap gets a slack of ``_BOUND_TOL`` times the pair's
    coordinate magnitude, and the area its square, so the bound stays above
    the value the clip computes with rounding. A pair separated along a box
    axis by more than that slack reads 0.
    """
    a, b = (x if isinstance(x, BoxSet) else BoxSet(x) for x in (a, b))
    da, db = a.data, b.data
    dx, dy = db[..., 0] - da[..., 0], db[..., 1] - da[..., 1]
    scale = np.maximum(np.abs(da[..., :2]).max(axis=-1), np.abs(db[..., :2]).max(axis=-1)) + da[..., 5] + db[..., 5]
    slack = _BOUND_TOL * scale
    ca, sa, cb, sb = da[..., 8], da[..., 9], db[..., 8], db[..., 9]
    rc, rs = np.abs(ca * cb + sa * sb), np.abs(ca * sb - sa * cb)  # of the heading difference

    def overlap(side, extent, offset):  # of two intervals of these lengths whose centres lie offset apart
        return np.maximum(np.minimum(np.minimum(side, extent), 0.5 * (side + extent) - np.abs(offset)) + slack, 0.0)

    inter = np.minimum(da[..., 6], db[..., 6])
    for p, q, c, s in ((da, db, ca, sa), (db, da, cb, sb)):
        # p's sides against the sides of q's bounding rectangle in p's frame
        along = overlap(p[..., 3], rc * q[..., 3] + rs * q[..., 2], c * dx + s * dy)
        across = overlap(p[..., 2], rs * q[..., 3] + rc * q[..., 2], c * dy - s * dx)
        inter = np.minimum(inter, along * across)
    inter = np.where(inter > 0.0, inter + slack * scale, 0.0)
    union = da[..., 6] + db[..., 6] - inter
    return np.divide(inter, union, out=np.full(inter.shape, np.inf), where=union > 0.0)


def near_pairs(boxes):
    """Index arrays ``(i, j)``, ``i < j``, of the pairs of a flat box set whose bounding circles may meet.

    Every pair that :func:`iou` clips is among them. One stable sort of the
    left ends of the x-extents and one ``searchsorted`` list the pairs whose
    x-extents overlap, so no N x N array is built; their circles then
    decide. Each radius is widened by ``_BOUND_TOL`` of the box's coordinate
    magnitude, so rounding never drops a pair.
    """
    boxes = boxes if isinstance(boxes, BoxSet) else BoxSet(boxes)
    d = boxes.data
    r = d[:, 5] + _BOUND_TOL * (np.abs(d[:, 0]) + np.abs(d[:, 1]) + d[:, 5])
    by_lo = np.argsort(d[:, 0] - r, kind="stable")
    cx, cy, r = d[by_lo, 0], d[by_lo, 1], r[by_lo]
    # sorted position k overlaps the counts[k] positions after it
    past = np.arange(1, len(d) + 1)
    counts = np.searchsorted(cx - r, cx + r, side="right") - past
    first = np.repeat(past - 1, counts)
    second = np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts - past, counts)
    near = np.hypot(cx[first] - cx[second], cy[first] - cy[second]) <= r[first] + r[second]
    i, j = by_lo[first[near]], by_lo[second[near]]
    return np.minimum(i, j), np.maximum(i, j)


def _pair_iou(a, a_corners, b, b_corners):
    """IoU of one pair of boxes given as (cx, cy, w, h, theta) lists and their corners."""
    # canonical operand order makes the computation bitwise symmetric
    if b < a:
        clipped = clip_polygon(b_corners, a_corners)
    else:
        clipped = clip_polygon(a_corners, b_corners)
    inter = polygon_area(clipped)
    if not inter > MIN_INTERSECTION_AREA:
        return 0.0
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def nms(boxes, scores, iou_thr=0.1):
    """Greedy non-maximum suppression over boxes and their scores.

    Returns indices of the kept boxes in descending score order; score ties
    break toward lower (cx, cy, theta). Each kept box suppresses the later
    live boxes it overlaps at ``iou_thr`` or more, one ``iou`` row at a time,
    so only pairs of a kept box and a box still alive are ever clipped.
    """
    boxes = boxes if isinstance(boxes, BoxSet) else BoxSet(boxes)
    d = boxes.data
    order = np.lexsort((d[:, 4], d[:, 1], d[:, 0], -np.asarray(scores, dtype=np.float64)))
    kept = []
    while len(order):
        i, order = order[0], order[1:]
        kept.append(int(i))
        order = order[iou(boxes[i], boxes[order]) < iou_thr]
    return kept
