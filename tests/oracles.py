"""Slow reference implementations that the fast paths in bevtrack are tested against."""

import math

import numpy as np

from bevtrack.geom import RotatedBox


def mc_iou(a: RotatedBox, b: RotatedBox, samples=1_000_000, seed=0):
    """Monte-Carlo IoU estimate over the joint bounding region.

    Returns (estimate, standard_error). Oracle for the analytic ``geom.iou``.
    """
    pts = np.concatenate([np.asarray(a.corners()), np.asarray(b.corners())])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    rng = np.random.default_rng(seed)
    in_a_total = in_b_total = in_both_total = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1_000_000)
        xy = rng.uniform(lo, hi, size=(n, 2))
        in_a = _contains_batch(a, xy)
        in_b = _contains_batch(b, xy)
        in_a_total += int(in_a.sum())
        in_b_total += int(in_b.sum())
        in_both_total += int((in_a & in_b).sum())
        remaining -= n
    union = in_a_total + in_b_total - in_both_total
    if union == 0:
        return 0.0, 0.0
    est = in_both_total / union
    # binomial error of the hit fraction among union samples
    se = math.sqrt(max(est * (1.0 - est), 1e-30) / union)
    return est, se


def _contains_batch(box: RotatedBox, xy):
    c, s = math.cos(box.theta), math.sin(box.theta)
    dx = xy[:, 0] - box.cx
    dy = xy[:, 1] - box.cy
    lon = c * dx + s * dy
    lat = -s * dx + c * dy
    return (np.abs(lon) <= box.h / 2.0) & (np.abs(lat) <= box.w / 2.0)
