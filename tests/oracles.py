"""Slow reference implementations that the fast paths in bevtrack are tested against."""

import math

import numpy as np

from bevtrack import tensor as T
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


def temporal_group_conv(x, weights):
    """Weighted sum over the leading time axis of [T,C,H,W], weights shared by all channels.

    Early fusion collapsed the frames this way before a dense conv2d; by
    linearity that equals ``conv3d`` with ``tensor.temporal_kernel``, which it
    is the oracle for. Records on the tape like the ops in ``bevtrack.tensor``.
    """
    xd, wd = T._as_array(x), T._as_array(weights)
    if xd.ndim != 4:
        raise T.TensorError(f"temporal_group_conv input must be [T,C,H,W], got {xd.shape}")
    if wd.shape != (xd.shape[0],):
        raise T.TensorError(
            f"temporal weight count {wd.shape} does not match temporal extent {xd.shape[0]}"
        )
    y = np.tensordot(wd, xd, axes=(0, 0))
    return T._node(
        y,
        (x, lambda g: wd[:, None, None, None] * g[None]),
        (weights, lambda g: np.tensordot(xd, g, axes=((1, 2, 3), (0, 1, 2)))),
    )
