"""Output checks computed apart from bevtrack.

Each check returns a list of problems (empty when the output passes), so
one run can report every failure at once. Nothing here calls the program's
own convolution, IoU, voxel transform or tracker; the workloads feed in the
program's outputs and the inputs they came from.
"""

from __future__ import annotations

import math

import numpy as np

# -- network ------------------------------------------------------------------


def _conv(x, w, b, pad):
    """Cross-correlation as a sum of shifted slices; x is [C, *spatial-with-time]."""
    kh, kw = w.shape[-2:]
    if pad:
        x = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)])
    oh, ow = x.shape[-2] - kh + 1, x.shape[-1] - kw + 1
    if w.ndim == 5:  # [Co, Ci, kT, kH, kW] over x [Ci, T, H, W]
        kt = w.shape[2]
        ot = x.shape[1] - kt + 1
        y = np.zeros((w.shape[0], ot, oh, ow))
        for dt in range(kt):
            for i in range(kh):
                for j in range(kw):
                    xs = x[:, dt : dt + ot, i : i + oh, j : j + ow]
                    y += np.tensordot(w[:, :, dt, i, j], xs, axes=(1, 0))
        return y + b[:, None, None, None]
    y = np.zeros((w.shape[0], oh, ow))
    for i in range(kh):
        for j in range(kw):
            y += np.tensordot(w[:, :, i, j], x[:, i : i + oh, j : j + ow], axes=(1, 0))
    return y + b[:, None, None]


def _pool2(x):
    c, h, w = x.shape
    x = x[:, : h // 2 * 2, : w // 2 * 2]
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def reference_forward(params, occupancy, n_anchors, n_out, code_size=6):
    """Late-fusion trunk and heads, read off the parameter names and shapes.

    Convolutions ``g<group>.c<index>`` run in order (3D while their weights
    are 5D, each shrinking time by kT - 1), with ReLU after each and a 2x2
    max-pool after the last conv of every group but the last. Returns
    (cls probabilities [K, I, J], reg codes [K, n_out, code, I, J]).
    """
    convs = sorted(
        {tuple(int(p[1:]) for p in k.split(".")[:2]) for k in params if k.startswith("g")}
    )
    last_in_group = {}
    for g, c in convs:
        last_in_group[g] = max(last_in_group.get(g, 0), c)
    x = occupancy.transpose(1, 0, 2, 3)  # [Z, T, X, Y]
    for g, c in convs:
        w, b = params[f"g{g}.c{c}.w"], params[f"g{g}.c{c}.b"]
        x = np.maximum(_conv(x, w, b, pad=1), 0.0)
        if x.ndim == 4 and x.shape[1] == 1:
            x = x[:, 0]
        if c == last_in_group[g] and g != max(last_in_group):
            x = _pool2(x)

    def head(branch):
        h = np.maximum(_conv(x, params[f"head.{branch}.c.w"], params[f"head.{branch}.c.b"], 1), 0.0)
        return _conv(h, params[f"head.{branch}.p.w"], params[f"head.{branch}.p.b"], 0)

    cls = 1.0 / (1.0 + np.exp(-head("cls")))
    reg = head("reg")
    return cls, reg.reshape(n_anchors, n_out, code_size, *reg.shape[1:])


def close_relative(name, got, want, rtol=1e-9):
    """Max deviation within rtol of the reference's largest magnitude."""
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    scale = max(float(np.max(np.abs(want))), 1e-300)
    dev = float(np.max(np.abs(got - want)))
    if not dev <= rtol * scale:
        return [f"{name}: max deviation {dev:.3e} exceeds {rtol:g} x {scale:.3e}"]
    return []


# -- gradient -----------------------------------------------------------------


def directional_derivative(loss_at, params, direction, eps):
    """Central finite difference of loss_at along direction (dict of arrays)."""
    plus = {k: v + eps * direction[k] for k, v in params.items()}
    minus = {k: v - eps * direction[k] for k, v in params.items()}
    return (loss_at(plus) - loss_at(minus)) / (2.0 * eps)


def gradient_matches(fd, grads, direction, rtol=1e-5):
    """The tape gradient dotted with direction equals the finite difference."""
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in direction)
    if not math.isfinite(fd) or abs(fd - analytic) > rtol * max(abs(fd), abs(analytic), 1e-12):
        return [f"gradient: directional derivative {analytic:.9g} vs finite difference {fd:.9g}"]
    return []


# -- voxels -------------------------------------------------------------------


def _se2(tx, ty, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, tx], [s, c, ty], [0.0, 0.0, 1.0]])


def occupied_cells(history, x_range, y_range, z_range, cell):
    """Distinct in-range (slice, z, x, y) cells of a frame history.

    ``history`` is [(points [N,3], (tx, ty, yaw))], oldest first; every
    frame is mapped into the newest frame's ego coordinates by composing
    homogeneous SE(2) matrices.
    """
    cur_from_world = np.linalg.inv(_se2(*history[-1][1]))
    shape = tuple(
        int(round((hi - lo) / cell)) for lo, hi in (z_range, x_range, y_range)
    )
    total = 0
    for points, pose in history:
        m = cur_from_world @ _se2(*pose)
        xy = points[:, :2] @ m[:2, :2].T + m[:2, 2]
        idx = np.floor(
            (np.column_stack([points[:, 2], xy]) - [z_range[0], x_range[0], y_range[0]]) / cell
        ).astype(np.int64)
        ok = np.all((idx >= 0) & (idx < shape), axis=1)
        total += len({tuple(r) for r in idx[ok]})
    return total


# -- boxes ----------------------------------------------------------------------


def _corners(b):
    """[P,4,2] corners of boxes [P,5] = (cx, cy, w, h, theta); h runs along theta."""
    c, s = np.cos(b[:, 4]), np.sin(b[:, 4])
    lon = np.stack([c, s], axis=1) * (b[:, 3:4] / 2.0)
    lat = np.stack([-s, c], axis=1) * (b[:, 2:3] / 2.0)
    ctr = b[:, None, :2]
    signs = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    return ctr + signs[None, :, :1] * lon[:, None] + signs[None, :, 1:] * lat[:, None]


def _inside(pts, b, slack=1e-12):
    """[P,n] whether pts [P,n,2] lie in boxes b [P,5] (closed)."""
    c, s = np.cos(b[:, 4])[:, None], np.sin(b[:, 4])[:, None]
    dx, dy = pts[..., 0] - b[:, None, 0], pts[..., 1] - b[:, None, 1]
    lon, lat = c * dx + s * dy, -s * dx + c * dy
    return (np.abs(lon) <= b[:, None, 3] / 2 + slack) & (np.abs(lat) <= b[:, None, 2] / 2 + slack)


def pairwise_iou(a, b):
    """IoU of box pairs a[p], b[p] as the hull of corners-inside and edge crossings.

    The intersection of two convex polygons is the convex polygon spanned by
    each one's corners inside the other plus all edge-edge crossings; its
    vertices are ordered by angle about their mean and summed by the shoelace
    formula. A different construction from the program's polygon clipping.
    """
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    ca, cb = _corners(a), _corners(b)
    ra, rb = np.roll(ca, -1, axis=1) - ca, np.roll(cb, -1, axis=1) - cb
    # edge i of a against edge j of b: ca_i + t ra_i = cb_j + u rb_j
    q = cb[:, None, :, :] - ca[:, :, None, :]
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    den = cross(ra[:, :, None, :], rb[:, None, :, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross(q, rb[:, None, :, :]) / den
        u = cross(q, ra[:, :, None, :]) / den
    hit = (den != 0) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    xpts = ca[:, :, None, :] + np.where(hit, t, 0.0)[..., None] * ra[:, :, None, :]
    pts = np.concatenate([ca, cb, xpts.reshape(len(a), 16, 2)], axis=1)
    ok = np.concatenate([_inside(ca, b), _inside(cb, a), hit.reshape(len(a), 16)], axis=1)
    n = ok.sum(axis=1)
    mean = (pts * ok[..., None]).sum(axis=1) / np.maximum(n, 1)[:, None]
    ang = np.where(ok, np.arctan2(pts[..., 1] - mean[:, None, 1], pts[..., 0] - mean[:, None, 0]), np.inf)
    order = np.argsort(ang, axis=1)
    ps = np.take_along_axis(pts, order[..., None], axis=1)
    k = np.arange(pts.shape[1])
    nxt = np.where(k[None] + 1 < n[:, None], k[None] + 1, 0)
    pn = np.take_along_axis(ps, nxt[..., None], axis=1)
    terms = np.where(k[None] < n[:, None], cross(ps, pn), 0.0)
    inter = np.where(n >= 3, np.abs(terms.sum(axis=1)) / 2.0, 0.0)
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return inter / union


def box_array(boxes):
    return np.array([[b.cx, b.cy, b.w, b.h, b.theta] for b in boxes], dtype=float).reshape(-1, 5)


def nms_problems(arr, scores, score_thr, nms_thr, tol=1e-9):
    """Kept scores reach the threshold; no kept pair of boxes arr [n,5] overlaps at nms_thr or more."""
    problems = [f"kept score {s!r} below threshold {score_thr}" for s in scores if not s >= score_thr]
    if len(arr) < 2:
        return problems
    i, j = np.triu_indices(len(arr), k=1)
    reach = np.hypot(arr[:, 2], arr[:, 3]) / 2
    near = np.hypot(*(arr[i, :2] - arr[j, :2]).T) <= reach[i] + reach[j]
    i, j = i[near], j[near]
    if len(i):
        v = pairwise_iou(arr[i], arr[j])
        for a, b, x in zip(i[v >= nms_thr + tol], j[v >= nms_thr + tol], v[v >= nms_thr + tol]):
            problems.append(f"kept boxes {a} and {b} overlap with IoU {x:.6f} >= {nms_thr}")
    return problems


def same_box(got, want, tol=1e-9):
    """Centre, sides and heading (mod 2 pi) agree to tol."""
    d = [got.cx - want.cx, got.cy - want.cy, got.w - want.w, got.h - want.h]
    dth = math.remainder(got.theta - want.theta, 2.0 * math.pi)
    return all(abs(x) <= tol for x in d) and abs(dth) <= tol


def boxes_match(frame, got, want, tol=1e-9):
    """Two box lists equal as sets, each box to tol."""
    if len(got) != len(want):
        return [f"frame {frame}: {len(got)} boxes decoded for {len(want)} ground-truth boxes"]
    left = list(want)
    for g in got:
        hit = next((k for k, w in enumerate(left) if same_box(g, w, tol)), None)
        if hit is None:
            return [f"frame {frame}: decoded box {g} matches no ground-truth box"]
        left.pop(hit)
    return []


# -- tracks ---------------------------------------------------------------------


def track_problems(records, max_coast):
    """Track ids are unique within a frame; no track coasts longer than max_coast.

    ``records`` are (frame, track_id, status) tuples.
    """
    problems = []
    seen = {}
    for frame, tid, status in records:
        if (frame, tid) in seen:
            problems.append(f"frame {frame}: track id {tid} emitted twice")
        seen[(frame, tid)] = status
    run = {}
    for frame, tid in sorted(seen):
        coasting = seen[(frame, tid)] == "coasting"
        prev = run.get(tid)
        n = prev[1] + 1 if coasting and prev and prev[0] == frame - 1 else int(coasting)
        run[tid] = (frame, n)
        if n > max_coast:
            problems.append(f"track {tid} coasts {n} frames (at most {max_coast}) at frame {frame}")
    return problems
