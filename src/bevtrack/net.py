"""Anchor-based single-stage BEV network with early/late temporal fusion.

The trunk is a halved-width VGG-style stack of 10 convolutions in groups of
(2, 2, 3, 3) with 2x2 max-pooling after the first three groups (total stride
8). Late fusion replaces the leading convolutions of the first group with
unpadded-in-time 3D convolutions that collapse the temporal extent to 1;
early fusion collapses it immediately with a shared temporal weight vector.
Two sibling heads predict per-anchor vehicle probability and a 6-vector
regression code for the current frame and each future timestamp. In every
mode the first layer runs as the one conv3d, over the occupancy (early
fusion's kernel is the spatial kernel times the temporal weights), so its
cost follows the occupied voxels. Training and inference run the first
SPARSE_GROUPS groups on a ``tensor.SparseField``, through conv3d, so they
too compute only the cells the occupied voxels reach; late fusion's second
layer, when frames remain, collapses them with a 5D kernel. The field is
written out once, before the first dense layer (or the heads), and every
later layer is a conv2d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensor as T
from .geom import BoxSet, RotatedBox, nms
from .voxel import GridSpec, InputTensor

STRIDE = 8
GROUP_SIZES = (2, 2, 3, 3)
# The first groups run on the cells an occupied voxel reaches, in training and inference:
# about 6.5% of the cells after g1 and 20% after g2 on a 48x32 m scene, but
# 65% after g3, where little work would be skipped.
SPARSE_GROUPS = 2
CODE_SIZE = 6  # (l_x, l_y, s_w, s_h, a_sin, a_cos)
MAX_SIZE_CODE = math.log(1000.0)  # decoded sides stay within 1000x of the anchor's

# (size in meters, lateral:longitudinal aspect) for the predefined boxes;
# size is the area-equivalent side sqrt(w*h).
DEFAULT_ANCHOR_SPECS = (
    (5.0, 1.0),
    (5.0, 2.0),
    (5.0, 0.5),
    (5.0, 6.0),
    (5.0, 1.0 / 6.0),
    (8.0, 1.0),
)


@dataclass
class ModelConfig:
    grid: GridSpec
    n_in: int = 5
    n_out: int = 5
    fusion: str = "late"
    widths: tuple[int, ...] = (32, 64, 128, 256)
    head_width: int = 0  # 0 means "same as the last trunk width"
    anchor_specs: tuple[tuple[float, float], ...] = DEFAULT_ANCHOR_SPECS

    def __post_init__(self):
        if self.n_in < 1:
            raise ValueError("n_in must be >= 1")
        if self.n_out < 1:
            raise ValueError("n_out must be >= 1")
        if self.fusion not in ("early", "late"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}")
        if len(self.widths) != len(GROUP_SIZES):
            raise ValueError(f"widths must have {len(GROUP_SIZES)} entries")
        if min(self.widths) < 1:
            raise ValueError(f"every trunk width must be >= 1, got {tuple(self.widths)}")
        if self.head_width < 0:
            raise ValueError(f"head_width must be >= 0 (0: the last trunk width), got {self.head_width}")
        if self.grid.nx % STRIDE or self.grid.ny % STRIDE:
            raise ValueError(
                f"grid {self.grid.nx}x{self.grid.ny} not divisible by total stride {STRIDE}"
            )
        if len(self.temporal_kernels()) > GROUP_SIZES[0]:
            raise ValueError(f"n_in={self.n_in} needs more temporal layers than the first group holds")
        self.widths = tuple(int(w) for w in self.widths)
        self.anchor_specs = tuple((float(s), float(r)) for s, r in self.anchor_specs)
        if not self.anchor_specs:
            raise ValueError("anchor_specs must hold at least one (size, ratio) pair")
        for spec in self.anchor_specs:
            if not all(math.isfinite(v) and v > 0.0 for v in spec):
                raise ValueError(f"anchor spec {list(spec)} needs a finite size and ratio > 0")

    @property
    def num_anchors(self):
        return len(self.anchor_specs)

    @property
    def feat_shape(self):
        return self.grid.nx // STRIDE, self.grid.ny // STRIDE

    def temporal_kernels(self):
        """Kernel sizes of the late-fusion temporal-collapse layers."""
        kernels = []
        extent = self.n_in
        while extent > 1:
            k = min(3, extent)
            kernels.append(k)
            extent -= k - 1
        return tuple(kernels)


@dataclass
class AnchorGrid:
    """Predefined zero-heading boxes, one set of K per feature location."""

    shape: tuple  # (K, I, J)
    array: np.ndarray  # [N, 5] (cx, cy, w, h, theta), row = (k * I + i) * J + j

    @cached_property
    def box_set(self):
        """``array`` as a BoxSet, built on first use and shared by every sample."""
        return BoxSet(self.array)


def build_anchors(config: ModelConfig):
    I, J = config.feat_shape
    cell = config.grid.cell * STRIDE
    x0, y0 = config.grid.x_range[0], config.grid.y_range[0]
    rows = []
    for size, ratio in config.anchor_specs:
        w = size / math.sqrt(ratio)
        h = size * math.sqrt(ratio)
        for i in range(I):
            cx = x0 + (i + 0.5) * cell
            for j in range(J):
                cy = y0 + (j + 0.5) * cell
                rows.append((cx, cy, w, h, 0.0))
    return AnchorGrid(shape=(config.num_anchors, I, J), array=np.reshape(rows, (-1, 5)))


@dataclass
class HeadOutput:
    cls: np.ndarray  # [K, I, J] probabilities
    reg: np.ndarray  # [K, n_out, 6, I, J]


@dataclass
class Detection:
    score: float
    boxes: list  # RotatedBox for the current frame and each future timestamp


@dataclass
class DetectionSet:
    frame: int
    detections: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# box <-> regression code


def _by_value(fn, values):
    """``fn`` over an array one value at a time: ``math`` is the same for any batch."""
    return np.reshape([fn(v) for v in values.ravel().tolist()], values.shape)


def encode_boxes(anchors, gts):
    """Regression codes of ``[..., 5]`` ground-truth rows against ``[..., 5]`` anchor rows.

    Returns ``[..., 6]`` codes. log runs through ``math`` value by value, as
    exp does in :func:`decode_boxes`, so a code does not depend on the batch.
    """
    anchors, gts = np.broadcast_arrays(np.asarray(anchors, dtype=np.float64), np.asarray(gts, dtype=np.float64))
    w, h = gts[..., 2], gts[..., 3]
    return np.stack([
        (anchors[..., 0] - gts[..., 0]) / w,
        (anchors[..., 1] - gts[..., 1]) / h,
        _by_value(math.log, anchors[..., 2] / w),
        _by_value(math.log, anchors[..., 3] / h),
        np.sin(gts[..., 4]),
        np.cos(gts[..., 4]),
    ], axis=-1)


def decode_boxes(anchors, codes):
    """Inverse of :func:`encode_boxes` over ``[..., 5]`` anchor rows and ``[..., 6]`` codes.

    The leading axes of anchors and codes broadcast, as in :func:`encode_boxes`.

    Returns a ``[..., 5]`` box array; sizes decode first, then offsets. Size
    codes are clamped to +-MAX_SIZE_CODE so no side overflows or vanishes,
    but an extreme finite offset code still decodes to an infinite center,
    without a warning: :func:`decode` drops such boxes. exp and atan2 run
    through ``math`` value by value: numpy's differ from them in the last
    bit, and decoded boxes must not depend on the batch.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    lead = np.broadcast_shapes(anchors.shape[:-1], codes.shape[:-1])
    anchors, codes = np.broadcast_to(anchors, lead + (5,)), np.broadcast_to(codes, lead + (CODE_SIZE,))
    sizes = np.clip(codes[..., 2:4], -MAX_SIZE_CODE, MAX_SIZE_CODE)
    scale = _by_value(math.exp, -sizes)
    w = anchors[..., 2] * scale[..., 0]
    h = anchors[..., 3] * scale[..., 1]
    theta = np.reshape(
        [math.atan2(s, c) for s, c in zip(codes[..., 4].ravel().tolist(), codes[..., 5].ravel().tolist())],
        w.shape,
    )
    with np.errstate(over="ignore"):
        return np.stack([anchors[..., 0] - codes[..., 0] * w, anchors[..., 1] - codes[..., 1] * h, w, h, theta], axis=-1)


# ---------------------------------------------------------------------------
# parameters


def _xavier(rng, shape, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _conv_specs(config: ModelConfig):
    """(name, weight shape, max-pool after) for every trunk convolution, in forward order."""
    specs = []
    t_kernels = config.temporal_kernels() if config.fusion == "late" else ()
    in_ch = config.grid.nz
    for g, (n_convs, width) in enumerate(zip(GROUP_SIZES, config.widths), start=1):
        for c in range(1, n_convs + 1):
            kt = t_kernels[c - 1 : c] if g == 1 else ()  # (kT,) while frames remain to collapse
            pool = c == n_convs and g < len(GROUP_SIZES)
            specs.append((f"g{g}.c{c}", (width, in_ch, *kt, 3, 3), pool))
            in_ch = width
    return specs


def init_params(config: ModelConfig, seed=0):
    """Deterministic parameter initialization for the given topology."""
    rng = np.random.default_rng(seed)
    params = {}
    if config.fusion == "early":
        params["temporal.w"] = _xavier(rng, (config.n_in,), config.n_in, 1)
    for name, shape, _pool in _conv_specs(config):
        fan_in = int(np.prod(shape[1:]))
        fan_out = shape[0] * int(np.prod(shape[2:]))
        params[f"{name}.w"] = _xavier(rng, shape, fan_in, fan_out)
        params[f"{name}.b"] = np.zeros(shape[0])
    hw = config.head_width or config.widths[-1]
    k = config.num_anchors
    reg_ch = k * config.n_out * CODE_SIZE
    for branch, out_ch in (("cls", k), ("reg", reg_ch)):
        shape = (hw, config.widths[-1], 3, 3)
        params[f"head.{branch}.c.w"] = _xavier(
            rng, shape, int(np.prod(shape[1:])), shape[0] * 9
        )
        params[f"head.{branch}.c.b"] = np.zeros(hw)
        pshape = (out_ch, hw, 1, 1)
        params[f"head.{branch}.p.w"] = _xavier(rng, pshape, hw, out_ch)
        params[f"head.{branch}.p.b"] = np.zeros(out_ch)
    # bias the classification logits low so early hard-negative mining is stable
    params["head.cls.p.b"] -= 4.0
    return params


class Model:
    """Parameter container plus the forward pass for either fusion mode."""

    def __init__(self, config: ModelConfig, params=None, seed=0):
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    def forward(self, inp: InputTensor, tape=None):
        """Run the network; returns (HeadOutput, cls logit Tensor, reg Tensor).

        With a tape the returned Tensors stay differentiable for the loss;
        without one this is a plain inference pass, whose field layers record
        nothing and whose own tape is released, so its buffers are freed as
        soon as the caller drops the results. Both run the first SPARSE_GROUPS
        groups on a ``T.SparseField`` of the occupancy: each layer is its
        background (the network's value on an empty input) plus deltas at the
        cells an occupied voxel reaches, and only those cells are computed.
        After them the field is written out densely. The occupancy may be any
        real-valued array; the voxelizer's is bool, and it is never copied
        densely as float64.
        """
        cfg = self.config
        occ = inp.occupancy
        if occ.ndim != 4 or occ.shape[0] != cfg.n_in:
            raise ValueError(
                f"input must be [T={cfg.n_in}, Z, X, Y], got shape {occ.shape}"
            )
        if occ.shape[1] != cfg.grid.nz or occ.shape[2:] != (cfg.grid.nx, cfg.grid.ny):
            raise ValueError(f"input grid shape {occ.shape[1:]} does not match the config")

        own_tape = tape or T.Tape()
        p = {name: own_tape.parameter(name, v) for name, v in self.params.items()}
        # an inference pass records only its dense layers, on a tape of its own:
        # its field layers read their weights off any tape and build no VJP
        fp = p if tape else {name: T.Tensor(v, name=name) for name, v in self.params.items()}

        # [Z, T, X, Y] view of the constant input: the first layer is a conv3d
        # that reads only its occupied voxels, for every fusion mode
        x = T.SparseField.of(occ.transpose(1, 0, 2, 3))
        for name, _shape, pool in _conv_specs(cfg):
            if name == f"g{SPARSE_GROUPS + 1}.c1":
                x = _written_out(x)
            q = fp if isinstance(x, T.SparseField) else p
            w, b = q[f"{name}.w"], q[f"{name}.b"]
            if name == "g1.c1" and cfg.fusion == "early":
                w = T.temporal_kernel(w, q["temporal.w"])
            if isinstance(x, T.SparseField):
                x = T.conv3d(x, w, b, spatial_pad=1)
            else:
                x = T.conv2d(x, w, b, pad=1)
            x = T.relu(x)
            if pool:
                x = T.maxpool2d(x)
        if isinstance(x, T.SparseField):  # every group ran on the field
            x = _written_out(x)

        def head(branch):
            h = T.conv2d(x, p[f"head.{branch}.c.w"], p[f"head.{branch}.c.b"], pad=1)
            h = T.relu(h)
            return T.conv2d(h, p[f"head.{branch}.p.w"], p[f"head.{branch}.p.b"], pad=0)

        logits = head("cls")
        I, J = cfg.feat_shape
        reg = T.reshape(head("reg"), (cfg.num_anchors, cfg.n_out, CODE_SIZE, I, J))
        out = HeadOutput(cls=T.sigmoid_array(logits.data), reg=reg.data.copy())
        if tape is None:
            own_tape.release()
        return out, logits, reg


def _written_out(field):
    """A field as the [C,H,W] Tensor the dense layers take: every frame has collapsed by now."""
    c, _t, h, w = field.shape
    return T.reshape(T.write_out(field), (c, h, w))


def decode(output: HeadOutput, anchors: AnchorGrid, frame=0, score_thr=0.5, nms_thr=0.1):
    """Threshold, decode and suppress; survivors keep their full forecasts.

    Anchors whose code holds a non-finite value are skipped, and so are those
    whose current-frame box decodes to one. NMS runs on the current-frame
    boxes alone, so only its survivors' forecasts are decoded, and a survivor
    with a non-finite forecast box is dropped.
    """
    if not (0.0 <= score_thr <= 1.0 and 0.0 <= nms_thr <= 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    K, I, J = anchors.shape
    flat_scores = output.cls.reshape(-1)
    finite = np.isfinite(output.reg).all(axis=(1, 2)).reshape(-1)
    idx = np.flatnonzero((flat_scores >= score_thr) & finite)
    if not len(idx):
        return DetectionSet(frame=frame)
    k, i, j = np.unravel_index(idx, (K, I, J))
    codes = output.reg[k, :, :, i, j]  # [candidates, n_out, 6]
    current = decode_boxes(anchors.array[idx], codes[:, 0])
    live = np.flatnonzero(np.isfinite(current).all(axis=1))
    kept = live[nms(current[live], flat_scores[idx[live]], nms_thr)]
    boxes = decode_boxes(anchors.array[idx[kept], None], codes[kept])
    return DetectionSet(frame=frame, detections=[
        Detection(score=float(flat_scores[idx[n]]), boxes=[RotatedBox(*b) for b in rows])
        for n, rows, ok in zip(kept, boxes.tolist(), np.isfinite(boxes).all(axis=(1, 2))) if ok
    ])
