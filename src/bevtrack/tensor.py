"""Minimal dense tensor library with reverse-mode automatic differentiation.

Provides exactly the operators the BEV detection networks need: the one
dense convolution (conv2d, [C,H,W] only), the one sparse 3D convolution
(conv3d), the early-fusion kernel, 2x2 max-pooling, relu, the two loss terms,
and Adam. A SparseField holds a background plane plus deltas at sparse sites;
conv3d takes only a field, and conv3d, relu and maxpool2d compute it only
where the sites reach. The background is the same in every frame, so it is
one [C,m,k] plane and each field op runs the ordinary dense op on it. On a
tape a field is two taped tensors, its deltas and its background plane, and
each field op's VJP runs its forward's rules in reverse, so no dense
gradient exists where a field does. Only operands recorded on the tape
receive gradients.
Everything is float64 and single-threaded; tensors are immutable values once
created.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = b"BTCK"
CHECKPOINT_VERSION = 1


class TensorError(ValueError):
    """Raised on shape mismatches, domain violations and tape misuse."""


class Tensor:
    """Dense float64 array recorded (optionally) on a gradient tape."""

    __slots__ = ("data", "tape", "grad", "_parents", "_vjp", "name")

    def __init__(self, data, tape=None, parents=(), vjp=None, name=None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.tape = tape
        self.grad = None
        self._parents = parents
        self._vjp = vjp
        self.name = name
        if tape is not None:
            tape._record(self)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, tape={self.tape is not None})"


class Tape:
    """Ordered record of a forward pass; replayed backward exactly once."""

    def __init__(self):
        self._nodes = []
        self._consumed = False
        self.param_grads = {}

    def _record(self, tensor):
        if self._consumed:
            raise TensorError("tape already consumed by backward()")
        self._nodes.append(tensor)

    def parameter(self, name, value):
        return Tensor(value, tape=self, name=name)

    def release(self):
        """Drop the node list, so the forward's buffers are freed now.

        Each node refers back to the tape, so the list is a reference cycle
        that would otherwise wait for the cyclic GC.
        """
        self._nodes = []


def _result_tape(*tensors):
    tapes = {id(t.tape): t.tape for t in tensors if isinstance(t, Tensor) and t.tape is not None}
    if len(tapes) > 1:
        raise TensorError("operands recorded on different tapes")
    return next(iter(tapes.values())) if tapes else None


def _as_array(x):
    if isinstance(x, SparseField):
        raise TensorError("only conv3d, relu and maxpool2d take a SparseField; write it out with dense() first")
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _links(*operands):
    """(tape, parents, VJP) of a result over ``(operand, grad_fn)`` pairs.

    Off any tape they are (None, (), None). On a tape the parents are the
    operands recorded there, and the VJP calls only their ``grad_fn``s, so no
    gradient is computed for constants or for tensors off the tape. Any
    arguments after the gradient are passed on to each ``grad_fn``.
    """
    tape = _result_tape(*(x for x, _ in operands))
    if tape is None:
        return None, (), None
    taped = [(x, fn) for x, fn in operands if isinstance(x, Tensor) and x.tape is tape]
    return tape, tuple(x for x, _ in taped), lambda g, *shared: [fn(g, *shared) for _, fn in taped]


def _node(y, *operands):
    """Result ``y`` of an op over ``(operand, grad_fn)`` pairs, a plain Tensor off any tape (see :func:`_links`)."""
    return Tensor(y, *_links(*operands))


def backward(loss, tape):
    """Accumulate d(loss)/d(t) for every tensor on the tape.

    Parameter gradients end up in ``tape.param_grads`` keyed by name.
    A second call on the same tape is rejected.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise TensorError("backward() target was not recorded on this tape")
    if tape._consumed:
        raise TensorError("backward() called twice on the same tape")
    if loss.data.size != 1:
        raise TensorError("backward() requires a scalar loss")
    tape._consumed = True

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        if node.grad is None or node._vjp is None:
            continue
        for parent, pgrad in zip(node._parents, node._vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += pgrad
    for node in tape._nodes:
        if node.name is not None:
            tape.param_grads[node.name] = (
                node.grad if node.grad is not None else np.zeros_like(node.data)
            )
    tape.release()
    return tape.param_grads


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def sigmoid_array(d):
    """Logistic function of an array, with no overflow for large |d|."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def relu(x):
    if isinstance(x, SparseField):
        return _relu_field(x)
    xd = _as_array(x)
    return _node(np.maximum(xd, 0.0), (x, lambda g: (xd > 0.0) * g))


def add(a, b):
    ad, bd = _as_array(a), _as_array(b)
    if ad.shape != bd.shape:
        raise TensorError(f"add shape mismatch {ad.shape} vs {bd.shape}")
    return _node(ad + bd, (a, lambda g: g), (b, lambda g: g))


def scale(x, c):
    c = float(c)
    return _node(c * _as_array(x), (x, lambda g: c * g))


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    xd = _as_array(x)
    if int(np.prod(shape)) != xd.size:
        raise TensorError(f"cannot reshape {xd.shape} to {shape}")
    return _node(xd.reshape(shape), (x, lambda g: g.reshape(xd.shape)))


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, weights, bias, pad=0):
    """Cross-correlation of [C_in,H,W] with [C_out,C_in,kH,kW] plus bias.

    Each kernel tap adds one GEMM of its [C_out,C_in] weight slice with a
    contiguous window of the flattened input, zero-padded once, so the output
    rows come out at the padded width and their last kW-1 cells, which wrap
    into the next row, are cropped. A spare row keeps the last tap's window
    inside the input. The VJPs reuse the windows, with the gradient zero in
    the crop.
    """
    xd, wd, bd = _as_array(x), _as_array(weights), _as_array(bias)
    if xd.ndim != 3 or wd.ndim != 4:
        raise TensorError(f"conv2d takes [C,H,W] with [C_out,C_in,kH,kW] weights, got {xd.shape} and {wd.shape}")
    c_out, c_in, kh, kw = wd.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise TensorError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if xd.shape[0] != c_in:
        raise TensorError(f"conv2d channel mismatch: input C={xd.shape[0]}, weights C_in={c_in}")
    if bd.shape != (c_out,):
        raise TensorError(f"conv2d bias must have shape ({c_out},), got {bd.shape}")
    h, w = xd.shape[1:]
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < kh or wp < kw:
        raise TensorError(f"conv2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    oh, ow = hp - kh + 1, wp - kw + 1
    n = oh * wp  # cells in one window, and in the output at the padded width
    xp = np.zeros((c_in, hp + 1, wp))
    xp[:, pad : pad + h, pad : pad + w] = xd
    xp = xp.reshape(c_in, -1)
    taps = [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]
    yp = np.zeros((c_out, n))
    for i, j, s in taps:
        yp += wd[:, :, i, j] @ xp[:, s : s + n]
    y = yp.reshape(c_out, oh, wp)[:, :, :ow] + bd[:, None, None]

    def padded(g):  # the output gradient at the padded width, zero in the crop
        gp = np.zeros((c_out, oh, wp))
        gp[:, :, :ow] = g
        return gp.reshape(c_out, n)

    def grad_x(_g, gp):
        gx = np.zeros_like(xp)
        for i, j, s in taps:
            gx[:, s : s + n] += wd[:, :, i, j].T @ gp
        return gx.reshape(c_in, hp + 1, wp)[:, pad : pad + h, pad : pad + w]

    def grad_w(_g, gp):
        gw = np.empty_like(wd)
        for i, j, s in taps:
            gw[:, :, i, j] = gp @ xp[:, s : s + n].T
        return gw

    # both VJPs read one padded gradient, built per call and dropped with it
    tape, parents, vjp = _links(
        (x, grad_x), (weights, grad_w), (bias, lambda g, _gp: g.reshape(c_out, oh * ow).sum(axis=1))
    )
    return Tensor(y, tape, parents, vjp and (lambda g: vjp(g, padded(g))))


def _tap_cells(site, shape, kernel, pad):
    """The rules of a sparse convolution: where each kernel tap sends the sites.

    ``site`` holds the ascending flat ids of the sites of a [T,H,W] grid.
    Padding applies to H,W only; the temporal extent shrinks by kT-1. The
    output is laid in a frame padded wide enough that every shifted cell
    lands inside it, so in the frame's linear ids a tap is one constant
    offset. Returns the frame (T_out, OH, OW, hp, wp, top, left), with output
    cell (0, 0) at (top, left), and per tap its (dt, di, dj), the slice of
    sites whose output frame exists and their output cells in the frame; no
    two sites of one tap share a cell.
    """
    t, h, w = shape
    kt, kh, kw = kernel
    t_out, oh, ow = t - kt + 1, h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    top, left = max(kh - 1 - pad, 0), max(kw - 1 - pad, 0)
    hp, wp = top + max(oh, h + pad), left + max(ow, w + pad)
    st, sh, sw = _coords(site, h, w)
    first = np.searchsorted(st, np.arange(t + 1))  # sites are grouped by frame
    cell0 = (st * hp + sh + top + pad) * wp + sw + left + pad  # the cell of tap (0, 0, 0)
    taps = []
    for dt in range(kt):
        sites = slice(first[dt], first[dt + t_out])  # sites whose output frame t - dt exists
        taps += [((dt, di, dj), sites, cell0[sites] - ((dt * hp + di) * wp + dj)) for di in range(kh) for dj in range(kw)]
    return (t_out, oh, ow, hp, wp, top, left), taps


def conv3d(x, weights, bias, spatial_pad=0):
    """Sparse spatio-temporal cross-correlation of a [C_in,T,H,W] :class:`SparseField`.

    Weights are [C_out,C_in,kT,kH,kW], or [C_out,C_in,kH,kW] for kT = 1.
    Padding applies to H,W only; the temporal extent shrinks by kT-1. The
    result is a field (see :func:`_conv3d_field`). Any array is rejected:
    ``SparseField.of`` makes a field of a constant one. On a tape the input
    field, its background, the weights and the bias all get gradients.
    """
    wd, bd = _as_array(weights), _as_array(bias)
    if not isinstance(x, SparseField):
        kind = "taped array" if isinstance(x, Tensor) and x.tape is not None else "array"
        raise TensorError(f"conv3d takes a SparseField, not a {kind}: SparseField.of makes one of a constant")
    if len(x.shape) != 4:
        raise TensorError(f"conv3d input must be [C,T,H,W], got {x.shape}")
    if wd.ndim not in (4, 5):
        raise TensorError(f"conv3d weights must be [C_out,C_in,kT,kH,kW] or [C_out,C_in,kH,kW], got {wd.shape}")
    w5 = wd if wd.ndim == 5 else wd[:, :, None]
    c_out, c_in, kt, kh, kw = w5.shape
    c, t, h, w = x.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise TensorError(f"conv3d spatial kernel extents must be odd, got {kh}x{kw}")
    if c != c_in:
        raise TensorError(f"conv3d channel mismatch: input C={c}, weights C_in={c_in}")
    if t < kt:
        raise TensorError(f"conv3d needs temporal extent >= {kt}, got {t}")
    if bd.shape != (c_out,):
        raise TensorError(f"conv3d bias must have shape ({c_out},), got {bd.shape}")
    if h + 2 * spatial_pad < kh or w + 2 * spatial_pad < kw:
        raise TensorError("conv3d spatial kernel exceeds padded input")
    return _conv3d_field(x, weights, bias, w5, spatial_pad)


def temporal_kernel(weights, temporal):
    """A [C_out,C_in,kH,kW] kernel times per-frame weights: a [C_out,C_in,T,kH,kW] kernel.

    By linearity, conv3d over T frames with this kernel equals conv2d with
    ``weights`` over the frames' weighted sum (early fusion).
    """
    wd, td = _as_array(weights), _as_array(temporal)
    if wd.ndim != 4:
        raise TensorError(f"temporal_kernel weights must be [C_out,C_in,kH,kW], got {wd.shape}")
    if td.ndim != 1:
        raise TensorError(f"temporal_kernel needs one weight per frame, got shape {td.shape}")
    k = wd[:, :, None] * td[None, None, :, None, None]
    return _node(
        k,
        (weights, lambda g: np.tensordot(g, td, axes=(2, 0))),
        (temporal, lambda g: np.tensordot(g, wd, axes=((0, 1, 3, 4), (0, 1, 2, 3)))),
    )


def maxpool2d(x):
    """2x2 max pooling at stride 2 with floor truncation; gradient routes to the lowest-index max.

    A :class:`SparseField` is pooled frame by frame, into a field.
    """
    is_field = isinstance(x, SparseField)
    xd = x if is_field else _as_array(x)
    if not is_field and xd.ndim != 3:
        raise TensorError(f"maxpool2d input must be [C,H,W], got {xd.shape}")
    k = 2
    h, w = xd.shape[-2:]
    oh, ow = h // k, w // k
    if oh == 0 or ow == 0:
        raise TensorError(f"maxpool2d window {k} exceeds input {h}x{w}")
    if is_field:
        return _maxpool_field(x)
    c = xd.shape[0]
    trimmed = xd[:, : oh * k, : ow * k]
    win = trimmed.reshape(c, oh, k, ow, k).transpose(0, 1, 3, 2, 4).reshape(c, oh, ow, k * k)
    arg = win.argmax(axis=3)  # first occurrence == lowest flat index
    y = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]

    def grad_x(g):
        gx = np.zeros_like(xd)
        ci, oi, oj = np.meshgrid(np.arange(c), np.arange(oh), np.arange(ow), indexing="ij")
        hi = oi * k + arg // k
        wi = oj * k + arg % k
        np.add.at(gx, (ci, hi, wi), g)
        return gx

    return _node(y, (x, grad_x))


# ---------------------------------------------------------------------------
# sparse fields: a background field plus deltas at sites


class SparseField(Tensor):
    """A [C,T,H,W] value held as a background plane plus deltas at sparse sites.

    ``data`` is [C, S]: the deltas at ``sites``, the ascending flat ids of
    their cells in the [T,H,W] grid. Every other cell holds the background,
    the value the same ops give an all-zero input. Every frame of that input
    is the same, so the background is the same in every frame, and it is
    constant except in a band of cells along each edge. It is held as one
    plane on its smallest exact grid: per axis the band at each end plus one
    interior cell, or the whole axis when that is no shorter (see
    :func:`_clip_map`). The grid's shape alone says where the band is.
    ``background`` is a [C,m,k] Tensor that each op recomputes from its own
    weights, so nothing is cached across calls.

    conv3d, relu and maxpool2d take a field and return one, computing only
    at the sites that an input site reaches; :meth:`dense` writes it out and
    :func:`write_out` does so on a tape. Every other op rejects a field. On
    a tape a field is two taped tensors, its deltas (the field itself) and
    its background: each field op's VJP runs its forward's rules in reverse,
    and the background's gradient runs back through the small dense ops that
    built it. Off any tape a field op records nothing and builds no VJP.
    """

    __slots__ = ("full_shape", "sites", "background")

    def __init__(self, deltas, shape, sites, background, tape=None, parents=(), vjp=None):
        super().__init__(deltas, tape, parents, vjp)
        self.full_shape, self.sites, self.background = tuple(shape), sites, background

    @classmethod
    def of(cls, x):
        """The field of a constant [C,T,H,W] array: zero background, a site wherever any channel is nonzero.

        The sites are found on the array as given, so a bool occupancy is
        never copied densely as float64: only the deltas gathered at the sites
        become float64, as every Tensor's data does.
        """
        xd = np.asarray(x)
        if xd.ndim != 4:
            raise TensorError(f"a sparse field is [C,T,H,W], got {xd.shape}")
        c, _, h, w = xd.shape
        sites = np.flatnonzero(xd.any(axis=0))
        st, sh, sw = _coords(sites, h, w)
        return cls(xd[:, st, sh, sw], xd.shape, sites, Tensor(np.zeros((c, 1, 1))))

    @property
    def shape(self):
        return self.full_shape

    def dense(self):
        """The [C,T,H,W] array: the background plane in every frame, plus the deltas at the sites."""
        c, t, h, w = self.full_shape
        out = np.repeat(_grow(self.background.data, h, w)[:, None], t, axis=1)
        out.reshape(c, -1)[:, self.sites] += self.data
        return out

    def __repr__(self):
        return f"SparseField(shape={self.shape}, sites={len(self.sites)})"


def write_out(x):
    """The [C,T,H,W] Tensor of a field (:meth:`SparseField.dense`), on the field's tape.

    Its VJP gathers the gradient at the sites for the deltas, and sums it over
    the frames and onto the background grid along the clip maps for the
    background.
    """
    y = x.dense()
    bg = x.background
    if _result_tape(x, bg) is None:
        return Tensor(y)
    c, (m, k) = x.shape[0], bg.shape[1:]
    return _node(y, (x, lambda g: g.reshape(c, -1)[:, x.sites]), (bg, lambda g: _shrink(g.sum(axis=1), m, k)))


def _coords(sites, h, w):
    """(frame, row, column) of flat ids into a [T,h,w] grid."""
    st, rest = np.divmod(sites, h * w)
    return (st, *np.divmod(rest, w))


def _background_cells(shape, size, sh, sw):
    """Flat ids, in a [C,m,k] background grid of ``shape``, of cells (row, column) of an H x W ``size``."""
    m, k = shape[1:]
    return _clip_map(size[0], m)[sh] * k + _clip_map(size[1], k)[sw]


def _scatter(g, cells, shape):
    """[C, N] values summed onto a [C,m,k] grid of ``shape`` at flat ``cells`` ([N] or [C, N]): a gather's VJP."""
    c, n = shape[0], math.prod(shape[1:])
    idx = (np.arange(c)[:, None] * n + cells).reshape(-1)
    return np.bincount(idx, weights=g.reshape(-1), minlength=c * n).reshape(shape)


def _clip_map(n, m):
    """Cells of an n-cell axis -> cells of its m-cell background grid (m <= n).

    The first and last m // 2 cells keep their distance to their edge; every
    cell between them reads the middle cell m // 2, the constant interior, so
    the grid holds an edge band of (m - 1) // 2 cells (any band if m = n).
    """
    r = np.arange(n)
    return np.where(r < m // 2, r, np.maximum(r - (n - m), m // 2))


def _grow(background, h, w):
    """A [C,m,k] background plane on an h x w grid (h >= m, w >= k), along the clip maps."""
    m, k = background.shape[1:]
    # columns first: the row take then copies whole rows
    return background.take(_clip_map(w, k), axis=2).take(_clip_map(h, m), axis=1)


def _shrink(g, m, k):
    """The VJP of :func:`_grow`: a [C,h,w] gradient summed onto the m x k cells it was read from."""
    h, w = g.shape[1:]
    # a clip map rises by 0 or 1 per cell, so each grid cell reads one run of cells
    rows, cols = (np.searchsorted(_clip_map(n, j), np.arange(j)) for n, j in ((h, m), (w, k)))
    return np.add.reduceat(np.add.reduceat(g, cols, axis=2), rows, axis=1)


def _grown(x, h, w):
    """:func:`_grow` of a background Tensor."""
    m, k = x.shape[1:]
    return _node(_grow(x.data, h, w), (x, lambda g: _shrink(g, m, k)))


def _frame_sum(weights, w5):
    """A [C_out,C_in,kT,kH,kW] kernel summed over its frames: by linearity, the conv2d kernel of a background plane."""
    return _node(w5.sum(axis=2), (weights, lambda g: np.broadcast_to(g[:, :, None], w5.shape).reshape(weights.shape)))


def _conv3d_field(x, weights, bias, w5, pad):
    """conv3d of a SparseField: the background's conv plus the deltas' sparse conv.

    By linearity conv(B + D) = conv(B) + conv(D). conv(B) is one conv2d of the
    background plane grown by kernel - 1 cells per axis, with the kernel
    summed over its frames and the bias, so its band widens by ``pad``;
    conv(D) runs the sparse rules from the input sites into the cells they
    reach, which a dense bool mask collects and a dense index map numbers.
    One GEMM per tap scatters into those rows; a tap's cells that fall in the
    frame's padding go to a spare row. The VJP runs each tap's GEMM
    transposed, from those rows back to its input sites, and gathers the same
    rows for the weights (as in SECOND's sparse convolution).
    """
    c_out, _, kt, kh, kw = w5.shape
    _, t, h, w = x.shape
    (t_out, oh, ow, hp, wp, top, left), taps = _tap_cells(x.sites, (t, h, w), (kt, kh, kw), pad)
    reached = np.zeros(t_out * hp * wp, dtype=bool)
    for _offset, _sites, cell in taps:
        reached[cell] = True
    inner = (slice(None), slice(top, top + oh), slice(left, left + ow))
    mask = reached.reshape(t_out, hp, wp)[inner]
    out = np.flatnonzero(mask)
    row = np.full((t_out, hp, wp), len(out))
    row[inner][mask] = np.arange(len(out))
    row = row.reshape(-1)
    rows = [row[cell] for _offset, _sites, cell in taps]
    y = np.zeros((c_out, len(out) + 1))
    for (offset, sites, _cell), r in zip(taps, rows):
        y[:, r] += w5[(slice(None), slice(None)) + offset] @ x.data[:, sites]
    b = x.background
    if b.tape is None and not b.data.any():  # an empty constant input, as at the first layer: the bias alone, no band
        background = _node(_as_array(bias)[:, None, None], (bias, lambda g: g.sum(axis=(1, 2))))
    else:
        b = _grown(b, min(h, b.shape[1] + kh - 1), min(w, b.shape[2] + kw - 1))
        background = conv2d(b, _frame_sum(weights, w5), bias, pad=pad)
    shape = (c_out, t_out, oh, ow)
    tape = _result_tape(x, weights)
    if tape is None:
        return SparseField(y[:, :-1], shape, out, background)
    parents = tuple(v for v in (x, weights) if isinstance(v, Tensor) and v.tape is tape)
    xd, x_taped, w_shape = x.data, x.tape is tape, _as_array(weights).shape

    def vjp(g):
        gs = np.concatenate([g, np.zeros((c_out, 1))], axis=1)  # a zero row for the cells in the padding
        gx, gw = np.zeros_like(xd), np.zeros_like(w5)
        for (offset, sites, _cell), r in zip(taps, rows):
            gr, tap = gs[:, r], (slice(None), slice(None)) + offset
            if x_taped:
                gx[:, sites] += w5[tap].T @ gr
            gw[tap] = gr @ xd[:, sites].T
        return [gx if v is x else gw.reshape(w_shape) for v in parents]

    return SparseField(y[:, :-1], shape, out, background, tape, parents, vjp)


def _relu_field(x):
    bg = x.background
    cells = _background_cells(bg.shape, x.shape[2:], *_coords(x.sites, *x.shape[2:])[1:])
    b = bg.data.reshape(x.shape[0], -1)[:, cells]
    deltas = np.maximum(b + x.data, 0.0) - np.maximum(b, 0.0)
    if _result_tape(x, bg) is None:
        return SparseField(deltas, x.shape, x.sites, relu(bg))
    on = b + x.data > 0.0
    # the background cell a site reads moves the delta where the site's gate differs from the background's own
    gate = on - (b > 0.0).astype(float)
    return SparseField(deltas, x.shape, x.sites, relu(bg), *_links(
        (x, lambda g: on * g), (bg, lambda g: _scatter(gate * g, cells, bg.shape))
    ))


def _maxpool_field(x):
    """maxpool2d of a SparseField, frame by frame: a pooled cell is a site when a child is.

    Each pooled site takes its first largest child, in the dense pool's
    order; the VJP sends its gradient to that child's delta, when the child
    is a site, and to the background cell the child reads. The background
    plane is pooled once, with the dense pool.
    """
    c, t, h, w = x.shape
    oh, ow = h // 2, w // 2
    st, sh, sw = _coords(x.sites, h, w)
    kept = (sh < 2 * oh) & (sw < 2 * ow)  # floor truncation drops an odd last row or column
    reached = np.zeros((t, oh, ow), dtype=bool)
    reached[st[kept], sh[kept] // 2, sw[kept] // 2] = True
    out = np.flatnonzero(reached)
    ot, oi, oj = _coords(out, oh, ow)
    row = np.full(t * h * w, len(x.sites))  # the delta column of each cell; a spare zero one off the sites
    row[x.sites] = np.arange(len(x.sites))
    deltas = np.concatenate([x.data, np.zeros((c, 1))], axis=1)
    bgd = x.background.data.reshape(c, -1)
    children = [  # (delta column, background cell) of each child, in the dense pool's order
        (row[(ot * h + ci) * w + cj], _background_cells(x.background.shape, (h, w), ci, cj))
        for ci, cj in ((2 * oi + a, 2 * oj + b) for a in (0, 1) for b in (0, 1))
    ]
    values = [deltas[:, r] + bgd[:, cells] for r, cells in children]
    best = np.maximum(np.maximum(values[0], values[1]), np.maximum(values[2], values[3]))
    m, k = (2 * ((n + 1) // 4) + 1 for n in x.background.shape[1:])  # a b-cell band pools to (b + 1) // 2 cells
    bg = maxpool2d(_grown(x.background, min(h, 2 * m + h % 2), min(w, 2 * k + w % 2)))  # twice that grid, by parity
    pooled = _background_cells(bg.shape, (oh, ow), oi, oj)
    y = best - bg.data.reshape(c, -1)[:, pooled]
    if _result_tape(x, x.background) is None:
        return SparseField(y, (c, t, oh, ow), out, bg)
    # the first largest child, as the dense pool takes, and its delta column and background cell
    arg, n = np.argmax(values, axis=0), np.arange(len(out))
    rows, cells = (np.stack(v)[arg, n] for v in zip(*children))

    def grad_x(gy):
        gx = np.zeros_like(deltas)
        gx[np.arange(c)[:, None], rows] = gy  # distinct sites, but for the spare column
        return gx[:, :-1]

    return SparseField(y, (c, t, oh, ow), out, bg, *_links(
        (x, grad_x),
        (x.background, lambda gy: _scatter(gy, cells, x.background.shape)),
        (bg, lambda gy: -_scatter(gy, pooled, bg.shape)),
    ))


# ---------------------------------------------------------------------------
# losses


def bce_loss(z, q, mask):
    """Masked binary cross-entropy of logits: sum(mask * (log(1 + e^z) - q*z))."""
    zd = _as_array(z)
    qd = np.asarray(q, dtype=np.float64)
    md = np.asarray(mask, dtype=np.float64)
    if zd.shape != qd.shape or zd.shape != md.shape:
        raise TensorError(
            f"bce_loss shape mismatch: z{zd.shape} q{qd.shape} mask{md.shape}"
        )
    y = np.sum(md * (np.logaddexp(0.0, zd) - qd * zd))

    def grad_z(g):
        return float(g.reshape(())) * md * (sigmoid_array(zd) - qd)

    return _node(y, (z, grad_z))


def smooth_l1(pred, target, mask):
    """Masked sum of the huber-style penalty: 0.5 x^2 below 1, |x|-0.5 above."""
    pd = _as_array(pred)
    td = np.asarray(target, dtype=np.float64)
    md = np.asarray(mask, dtype=np.float64)
    if pd.shape != td.shape or pd.shape != md.shape:
        raise TensorError(
            f"smooth_l1 shape mismatch: pred{pd.shape} target{td.shape} mask{md.shape}"
        )
    d = pd - td
    small = np.abs(d) < 1.0
    phi = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    y = np.sum(md * phi)

    def grad_pred(g):
        return float(g.reshape(())) * md * np.where(small, d, np.sign(d))

    return _node(y, (pred, grad_pred))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One in-place Adam update with bias correction; deterministic."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise TensorError(f"adam_step gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    return params, state


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, config=None):
    """Write parameters (ordered) plus an optional config dict to one file.

    Layout: magic, version, length-prefixed JSON header, then raw
    little-endian float64 data in header order. Byte-exact round trip.
    A NaN or inf value raises TensorError, naming the first tensor that holds
    one, before anything is written.
    """
    for name, v in params.items():
        if not np.isfinite(v).all():
            raise TensorError(f"checkpoint tensor {name} holds a non-finite value; nothing written")
    header = {
        "version": CHECKPOINT_VERSION,
        "params": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
        "config": config,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for v in params.values():
            f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params dict in saved order, config).

    Any malformed or truncated file, or a NaN or inf value, raises TensorError.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise TensorError(f"not a checkpoint file: bad magic {magic!r}")
        head = f.read(8)
        if len(head) != 8:
            raise TensorError("checkpoint truncated in its header")
        version, hlen = struct.unpack("<II", head)
        if version != CHECKPOINT_VERSION:
            raise TensorError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
            entries = [(e["name"], e["shape"]) for e in header["params"]]
            config = header.get("config")
        except (KeyError, TypeError, ValueError) as e:
            raise TensorError(f"malformed checkpoint header: {e}") from None
        left = os.fstat(f.fileno()).st_size - f.tell()
        params = {}
        for name, shape in entries:
            if not (isinstance(shape, list) and all(type(n) is int for n in shape)):
                raise TensorError(f"checkpoint tensor {name} has a shape that is not a list of integers: {shape!r}")
            shape = tuple(shape)
            nbytes = 8 * math.prod(shape)  # a Python int, checked before anything is read
            if min(shape, default=0) < 0:
                raise TensorError(f"checkpoint tensor {name} has a negative dimension in {shape}")
            if nbytes > left:
                raise TensorError(f"checkpoint truncated: {name} needs {nbytes} bytes, {left} left")
            left -= nbytes
            flat = np.frombuffer(f.read(nbytes), dtype="<f8")
            try:
                params[name] = flat.reshape(shape).copy()
            except ValueError as e:  # an empty tensor with a dimension numpy cannot index
                raise TensorError(f"checkpoint tensor {name} has an impossible shape {shape}: {e}") from None
            if not np.isfinite(params[name]).all():
                raise TensorError(f"checkpoint tensor {name} holds a non-finite value")
        trailing = f.read(1)
        if trailing:
            raise TensorError("checkpoint has trailing bytes")
    return params, config
