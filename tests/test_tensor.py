import gc
import json
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from bevtrack import tensor as T
from bevtrack.tensor import TensorError
from oracles import conv2d_frames, mul, sigmoid, stack_frames, take, temporal_group_conv, tensor_sum


def naive_conv2d(x, w, b, pad):
    c_out, c_in, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = x.shape[1] + 2 * pad - kh + 1
    ow = x.shape[2] + 2 * pad - kw + 1
    y = np.zeros((c_out, oh, ow))
    for co in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += xp[ci, i + a, j + bb] * w[co, ci, a, bb]
                y[co, i, j] = acc + b[co]
    return y


def naive_conv3d(x, w, b, pad):
    c_out, c_in, kt, kh, kw = w.shape
    c, t, h, ww = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    t_out = t - kt + 1
    oh = h + 2 * pad - kh + 1
    ow = ww + 2 * pad - kw + 1
    y = np.zeros((c_out, t_out, oh, ow))
    for co in range(c_out):
        for to in range(t_out):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c_in):
                        for dt in range(kt):
                            for a in range(kh):
                                for bb in range(kw):
                                    acc += xp[ci, to + dt, i + a, j + bb] * w[co, ci, dt, a, bb]
                    y[co, to, i, j] = acc + b[co]
    return y


def naive_maxpool(x, k):
    c, h, w = x.shape
    oh, ow = h // k, w // k
    y = np.zeros((c, oh, ow))
    for ci in range(c):
        for i in range(oh):
            for j in range(ow):
                y[ci, i, j] = x[ci, i * k : (i + 1) * k, j * k : (j + 1) * k].max()
    return y


def finite_diff_check(f, arrays, eps=1e-5, tol=1e-4):
    """Central finite differences of scalar f against its returned grads."""
    value, grads = f(arrays)
    for ai, a in enumerate(arrays):
        flat = a.reshape(-1)
        gflat = grads[ai].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            fp, _ = f(arrays)
            flat[idx] = orig - eps
            fm, _ = f(arrays)
            flat[idx] = orig
            fd = (fp - fm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1.0)
            assert abs(fd - gflat[idx]) / denom < tol, (
                f"array {ai} index {idx}: fd={fd}, grad={gflat[idx]}"
            )


class TestConv2d:
    def test_ones_kernel_center(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor([0.0]), pad=1)
        assert y.data[0, 1, 1] == 9.0

    def test_identity_case(self):
        y = T.conv2d(T.Tensor([[[2.5]]]), T.Tensor([[[[3.0]]]]), T.Tensor([0.25]))
        assert y.data[0, 0, 0] == 2.5 * 3.0 + 0.25

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), pad=1)
        np.testing.assert_allclose(y.data, naive_conv2d(x, w, b, 1), atol=1e-12)

    @pytest.mark.parametrize("frames,pad", [(1, 0), (1, 1), (2, 1), (3, 0)])
    def test_oracle_shapes_up_to_4488(self, frames, pad):
        # one frame is a [C,H,W] input; more frames collapse through conv2d_frames, the field convolution's oracle
        rng = np.random.default_rng(frames * 10 + pad)
        conv = T.conv2d if frames == 1 else conv2d_frames
        for _ in range(3):
            x = rng.standard_normal((4, 8, 8) if frames == 1 else (4, frames, 8, 8))
            w = rng.standard_normal((4, 4, 3, 3) if frames == 1 else (4, 4, frames, 3, 3))
            b = rng.standard_normal(4)
            y = conv(T.Tensor(x), T.Tensor(w), T.Tensor(b), pad=pad)
            want = naive_conv2d(x, w, b, pad) if frames == 1 else naive_conv3d(x, w, b, pad)[:, 0]
            np.testing.assert_allclose(y.data, want, atol=1e-12)

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(TensorError, match="C"):
            T.conv2d(T.Tensor(np.zeros((3, 4, 4))), T.Tensor(np.zeros((1, 2, 3, 3))), T.Tensor([0.0]))

    def test_even_kernel_rejected(self):
        with pytest.raises(TensorError, match="odd"):
            T.conv2d(T.Tensor(np.zeros((1, 4, 4))), T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor([0.0]))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((2, 4, 4))
        w0 = rng.standard_normal((2, 2, 3, 3))
        b0 = rng.standard_normal(2)

        def f(arrays):
            x, w, b = arrays
            tape = T.Tape()
            xt = tape.parameter("x", x)
            wt = tape.parameter("w", w)
            bt = tape.parameter("b", b)
            y = T.conv2d(xt, wt, bt, pad=1)
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["x"], tape.param_grads["w"], tape.param_grads["b"]]

        finite_diff_check(f, [x0, w0, b0])

    def test_frames_and_5d_kernels_rejected(self):
        for xshape, wshape in (((1, 3, 4, 4), (1, 1, 3, 3, 3)), ((1, 3, 4, 4), (1, 1, 3, 3)), ((1, 4, 4), (1, 1, 1, 3, 3))):
            with pytest.raises(TensorError, match=r"\[C,H,W\] with \[C_out,C_in,kH,kW\]"):
                T.conv2d(T.Tensor(np.zeros(xshape)), T.Tensor(np.zeros(wshape)), T.Tensor([0.0]))

    def test_frame_gradients(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((1, 3, 4, 4))
        w0 = rng.standard_normal((2, 1, 3, 3, 3))
        b0 = rng.standard_normal(2)

        def f(arrays):
            x, w, b = arrays
            tape = T.Tape()
            y = conv2d_frames(tape.parameter("x", x), tape.parameter("w", w), tape.parameter("b", b), pad=1)
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["x"], tape.param_grads["w"], tape.param_grads["b"]]

        finite_diff_check(f, [x0, w0, b0])

    @pytest.mark.parametrize("frames", [1, 2, 3])
    @pytest.mark.parametrize(
        "h,w,kh,kw,pad",
        [
            (5, 7, 1, 3, 0),
            (6, 4, 3, 1, 2),
            (5, 8, 3, 5, 1),
            (7, 5, 5, 3, 2),
            (7, 4, 5, 3, 0),
            (6, 3, 3, 5, 1),  # kernel as wide as the padded input: W' = 1
            (4, 3, 1, 3, 0),  # W' = 1 without padding
            (3, 6, 5, 3, 1),  # H' = 1
        ],
    )
    def test_tap_layout_on_rectangles(self, frames, h, w, kh, kw, pad):
        # every tap's window runs across row ends; the cropped cells must not leak
        rng = np.random.default_rng(100 * frames + 10 * kh + kw + pad)
        x0 = rng.standard_normal((2, h, w) if frames == 1 else (2, frames, h, w))
        w0 = rng.standard_normal((3, 2, kh, kw) if frames == 1 else (3, 2, frames, kh, kw))
        b0 = rng.standard_normal(3)
        conv = T.conv2d if frames == 1 else conv2d_frames
        y = conv(x0, w0, b0, pad=pad)
        want = naive_conv2d(x0, w0, b0, pad) if frames == 1 else naive_conv3d(x0, w0, b0, pad)[:, 0]
        assert y.shape == want.shape
        np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-12)

        def f(arrays):
            tape = T.Tape()
            xt, wt, bt = (tape.parameter(name, a) for name, a in zip("xwb", arrays))
            y = conv(xt, wt, bt, pad=pad)
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads[name] for name in "xwb"]

        finite_diff_check(f, [x0, w0, b0])


class TestConv3d:
    def test_temporal_shrink_5_3_1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        b = np.zeros(2)
        y1 = T.conv3d(T.SparseField.of(x), T.Tensor(w), T.Tensor(b), spatial_pad=1)
        assert y1.shape[1] == 3
        y2 = T.conv3d(y1, T.Tensor(w), T.Tensor(b), spatial_pad=1)
        assert y2.shape[1] == 1 and y2.dense().shape == (2, 1, 6, 6)

    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 3, 4, 4))
        w = np.ones((2, 1, 3, 3, 3))
        b = np.array([0.5, -1.0])
        y = T.conv3d(T.SparseField.of(x), T.Tensor(w), T.Tensor(b), spatial_pad=1).dense()
        assert np.all(y[0] == 0.5) and np.all(y[1] == -1.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        y = T.conv3d(T.SparseField.of(x), T.Tensor(w), T.Tensor(b), spatial_pad=1).dense()
        np.testing.assert_allclose(y, naive_conv3d(x, w, b, 1), atol=1e-12)

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    def test_constant_sparse_input_matches_loop_oracle_at_any_padding(self, pad):
        rng = np.random.default_rng(12 + pad)
        x = rng.standard_normal((2, 4, 5, 6)) * (rng.random((2, 4, 5, 6)) < 0.2)
        w = rng.standard_normal((3, 2, 2, 3, 3))
        b = rng.standard_normal(3)
        tape = T.Tape()
        y = dense_conv3d(x, tape.parameter("w", w), b, pad)
        np.testing.assert_allclose(y.data, naive_conv3d(x, w, b, pad), rtol=0, atol=1e-12)
        g = rng.standard_normal(y.shape)
        T.backward(tensor_sum(mul(y, T.Tensor(g))), tape)
        want = naive_conv3d_weight_grad(x, g, w.shape, pad)
        np.testing.assert_allclose(tape.param_grads["w"], want, rtol=0, atol=1e-12)

    def test_insufficient_temporal_context(self):
        with pytest.raises(TensorError, match="temporal"):
            T.conv3d(T.SparseField.of(np.zeros((1, 2, 4, 4))), T.Tensor(np.zeros((1, 1, 3, 3, 3))), T.Tensor([0.0]))

    def test_gradients(self):
        # only the weights and bias are taped: the input is a constant
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 3, 4, 4)) * (rng.random((1, 3, 4, 4)) < 0.5)
        w0 = rng.standard_normal((2, 1, 2, 3, 3))
        b0 = rng.standard_normal(2)

        def f(arrays):
            w, b = arrays
            tape = T.Tape()
            y = dense_conv3d(x, tape.parameter("w", w), tape.parameter("b", b), 1)
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["w"], tape.param_grads["b"]]

        finite_diff_check(f, [w0, b0])

    def test_taped_input_rejected(self):
        tape = T.Tape()
        x = tape.parameter("x", np.ones((1, 3, 4, 4)))
        with pytest.raises(TensorError, match="tape"):
            T.conv3d(x, T.Tensor(np.ones((2, 1, 3, 3, 3))), T.Tensor(np.zeros(2)), spatial_pad=1)


class TestTemporalGroupConv:
    def test_one_hot_selects_latest_frame(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 2, 3, 3))
        w = np.array([0.0, 0.0, 0.0, 1.0])
        y = temporal_group_conv(T.Tensor(x), T.Tensor(w))
        np.testing.assert_array_equal(y.data, x[3])

    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2, 3, 3))
        y = temporal_group_conv(T.Tensor(x), T.Tensor(np.full(5, 0.2)))
        np.testing.assert_allclose(y.data, x.mean(axis=0), atol=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 5, 5))
        w = rng.standard_normal(3)
        y = temporal_group_conv(T.Tensor(x), T.Tensor(w))
        expect = sum(w[t] * x[t] for t in range(3))
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(TensorError, match="weight count"):
            temporal_group_conv(T.Tensor(np.zeros((3, 1, 2, 2))), T.Tensor(np.zeros(4)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 2, 3, 3))
        w0 = rng.standard_normal(3)

        def f(arrays):
            x, w = arrays
            tape = T.Tape()
            y = temporal_group_conv(tape.parameter("x", x), tape.parameter("w", w))
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["x"], tape.param_grads["w"]]

        finite_diff_check(f, [x0, w0])


def naive_conv3d_weight_grad(x, g, kernel_shape, pad):
    """Gradient of sum(g * conv3d(x, w, b)) in w, summed tap by tap."""
    kt, kh, kw = kernel_shape[2:]
    t_out, oh, ow = g.shape[1:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw = np.zeros(kernel_shape)
    for dt in range(kt):
        for a in range(kh):
            for bb in range(kw):
                win = xp[:, dt : dt + t_out, a : a + oh, bb : bb + ow]
                gw[:, :, dt, a, bb] = np.einsum("otij,ctij->oc", g, win)
    return gw


def first_layer_input(n_in, seed=0, h=6, w=7, z=2):
    """Sparse [T, Z, H, W] occupancy; the first and last frames hold a voxel on every border."""
    rng = np.random.default_rng(seed)
    occ = (rng.random((n_in, z, h, w)) < 0.08).astype(float)
    for t in (0, n_in - 1):
        for zi, hi, wi in ((0, 0, 3), (1, h - 1, 2), (0, 4, 0), (1, 1, w - 1), (0, 0, 0), (1, h - 1, w - 1)):
            occ[t, zi, hi, wi] = 1.0
    return occ


def assert_close_relative(got, want, rtol=1e-12, scale=None):
    """|got - want| <= rtol * scale, where scale defaults to max |want|."""
    scale = np.abs(want).max() if scale is None else scale
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * scale, (np.abs(got - want).max(), scale)


def taped_loss(y, g):
    return tensor_sum(mul(y, T.Tensor(g)))


def dense_conv3d(x, w, b, pad):
    """conv3d of a constant [C,T,H,W] array, written out as a Tensor on the weights' tape."""
    return T.write_out(T.conv3d(T.SparseField.of(x), w, b, spatial_pad=pad))


class TestFirstLayer:
    """conv3d over a constant occupancy (occupied sites only) against dense oracles."""

    def test_field_of_a_bool_grid_makes_no_dense_float_copy(self):
        occ = np.zeros((5, 8, 720, 400), dtype=bool)  # [T, Z, X, Y]: 144 x 80 m at 0.2 m, z 0-1.6 m
        rng = np.random.default_rng(0)
        occ[tuple(rng.integers(0, n, 2000) for n in occ.shape)] = True
        tracemalloc.start()
        try:
            field = T.SparseField.of(occ.transpose(1, 0, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the grid takes 8 bytes a voxel (92 MB), a bool copy 1; the site mask over
        # [T, X, Y] takes 1/8 byte a voxel
        assert peak < occ.size // 4
        assert np.array_equal(field.sites, np.flatnonzero(occ.any(axis=1)))
        assert field.data.dtype == np.float64 and np.array_equal(field.data, occ.transpose(1, 0, 2, 3).reshape(8, -1)[:, field.sites])

    @pytest.mark.parametrize("n_in,kt", [(5, 3), (3, 3), (2, 2), (1, None)])
    @pytest.mark.parametrize("valued", [False, True])
    def test_late_fusion_matches_loop_oracles(self, n_in, kt, valued):
        rng = np.random.default_rng(n_in)
        occ = first_layer_input(n_in, seed=n_in)
        if valued:
            occ *= rng.standard_normal(occ.shape)
        wshape = (3, 2, 3, 3) if kt is None else (3, 2, kt, 3, 3)
        w0, b0 = rng.standard_normal(wshape), rng.standard_normal(3)
        tape = T.Tape()
        w, b = tape.parameter("w", w0), tape.parameter("b", b0)
        if kt is None:  # a single frame: the network lifts the 2D kernel to kT = 1
            w = T.reshape(w, (3, 2, 1, 3, 3))
        y = dense_conv3d(occ.transpose(1, 0, 2, 3), w, b, 1)
        g = rng.standard_normal(y.shape)
        T.backward(taped_loss(y, g), tape)
        x = occ.transpose(1, 0, 2, 3)
        w5 = w0.reshape(y.shape[0], 2, -1, 3, 3)
        assert_close_relative(y.data, naive_conv3d(x, w5, b0, 1))
        gw = naive_conv3d_weight_grad(x, g, w5.shape, 1).reshape(wshape)
        assert_close_relative(tape.param_grads["w"], gw)
        assert_close_relative(tape.param_grads["b"], g.sum(axis=(1, 2, 3)))

    def test_site_whose_channels_cancel_still_counts(self):
        x = np.zeros((2, 1, 4, 4))
        x[0, 0, 1, 2], x[1, 0, 1, 2] = 1.0, -1.0
        w = np.random.default_rng(9).standard_normal((2, 2, 1, 3, 3))
        y = T.conv3d(T.SparseField.of(x), w, np.zeros(2), spatial_pad=1).dense()
        assert_close_relative(y, naive_conv3d(x, w, np.zeros(2), 1))
        assert np.any(y)

    def test_matches_the_dense_taped_path(self):
        # each output frame of the sparse conv3d equals the dense convolution
        # over the kT frames it reads
        rng = np.random.default_rng(8)
        x = first_layer_input(5, seed=8).transpose(1, 0, 2, 3)
        w0, b0 = rng.standard_normal((4, 2, 3, 3, 3)), rng.standard_normal(4)
        g = rng.standard_normal((4, 3, 6, 7))
        tape = T.Tape()
        y = dense_conv3d(x, tape.parameter("w", w0), tape.parameter("b", b0), 1)
        T.backward(taped_loss(y, g), tape)
        dense = T.Tape()
        w, b = dense.parameter("w", w0), dense.parameter("b", b0)
        frames = [conv2d_frames(x[:, to : to + 3], w, b, pad=1) for to in range(3)]
        loss = taped_loss(frames[0], g[:, 0])
        for to in (1, 2):
            loss = T.add(loss, taped_loss(frames[to], g[:, to]))
        T.backward(loss, dense)
        assert_close_relative(y.data, np.stack([f.data for f in frames], axis=1))
        for name in ("w", "b"):
            assert_close_relative(tape.param_grads[name], dense.param_grads[name])

    @pytest.mark.parametrize("n_in", [5, 1])
    def test_early_fusion_matches_collapse_then_conv2d(self, n_in):
        rng = np.random.default_rng(20 + n_in)
        occ = first_layer_input(n_in, seed=n_in)
        w0, b0, tw0 = rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), rng.standard_normal(n_in)
        self._check_early(occ, w0, b0, tw0, rng)

    def test_temporal_weights_summing_to_zero(self):
        # equal frames and weights summing to 0 fuse to an all-zero input, yet
        # every frame's voxels still shape the temporal weights' gradient
        rng = np.random.default_rng(30)
        occ = np.repeat(first_layer_input(1, seed=30), 4, axis=0)
        tw0 = np.array([1.0, -2.0, 0.75, 0.25])
        w0, b0 = rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3)
        grads, g = self._check_early(occ, w0, b0, tw0, rng, skip=("w",))
        assert np.all(grads["t"] != 0.0)
        # the weights' gradient is sum_t tw[t] * (one frame's gradient) = 0,
        # up to rounding on the scale of its terms
        x0 = occ[:1].transpose(1, 0, 2, 3)
        one_frame = naive_conv3d_weight_grad(x0, g, (3, 2, 1, 3, 3), 1)
        scale = np.abs(tw0).sum() * np.abs(one_frame).max()
        assert_close_relative(grads["w"], np.zeros_like(w0), scale=scale)

    def _check_early(self, occ, w0, b0, tw0, rng, skip=()):
        tape = T.Tape()
        w, b, tw = tape.parameter("w", w0), tape.parameter("b", b0), tape.parameter("t", tw0)
        y = dense_conv3d(occ.transpose(1, 0, 2, 3), T.temporal_kernel(w, tw), b, 1)
        assert y.shape[1] == 1
        g = rng.standard_normal(y.shape)
        T.backward(taped_loss(y, g), tape)

        oracle = T.Tape()
        ow, ob, ot = oracle.parameter("w", w0), oracle.parameter("b", b0), oracle.parameter("t", tw0)
        fused = temporal_group_conv(T.Tensor(occ), ot)
        want = T.conv2d(fused, ow, ob, pad=1)
        T.backward(taped_loss(want, g[:, 0]), oracle)
        assert_close_relative(y.data[:, 0], want.data)
        for name in ("w", "b", "t"):
            if name not in skip:
                assert_close_relative(tape.param_grads[name], oracle.param_grads[name])
        return tape.param_grads, g

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 1), ("early", 5), ("early", 1)])
    def test_empty_input_gives_bias_and_no_weight_gradient(self, fusion, n_in):
        rng = np.random.default_rng(40)
        occ = np.zeros((n_in, 2, 6, 7))
        b0 = rng.standard_normal(3)
        tape = T.Tape()
        b = tape.parameter("b", b0)
        if fusion == "early":
            w = T.temporal_kernel(tape.parameter("w", rng.standard_normal((3, 2, 3, 3))), tape.parameter("t", np.ones(n_in)))
        else:
            w = tape.parameter("w", rng.standard_normal((3, 2, min(n_in, 3), 3, 3)))
        y = dense_conv3d(occ.transpose(1, 0, 2, 3), w, b, 1)
        assert np.array_equal(y.data, np.broadcast_to(b0[:, None, None, None], y.shape))
        T.backward(taped_loss(y, rng.standard_normal(y.shape)), tape)
        for name, grad in tape.param_grads.items():
            if name != "b":
                assert not np.any(grad), name


def frame_by_frame_conv3d(x, w5, b, pad):
    """conv3d of a dense [C,T,H,W] array through conv2d_frames, one output frame at a time."""
    kt = w5.shape[2]
    return np.stack([conv2d_frames(x[:, to : to + kt], w5, b, pad).data for to in range(x.shape[1] - kt + 1)], axis=1)


class TestSparseField:
    """conv3d, relu and maxpool2d of a SparseField against the dense ops, at any band depth and parity."""

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_ops_match_dense_ops(self, pad):
        rng = np.random.default_rng(60 + pad)
        x = rng.standard_normal((2, 4, 44, 27)) * (rng.random((2, 4, 44, 27)) < 0.003)
        x[:, 0, [0, 0, 43, 43, 20], [0, 26, 0, 26, 0]] = 1.0  # corners and an edge
        field, dense = T.SparseField.of(x), x
        for i, wshape in enumerate([(3, 2, 2, 3, 3), (3, 3, 3, 3, 3), (2, 3, 3, 3)]):
            w, b = rng.standard_normal(wshape), rng.uniform(-1.0, 1.0, wshape[0])
            field = T.relu(T.conv3d(field, w, b, spatial_pad=pad))
            dense = np.maximum(frame_by_frame_conv3d(dense, w if w.ndim == 5 else w[:, :, None], b, pad), 0.0)
            assert field.shape == dense.shape
            assert_close_relative(field.dense(), dense)
            if i == 1:
                field = T.maxpool2d(field)
                c, t, h, w = dense.shape
                dense = T.maxpool2d(dense.reshape(c * t, h, w)).data.reshape(c, t, h // 2, w // 2)
                assert_close_relative(field.dense(), dense)
        assert 0 < len(field.sites) < np.prod(field.shape[1:])

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_gradients_match_dense_ops(self, pad):
        """On a tape: the weights' and biases' gradients through conv3d, relu, maxpool2d and write_out.

        The second convolution reads two of four frames over a nonzero
        background, which its kernel summed over its frames convolves once.
        """
        rng = np.random.default_rng(70 + pad)
        x = rng.standard_normal((2, 4, 44, 27)) * (rng.random((2, 4, 44, 27)) < 0.01)
        x[:, 0, [0, 0, 43, 43, 20], [0, 26, 0, 26, 0]] = 1.0
        shapes = [(3, 2, 3, 3), (3, 3, 2, 3, 3), (2, 3, 3, 3, 3)]
        values = {f"w{i}": rng.standard_normal(s) for i, s in enumerate(shapes)}
        values.update({f"b{i}": rng.uniform(-1.0, 1.0, s[0]) for i, s in enumerate(shapes)})

        def field_net(p):
            y = T.relu(T.conv3d(T.SparseField.of(x), p["w0"], p["b0"], spatial_pad=pad))
            y = T.maxpool2d(T.relu(T.conv3d(y, p["w1"], p["b1"], spatial_pad=pad)))
            return T.write_out(T.relu(T.conv3d(y, p["w2"], p["b2"], spatial_pad=pad)))

        def dense_net(p):  # conv2d frame by frame
            y = T.relu(stack_frames([T.conv2d(x[:, t], p["w0"], p["b0"], pad=pad) for t in range(4)]))
            y = T.relu(stack_frames([conv2d_frames(take(y, np.s_[:, t : t + 2]), p["w1"], p["b1"], pad=pad) for t in range(3)]))
            c, t, h, w = y.shape
            y = T.reshape(T.maxpool2d(T.reshape(y, (c * t, h, w))), (c, t, h // 2, w // 2))
            y = T.relu(conv2d_frames(y, p["w2"], p["b2"], pad=pad))
            return T.reshape(y, (2, 1) + y.shape[1:])

        results, g = [], None
        for net in (field_net, dense_net):
            tape = T.Tape()
            y = net({k: tape.parameter(k, v) for k, v in values.items()})
            g = rng.standard_normal(y.shape) if g is None else g
            T.backward(taped_loss(y, g), tape)
            results.append((y.data, tape.param_grads))
        (got, grads), (want, oracle) = results
        assert_close_relative(got, want)
        for name, grad in oracle.items():
            assert_close_relative(grads[name], grad)

    def test_background_convolves_once_as_one_plane(self, monkeypatch):
        """A kT = 2 convolution over 4 frames convolves the nonzero background once, with one [C,m,k] conv2d."""
        rng = np.random.default_rng(80)
        x = rng.standard_normal((2, 4, 9, 8)) * (rng.random((2, 4, 9, 8)) < 0.1)
        field = T.relu(T.conv3d(T.SparseField.of(x), rng.standard_normal((3, 2, 3, 3)), rng.uniform(0.2, 1.0, 3), 1))
        calls, conv2d = [], T.conv2d

        def spy(x, w, b, **kw):
            calls.append(T._as_array(x).ndim)
            return conv2d(x, w, b, **kw)

        monkeypatch.setattr(T, "conv2d", spy)
        w, b = rng.standard_normal((2, 3, 2, 3, 3)), rng.standard_normal(2)
        y = T.conv3d(field, w, b, spatial_pad=1)
        assert calls == [3] and y.shape[1] == 3
        assert_close_relative(y.dense(), frame_by_frame_conv3d(field.dense(), w, b, 1))

    def test_every_background_is_one_plane(self):
        """On a tape, through conv3d, relu, maxpool2d and write_out: every background is [C,m,k]."""
        rng = np.random.default_rng(81)
        x = rng.standard_normal((2, 4, 20, 15)) * (rng.random((2, 4, 20, 15)) < 0.05)
        tape = T.Tape()
        field, dense = T.SparseField.of(x), x
        for i, wshape in enumerate([(3, 2, 3, 3), (3, 3, 2, 3, 3), (2, 3, 3, 3, 3)]):
            w, b = rng.standard_normal(wshape), rng.uniform(-1.0, 1.0, wshape[0])
            field = T.conv3d(field, tape.parameter(f"w{i}", w), tape.parameter(f"b{i}", b), spatial_pad=1)
            dense = frame_by_frame_conv3d(dense, w if w.ndim == 5 else w[:, :, None], b, 1)
            steps = [(field, dense), (field := T.relu(field), dense := np.maximum(dense, 0.0))]
            if i < 2:
                c, t, h, w = dense.shape
                dense = T.maxpool2d(dense.reshape(c * t, h, w)).data.reshape(c, t, h // 2, w // 2)
                steps.append((field := T.maxpool2d(field), dense))
            for f, d in steps:
                assert f.background.data.ndim == 3 and f.background.shape[0] == f.shape[0]
                assert_close_relative(f.dense(), d, rtol=1e-12)
        assert_close_relative(T.write_out(field).data, dense, rtol=1e-12)

    def test_off_any_tape_no_node_and_no_vjp(self):
        x = np.zeros((2, 3, 9, 8))
        x[:, 1, [0, 4, 8], [7, 3, 0]] = 1.0
        field = T.SparseField.of(x)
        for w in (np.ones((2, 2, 3, 3, 3)), np.ones((2, 2, 3, 3))):
            field = T.maxpool2d(T.relu(T.conv3d(field, w, np.full(2, 0.5), spatial_pad=1)))
            for t in (field, field.background):
                assert t.tape is None and t._vjp is None and t._parents == ()
        assert T.write_out(field).tape is None

    def test_other_ops_reject_a_field(self):
        field = T.SparseField.of(np.ones((1, 1, 4, 4)))
        with pytest.raises(TensorError, match="dense"):
            T.add(field, field)
        with pytest.raises(TensorError, match="dense"):
            T.conv2d(field, np.ones((1, 1, 3, 3)), np.zeros(1), pad=1)

    @pytest.mark.parametrize("bias", [0.0, 1.0])
    def test_band_of_15_cells_matches_dense(self, bias):
        dense = np.zeros((1, 1, 40, 40))
        field = T.SparseField.of(dense)
        w, b = np.ones((1, 1, 3, 3)), np.full(1, bias)
        for _ in range(16):  # each padded 3x3 convolution widens the edge band by one cell
            field = T.conv3d(field, w, b, spatial_pad=1)
            dense = frame_by_frame_conv3d(dense, w[:, :, None], b, 1)
        assert_close_relative(field.dense(), dense)
        # 2 * 15 + 1 cells: the first convolution of a zero background is the bias alone
        assert field.background.shape[1:] == ((31, 31) if bias else (1, 1))
        field, dense = T.maxpool2d(field), T.maxpool2d(dense[:, 0]).data[:, None]
        assert_close_relative(field.dense(), dense)
        assert field.background.shape[1:] == ((17, 17) if bias else (1, 1))  # a band of 15 cells pools to 8

    def test_kernel_exceeding_the_padded_input_rejected_as_for_an_array(self):
        with pytest.raises(TensorError, match="exceeds padded input"):
            T.conv2d(np.zeros((1, 2, 2)), np.ones((1, 1, 3, 3)), np.zeros(1), 0)
        with pytest.raises(TensorError, match="exceeds padded input"):
            T.conv3d(T.SparseField.of(np.zeros((1, 1, 2, 2))), np.ones((1, 1, 3, 3)), np.zeros(1), 0)

    def test_pool_window_exceeding_the_input_rejected_as_for_an_array(self):
        with pytest.raises(TensorError, match="window 2 exceeds input 1x3"):
            T.maxpool2d(np.ones((1, 1, 3)))
        with pytest.raises(TensorError, match="window 2 exceeds input 1x3"):
            T.maxpool2d(T.SparseField.of(np.ones((1, 1, 1, 3))))

    @pytest.mark.parametrize("h,w", [(41, 8), (41, 9), (13, 27), (7, 5)])
    def test_pool_of_any_parity_matches_dense(self, h, w):
        rng = np.random.default_rng(h * w)
        x = np.zeros((2, 1, h, w))
        x[:, 0, 0, 0] = rng.standard_normal(2)  # one site, so the bottom and right edges hold the background
        wt, b = rng.uniform(0.0, 1.0, (2, 2, 3, 3)), rng.uniform(0.5, 1.0, 2)  # a positive background, lower at the edges
        banded = T.SparseField.of(x)
        for _ in range(3):  # the first convolution gives the bias alone; each later one widens the edge band
            banded = T.relu(T.conv3d(banded, wt, b, 1))
        for field in (T.SparseField.of(np.ones((1, 1, h, w))), banded):
            dense = field.dense()
            for _ in range(2):
                field = T.maxpool2d(field)
                dense = T.maxpool2d(dense[:, 0]).data[:, None]
                assert_close_relative(field.dense(), dense)


class TestTemporalKernel:
    def test_kernel_is_outer_product(self):
        rng = np.random.default_rng(50)
        w, tw = rng.standard_normal((2, 3, 3, 3)), rng.standard_normal(4)
        k = T.temporal_kernel(T.Tensor(w), T.Tensor(tw)).data
        assert k.shape == (2, 3, 4, 3, 3)
        for t in range(4):
            np.testing.assert_array_equal(k[:, :, t], w * tw[t])

    def test_rejects_bad_shapes(self):
        with pytest.raises(TensorError, match="C_out"):
            T.temporal_kernel(T.Tensor(np.zeros((2, 3, 3))), T.Tensor(np.zeros(2)))
        with pytest.raises(TensorError, match="per frame"):
            T.temporal_kernel(T.Tensor(np.zeros((2, 3, 3, 3))), T.Tensor(np.zeros((2, 2))))


class TestMaxPool:
    def test_constant_input(self):
        y = T.maxpool2d(T.Tensor(np.full((2, 4, 4), 3.5)))
        assert y.data.shape == (2, 2, 2)
        assert np.all(y.data == 3.5)

    def test_increasing_raster_picks_bottom_right(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        y = T.maxpool2d(T.Tensor(x))
        np.testing.assert_array_equal(y.data[0], [[5, 7], [13, 15]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 6, 8))
        y = T.maxpool2d(T.Tensor(x))
        np.testing.assert_allclose(y.data, naive_maxpool(x, 2), atol=1e-12)

    def test_tie_routes_to_lowest_flat_index(self):
        tape = T.Tape()
        x = tape.parameter("x", np.ones((1, 2, 2)))
        y = T.maxpool2d(x)
        T.backward(tensor_sum(y), tape)
        g = tape.param_grads["x"][0]
        assert g[0, 0] == 1.0 and g.sum() == 1.0

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((2, 4, 4))

        def f(arrays):
            tape = T.Tape()
            y = T.maxpool2d(tape.parameter("x", arrays[0]))
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["x"]]

        finite_diff_check(f, [x0])


class TestActivations:
    def test_sigmoid_midpoint(self):
        assert sigmoid(T.Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_stable_at_700(self):
        y = sigmoid(T.Tensor([700.0, -700.0])).data
        assert np.all(np.isfinite(y)) and y[0] > 0.99 and y[1] < 0.01

    def test_relu_negative(self):
        assert T.relu(T.Tensor([-1.0])).data[0] == 0.0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(6)

        def f(arrays):
            tape = T.Tape()
            y = sigmoid(tape.parameter("x", arrays[0]))
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["x"]]

        finite_diff_check(f, [x0])


class TestBce:
    def test_saturating_correct_predictions_vanish(self):
        loss = T.bce_loss(T.Tensor([-40.0, 40.0]), np.array([0.0, 1.0]), np.ones(2))
        assert loss.item() < 1e-8

    def test_half_probability_positive_is_log2(self):
        # logit 0 is probability 1/2
        loss = T.bce_loss(T.Tensor([0.0]), np.array([1.0]), np.ones(1))
        assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)

    def test_empty_mask_is_zero(self):
        loss = T.bce_loss(T.Tensor([0.3, -0.7]), np.array([1.0, 0.0]), np.zeros(2))
        assert loss.item() == 0.0

    def test_matches_probability_form(self):
        z = np.array([-3.0, -0.5, 0.25, 2.0])
        q = np.array([1.0, 0.0, 1.0, 0.0])
        p = 1.0 / (1.0 + np.exp(-z))
        expect = -np.sum(q * np.log(p) + (1.0 - q) * np.log(1.0 - p))
        assert math.isclose(T.bce_loss(T.Tensor(z), q, np.ones(4)).item(), expect, rel_tol=1e-12)

    def test_confident_wrong_logits_stay_finite(self):
        # sigmoid(40.0) rounds to exactly 1.0; the loss on logits does not care
        tape = T.Tape()
        z = tape.parameter("z", np.array([40.0, -40.0, 800.0, -800.0]))
        loss = T.bce_loss(z, np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4))
        assert math.isclose(loss.item(), 1680.0, rel_tol=1e-12)
        T.backward(loss, tape)
        np.testing.assert_array_equal(tape.param_grads["z"], [1.0, -1.0, 1.0, -1.0])

    def test_gradients(self):
        rng = np.random.default_rng(10)
        z0 = rng.normal(scale=3.0, size=5)
        q = (rng.uniform(size=5) > 0.5).astype(float)

        def f(arrays):
            tape = T.Tape()
            loss = T.bce_loss(tape.parameter("z", arrays[0]), q, np.ones(5))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["z"]]

        finite_diff_check(f, [z0])


class TestSmoothL1:
    @pytest.mark.parametrize("x,expect", [(0.5, 0.125), (2.0, 1.5), (0.0, 0.0)])
    def test_piecewise_values(self, x, expect):
        loss = T.smooth_l1(T.Tensor([x]), np.zeros(1), np.ones(1))
        assert math.isclose(loss.item(), expect, abs_tol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        p0 = rng.uniform(-2.0, 2.0, size=6)
        t = rng.uniform(-2.0, 2.0, size=6)

        def f(arrays):
            tape = T.Tape()
            loss = T.smooth_l1(tape.parameter("p", arrays[0]), t, np.ones(6))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["p"]]

        finite_diff_check(f, [p0])


class TestBackward:
    def test_sum_of_squares_grad(self):
        tape = T.Tape()
        p = tape.parameter("p", np.array([1.0, -2.0, 3.0]))
        loss = tensor_sum(mul(p, p))
        T.backward(loss, tape)
        np.testing.assert_allclose(tape.param_grads["p"], [2.0, -4.0, 6.0])

    def test_chained_conv_relu_sum_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 4, 4))
        w0 = rng.standard_normal((2, 1, 3, 3))
        b0 = rng.standard_normal(2)

        def f(arrays):
            w, b = arrays
            tape = T.Tape()
            y = T.relu(T.conv2d(T.Tensor(x), tape.parameter("w", w), tape.parameter("b", b), pad=1))
            loss = tensor_sum(mul(y, y))
            val = loss.item()
            T.backward(loss, tape)
            return val, [tape.param_grads["w"], tape.param_grads["b"]]

        finite_diff_check(f, [w0, b0])

    def test_constant_graph_zero_grads(self):
        tape = T.Tape()
        p = tape.parameter("p", np.ones(3))
        loss = tensor_sum(T.Tensor(np.zeros(2)))
        with pytest.raises(TensorError):
            T.backward(loss, tape)

    def test_unused_parameter_gets_zero_grad(self):
        tape = T.Tape()
        p = tape.parameter("p", np.ones(3))
        q = tape.parameter("q", np.array([2.0]))
        loss = tensor_sum(mul(q, q))
        T.backward(loss, tape)
        np.testing.assert_array_equal(tape.param_grads["p"], np.zeros(3))

    def test_second_backward_rejected(self):
        tape = T.Tape()
        p = tape.parameter("p", np.ones(2))
        loss = tensor_sum(p)
        T.backward(loss, tape)
        with pytest.raises(TensorError, match="twice"):
            T.backward(loss, tape)

    def test_backward_frees_the_forward_without_gc(self):
        tape = T.Tape()
        p = tape.parameter("p", np.ones((2, 4, 4)))
        w = tape.parameter("w", np.ones((3, 2, 3, 3)))
        b = tape.parameter("b", np.zeros(3))
        y = T.relu(T.conv2d(p, w, b, pad=1))
        activation = weakref.ref(y.data)
        loss = tensor_sum(mul(y, y))
        del y
        gc.disable()
        try:
            T.backward(loss, tape)
            del loss
            assert activation() is None
        finally:
            gc.enable()
        assert tape.param_grads["w"].shape == (3, 2, 3, 3)

    def test_off_tape_operand_gets_no_gradient(self):
        rng = np.random.default_rng(14)
        tape = T.Tape()
        x = T.SparseField.of(rng.standard_normal((1, 3, 4, 4)))
        w = tape.parameter("w", rng.standard_normal((2, 1, 3, 3, 3)))
        b = tape.parameter("b", rng.standard_normal(2))
        field = T.conv3d(x, w, b, spatial_pad=1)
        y = T.write_out(field)
        T.backward(tensor_sum(mul(y, y)), tape)
        assert x.grad is None and x.background.grad is None
        assert field._parents == (w,) and field.background._parents == (b,)
        assert tape.param_grads["w"].shape == w.shape and np.any(tape.param_grads["w"])

    def test_operands_on_two_tapes_rejected(self):
        a = T.Tape().parameter("a", np.ones(2))
        b = T.Tape().parameter("b", np.ones(2))
        with pytest.raises(TensorError, match="different tapes"):
            T.add(a, b)

    def test_off_tape_tensor_rejected(self):
        tape = T.Tape()
        loss = tensor_sum(T.Tensor(np.ones(2)))
        with pytest.raises(TensorError):
            T.backward(loss, tape)

    def test_forward_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(99)
            tape = T.Tape()
            x = T.Tensor(rng.standard_normal((2, 6, 6)))
            w = tape.parameter("w", rng.standard_normal((2, 2, 3, 3)))
            b = tape.parameter("b", rng.standard_normal(2))
            y = T.maxpool2d(T.relu(T.conv2d(x, w, b, pad=1)))
            loss = tensor_sum(mul(y, y))
            T.backward(loss, tape)
            return loss.item(), tape.param_grads["w"].copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        assert np.array_equal(g1, g2)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"p": np.array([1.0, 2.0])}
        state = T.AdamState()
        T.adam_step(params, {"p": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["p"], [1.0, 2.0])

    def test_first_step_is_lr_times_sign(self):
        for g in (3.0, -0.25):
            params = {"p": np.array([0.0])}
            state = T.AdamState()
            T.adam_step(params, {"p": np.array([g])}, state, lr=0.01)
            # bias-corrected first step: -lr * g / (|g| + eps') ~= -lr*sign(g)
            assert math.isclose(params["p"][0], -0.01 * math.copysign(1.0, g), rel_tol=1e-4)

    def test_two_hand_computed_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = 1.0
        m = v = 0.0
        params = {"p": np.array([1.0])}
        state = T.AdamState()
        for t, g in [(1, 2.0), (2, -1.0)]:
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            T.adam_step(params, {"p": np.array([g])}, state, lr)
            assert math.isclose(params["p"][0], p, rel_tol=1e-12)


class TestCheckpoint:
    def test_byte_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"a.w": rng.standard_normal((2, 3)), "b.b": rng.standard_normal(4)}
        path = tmp_path / "ck.bin"
        T.save_checkpoint(path, params, {"note": 1})
        loaded, cfg = T.load_checkpoint(path)
        assert cfg == {"note": 1}
        assert list(loaded) == ["a.w", "b.b"]
        for k in params:
            assert np.array_equal(loaded[k], params[k])
        path2 = tmp_path / "ck2.bin"
        T.save_checkpoint(path2, loaded, cfg)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_before_writing(self, tmp_path, value):
        params = {"a.w": np.ones((2, 3)), "b.b": np.ones(4), "c.b": np.full(2, np.nan)}
        params["b.b"][2] = value
        path = tmp_path / "ck.bin"
        with pytest.raises(TensorError, match="tensor b.b holds a non-finite"):
            T.save_checkpoint(path, params)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\0" * 16)
        with pytest.raises(TensorError, match="magic"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[10**12], [10**30], [-1, 3], [2**62, 4], [2**62, 0]])
    def test_impossible_shape_rejected_before_reading(self, tmp_path, shape):
        header = json.dumps({"version": 1, "params": [{"name": "p", "shape": shape}], "config": None}).encode()
        path = tmp_path / "ck.bin"
        path.write_bytes(T.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header + bytes(24))
        with pytest.raises(TensorError, match="checkpoint"):
            T.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        T.save_checkpoint(path, {"p": np.ones(8)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorError, match="truncated"):
            T.load_checkpoint(path)
