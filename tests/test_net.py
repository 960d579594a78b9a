import gc
import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevtrack import net
from bevtrack import tensor as T
from bevtrack.config import from_dict, to_dict
from bevtrack.geom import RotatedBox
from bevtrack.net import (
    CODE_SIZE,
    GROUP_SIZES,
    AnchorGrid,
    Model,
    ModelConfig,
    build_anchors,
    decode,
    decode_boxes,
    encode_boxes,
    HeadOutput,
    init_params,
)
from bevtrack.sim import SimConfig, generate_dataset, make_samples
from bevtrack.train import TrainConfig, train
from bevtrack.voxel import GridSpec, InputTensor
from oracles import dense_forward, greedy_nms, mul, scalar_decode_box, scalar_encode_box, tensor_sum


MICRO_GRID = GridSpec((-1.6, 1.6), (-1.6, 1.6), (0.0, 0.4), 0.2)  # 16x16, Z=2


def micro_config(**kw):
    base = dict(grid=MICRO_GRID, n_in=3, n_out=2, fusion="late", widths=(2, 2, 2, 2), head_width=2)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_grid_not_divisible_rejected(self):
        grid = GridSpec((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.4), 0.2)  # 10x10
        with pytest.raises(ValueError, match="stride"):
            ModelConfig(grid=grid)

    @pytest.mark.parametrize("widths,head_width", [((0, 1, 1, 1), 0), ((2, 2, -1, 2), 0), ((2, 2, 2, 2), -1)])
    def test_widths_below_one_rejected(self, widths, head_width):
        with pytest.raises(ValueError, match="width"):
            micro_config(widths=widths, head_width=head_width)

    def test_head_width_zero_means_last_trunk_width(self):
        params = init_params(micro_config(widths=(2, 2, 2, 3), head_width=0))
        assert params["head.cls.c.w"].shape[0] == 3

    def test_temporal_kernel_schedule(self):
        assert micro_config(n_in=5).temporal_kernels() == (3, 3)
        assert micro_config(n_in=4).temporal_kernels() == (3, 2)
        assert micro_config(n_in=3).temporal_kernels() == (3,)
        assert micro_config(n_in=2).temporal_kernels() == (2,)
        assert micro_config(n_in=1).temporal_kernels() == ()

    def test_roundtrip_dict(self):
        cfg = micro_config(n_in=5, fusion="early")
        assert from_dict(ModelConfig, to_dict(cfg), "model") == cfg


class TestAnchors:
    def test_square_five_meter(self):
        cfg = micro_config()
        anchors = build_anchors(cfg)
        _cx, _cy, w, h, _theta = anchors.array[0]
        assert w == pytest.approx(5.0) and h == pytest.approx(5.0)

    def test_one_to_two_ratio(self):
        cfg = micro_config()
        _i, _j = cfg.feat_shape
        anchors = build_anchors(cfg)
        _cx, _cy, w, h, _theta = anchors.array[_i * _j]  # second anchor kind, ratio 1:2
        assert w == pytest.approx(5.0 / math.sqrt(2))
        assert h == pytest.approx(5.0 * math.sqrt(2))
        assert w * h == pytest.approx(25.0)

    def test_six_kinds_per_location(self):
        cfg = micro_config()
        anchors = build_anchors(cfg)
        I, J = cfg.feat_shape
        assert anchors.shape == (6, I, J)
        assert anchors.array.shape == (6 * I * J, 5)

    def test_centers_at_feature_cells(self):
        cfg = micro_config()
        anchors = build_anchors(cfg)
        assert anchors.array[0, 0] == pytest.approx(-1.6 + 0.5 * 1.6)
        assert (anchors.array[:, 4] == 0.0).all()


class TestBoxCodec:
    def test_identity_pair(self):
        a = [2, 3, 4, 6, 0]
        np.testing.assert_allclose(encode_boxes(a, a), [0, 0, 0, 0, 0, 1], atol=1e-15)

    def test_hand_case(self):
        code = encode_boxes([0, 0, 5, 5, 0], [1, 0, 5, 10, 0])
        np.testing.assert_allclose(code, [-0.2, 0, 0, -math.log(2), 0, 1], atol=1e-12)

    def test_hand_decode(self):
        box = decode_boxes([0, 0, 5, 5, 0], [-0.2, 0, 0, -math.log(2), 0, 1])
        assert box.tolist() == pytest.approx([1, 0, 5, 10, 0])

    def test_heading_from_sin_cos(self):
        a = [0, 0, 2, 2, 0]
        assert decode_boxes(a, [0, 0, 0, 0, 0.0, 1.0])[4] == 0.0
        assert decode_boxes(a, [0, 0, 0, 0, 1.0, 0.0])[4] == pytest.approx(math.pi / 2)

    def test_pi_ambiguity_resolved(self):
        a = [0, 0, 2, 4, 0]
        c0, cpi = encode_boxes(a, [[0, 0, 2, 4, 0.0], [0, 0, 2, 4, math.pi]])
        assert c0[5] == pytest.approx(1.0) and cpi[5] == pytest.approx(-1.0)

    def test_roundtrip_10k_random_pairs(self):
        rng = np.random.default_rng(42)
        anchors = np.column_stack([rng.uniform(-20, 20, 10_000), rng.uniform(-20, 20, 10_000),
                                   rng.uniform(1, 8, 10_000), rng.uniform(1, 8, 10_000), np.zeros(10_000)])
        gts = np.column_stack([anchors[:, 0] + rng.uniform(-3, 3, 10_000), anchors[:, 1] + rng.uniform(-3, 3, 10_000),
                               rng.uniform(1, 8, 10_000), rng.uniform(1, 8, 10_000),
                               rng.uniform(-math.pi, math.pi, 10_000)])
        back = decode_boxes(anchors, encode_boxes(anchors, gts))
        assert np.abs(back - gts).max() < 1e-9

    def test_decode_translation_equivariance(self):
        rng = np.random.default_rng(7)
        code = rng.uniform(-0.5, 0.5, CODE_SIZE)
        code[4:] = [0.3, 0.8]
        b0, b1 = decode_boxes([[1.0, 2.0, 4.0, 5.0, 0.0], [4.0, 0.0, 4.0, 5.0, 0.0]], [code, code])
        assert b1[0] - b0[0] == pytest.approx(3.0)
        assert b1[1] - b0[1] == pytest.approx(-2.0)


coord = st.floats(-50.0, 50.0)
side = st.floats(0.1, 10.0)
row = st.tuples(coord, coord, side, side, st.floats(-math.pi, math.pi))
# a ground-truth row with sides about 1000 times or a thousandth of the anchor's
far_ratio = st.sampled_from([1e-3, 1e3]).flatmap(lambda r: st.floats(0.5 * r, 2.0 * r))


def scalar_codes(anchors, gts):
    """``scalar_encode_box`` over broadcast rows, taking each heading as given."""
    boxes = [SimpleNamespace(**dict(zip(("cx", "cy", "w", "h", "theta"), r))) for r in (anchors, gts)]
    return scalar_encode_box(*boxes).tolist()


class TestEncodeMatchesScalarOracle:
    def assert_matches(self, anchors, gts):
        got = encode_boxes(anchors, gts)
        a, g = np.broadcast_arrays(np.asarray(anchors, dtype=float), np.asarray(gts, dtype=float))
        assert got.shape == a.shape[:-1] + (CODE_SIZE,)
        assert got.reshape(-1, CODE_SIZE).tolist() == [
            scalar_codes(x, y) for x, y in zip(a.reshape(-1, 5).tolist(), g.reshape(-1, 5).tolist())
        ]

    @given(st.lists(st.tuples(row, row), max_size=8))
    def test_random_pairs(self, pairs):
        self.assert_matches(np.reshape([a for a, _ in pairs], (-1, 5)), np.reshape([g for _, g in pairs], (-1, 5)))

    @given(row, st.lists(st.tuples(coord, coord, far_ratio, far_ratio, st.floats(-math.pi, math.pi)), max_size=8))
    def test_one_anchor_against_far_side_ratios(self, anchor, scaled):
        gts = [(cx, cy, anchor[2] / rw, anchor[3] / rh, th) for cx, cy, rw, rh, th in scaled]
        self.assert_matches(anchor, np.reshape(gts, (-1, 5)))

    @given(st.lists(st.tuples(row, st.tuples(coord, coord, side, side, st.floats(-30.0, 30.0))), min_size=1, max_size=8))
    def test_unwrapped_headings(self, pairs):
        self.assert_matches([a for a, _ in pairs], [g for _, g in pairs])

    def test_empty(self):
        assert encode_boxes(np.zeros((0, 5)), np.zeros((0, 5))).shape == (0, CODE_SIZE)
        assert encode_boxes([0, 0, 5, 5, 0], np.zeros((0, 5))).shape == (0, CODE_SIZE)


class TestDecodeBroadcasts:
    """decode_boxes broadcasts the leading axes of anchors and codes, box for box the scalar oracle."""

    def assert_matches(self, anchors, codes):
        got = decode_boxes(anchors, codes)
        lead = np.broadcast_shapes(anchors.shape[:-1], codes.shape[:-1])
        a = np.broadcast_to(anchors, lead + (5,)).reshape(-1, 5).tolist()
        c = np.broadcast_to(codes, lead + (CODE_SIZE,)).reshape(-1, CODE_SIZE)
        assert got.shape == lead + (5,)
        assert [RotatedBox(*r) for r in got.reshape(-1, 5).tolist()] == [
            scalar_decode_box(RotatedBox(*x), y) for x, y in zip(a, c)
        ]

    @staticmethod
    def draw(rng, n):
        anchors = np.column_stack([rng.uniform(-20, 20, (2, n)).T, rng.uniform(1, 8, (2, n)).T, np.zeros(n)])
        return anchors, rng.normal(0.0, 0.5, (n, CODE_SIZE))

    def test_anchor_rows_against_one_code(self):
        anchors, codes = self.draw(np.random.default_rng(1), 4)
        self.assert_matches(anchors, codes[0])

    def test_one_anchor_against_code_rows(self):
        anchors, codes = self.draw(np.random.default_rng(2), 4)
        self.assert_matches(anchors[0], codes)

    def test_outer_product(self):
        anchors, codes = self.draw(np.random.default_rng(3), 3)
        # the last code's size entries reach past +-MAX_SIZE_CODE and clamp
        self.assert_matches(anchors[:, None], np.concatenate([codes, codes[:1] * 40.0])[None])


class TestForward:
    def test_output_shapes(self):
        for fusion in ("early", "late"):
            cfg = micro_config(fusion=fusion)
            m = Model(cfg, seed=0)
            occ = np.zeros((3, 2, 16, 16))
            out, _, _ = m.forward(InputTensor(occ))
            I, J = cfg.feat_shape
            assert out.cls.shape == (6, I, J)
            assert out.reg.shape == (6, cfg.n_out, CODE_SIZE, I, J)

    def test_feature_dims_for_full_scale_grid(self):
        grid = GridSpec((-72.0, 72.0), (-40.0, 40.0), (-2.0, 3.8), 0.2)
        cfg = ModelConfig(grid=grid)
        assert cfg.feat_shape == (90, 50)

    def test_zero_input_cls_is_sigmoid_bias(self):
        cfg = micro_config(fusion="early")
        m = Model(cfg, seed=3)
        out, _, _ = m.forward(InputTensor(np.zeros((3, 2, 16, 16))))
        bias = m.params["head.cls.p.b"]
        expect = 1.0 / (1.0 + np.exp(-bias))
        for k in range(6):
            np.testing.assert_allclose(out.cls[k], expect[k], atol=1e-12)

    def test_single_frame_late_fusion_degenerates(self):
        cfg = micro_config(fusion="late", n_in=1)
        m = Model(cfg, seed=1)
        out, _, _ = m.forward(InputTensor(np.zeros((1, 2, 16, 16))))
        assert out.cls.shape[0] == 6
        assert not any(".w" in n and m.params[n].ndim == 5 for n in m.params)

    def test_late_fusion_has_3d_kernels(self):
        cfg = micro_config(fusion="late", n_in=5)
        params = init_params(cfg, seed=0)
        assert params["g1.c1.w"].shape == (2, 2, 3, 3, 3)
        assert params["g1.c2.w"].shape == (2, 2, 3, 3, 3)

    def test_parameter_count_closed_form(self):
        cfg = micro_config(fusion="early")
        params = init_params(cfg, seed=0)
        z, w = 2, 2
        conv_w = 0
        in_ch = z
        for n_convs, width in zip(GROUP_SIZES, cfg.widths):
            for _ in range(n_convs):
                conv_w += width * in_ch * 9 + width
                in_ch = width
        heads = 2 * (cfg.head_width * cfg.widths[-1] * 9 + cfg.head_width)
        k = cfg.num_anchors
        heads += k * cfg.head_width + k
        reg_ch = k * cfg.n_out * CODE_SIZE
        heads += reg_ch * cfg.head_width + reg_ch
        expect = cfg.n_in + conv_w + heads
        assert sum(v.size for v in params.values()) == expect

    def test_wrong_temporal_extent_rejected(self):
        m = Model(micro_config(), seed=0)
        with pytest.raises(ValueError, match="T="):
            m.forward(InputTensor(np.zeros((2, 2, 16, 16))))

    def test_untaped_forward_frees_its_buffers_without_gc(self):
        m = Model(micro_config(), seed=0)
        gc.disable()
        try:
            out = m.forward(InputTensor(np.ones((3, 2, 16, 16))))
            logits = weakref.ref(out[1].data)
            assert out[1].tape._nodes == []
            del out
            assert logits() is None
        finally:
            gc.enable()

    def test_bitwise_deterministic(self):
        occ = (np.random.default_rng(0).random((3, 2, 16, 16)) > 0.8).astype(float)
        for fusion in ("early", "late"):
            m = Model(micro_config(fusion=fusion), seed=0)
            o1, _, _ = m.forward(InputTensor(occ))
            o2, _, _ = m.forward(InputTensor(occ))
            assert np.array_equal(o1.cls, o2.cls)
            assert np.array_equal(o1.reg, o2.reg)


class TestConvolutionRouting:
    LATER = ("g1.c2", "g2.c1", "g2.c2", "g3.c1", "g3.c2", "g3.c3", "g4.c1", "g4.c2", "g4.c3",
             "head.cls.c", "head.cls.p", "head.reg.c", "head.reg.p")
    SPARSE = ("g1.c2", "g2.c1", "g2.c2")  # these run on a SparseField, after g1.c1

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 4), ("late", 3), ("late", 1), ("early", 5), ("early", 1)])
    def test_one_sparse_conv3d_then_conv2d_with_named_weights(self, fusion, n_in, monkeypatch):
        """Taped and untaped: conv3d on a SparseField through g2, then conv2d."""
        calls = []

        def spy(kind, fn):
            def recorded(x, w, b, **kw):
                calls.append((kind, x, w))
                return fn(x, w, b, **kw)

            return recorded

        monkeypatch.setattr(T, "conv3d", spy("conv3d", T.conv3d))
        monkeypatch.setattr(T, "conv2d", spy("conv2d", T.conv2d))
        model = Model(micro_config(fusion=fusion, n_in=n_in), seed=0)
        occ = (np.random.default_rng(n_in).random((n_in, 2, 16, 16)) > 0.8).astype(float)
        for tape in (None, T.Tape()):
            calls.clear()
            model.forward(InputTensor(occ), tape=tape)
            # the layers pass their named weights; a field's background convolves with an unnamed view of them
            (kind, x, _w), *rest = [calls[0]] + [(k, x, w) for k, x, w in calls[1:] if getattr(w, "name", None)]
            assert kind == "conv3d" and type(x) is T.SparseField
            assert [k for k, _x, _w in rest] == ["conv3d" if label in self.SPARSE else "conv2d" for label in self.LATER]
            assert [isinstance(x, T.SparseField) for _k, x, _w in rest] == [label in self.SPARSE for label in self.LATER]
            assert [w.name for _k, _x, w in rest] == [f"{label}.w" for label in self.LATER]
            assert all(w.shape == model.params[w.name].shape for _k, _x, w in rest)


def assert_sparse_matches_dense(model, occ, rtol=1e-12):
    """The untaped and taped outputs and every parameter gradient against the dense oracle.

    Each array agrees within rtol of its largest value. The gradients are
    those of a random weighting of the cls logits and the regression codes.
    """
    oracle = T.Tape()
    cls, reg = dense_forward(model, occ, oracle)
    rng = np.random.default_rng(0)
    weights = rng.standard_normal(cls.shape), rng.standard_normal(reg.shape)
    T.backward(weighted_sum((cls, reg), weights), oracle)
    tape = T.Tape()
    taped = model.forward(InputTensor(occ), tape=tape)
    T.backward(weighted_sum(taped[1:], weights), tape)
    untaped = model.forward(InputTensor(occ))
    wants = (T.sigmoid_array(cls.data), reg.data, cls.data)
    pairs = [(got, want) for out in (untaped, taped) for got, want in zip((out[0].cls, out[0].reg, out[1].data), wants)]
    assert tape.param_grads.keys() == oracle.param_grads.keys()
    pairs += [(tape.param_grads[name], grad) for name, grad in oracle.param_grads.items()]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rtol * np.abs(want).max(), (np.abs(got - want).max(), np.abs(want).max())


class TestBoolOccupancy:
    """The voxelizer's bool occupancy and the same values as float64 give byte-equal outputs and gradients."""

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 4), ("late", 3), ("late", 1), ("early", 5), ("early", 1)])
    def test_bool_and_float_inputs_agree_bytewise(self, fusion, n_in):
        grid = GridSpec((0.0, 9.6), (0.0, 6.4), (0.0, 0.4), 0.2)  # 48 x 32 cells
        cfg = micro_config(grid=grid, fusion=fusion, n_in=n_in, widths=(3, 4, 3, 2))
        model = with_random_biases(Model(cfg, seed=n_in), seed=7)
        occ = edge_input(n_in, 2, 48, 32, seed=n_in).astype(bool)
        rng = np.random.default_rng(0)
        arrays = []
        for x in (occ, occ.astype(np.float64)):
            untaped, _, _ = model.forward(InputTensor(x))
            tape = T.Tape()
            taped, cls, reg = model.forward(InputTensor(x), tape=tape)
            if not arrays:
                weights = rng.standard_normal(cls.shape), rng.standard_normal(reg.shape)
            T.backward(weighted_sum((cls, reg), weights), tape)
            grads = [tape.param_grads[name] for name in sorted(tape.param_grads)]
            arrays.append([untaped.cls, untaped.reg, taped.cls, taped.reg, cls.data, reg.data, *grads])
        assert len(arrays[0]) == 6 + len(model.params)
        for got, want in zip(*arrays):
            assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()


def weighted_sum(tensors, weights):
    """sum(w * t) over pairs, as a taped scalar."""
    loss = None
    for t, w in zip(tensors, weights):
        term = tensor_sum(mul(t, T.Tensor(w)))
        loss = term if loss is None else T.add(loss, term)
    return loss


def with_random_biases(model, seed):
    """init_params zeroes every bias, which leaves the background field trivial."""
    rng = np.random.default_rng(seed)
    for name, v in model.params.items():
        if name.endswith(".b"):
            model.params[name] = rng.uniform(-1.0, 1.0, v.shape)
    return model


def edge_input(n_in, nz, nx, ny, seed):
    """Sparse occupancy with voxels on all four edges and corners of the first and last frames."""
    rng = np.random.default_rng(seed)
    occ = (rng.random((n_in, nz, nx, ny)) < 0.03).astype(float)
    for t in (0, n_in - 1):
        for x, y in ((0, 0), (0, ny - 1), (nx - 1, 0), (nx - 1, ny - 1), (0, ny // 2), (nx - 1, 3), (nx // 3, 0), (5, ny - 1)):
            occ[t, rng.integers(nz), x, y] = 1.0
    return occ


class TestSparseInference:
    """Model.forward runs the first SPARSE_GROUPS groups as a SparseField, taped or not; oracles.dense_forward is its oracle."""

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 4), ("late", 3), ("late", 1), ("early", 5), ("early", 1)])
    @pytest.mark.parametrize("cells", [(16, 24), (32, 32), (48, 40), (72, 16)])  # sides below, at and above 32
    def test_matches_dense_with_random_biases(self, fusion, n_in, cells):
        nx, ny = cells
        grid = GridSpec((0.0, 0.2 * nx), (0.0, 0.2 * ny), (0.0, 0.4), 0.2)
        cfg = micro_config(grid=grid, fusion=fusion, n_in=n_in, widths=(3, 4, 3, 2))
        model = with_random_biases(Model(cfg, seed=n_in), seed=nx)
        for occ in (edge_input(n_in, 2, nx, ny, seed=ny), np.zeros((n_in, 2, nx, ny)), np.ones((n_in, 2, nx, ny))):
            assert_sparse_matches_dense(model, occ)

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 4), ("late", 1), ("early", 5), ("early", 1)])
    @pytest.mark.parametrize("cells", [(32, 32), (72, 16), (120, 80)])
    def test_three_sparse_groups_match_dense(self, fusion, n_in, cells, monkeypatch):
        """g1 to g3 on a field: the edge band widens through seven convolutions and three pools, on sides up to 120 cells."""
        monkeypatch.setattr(net, "SPARSE_GROUPS", 3)
        nx, ny = cells
        grid = GridSpec((0.0, 0.2 * nx), (0.0, 0.2 * ny), (0.0, 0.4), 0.2)
        cfg = micro_config(grid=grid, fusion=fusion, n_in=n_in, widths=(3, 4, 3, 2))
        model = with_random_biases(Model(cfg, seed=n_in), seed=nx)
        for occ in (edge_input(n_in, 2, nx, ny, seed=ny), np.zeros((n_in, 2, nx, ny))):
            assert_sparse_matches_dense(model, occ)

    @pytest.mark.parametrize("fusion,n_in", [("late", 5), ("late", 4), ("late", 1), ("early", 5), ("early", 1)])
    @pytest.mark.parametrize("cells", [(32, 32), (72, 16), (120, 80)])
    def test_four_sparse_groups_match_dense(self, fusion, n_in, cells, monkeypatch):
        """Every group on a field: the field is written out before the heads."""
        monkeypatch.setattr(net, "SPARSE_GROUPS", 4)
        nx, ny = cells
        grid = GridSpec((0.0, 0.2 * nx), (0.0, 0.2 * ny), (0.0, 0.4), 0.2)
        cfg = micro_config(grid=grid, fusion=fusion, n_in=n_in, widths=(3, 4, 3, 2))
        model = with_random_biases(Model(cfg, seed=n_in), seed=nx)
        for occ in (edge_input(n_in, 2, nx, ny, seed=ny), np.zeros((n_in, 2, nx, ny)), np.ones((n_in, 2, nx, ny))):
            assert_sparse_matches_dense(model, occ)

    @pytest.mark.parametrize("g1_off", [False, True])
    def test_tied_pool_windows_match_dense(self, g1_off):
        """Pool windows whose children tie: every bias zero, or random biases and a g1.c1 bias that turns g1's background off.

        The dense pool sends a tied window's gradient to its lowest flat index;
        the background, pooled on its small grid, may pick a band cell of the
        same value instead.
        """
        grid = GridSpec((0.0, 9.6), (0.0, 8.0), (0.0, 0.4), 0.2)  # 48 x 40 cells
        model = Model(micro_config(grid=grid, n_in=5, widths=(3, 4, 3, 2)), seed=3)
        if g1_off:
            model = with_random_biases(model, seed=5)
            model.params["g1.c1.b"] = np.full(3, -0.5)
            model.params["g1.c2.b"] = np.abs(model.params["g1.c2.b"])
        occ = edge_input(5, 2, 48, 40, seed=4)
        field = T.SparseField.of(occ.transpose(1, 0, 2, 3))
        for name in ("g1.c1", "g1.c2"):
            field = T.relu(T.conv3d(field, model.params[f"{name}.w"], model.params[f"{name}.b"], spatial_pad=1))
        # g1's output off the sites is the relu of g1.c2's bias alone: zero, or positive and tied in the edge band too
        assert np.array_equal(field.background.data, np.maximum(model.params["g1.c2.b"], 0.0)[:, None, None]
                              * np.ones(field.background.shape))
        windows = field.dense()[:, 0].reshape(3, 24, 2, 20, 2)
        top = windows.max(axis=(2, 4))
        tied = (windows == top[:, :, None, :, None]).sum(axis=(2, 4)) > 1
        assert tied.any() and not tied.all() and (tied & (top > 0.0)).any() == g1_off
        assert_sparse_matches_dense(model, occ)

    def test_matches_dense_on_a_trained_checkpoint(self, tmp_path):
        grid = GridSpec((-4.8, 4.8), (-4.0, 4.0), (0.0, 1.6), 0.2)  # 48 x 40 cells
        cfg = micro_config(grid=grid, n_in=3, n_out=2, widths=(4, 4, 4, 4), head_width=4)
        scene = SimConfig(seed=2, duration=8, n_vehicles=(2, 2), spawn_x=(-3.0, 3.0), spawn_y=(-2.5, 2.5),
                          vehicle_width=(1.5, 2.0), vehicle_length=(3.0, 4.0), max_spawn_retries=500)
        samples, _ = make_samples(generate_dataset(scene), grid, cfg.n_in, cfg.n_out)
        model = Model(cfg, seed=0)
        train(samples, model, build_anchors(cfg), TrainConfig(iterations=30, lr=1e-2, batch_size=1, seed=0))
        T.save_checkpoint(tmp_path / "model.ckpt", model.params)
        params, _ = T.load_checkpoint(tmp_path / "model.ckpt")
        assert np.abs(params["g1.c2.b"]).min() > 0.0 and np.abs(params["g2.c2.b"]).min() > 0.0
        for sample in samples:
            assert_sparse_matches_dense(Model(cfg, params=params), sample.occupancy)

    def test_empty_input_gives_the_background(self):
        cfg = micro_config(grid=GridSpec((0.0, 9.6), (0.0, 6.4), (0.0, 0.4), 0.2), n_in=5)
        model = with_random_biases(Model(cfg, seed=0), seed=1)
        field = T.SparseField.of(np.zeros((2, 5, 48, 32)))
        for name in ("g1.c1", "g1.c2"):
            field = T.relu(T.conv3d(field, model.params[f"{name}.w"], model.params[f"{name}.b"], spatial_pad=1))
        assert len(field.sites) == 0
        assert field.background.shape == (2, 3, 3)  # a band of one cell per padded convolution after the first
        assert_sparse_matches_dense(model, np.zeros((5, 2, 48, 32)))


class TestDecode:
    def test_exact_code_roundtrip_through_head(self):
        cfg = micro_config(n_out=2)
        anchors = build_anchors(cfg)
        K, I, J = anchors.shape
        gt = RotatedBox(0.4, -0.2, 2.0, 4.5, 0.3)
        cls = np.zeros((K, I, J))
        reg = np.zeros((K, cfg.n_out, CODE_SIZE, I, J))
        cls[0, 0, 0] = 0.95
        code = encode_boxes(anchors.array[0], [gt.cx, gt.cy, gt.w, gt.h, gt.theta])
        for t in range(cfg.n_out):
            reg[0, t, :, 0, 0] = code
        out = decode(HeadOutput(cls=cls, reg=reg), anchors, score_thr=0.5)
        assert len(out.detections) == 1
        det = out.detections[0]
        for b in det.boxes:
            assert abs(b.cx - gt.cx) < 1e-9 and abs(b.theta - gt.theta) < 1e-9

    def test_nms_runs_on_current_frame_only(self):
        cfg = micro_config(n_out=2)
        anchors = build_anchors(cfg)
        K, I, J = anchors.shape
        cls = np.zeros((K, I, J))
        reg = np.zeros((K, cfg.n_out, CODE_SIZE, I, J))
        reg[:, :, 5] = 1.0  # cos component, theta 0
        cls[0, 0, 0] = 0.9
        cls[0, 0, 1] = 0.8  # neighboring anchor, same decoded box after offset
        # make the second detection decode onto the first one's footprint
        a0, a1 = anchors.array[0], anchors.array[1]
        code1 = encode_boxes(a1, a0)
        reg[0, 0, :, 0, 1] = code1
        # but give it a distinct future box
        reg[0, 1, :, 0, 1] = encode_boxes(a1, [a1[0], a1[1], 1.0, 1.0, 0.0])
        out = decode(HeadOutput(cls=cls, reg=reg), anchors, score_thr=0.5, nms_thr=0.5)
        assert len(out.detections) == 1
        assert out.detections[0].score == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_decoding_every_candidate_then_suppressing(self, seed):
        # the scalar path: every candidate's boxes decoded value by value, then greedy NMS
        cfg = micro_config(n_out=3)
        anchors = build_anchors(cfg)
        rng = np.random.default_rng(seed)
        cls = rng.uniform(size=anchors.shape)
        reg = rng.normal(0.0, 0.5, (*anchors.shape[:1], 3, CODE_SIZE, *anchors.shape[1:]))
        reg[:, :, 2:4] *= rng.choice([1.0, 40.0], size=reg[:, :, 2:4].shape)  # some sizes clamp
        out = decode(HeadOutput(cls=cls, reg=reg), anchors, frame=7, score_thr=0.3, nms_thr=0.2)
        candidates = []
        for idx in np.flatnonzero(cls.reshape(-1) >= 0.3):
            k, i, j = np.unravel_index(idx, anchors.shape)
            anchor = RotatedBox(*anchors.array[idx].tolist())
            boxes = [scalar_decode_box(anchor, reg[k, t, :, i, j]) for t in range(3)]
            candidates.append((float(cls.reshape(-1)[idx]), boxes))
        kept = greedy_nms([(boxes[0], score) for score, boxes in candidates], 0.2)
        assert len(kept) > 1 and out.frame == 7
        assert [(d.score, d.boxes) for d in out.detections] == [candidates[n] for n in kept]

    def test_invalid_threshold_rejected(self):
        cfg = micro_config()
        anchors = build_anchors(cfg)
        K, I, J = anchors.shape
        out = HeadOutput(cls=np.zeros((K, I, J)), reg=np.zeros((K, cfg.n_out, CODE_SIZE, I, J)))
        with pytest.raises(ValueError):
            decode(out, anchors, score_thr=1.5)

    def test_extreme_and_non_finite_codes_decode_without_raising(self):
        cfg = micro_config(n_out=1)
        anchors = build_anchors(cfg)
        K, I, J = anchors.shape
        cls = np.zeros((K, I, J))
        reg = np.zeros((K, 1, CODE_SIZE, I, J))
        codes = ([0, 0, -800, 0, 0, 1], [0, 0, 800, 0, 0, 1], [0, 0, np.nan, 0, 0, 1])
        for (i, j), code in zip(((0, 0), (0, 1), (1, 0)), codes):
            cls[0, i, j] = 0.9
            reg[0, 0, :, i, j] = code
        out = decode(HeadOutput(cls=cls, reg=reg), anchors, score_thr=0.5, nms_thr=1.0)
        assert len(out.detections) == 2
        wide, narrow = sorted((d.boxes[0] for d in out.detections), key=lambda b: -b.w)
        assert wide.w == pytest.approx(anchors.array[0, 2] * 1000.0)
        assert narrow.w == pytest.approx(anchors.array[1, 2] / 1000.0)

    def test_a_box_that_decodes_non_finite_is_dropped(self):
        # finite codes whose offsets overflow once scaled by the anchor's side
        cfg = micro_config(n_out=2)
        anchors = build_anchors(cfg)
        K, I, J = anchors.shape
        cls = np.zeros((K, I, J))
        reg = np.zeros((K, cfg.n_out, CODE_SIZE, I, J))
        reg[:, :, 5] = 1.0
        cls[0, 0, 0] = 0.9  # current box at +-inf: must not suppress the next one
        reg[0, 0, 0, 0, 0] = 1e308
        cls[0, 0, 1] = 0.8  # same footprint as anchor 0's, kept
        reg[0, :, :, 0, 1] = encode_boxes(anchors.array[1], anchors.array[0])
        cls[0, 1, 1] = 0.7  # finite now, non-finite forecast: dropped after NMS
        reg[0, 1, 1, 1, 1] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = decode(HeadOutput(cls=cls, reg=reg), anchors, score_thr=0.5, nms_thr=0.5)
        assert [d.score for d in out.detections] == [pytest.approx(0.8)]
        assert all(math.isfinite(v) for b in out.detections[0].boxes for v in (b.cx, b.cy, b.w, b.h, b.theta))
