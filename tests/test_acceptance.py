"""End-to-end acceptance gate.

Each test prints one line, "[NN] name: PASS/FAIL", so a full run doubles as
the release report. The checks are property-based (oracles, determinism,
direction-reproducing experiments) rather than absolute benchmark numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from bevtrack import tensor as T
from bevtrack.cli import main as cli_main
from bevtrack.geom import RotatedBox, iou
from bevtrack.metrics import (
    EvalConfig,
    ScoredBox,
    average_precision,
    clear_mot,
    forecast_error,
)
from bevtrack.net import (
    Detection,
    DetectionSet,
    Model,
    ModelConfig,
    build_anchors,
    decode_boxes,
    encode_boxes,
)
from bevtrack.pipeline import detect_dataset, evaluate_detection, evaluate_forecast
from bevtrack.sim import GtObject, LabelRecord, SimConfig, generate_dataset, gt_tracks_world, make_samples
from bevtrack.track import TrackletFrame, decode_tracklets, hungarian_track
from bevtrack.train import (
    TrainConfig,
    assign_targets,
    mine_hard_negatives,
    train,
)
from bevtrack.voxel import GridSpec, InputTensor, voxelize
from oracles import mc_iou, mul, sigmoid, tensor_sum


def report(num, name, ok, detail=""):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


MICRO_GRID = GridSpec((-1.6, 1.6), (-1.6, 1.6), (0.0, 0.4), 0.2)
DESK_GRID = GridSpec((-9.6, 9.6), (-6.4, 6.4), (0.0, 0.8), 0.2)


# ---------------------------------------------------------------------------
# 1. gradient suite


def _fd_check(f, arrays, eps=1e-5, tol=1e-4):
    """Central finite differences against analytic grads; worst rel error."""
    _value, grads = f(arrays)
    worst = 0.0
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
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def _op_graph(build):
    """Wrap an op chain into the (value, grads) closure _fd_check expects."""

    def f(arrays):
        tape = T.Tape()
        params = [tape.parameter(f"p{i}", a) for i, a in enumerate(arrays)]
        loss = build(*params)
        val = loss.item()
        T.backward(loss, tape)
        return val, [tape.param_grads[f"p{i}"] for i in range(len(arrays))]

    return f


def test_c01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    # elementwise chain: relu, sigmoid, add, mul, scale, reshape, sum
    x = rng.standard_normal((2, 3, 4)) + 0.1
    y = rng.standard_normal((2, 3, 4))
    worst = max(
        worst,
        _fd_check(
            _op_graph(
                lambda a, b: tensor_sum(
                    mul(sigmoid(T.add(a, b)), T.reshape(T.relu(T.scale(a, 1.7)), (2, 3, 4)))
                )
            ),
            [x, y],
        ),
    )

    # spatial convolution
    worst = max(
        worst,
        _fd_check(
            _op_graph(lambda a, w, b: tensor_sum(mul(c := T.conv2d(a, w, b, pad=1), c))),
            [rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(2)],
        ),
    )

    # a field convolution collapsing three frames over a nonzero background,
    # whose kernel is summed over its frames to convolve the background plane
    occ3 = rng.standard_normal((2, 3, 4, 4)) * (rng.random((2, 3, 4, 4)) < 0.3)
    worst = max(
        worst,
        _fd_check(
            _op_graph(lambda w0, b0, w, b: tensor_sum(mul(c := T.write_out(
                T.conv3d(T.relu(T.conv3d(T.SparseField.of(occ3), w0, b0, 1)), w, b, 1)), c))),
            [rng.standard_normal((2, 2, 3, 3)), rng.uniform(0.2, 1.0, 2),
             rng.standard_normal((2, 2, 3, 3, 3)), rng.uniform(0.2, 1.0, 2)],
        ),
    )

    # early-fusion kernel: spatial kernel times per-frame weights
    worst = max(
        worst,
        _fd_check(
            _op_graph(lambda w, t: tensor_sum(mul(c := T.temporal_kernel(w, t), c))),
            [rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(3)],
        ),
    )

    # pooling (continuous input: no ties)
    worst = max(
        worst,
        _fd_check(_op_graph(lambda a: tensor_sum(mul(c := T.maxpool2d(a), c))), [rng.standard_normal((2, 4, 4))]),
    )

    # losses
    q = (rng.random((3, 3)) > 0.5).astype(float)
    mask = np.ones((3, 3))
    worst = max(
        worst,
        _fd_check(_op_graph(lambda a: T.bce_loss(a, q, mask)), [rng.standard_normal((3, 3))]),
    )
    tgt = rng.standard_normal((3, 3))
    worst = max(
        worst,
        _fd_check(_op_graph(lambda a: T.smooth_l1(a, tgt, mask)), [rng.standard_normal((3, 3)) * 2]),
    )

    # both full micro-backbones end to end, subsampled parameter components
    occ = (rng.random((3, 2, 16, 16)) > 0.8).astype(float)
    gt = [GtObject(0, [RotatedBox(0.2, -0.1, 4.0, 5.0, 0.3)] * 2)]
    for fusion in ("early", "late"):
        cfg = ModelConfig(
            grid=MICRO_GRID, n_in=3, n_out=2, fusion=fusion, widths=(2, 2, 2, 2), head_width=2
        )
        model = Model(cfg, seed=1)
        # move every parameter off its init point: zero biases leave deep
        # activations sitting exactly on relu kinks, where the one-sided
        # derivative and the centered difference legitimately disagree
        jitter = np.random.default_rng(3)
        for v in model.params.values():
            v += jitter.normal(scale=0.05, size=v.shape)
        anchors = build_anchors(cfg)
        assignment = assign_targets(anchors, gt, cfg.n_out)
        # freeze the mined-negative mask: finite differences must see the
        # same loss surface the analytic gradient was taken on
        _, cls0, _ = model.forward(InputTensor(occ))
        cls_mask = mine_hard_negatives(cls0.data, assignment.labels)
        pos = (assignment.labels > 0.5).astype(np.float64)
        reg_mask = np.broadcast_to(
            (assignment.valid * pos[:, None])[:, :, None], assignment.targets.shape
        ).copy()

        def run():
            tape = T.Tape()
            _, cls_t, reg_t = model.forward(InputTensor(occ), tape=tape)
            loss = T.add(
                T.bce_loss(cls_t, assignment.labels, cls_mask),
                T.smooth_l1(reg_t, assignment.targets, reg_mask),
            )
            val = loss.item()
            T.backward(loss, tape)
            return val, tape.param_grads

        _, grads = run()
        sel = np.random.default_rng(2)
        for name, p in model.params.items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in sel.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                # shrink the step when the interval straddles a relu/maxpool
                # kink; the loss is smooth almost everywhere
                best = math.inf
                for eps in (1e-5, 1e-6, 1e-7):
                    flat[idx] = orig + eps
                    fp, _ = run()
                    flat[idx] = orig - eps
                    fm, _ = run()
                    flat[idx] = orig
                    fd = (fp - fm) / (2 * eps)
                    denom = max(abs(fd), abs(gflat[idx]), 1.0)
                    best = min(best, abs(fd - gflat[idx]) / denom)
                    if best < 1e-4:
                        break
                worst = max(worst, best)

    elapsed = time.perf_counter() - t0
    report(
        1,
        "gradient suite (ops + both micro-backbones)",
        worst < 1e-4 and elapsed < 120.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. geometry oracle


def test_c02_geometry_oracle():
    a = RotatedBox(0, 0, 2, 2, 0)
    exact_ok = abs(iou(a, a) - 1.0) < 1e-9
    exact_ok &= abs(iou(a, RotatedBox(1, 0, 2, 2, 0)) - 1.0 / 3.0) < 1e-9
    octagon = 8 * (math.sqrt(2) - 1)
    rotated = RotatedBox(0, 0, 2, 2, math.pi / 4)
    expect = octagon / (8 - octagon)
    exact_ok &= abs(iou(a, rotated) - expect) < 1e-9
    mc_est, _se = mc_iou(a, rotated, samples=1_000_000, seed=0)
    mc_case_ok = abs(mc_est - expect) < 1e-3

    rng = np.random.default_rng(20)
    worst = 0.0
    for i in range(200):
        p = RotatedBox(
            rng.uniform(-3, 3), rng.uniform(-3, 3),
            rng.uniform(0.5, 5), rng.uniform(0.5, 5), rng.uniform(-math.pi, math.pi),
        )
        q = RotatedBox(
            p.cx + rng.uniform(-2, 2), p.cy + rng.uniform(-2, 2),
            rng.uniform(0.5, 5), rng.uniform(0.5, 5), rng.uniform(-math.pi, math.pi),
        )
        est, _ = mc_iou(p, q, samples=1_000_000, seed=1000 + i)
        worst = max(worst, abs(est - iou(p, q)))
    report(
        2,
        "rotated-box IoU vs Monte-Carlo oracle",
        exact_ok and mc_case_ok and worst < 0.01,
        f"worst |analytic-MC| {worst:.4f} over 200 pairs",
    )


# ---------------------------------------------------------------------------
# 3. encode/decode roundtrip


def test_c03_box_codec_roundtrip():
    rng = np.random.default_rng(42)
    anchors, gts = [], []
    for _ in range(10_000):
        anchor = RotatedBox(
            rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(1, 8), rng.uniform(1, 8), 0.0
        )
        gt = RotatedBox(
            anchor.cx + rng.uniform(-3, 3), anchor.cy + rng.uniform(-3, 3),
            rng.uniform(1, 8), rng.uniform(1, 8), rng.uniform(-math.pi, math.pi),
        )
        anchors.append((anchor.cx, anchor.cy, anchor.w, anchor.h, anchor.theta))
        gts.append((gt.cx, gt.cy, gt.w, gt.h, gt.theta))
    back = decode_boxes(anchors, encode_boxes(anchors, gts))
    worst = float(np.abs(back - np.array(gts)).max())
    report(3, "anchor encode/decode roundtrip (10k pairs)", worst < 1e-9, f"max err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4 & 7 oracle detection construction


def _oracle_sets(gt_tracks, duration, n_out, visible=None):
    """World-frame detection sets with exact current boxes and forecasts.

    ``visible(track_id, frame)`` filters which detections exist (default all).
    """
    sets = []
    for t in range(duration):
        dets = []
        for tid in sorted(gt_tracks):
            track = gt_tracks[tid]
            if t not in track or (visible is not None and not visible(tid, t)):
                continue
            boxes = [track[t + h] for h in range(n_out) if (t + h) in track]
            dets.append(Detection(score=1.0, boxes=boxes))
        sets.append(DetectionSet(frame=t, detections=dets))
    return sets


def _scene_config(seed, **kw):
    base = dict(
        seed=seed,
        duration=30,
        n_vehicles=(3, 4),
        spawn_x=(-15.0, 15.0),
        spawn_y=(-10.0, 10.0),
        speed=(0.5, 3.0),
        static_fraction=0.2,
        max_spawn_retries=500,
    )
    base.update(kw)
    return SimConfig(**base)


def test_c04_perfect_input_tracking():
    ok = True
    details = []
    for seed in range(20):
        ds = generate_dataset(_scene_config(seed))
        gt = gt_tracks_world(ds)
        sets = _oracle_sets(gt, ds.duration, n_out=5)
        records = decode_tracklets(sets, n_out=5)
        r = clear_mot(records, gt)
        if not (r.mota == 1.0 and r.idsw == 0):
            ok = False
            details.append(f"seed {seed}: MOTA {r.mota:.3f}, IDSW {r.idsw}")
    report(4, "perfect-input tracklet decoding (20 scenes)", ok, "; ".join(details) or "MOTA 1.0 everywhere")


# ---------------------------------------------------------------------------
# 5. overfit test


def test_c05_overfit_small_dataset():
    t0 = time.perf_counter()
    grid = GridSpec((-12.0, 12.0), (-8.0, 8.0), (0.0, 1.6), 0.2)
    mcfg = ModelConfig(grid=grid, n_in=5, n_out=5, fusion="late", widths=(8, 16, 32, 64))
    sim = SimConfig(
        seed=0, duration=32, n_vehicles=(2, 3), spawn_x=(-8, 8), spawn_y=(-5, 5),
        speed=(0.0, 3.0), vehicle_width=(1.5, 2.5), vehicle_length=(3.0, 5.0),
        max_spawn_retries=500,
    )
    ds = generate_dataset(sim)
    samples, _ = make_samples(ds, grid, 5, 5)
    model = Model(mcfg, seed=0)
    anchors = build_anchors(mcfg)
    train(samples, model, anchors, TrainConfig(iterations=1200, lr=1e-3, batch_size=2, seed=0))
    sets = detect_dataset(model, anchors, ds, score_thr=0.5, nms_thr=0.1)
    ap = evaluate_detection(sets, ds, EvalConfig(iou_thresholds=(0.5,)))["ap_by_iou"][0.5]
    elapsed = time.perf_counter() - t0
    report(
        5,
        "training-set overfit, mAP@0.5 >= 0.95 within budget",
        ap is not None and ap >= 0.95 and elapsed < 900.0,
        f"mAP@0.5 {ap:.3f}, {elapsed:.0f}s of 900s budget",
    )


# ---------------------------------------------------------------------------
# 6. ablation direction


def test_c06_ablation_direction():
    variants = [
        ("single_frame", dict(n_in=1, n_out=1, fusion="early")),
        ("early_fusion", dict(n_in=5, n_out=1, fusion="early")),
        ("late_fusion_forecast", dict(n_in=5, n_out=5, fusion="late")),
    ]
    split = 28
    means = {name: 0.0 for name, _ in variants}
    for seed in range(3):
        sim = SimConfig(
            seed=seed, duration=40, n_vehicles=(2, 3), spawn_x=(-6, 6), spawn_y=(-4, 4),
            speed=(0.5, 2.0), static_fraction=0.2, base_density=4.0, dropout=0.25,
            sensor_range=9.0, turn_rate=(-0.3, 0.3),
            vehicle_width=(1.5, 2.2), vehicle_length=(3.0, 4.5), max_spawn_retries=500,
        )
        ds = generate_dataset(sim)
        for name, overrides in variants:
            mcfg = ModelConfig(grid=DESK_GRID, widths=(8, 16, 32, 64), **overrides)
            model = Model(mcfg, seed=seed)
            anchors = build_anchors(mcfg)
            samples, frames = make_samples(ds, DESK_GRID, mcfg.n_in, mcfg.n_out)
            train_samples = [s for s, f in zip(samples, frames) if f < split]
            train(
                train_samples, model, anchors,
                TrainConfig(iterations=800, lr=1e-3, batch_size=2, seed=seed),
            )
            sets = [
                s
                for s in detect_dataset(model, anchors, ds, score_thr=0.5, nms_thr=0.1)
                if s.frame >= split
            ]
            ap = evaluate_detection(sets, ds, EvalConfig(iou_thresholds=(0.5,)))["ap_by_iou"][0.5]
            means[name] += (ap or 0.0) / 3.0
    single, early, late = (means[n] for n, _ in variants)
    ok = single <= early <= late and late >= single + 0.02
    report(
        6,
        "ablation direction on held-out frames (3 seeds)",
        ok,
        f"single {single:.3f} <= early {early:.3f} <= late+forecast {late:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. tracking direction under occlusion


def _occlusion_schedule(gt, duration, rng):
    """Hidden (tid, frame) pairs: random 1-3 frame gaps plus one sparse track."""
    hidden = set()
    tids = sorted(gt)
    sparse_tid = tids[int(rng.integers(len(tids)))]
    for tid in tids:
        if tid == sparse_tid:
            # visible once every 5 frames only
            hidden.update((tid, t) for t in range(duration) if t % 5 != 0)
            continue
        for _ in range(2):
            start = int(rng.integers(3, duration - 4))
            length = int(rng.integers(1, 4))
            hidden.update((tid, t) for t in range(start, start + length))
    return hidden


def test_c07_tracking_direction_under_occlusion():
    mota_dec = mota_hun = ml_dec = ml_hun = 0.0
    for seed in range(3):
        ds = generate_dataset(_scene_config(seed + 50))
        gt = gt_tracks_world(ds)
        rng = np.random.default_rng(seed)
        hidden = _occlusion_schedule(gt, ds.duration, rng)
        sets = _oracle_sets(gt, ds.duration, n_out=5, visible=lambda tid, t: (tid, t) not in hidden)
        decoded = decode_tracklets(sets, n_out=5)
        baseline = hungarian_track(sets)
        rd = clear_mot(decoded, gt)
        rh = clear_mot(baseline, gt)
        mota_dec += rd.mota / 3
        mota_hun += rh.mota / 3
        ml_dec += rd.ml / 3
        ml_hun += rh.ml / 3
    ok = mota_dec > mota_hun and ml_dec < ml_hun
    report(
        7,
        "decoder beats Hungarian baseline under occlusion (3 seeds)",
        ok,
        f"MOTA {mota_dec:.3f} vs {mota_hun:.3f}; ML {ml_dec:.3f} vs {ml_hun:.3f}",
    )


# ---------------------------------------------------------------------------
# 8. forecast sanity


def test_c08_forecast_beats_static_baseline():
    mcfg = ModelConfig(grid=DESK_GRID, widths=(8, 16, 32, 64), n_in=5, n_out=5, fusion="late")
    sim = SimConfig(
        seed=0, duration=24, n_vehicles=(2, 3), spawn_x=(-5, 5), spawn_y=(-3, 3),
        speed=(2.5, 4.5), static_fraction=0.0, turn_rate=(0.0, 0.0),
        base_density=5.0, dropout=0.2, sensor_range=10.0,
        vehicle_width=(1.5, 2.2), vehicle_length=(3.0, 4.5), max_spawn_retries=500,
    )
    ds = generate_dataset(sim)
    model = Model(mcfg, seed=0)
    anchors = build_anchors(mcfg)
    samples, _ = make_samples(ds, DESK_GRID, 5, 5)
    train(samples, model, anchors, TrainConfig(iterations=1200, lr=1e-3, batch_size=2, seed=0))
    ev = EvalConfig()
    sets = detect_dataset(model, anchors, ds, score_thr=0.5, nms_thr=0.1)
    res = evaluate_forecast(sets, ds, ev)

    # static baseline: the current true box frozen over the horizon, whose
    # center error at horizon h is exactly speed * h * frame_interval
    gt = gt_tracks_world(ds)
    static_sets = _oracle_sets(gt, ds.duration, n_out=1)
    for s in static_sets:
        for d in s.detections:
            d.boxes = d.boxes[:1] * 5
    base = forecast_error(static_sets, gt, ev.forecast_horizons, ev.forecast_match_iou)

    ratios = {}
    ok = True
    for h in ev.forecast_horizons:
        if res.l2[h] is None or base.l2[h] is None:
            ok = False
            continue
        ratios[h] = res.l2[h] / base.l2[h]
        ok &= ratios[h] <= 0.5
    report(
        8,
        "forecast error beats static baseline by >= 50%",
        ok,
        "model/static L2 " + ", ".join(f"h{h}:{r:.2f}" for h, r in ratios.items()),
    )


# ---------------------------------------------------------------------------
# 9. metrics oracles


def test_c09_metric_hand_cases():
    def b(cx, cy):
        return RotatedBox(cx, cy, 2.0, 4.0, 0.0)

    def gt(cx, cy, num_points=3):
        return LabelRecord(frame=0, track_id=-1, box=b(cx, cy), num_points=num_points)

    ok = True
    # AP: perfect single match
    pr = average_precision([ScoredBox(0, b(0, 0), 0.9)], [gt(0, 0)], 0.5)
    ok &= pr.ap == 1.0
    # AP: detection on a don't-care box leaves the remaining GT untouched
    pr = average_precision(
        [ScoredBox(0, b(0, 0), 0.9), ScoredBox(0, b(10, 0), 0.8)],
        [gt(0, 0, num_points=5), gt(10, 0, num_points=1)],
        0.5,
    )
    ok &= pr.ap == 1.0 and pr.precision == [1.0]
    # AP: 3 detections / 2 GT, ranked hit-miss-hit
    pr = average_precision(
        [ScoredBox(0, b(0, 0), 0.9), ScoredBox(0, b(20, 0), 0.8), ScoredBox(0, b(10, 0), 0.7)],
        [gt(0, 0), gt(10, 0)],
        0.5,
    )
    ok &= abs(pr.ap - (0.5 + 0.5 * 2.0 / 3.0)) < 1e-15

    gt = {0: {f: b(0, 0) for f in range(3)}, 1: {f: b(10, 0) for f in range(3)}}

    def tl(f, tid, cx):
        return TrackletFrame(frame=f, track_id=tid, box=b(cx, 0), score=1.0, status="live")

    # CLEAR-MOT: perfect
    hyp = [tl(f, tid, 10.0 * tid) for f in range(3) for tid in (0, 1)]
    r = clear_mot(hyp, gt)
    ok &= r.mota == 1.0 and r.mt == 1.0 and r.ml == 0.0
    # CLEAR-MOT: 1 FP + 1 ID switch over 6 GT
    hyp = [tl(f, 0, 0) for f in range(3)]
    hyp += [tl(0, 1, 10), tl(1, 1, 10), tl(2, 5, 10), tl(1, 9, 50)]
    r = clear_mot(hyp, gt)
    ok &= r.fp == 1 and r.idsw == 1 and r.fn == 0 and r.mota == 1.0 - 2.0 / 6.0
    # CLEAR-MOT: empty hypothesis set
    r = clear_mot([], gt)
    ok &= r.mota == 0.0 and r.ml == 1.0
    report(9, "AP and CLEAR-MOT hand-case oracles", ok)


# ---------------------------------------------------------------------------
# 10. determinism through the command line


def test_c10_cli_determinism(tmp_path):
    cfg = {
        "seed": 3,
        "grid": {"x_range": [-4.8, 4.8], "y_range": [-3.2, 3.2], "z_range": [0.0, 0.4], "cell": 0.2},
        "model": {"n_in": 1, "n_out": 1, "fusion": "late", "widths": [2, 2, 2, 2], "head_width": 2},
        "train": {"iterations": 5, "batch_size": 1},
        "sim": {
            "duration": 4, "n_vehicles": [1, 2], "spawn_x": [-3.0, 3.0], "spawn_y": [-2.0, 2.0],
            "speed": [0.0, 2.0], "vehicle_width": [1.5, 2.0], "vehicle_length": [3.0, 3.5],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for run in ("a", "b"):
        d = tmp_path / run
        assert cli_main(["--config", str(cfg_path), "--out", str(d / "gen"), "generate"]) == 0
        dataset = str(d / "gen" / "dataset.jsonl")
        assert cli_main(["--config", str(cfg_path), "--out", str(d / "train"), "train", dataset]) == 0
        ckpt = str(d / "train" / "checkpoint.bin")
        assert cli_main(["--config", str(cfg_path), "--out", str(d / "eval"), "eval", dataset, ckpt]) == 0
        blobs.append(
            (
                (d / "gen" / "dataset.jsonl").read_bytes(),
                (d / "train" / "checkpoint.bin").read_bytes(),
                (d / "train" / "train.log").read_bytes(),
                (d / "eval" / "detection_metrics.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1]
    report(10, "generate/train/eval reruns byte-identical", ok)


# ---------------------------------------------------------------------------
# 11. voxelization benchmark


def test_c11_voxelize_bench():
    grid = GridSpec((-72.0, 72.0), (-40.0, 40.0), (-2.0, 3.8), 0.2)
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.uniform(-72, 72, 100_000), rng.uniform(-40, 40, 100_000), rng.uniform(-2, 3.8, 100_000)]
    )
    voxelize(pts, grid)  # warm up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        voxelize(pts, grid)
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    import platform

    hw = f"{platform.machine()}, python {platform.python_version()}"
    target = "meets 50ms target" if best < 50.0 else "misses 50ms target (informational)"
    report(
        11,
        "100k-point voxelization into 720x400x29 under 250 ms",
        best < 250.0,
        f"{best:.1f} ms on {hw}; {target}",
    )
