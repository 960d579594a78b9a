"""Operator entry point: generate, train, eval, track, ablate, render."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import tensor as T
from .config import ConfigError, from_dict, to_dict
from .geom import to_local
from .metrics import EvalConfig, write_report
from .net import Model, ModelConfig, build_anchors, init_params
from .pipeline import (
    detect_dataset,
    evaluate_detection,
    evaluate_forecast,
    evaluate_tracking,
    run_ablation,
)
from .sim import (
    SimConfig,
    box_world_to_ego,
    export_dataset,
    generate_dataset,
    import_dataset,
    make_samples,
)
from .track import dump_tracklets, load_tracklets
from .train import TrainConfig, format_log_line, train
from .voxel import GridSpec, voxelize


DEFAULT_CONFIG = {
    "seed": 0,
    "grid": {
        "x_range": [-24.0, 24.0],
        "y_range": [-16.0, 16.0],
        "z_range": [0.0, 1.6],
        "cell": 0.2,
    },
    "model": {
        "n_in": 5,
        "n_out": 5,
        "fusion": "late",
        "widths": [8, 16, 32, 64],
        "head_width": 0,
    },
    "train": {},
    "sim": {},
    "eval": {},
}


@dataclass
class RunConfig:
    """Unified run configuration resolved from file + overrides."""

    seed: int
    grid: GridSpec
    model: ModelConfig
    train: TrainConfig
    sim: SimConfig
    eval: EvalConfig

    def resolved(self):
        return {"version": __version__, **to_dict(self)}


def _apply_set(raw, assignments):
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: '{p}' is not an object")
        node[parts[-1]] = parsed
    return raw


def load_run_config(path, seed=None, assignments=()):
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            raw = json.load(f)
    else:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file must hold a JSON object: {path}")
    raw = _apply_set(raw, assignments)
    if seed is not None:
        raw["seed"] = seed
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for k, v in raw.items():
        if isinstance(v, dict) and isinstance(merged.get(k), dict):
            merged[k].update(v)
        else:
            merged[k] = v
    if isinstance(merged["model"], dict):
        if "grid" in merged["model"]:
            raise ConfigError("unknown key(s) in 'model': ['grid'] (the grid is set at the top level)")
        merged["model"]["grid"] = merged["grid"]
    for section in ("train", "sim"):
        if isinstance(merged[section], dict):
            merged[section].setdefault("seed", merged["seed"])
    return from_dict(RunConfig, merged)


def _prepare_out(out_dir, config: RunConfig):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(config.resolved(), f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(config: RunConfig, out_dir):
    _prepare_out(out_dir, config)
    dataset = generate_dataset(config.sim)
    export_dataset(dataset, os.path.join(out_dir, "dataset.jsonl"))
    return 0


def cmd_train(config: RunConfig, dataset_path, out_dir):
    _prepare_out(out_dir, config)
    dataset = import_dataset(dataset_path)
    model = Model(config.model, seed=config.seed)
    anchors = build_anchors(config.model)
    samples, _ = make_samples(dataset, config.grid, config.model.n_in, config.model.n_out)
    log_path = os.path.join(out_dir, "train.log")
    with open(log_path, "w") as logf:
        logf.write("# iteration lr total cls reg\n")
        train(
            samples,
            model,
            anchors,
            config.train,
            log_fn=lambda rec: logf.write(format_log_line(rec) + "\n"),
        )
    T.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), model.params, to_dict(config.model))
    return 0


def _load_model(config: RunConfig, checkpoint_path):
    if not os.path.exists(checkpoint_path):
        raise ConfigError(f"checkpoint not found: {checkpoint_path}")
    params, saved_cfg = T.load_checkpoint(checkpoint_path)
    if saved_cfg is None:
        raise ConfigError("checkpoint carries no model config")
    if saved_cfg != to_dict(config.model):
        raise ConfigError(
            "checkpoint/config mismatch: the checkpoint was trained with a different model config"
        )
    shapes = {name: v.shape for name, v in init_params(config.model).items()}
    if {name: v.shape for name, v in params.items()} != shapes:
        raise ConfigError("checkpoint parameters do not match the model config")
    return Model(config.model, params=params)


def cmd_eval(config: RunConfig, dataset_path, checkpoint_path, out_dir):
    _prepare_out(out_dir, config)
    dataset = import_dataset(dataset_path)
    model = _load_model(config, checkpoint_path)
    anchors = build_anchors(model.config)
    sets = detect_dataset(
        model, anchors, dataset, score_thr=config.eval.score_thr, nms_thr=config.eval.nms_thr
    )
    report = evaluate_detection(sets, dataset, config.eval)
    write_report(os.path.join(out_dir, "detection_metrics.json"), report)
    return 0


def cmd_track(config: RunConfig, dataset_path, checkpoint_path, out_dir):
    _prepare_out(out_dir, config)
    dataset = import_dataset(dataset_path)
    model = _load_model(config, checkpoint_path)
    anchors = build_anchors(model.config)
    sets = detect_dataset(
        model, anchors, dataset, score_thr=config.eval.score_thr, nms_thr=config.eval.nms_thr
    )
    results, decoded, _baseline = evaluate_tracking(
        sets, dataset, model.config.n_out, config.eval, min_points=config.eval.min_points
    )
    forecast = evaluate_forecast(sets, dataset, config.eval)
    report = {
        "clear_mot": {
            name: {
                "MOTA": r.mota, "MOTP": r.motp, "MT": r.mt, "ML": r.ml,
                "FP": r.fp, "FN": r.fn, "IDSW": r.idsw, "num_gt": r.num_gt,
            }
            for name, r in results.items()
        },
        "forecast": {
            "recall": forecast.recall,
            "l1": {str(h): v for h, v in forecast.l1.items()},
            "l2": {str(h): v for h, v in forecast.l2.items()},
        },
    }
    write_report(os.path.join(out_dir, "tracking_metrics.json"), report)
    dump_tracklets(decoded, os.path.join(out_dir, "tracklets.txt"))
    return 0


def cmd_ablate(config: RunConfig, dataset_path, out_dir, val_dataset_path=None):
    _prepare_out(out_dir, config)
    dataset = import_dataset(dataset_path)
    val = import_dataset(val_dataset_path) if val_dataset_path else None
    rows = run_ablation(config.model, config.train, config.eval, config.seed, dataset, val)
    write_report(os.path.join(out_dir, "ablation.json"), {"rows": rows})
    return 0


# ---------------------------------------------------------------------------
# rendering


def _id_color(track_id):
    h = (track_id * 2654435761) % 360
    c = 200
    x = int(c * (1 - abs((h / 60) % 2 - 1)))
    sector = int(h // 60)
    rgb = [(c, x, 0), (x, c, 0), (0, c, x), (0, x, c), (x, 0, c), (c, 0, x)][sector]
    return tuple(v + 55 for v in rgb)


def _draw_box(img, box, color, grid: GridSpec):
    """Outline a box with two samples per cell of edge length.

    An edge longer than the image's width plus height in cells, which no edge
    inside the image can be, gets the samples of one that long.
    """
    corners = box.corners()
    limit = img.shape[0] + img.shape[1]
    for e in range(4):
        ax, ay = corners[e]
        bx, by = corners[(e + 1) % 4]
        # min picks limit for a NaN or inf length
        steps = max(2, int(min(limit, math.hypot(bx - ax, by - ay) / grid.cell)) * 2)
        for s in range(steps + 1):
            t = s / steps
            _plot(img, ax + t * (bx - ax), ay + t * (by - ay), color, grid)


def _plot(img, x, y, color, grid: GridSpec, size=0):
    fx = (x - grid.x_range[0]) / grid.cell
    fy = (y - grid.y_range[0]) / grid.cell
    # off the image (or NaN): skipped before a far point's cell index overflows int
    if not (-size <= fx < img.shape[0] + size and -size <= fy < img.shape[1] + size):
        return
    ix, iy = int(math.floor(fx)), int(math.floor(fy))
    for dx in range(-size, size + 1):
        for dy in range(-size, size + 1):
            if 0 <= ix + dx < img.shape[0] and 0 <= iy + dy < img.shape[1]:
                img[ix + dx, iy + dy] = color


def _write_ppm(path, img):
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(np.flip(img, axis=0).astype(np.uint8).tobytes())


def cmd_render(config: RunConfig, dataset_path, tracklets_path, out_dir):
    _prepare_out(out_dir, config)
    dataset = import_dataset(dataset_path)
    records = load_tracklets(tracklets_path) if tracklets_path else []
    by_frame = {}
    track_centers = {}
    for r in records:
        by_frame.setdefault(r.frame, []).append(r)
        track_centers.setdefault(r.track_id, {})[r.frame] = (r.box.cx, r.box.cy)
    grid = config.grid
    horizon = config.model.n_out
    for t in range(dataset.duration):
        pose = dataset.frames[t].pose
        occ = voxelize(dataset.frames[t].points, grid).any(axis=0)
        img = np.zeros((grid.nx, grid.ny, 3), dtype=np.uint8)
        img[occ] = (90, 90, 90)
        for r in by_frame.get(t, []):
            color = _id_color(r.track_id)
            _draw_box(img, box_world_to_ego(r.box, pose), color, grid)
            # center dots for the current and upcoming positions of this track
            for h in range(horizon):
                c = track_centers.get(r.track_id, {}).get(t + h)
                if c is not None:
                    _plot(img, *to_local(*c, pose.tx, pose.ty, pose.yaw), color, grid, size=1)
        _write_ppm(os.path.join(out_dir, f"frame_{t:04d}.ppm"), img)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="bevtrack", description=__doc__)
    p.add_argument("--config", help="run configuration file (JSON)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (dotted path), repeatable",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="produce a synthetic dataset")
    for name in ("train", "ablate"):
        sp = sub.add_parser(name)
        sp.add_argument("dataset")
        if name == "ablate":
            sp.add_argument("--val-dataset")
    for name in ("eval", "track"):
        sp = sub.add_parser(name)
        sp.add_argument("dataset")
        sp.add_argument("checkpoint")
    sp = sub.add_parser("render")
    sp.add_argument("dataset")
    sp.add_argument("--tracklets")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, seed=args.seed, assignments=args.set)
        if args.command == "generate":
            return cmd_generate(config, args.out)
        if args.command == "train":
            return cmd_train(config, args.dataset, args.out)
        if args.command == "eval":
            return cmd_eval(config, args.dataset, args.checkpoint, args.out)
        if args.command == "track":
            return cmd_track(config, args.dataset, args.checkpoint, args.out)
        if args.command == "ablate":
            return cmd_ablate(config, args.dataset, args.out, args.val_dataset)
        if args.command == "render":
            return cmd_render(config, args.dataset, args.tracklets, args.out)
        raise ConfigError(f"unknown command {args.command}")
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
