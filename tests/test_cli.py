import json
import math
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevtrack import cli, sim
from bevtrack import tensor as T
from bevtrack.cli import ConfigError, load_run_config, main
from bevtrack.geom import RotatedBox
from bevtrack.track import TrackletFrame, dump_tracklets, load_tracklets


TINY = {
    "seed": 0,
    "grid": {
        "x_range": [-4.8, 4.8],
        "y_range": [-3.2, 3.2],
        "z_range": [0.0, 0.4],
        "cell": 0.2,
    },
    "model": {"n_in": 1, "n_out": 1, "fusion": "late", "widths": [2, 2, 2, 2], "head_width": 2},
    "train": {"iterations": 2, "batch_size": 1},
    "sim": {
        "duration": 4,
        "n_vehicles": [1, 2],
        "spawn_x": [-3.0, 3.0],
        "spawn_y": [-2.0, 2.0],
        "speed": [0.0, 2.0],
        "vehicle_width": [1.5, 2.0],
        "vehicle_length": [3.0, 3.5],
    },
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def run(*args):
    return main(list(args))


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(None, assignments=["bogus.thing=1"])

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="model"):
            load_run_config(None, assignments=["model.bogus=1"])

    def test_set_overrides_nested_value(self, cfg_path):
        cfg = load_run_config(cfg_path, assignments=["train.iterations=7", "model.fusion=early"])
        assert cfg.train.iterations == 7
        assert cfg.model.fusion == "early"

    def test_seed_argument_wins(self, cfg_path):
        cfg = load_run_config(cfg_path, seed=42)
        assert cfg.seed == 42
        assert cfg.sim.seed == 42

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config("/nonexistent/config.json")

    def test_malformed_set_item(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_run_config(None, assignments=["justakey"])

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_run_config(str(path))

    def test_resolved_config_is_the_json_form(self, cfg_path):
        resolved = load_run_config(cfg_path).resolved()
        assert set(resolved) == {"version", "seed", "grid", "model", "train", "sim", "eval"}
        assert resolved["model"]["grid"] == resolved["grid"] == TINY["grid"]
        assert resolved["model"]["widths"] == TINY["model"]["widths"]
        assert resolved["train"]["seed"] == resolved["sim"]["seed"] == 0
        assert json.loads(json.dumps(resolved)) == resolved


# Each one ended in a traceback before configs were type-checked.
WRONG_TYPED = [
    ("model.widths=5",),
    ("train.milestones=3",),
    ("sim.n_vehicles=3",),
    ("grid=3",),
    ("eval.iou_thresholds=0.5",),
    ("grid.cell=0",),
    ("seed=true",),
    ("model.fusion=3",),
    ("train.iterations=1.5",),
    ("sim=[1]",),
    ("model.grid={}",),
    ("grid=3", "grid.cell=1"),
]


@pytest.mark.parametrize("assignments", WRONG_TYPED, ids=" ".join)
def test_wrong_typed_value_ends_in_error(assignments, tmp_path, capsys):
    args = [a for item in assignments for a in ("--set", item)]
    assert run(*args, "--out", str(tmp_path / "out"), "generate") == 1
    assert capsys.readouterr().err.startswith("error:")


# Out-of-range values: a zero width ended in a ZeroDivisionError traceback,
# a z_range shorter than one cell ran every command on a network with no input,
# and one of partial cells silently moved the top of the height range. The
# eval values were accepted: an association IoU of 0 matches disjoint boxes,
# and a horizon below 1 compares a forecast with the present or the past.
# An anchor ratio of 0 ended in a traceback, and the train values trained
# nothing (a batch of 0, no iterations), ascended the loss (a negative lr) or
# left only the force-assigned positives (a match IoU above 1).
OUT_OF_RANGE = [
    ("train", "model.widths=[0,1,1,1]"),
    ("train", "model.widths=[2,2,2,-2]"),
    ("train", "model.head_width=-1"),
    ("generate", "grid.z_range=[0,0.1]"),
    ("generate", "grid.z_range=[0,0.5]"),
    ("generate", "eval.assoc_iou=0"),
    ("generate", "eval.forecast_match_iou=-1"),
    ("generate", "eval.score_thr=1.5"),
    ("generate", "eval.nms_thr=-0.1"),
    ("generate", "eval.track_score_thr=7"),
    ("generate", "eval.forecast_horizons=[1,0]"),
    ("generate", "eval.min_points=-5"),
    ("train", "model.anchor_specs=[[5,0]]"),
    ("train", "model.anchor_specs=[[5,-1]]"),
    ("train", "model.anchor_specs=[]"),
    ("train", "model.anchor_specs=[[0,1]]"),
    ("train", "train.batch_size=0"),
    ("train", "train.lr=-1"),
    ("train", "train.iou_match_thr=2"),
    ("train", "train.iterations=-3"),
    ("generate", "sim.duration=-1"),
    ("generate", "sim.duration=0"),
    ("generate", "sim.frame_interval=0"),
    ("generate", "sim.n_vehicles=[5,2]"),
    ("generate", "sim.n_vehicles=[-1,2]"),
    ("generate", "sim.speed=[3,1]"),
    ("generate", "sim.z_span=[1.4,0.2]"),
    ("generate", "sim.vehicle_width=[0,2]"),
    ("generate", "sim.vehicle_length=[-4,5]"),
    ("generate", "sim.dropout=2"),
    ("generate", "sim.static_fraction=-0.5"),
    ("generate", "sim.base_density=-1"),
    ("generate", "sim.sensor_range=-1"),
    ("generate", "sim.ego_clearance=-5"),
    ("generate", "sim.max_spawn_retries=-1"),
    ("generate", "sim.max_spawn_retries=0"),
]


@pytest.mark.parametrize("command,assignment", OUT_OF_RANGE, ids=[a for _c, a in OUT_OF_RANGE])
def test_out_of_range_value_ends_in_error(command, assignment, cfg_path, tmp_path, capsys):
    args = []
    if command == "train":
        assert run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate") == 0
        args = [str(tmp_path / "d" / "dataset.jsonl")]
    capsys.readouterr()
    code = run("--config", cfg_path, "--set", assignment, "--out", str(tmp_path / "out"), command, *args)
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


class TestGenerate:
    def test_writes_dataset_and_config(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run("--config", cfg_path, "--out", str(out), "generate") == 0
        assert (out / "dataset.jsonl").exists()
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["seed"] == 0
        assert "version" in resolved

    def test_reruns_byte_identical(self, cfg_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("--config", cfg_path, "--out", str(out), "generate") == 0
            outs.append((out / "dataset.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, cfg_path, tmp_path):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert run("--config", cfg_path, "--seed", seed, "--out", str(out), "generate") == 0
            blobs.append((out / "dataset.jsonl").read_bytes())
        assert blobs[0] != blobs[1]


@pytest.fixture
def trained(cfg_path, tmp_path):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert run("--config", cfg_path, "--out", str(data_dir), "generate") == 0
    dataset = str(data_dir / "dataset.jsonl")
    assert run("--config", cfg_path, "--out", str(run_dir), "train", dataset) == 0
    return cfg_path, dataset, str(run_dir / "checkpoint.bin"), tmp_path


class TestPipelineCommands:
    def test_train_outputs(self, trained):
        _cfg, _dataset, ckpt, tmp_path = trained
        assert os.path.exists(ckpt)
        log = (tmp_path / "run" / "train.log").read_text().splitlines()
        assert log[0].startswith("#")
        assert len(log) == 1 + TINY["train"]["iterations"]

    def test_eval_writes_metrics(self, trained):
        cfg, dataset, ckpt, tmp_path = trained
        out = tmp_path / "eval"
        assert run("--config", cfg, "--out", str(out), "eval", dataset, ckpt) == 0
        report = json.loads((out / "detection_metrics.json").read_text())
        assert "ap_by_iou" in report

    def test_track_writes_metrics_and_tracklets(self, trained):
        cfg, dataset, ckpt, tmp_path = trained
        out = tmp_path / "track"
        assert run("--config", cfg, "--out", str(out), "track", dataset, ckpt) == 0
        report = json.loads((out / "tracking_metrics.json").read_text())
        assert set(report["clear_mot"]) == {"decoder", "hungarian"}
        assert (out / "tracklets.txt").read_text().startswith("#")

    def test_head_decoding_to_non_finite_boxes_writes_finite_files(self, trained):
        cfg, dataset, ckpt, tmp_path = trained
        params, saved_cfg = T.load_checkpoint(ckpt)
        params["head.reg.p.b"][0::6] = 1e308  # every x-offset code: finite, but its box center is not
        params["head.cls.p.b"][:] = 50.0  # every anchor passes the threshold
        extreme = tmp_path / "extreme.bin"
        T.save_checkpoint(extreme, params, saved_cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", dataset, str(extreme)) == 0
            assert run("--config", cfg, "--out", str(tmp_path / "t"), "track", dataset, str(extreme)) == 0
            tracklets = str(tmp_path / "t" / "tracklets.txt")
            assert run("--config", cfg, "--out", str(tmp_path / "r"), "render", dataset, "--tracklets", tracklets) == 0

        def no_constant(name):
            raise AssertionError(f"report holds {name}")

        for report in (tmp_path / "e" / "detection_metrics.json", tmp_path / "t" / "tracking_metrics.json"):
            json.loads(report.read_text(), parse_constant=no_constant)
        assert all(math.isfinite(v) for r in load_tracklets(tracklets) for v in (r.box.cx, r.box.cy, r.score))

    def test_checkpoint_config_mismatch_rejected(self, trained, capsys):
        cfg, dataset, ckpt, tmp_path = trained
        out = tmp_path / "bad"
        code = run(
            "--config", cfg, "--set", "model.fusion=early", "--out", str(out), "eval", dataset, ckpt
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_missing_checkpoint_reported(self, cfg_path, tmp_path, capsys):
        data = tmp_path / "d"
        run("--config", cfg_path, "--out", str(data), "generate")
        code = run(
            "--config", cfg_path, "--out", str(tmp_path / "e"),
            "eval", str(data / "dataset.jsonl"), str(tmp_path / "nope.bin"),
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestLoadersFailClosed:
    def test_checkpoint_header_without_keys_rejected(self, tmp_path):
        path = tmp_path / "ck.bin"
        for header in (b"{}", b'{"params": [{"name": "p"}]}', b"[]"):
            path.write_bytes(T.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header)
            with pytest.raises(T.TensorError, match="malformed"):
                T.load_checkpoint(path)

    @pytest.mark.parametrize("shape", ["[1e999]", "[-Infinity]", "[NaN]", "[true]", "[1.5]", '"3"', "3"])
    def test_checkpoint_shape_of_non_integers_rejected(self, tmp_path, shape):
        path = tmp_path / "ck.bin"
        header = ('{"version": 1, "params": [{"name": "p", "shape": %s}], "config": null}' % shape).encode()
        path.write_bytes(T.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header + bytes(8))
        with pytest.raises(T.TensorError, match="integers"):
            T.load_checkpoint(path)

    def test_checkpoint_params_must_fit_the_model(self, trained, capsys):
        cfg, dataset, ckpt, tmp_path = trained
        params, saved_cfg = T.load_checkpoint(ckpt)
        params.popitem()
        bad = tmp_path / "short.bin"
        T.save_checkpoint(bad, params, saved_cfg)
        assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", dataset, str(bad)) == 1
        assert "do not match" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_ends_in_error(self, trained, capsys, value):
        cfg, dataset, ckpt, tmp_path = trained
        params, saved_cfg = T.load_checkpoint(ckpt)
        # save_checkpoint refuses a non-finite value, so a marker value's bytes are swapped in
        marker = 0.123456789
        params["head.cls.p.b"][0] = marker
        bad = tmp_path / "nan.bin"
        T.save_checkpoint(bad, params, saved_cfg)
        blob = bad.read_bytes()
        assert blob.count(struct.pack("<d", marker)) == 1
        bad.write_bytes(blob.replace(struct.pack("<d", marker), struct.pack("<d", value)))
        with pytest.raises(T.TensorError, match="head.cls.p.b"):
            T.load_checkpoint(bad)
        assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", dataset, str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "head.cls.p.b" in err

    def test_non_finite_parameters_end_train_in_error(self, cfg_path, tmp_path, capsys, monkeypatch):
        def diverged(samples, model, *args, **kwargs):
            model.params["g2.c1.b"][0] = np.inf
            return model.params, []

        monkeypatch.setattr(cli, "train", diverged)
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        out = tmp_path / "r"
        assert run("--config", cfg_path, "--out", str(out), "train", str(tmp_path / "d" / "dataset.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "g2.c1.b" in err
        assert not (out / "checkpoint.bin").exists()

    def test_non_finite_metric_ends_eval_in_error(self, trained, capsys, monkeypatch):
        cfg, dataset, ckpt, tmp_path = trained
        monkeypatch.setattr(cli, "evaluate_detection", lambda *args: {"ap_by_iou": {"0.5": float("nan")}})
        out = tmp_path / "e"
        assert run("--config", cfg, "--out", str(out), "eval", dataset, ckpt) == 1
        assert capsys.readouterr().err.startswith("error: report")
        assert not (out / "detection_metrics.json").exists()

    def test_directory_as_dataset_ends_in_error(self, cfg_path, tmp_path, capsys):
        assert run("--config", cfg_path, "--out", str(tmp_path / "r"), "render", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_truncated_checkpoint_ends_in_error(self, trained, capsys):
        cfg, dataset, ckpt, tmp_path = trained
        data = open(ckpt, "rb").read()
        # one new file per cut: rewriting one existing file costs far more on some file systems
        cut = [tmp_path / f"cut{n}.bin" for n in range(len(data))]
        for n in range(len(data)):
            cut[n].write_bytes(data[:n])
            with pytest.raises(T.TensorError):
                T.load_checkpoint(cut[n])
        rng = np.random.default_rng(0)
        for n in sorted({0, 4, 11, 12, len(data) - 1, *rng.integers(0, len(data), 30).tolist()}):
            assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", dataset, str(cut[n])) == 1
            assert capsys.readouterr().err.startswith("error:")

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_byte_flipped_checkpoint_loads_finite_or_ends_in_error(self, trained, capsys, draw):
        cfg, dataset, ckpt, tmp_path = trained
        data = bytearray(open(ckpt, "rb").read())
        header_end = 12 + struct.unpack("<I", data[8:12])[0]
        where = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(data) - 1))
        for pos, mask in draw.draw(st.lists(st.tuples(where, st.integers(1, 255)), min_size=1, max_size=3)):
            data[pos] ^= mask
        bad = Path(tempfile.mkdtemp(dir=tmp_path)) / "flipped.bin"  # a new directory per example, as in byte_flipped
        bad.write_bytes(bytes(data))
        try:
            params, _cfg = T.load_checkpoint(bad)
        except T.TensorError:
            params = None
        else:
            assert all(np.isfinite(v).all() for v in params.values())
        code = run("--config", cfg, "--out", str(bad.parent / "e"), "eval", dataset, str(bad))
        err = capsys.readouterr().err
        assert code in (0, 1) and (code == 0 or err.startswith("error:"))
        assert params is not None or code == 1

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_byte_flipped_dataset_loads_finite_or_ends_in_error(self, cfg_path, tmp_path, capsys, draw):
        data_dir = tmp_path / "data"
        if not data_dir.exists():  # one dataset for every example
            assert run("--config", cfg_path, "--out", str(data_dir), "generate") == 0
        data = bytearray((data_dir / "dataset.jsonl").read_bytes())
        meta_end = data.index(b"\n")
        where = st.one_of(st.integers(0, meta_end - 1), st.integers(0, len(data) - 1))
        # a byte that keeps a number a number changes a value; any other mostly breaks the JSON
        byte = st.one_of(st.sampled_from(b"0123456789-.e"), st.integers(0, 255))
        for pos, value in draw.draw(st.lists(st.tuples(where, byte), min_size=1, max_size=3)):
            data[pos] = value
        bad = Path(tempfile.mkdtemp(dir=tmp_path)) / "flipped.jsonl"  # a new directory per example, as in byte_flipped
        bad.write_bytes(bytes(data))
        try:
            ds = sim.import_dataset(bad)
        except ValueError:
            ds = None
        else:
            assert all(np.isfinite(f.points).all() and np.isfinite([f.pose.tx, f.pose.ty, f.pose.yaw]).all()
                       for f in ds.frames)
            boxes = [(r.box.cx, r.box.cy, r.box.w, r.box.h, r.box.theta) for rs in ds.labels.values() for r in rs]
            assert np.isfinite(boxes).all()
            cfg = load_run_config(cfg_path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sim.make_samples(ds, cfg.grid, cfg.model.n_in, cfg.model.n_out)
        if draw.draw(st.integers(0, 4)) == 0:  # a few of the files go through training
            args = ("--set", "train.iterations=1", "--out", str(bad.parent / "t"), "train", str(bad))
            code = run("--config", cfg_path, *args)
            err = capsys.readouterr().err
            assert code in (0, 1) and (code == 0 or err.startswith("error:"))
            assert ds is not None or code == 1

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_byte_flipped_tracklets_render_or_end_in_error(self, cfg_path, tmp_path, capsys, draw):
        data_dir, tracklets = tmp_path / "data", tmp_path / "tracklets.txt"
        if not tracklets.exists():  # one dataset and one tracklets file for every example
            assert run("--config", cfg_path, "--out", str(data_dir), "generate") == 0
            boxes = [RotatedBox(1.0, 0.5, 2.0, 4.0, 0.3), RotatedBox(-2.0, 1.0, 1.5, 3.0, -1.0)]
            dump_tracklets([TrackletFrame(t, 3 + i, b, 0.9, "live") for t in range(3) for i, b in enumerate(boxes)], tracklets)
        bad = byte_flipped(tracklets, draw)
        args = ("render", str(data_dir / "dataset.jsonl"), "--tracklets", str(bad))
        code = run("--config", cfg_path, "--out", str(bad.parent), *args)
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error:")), err

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_byte_flipped_config_generates_or_ends_in_error(self, cfg_path, capsys, draw):
        bad = byte_flipped(Path(cfg_path), draw)
        code = run("--config", str(bad), "--out", str(bad.parent), "generate")
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error:")), err

    def test_checkpoint_of_an_impossible_shape_ends_in_error(self, trained, capsys):
        cfg, dataset, _ckpt, tmp_path = trained
        header = json.dumps({"version": 1, "params": [{"name": "p", "shape": [10**12]}], "config": None}).encode()
        bad = tmp_path / "huge.bin"
        bad.write_bytes(T.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header)
        assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", dataset, str(bad)) == 1
        assert capsys.readouterr().err.startswith("error:")

    # (record kind, change, keep): keep inserts the changed copy after the unchanged record
    BAD_RECORDS = {
        "points-str": ("label", {"points": "x"}, False),
        "points-negative": ("label", {"points": -1}, False),
        "id-str": ("label", {"id": "a"}, False),
        "id-list": ("label", {"id": [1]}, False),
        "id-bool": ("label", {"id": True}, False),
        "box-inf": ("label", {"box": [0.0, 0.0, float("inf"), 4.0, 0.0]}, False),
        "repeated": ("label", {}, True),
        "t-str": ("label", {"t": "x"}, False),
        "t-float": ("label", {"t": 1.5}, False),
        "t-99": ("label", {"t": 99}, False),
        "t-negative": ("label", {"t": -1}, False),
        "t-duration": ("label", {"t": TINY["sim"]["duration"]}, False),
        "frame-t-99": ("frame", {"t": 99}, True),
        "frame-repeated": ("frame", {"points": []}, True),
    }

    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_bad_label_ends_in_error(self, trained, capsys, case):
        kind, change, keep = self.BAD_RECORDS[case]
        cfg, dataset, ckpt, tmp_path = trained
        lines = open(dataset).read().splitlines(keepends=True)
        recs = [json.loads(line) for line in lines]
        i = next(i for i, r in enumerate(recs) if r["kind"] == kind and r["t"] == 3)
        new = [lines[i]] * keep + [json.dumps({**recs[i], **change}) + "\n"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:i] + new + lines[i + 1 :]))
        assert run("--config", cfg, "--out", str(tmp_path / "e"), "eval", str(bad), ckpt) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad.jsonl:{i + 1 + keep}:" in err

    @pytest.mark.parametrize(
        "line",
        ["0 7 inf 0.5 2 4 0.3 0.9 live", "0 7 1 0.5 2 nan 0.3 0.9 live", "0 7 1 0.5 2 4 0.3 -inf live",
         "0 7 1 0.5 2 4 0.3 0.9 bogus"],
        ids=["cx-inf", "h-nan", "score-inf", "status-bogus"],
    )
    def test_bad_tracklet_ends_in_error(self, cfg_path, tmp_path, capsys, line):
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        tracklets = tmp_path / "tracklets.txt"
        tracklets.write_text(f"# frame track_id cx cy w h theta score status\n{line}\n")
        args = ("render", str(tmp_path / "d" / "dataset.jsonl"), "--tracklets", str(tracklets))
        assert run("--config", cfg_path, "--out", str(tmp_path / "r"), *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tracklets.txt:2:" in err

    def test_dataset_with_a_line_dropped_or_cut(self, cfg_path, tmp_path, capsys):
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        variants = dropped_and_cut(tmp_path / "d" / "dataset.jsonl", seed=1)
        for i, (line, dropped, cut) in enumerate(variants):
            for name, variant, ok in ((f"dropped{i}", dropped, '"kind": "label"' in line), (f"cut{i}", cut, False)):
                bad = tmp_path / f"{name}.jsonl"
                bad.write_text(variant)
                code = run("--config", cfg_path, "--out", str(tmp_path / f"r{name}"), "render", str(bad))
                err = capsys.readouterr().err
                assert (code, err.startswith("error:")) == ((0, False) if ok else (1, True)), (line, err)

    def test_tracklets_and_config_with_a_line_dropped_or_cut(self, cfg_path, tmp_path, capsys):
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        dataset = str(tmp_path / "d" / "dataset.jsonl")
        tracklets = tmp_path / "tracklets.txt"
        boxes = [RotatedBox(1.0, 0.5, 2.0, 4.0, 0.3), RotatedBox(-2.0, 1.0, 1.5, 3.0, -1.0)]
        dump_tracklets([TrackletFrame(t, 3, b, 0.9, "live") for t, b in enumerate(boxes)], tracklets)
        config = tmp_path / "pretty.json"
        config.write_text(json.dumps(TINY, indent=1))
        n = 0
        for good, args in (
            (tracklets, lambda bad: ("--config", cfg_path, "render", dataset, "--tracklets", bad)),
            (config, lambda bad: ("--config", bad, "render", dataset)),
        ):
            for line, *variants in dropped_and_cut(good, seed=2):
                for variant in variants:
                    n += 1
                    bad = tmp_path / f"bad{n}"
                    bad.write_text(variant)
                    code = run("--out", str(tmp_path / f"r{n}"), *args(str(bad)))
                    err = capsys.readouterr().err
                    assert code == 0 or (code == 1 and err.startswith("error:")), (line, err)


def byte_flipped(path, draw):
    """A copy of the file at ``path`` with one or two bytes replaced, drawn by hypothesis.

    Each copy gets a new directory, for the run's outputs too: rewriting files costs far more on some file systems.
    """
    data = bytearray(path.read_bytes())
    # a digit put on a digit changes a value; any other byte mostly breaks the syntax
    where = st.one_of(st.sampled_from([i for i, c in enumerate(data) if chr(c).isdigit()]), st.integers(0, len(data) - 1))
    byte = st.one_of(st.sampled_from(b"0123456789"), st.sampled_from(b"-.e"), st.integers(0, 255))
    for pos, value in draw.draw(st.lists(st.tuples(where, byte), min_size=1, max_size=2)):
        data[pos] = value
    bad = Path(tempfile.mkdtemp(dir=path.parent)) / ("flipped" + path.suffix)
    bad.write_bytes(bytes(data))
    return bad


def dropped_and_cut(path, seed):
    """(line, text without it, text with it cut short) for each line of a file."""
    lines = path.read_text().splitlines(keepends=True)
    rng = np.random.default_rng(seed)
    for i, line in enumerate(lines):
        cut = line[: int(rng.integers(1, max(len(line) - 1, 2)))] + "\n"
        yield line, "".join(lines[:i] + lines[i + 1 :]), "".join(lines[:i] + [cut] + lines[i + 1 :])


class TestRenderAndBench:
    def test_render_ppm_frames(self, cfg_path, tmp_path):
        data = tmp_path / "d"
        run("--config", cfg_path, "--out", str(data), "generate")
        out = tmp_path / "render"
        assert run(
            "--config", cfg_path, "--out", str(out), "render", str(data / "dataset.jsonl")
        ) == 0
        frames = sorted(out.glob("frame_*.ppm"))
        assert len(frames) == TINY["sim"]["duration"]
        assert frames[0].read_bytes().startswith(b"P6\n32 48\n255\n")

    def test_render_draws_tracklets(self, cfg_path, tmp_path):
        data = tmp_path / "d"
        run("--config", cfg_path, "--out", str(data), "generate")
        tracklets = tmp_path / "tracklets.txt"
        dump_tracklets([TrackletFrame(0, 7, RotatedBox(1.0, 0.5, 2.0, 4.0, 0.3), 0.9, "live")], tracklets)
        frames = {}
        for name, extra in (("plain", ()), ("tracked", ("--tracklets", str(tracklets)))):
            out = tmp_path / name
            assert run("--config", cfg_path, "--out", str(out), "render", str(data / "dataset.jsonl"), *extra) == 0
            frames[name] = [p.read_bytes() for p in sorted(out.glob("frame_*.ppm"))]
        assert frames["tracked"][0] != frames["plain"][0]
        assert frames["tracked"][1:] == frames["plain"][1:]

    @pytest.mark.parametrize(
        "box", ["1e308 0.5 2 4", "1 1e308 2 4", "1 0.5 1e308 4", "1 0.5 1e6 4"],
        ids=["cx-1e308", "cy-1e308", "w-1e308", "w-1e6"],
    )
    def test_render_bounds_the_work_of_a_far_or_huge_box(self, cfg_path, tmp_path, monkeypatch, box):
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        tracklets = tmp_path / "tracklets.txt"
        tracklets.write_text(f"0 7 {box} 0.3 0.9 live\n")
        calls = []
        plot = cli._plot
        monkeypatch.setattr(cli, "_plot", lambda *a, **kw: calls.append(a) or plot(*a, **kw))
        args = ("render", str(tmp_path / "d" / "dataset.jsonl"), "--tracklets", str(tracklets))
        assert run("--config", cfg_path, "--out", str(tmp_path / "r"), *args) == 0
        # at most 2 (48 + 32) + 1 samples on each of 4 edges on the 48x32-cell image, and one center dot
        assert len(calls) <= 4 * (2 * (48 + 32) + 1) + 1

    def test_ablation_smoke(self, cfg_path, tmp_path):
        data = tmp_path / "d"
        run("--config", cfg_path, "--out", str(data), "generate")
        out = tmp_path / "abl"
        assert run(
            "--config", cfg_path, "--out", str(out), "ablate", str(data / "dataset.jsonl")
        ) == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert [r["variant"] for r in rows] == [
            "single_frame",
            "early_fusion",
            "late_fusion",
            "late_fusion_forecast",
            "late_fusion_forecast_tracking",
        ]

    def test_ablation_scores_the_val_dataset(self, cfg_path, tmp_path, capsys):
        run("--config", cfg_path, "--out", str(tmp_path / "d"), "generate")
        run("--config", cfg_path, "--set", "sim.n_vehicles=[0, 0]", "--out", str(tmp_path / "v"), "generate")
        dataset, empty = str(tmp_path / "d" / "dataset.jsonl"), str(tmp_path / "v" / "dataset.jsonl")
        out = tmp_path / "abl"
        assert run("--config", cfg_path, "--out", str(out), "ablate", dataset, "--val-dataset", empty) == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert len(rows) == 5
        # the val dataset holds no vehicles, so no AP is defined on it
        assert all(ap is None for r in rows for ap in r["ap_by_iou"].values())
        missing = str(tmp_path / "nope.jsonl")
        assert run("--config", cfg_path, "--out", str(out), "ablate", dataset, "--val-dataset", missing) == 1
        assert capsys.readouterr().err.startswith("error:")
