import pytest

from bevtrack.config import ConfigError, from_dict, to_dict
from bevtrack.metrics import EvalConfig
from bevtrack.net import ModelConfig
from bevtrack.sim import SimConfig
from bevtrack.voxel import GridSpec

GRID = {"x_range": [-1.6, 1.6], "y_range": [-1.6, 1.6], "z_range": [0.0, 0.4], "cell": 0.2}


class TestFromDict:
    def test_nested_lists_become_tuples(self):
        cfg = from_dict(ModelConfig, {"grid": GRID, "anchor_specs": [[5.0, 1.0], [8.0, 2.0]]}, "model")
        assert cfg.grid == GridSpec((-1.6, 1.6), (-1.6, 1.6), (0.0, 0.4), 0.2)
        assert cfg.anchor_specs == ((5.0, 1.0), (8.0, 2.0))

    def test_missing_keys_take_defaults(self):
        assert from_dict(SimConfig, {}, "sim") == SimConfig()

    def test_round_trip(self):
        cfg = EvalConfig(iou_thresholds=(0.5,), min_points=1)
        assert from_dict(EvalConfig, to_dict(cfg), "eval") == cfg

    def test_to_dict_has_only_lists(self):
        d = to_dict(from_dict(ModelConfig, {"grid": GRID}, "model"))
        assert d["grid"]["x_range"] == [-1.6, 1.6]
        assert all(isinstance(a, list) for a in d["anchor_specs"])

    def test_int_accepted_for_float(self):
        assert from_dict(SimConfig, {"speed": [0, 2]}, "sim").speed == (0, 2)

    @pytest.mark.parametrize(
        "cls, d, key",
        [
            (SimConfig, {"bogus": 1}, "unknown key"),
            (SimConfig, {"duration": 2.5}, "'sim.duration' must be int"),
            (SimConfig, {"duration": True}, "'sim.duration' must be int"),
            (SimConfig, {"dropout": False}, "'sim.dropout' must be a finite number"),
            (SimConfig, {"dropout": float("nan")}, "'sim.dropout'"),
            (SimConfig, {"dropout": "0.1"}, "'sim.dropout'"),
            (SimConfig, {"n_vehicles": [1, 2, 3]}, "'sim.n_vehicles' must have 2 entries"),
            (SimConfig, {"n_vehicles": [1, 2.0]}, r"'sim.n_vehicles\[1\]' must be int"),
            (EvalConfig, {"iou_thresholds": 0.5}, "'eval.iou_thresholds' must be a list"),
            (ModelConfig, {"grid": [1]}, "'model.grid' must be an object"),
            (ModelConfig, {"grid": {**GRID, "cell": None}}, "'model.grid.cell'"),
            (ModelConfig, {"grid": GRID, "fusion": 1}, "'model.fusion' must be str"),
        ],
    )
    def test_rejects_and_names_the_key(self, cls, d, key):
        with pytest.raises(ConfigError, match=key):
            from_dict(cls, d, cls.__name__.replace("Config", "").lower())
