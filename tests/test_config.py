import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhold.config import (
    _SECTIONS,
    PRESET_NAMES,
    ConfigError,
    config_digest,
    load_run_config,
    preset_overrides,
)
from flowhold.sim import SimConfig


class TestDefaults:
    def test_documented_defaults(self):
        rc = load_run_config()
        assert rc.gains.kp == 8e-4
        assert rc.gains.ki == 2e-4
        assert rc.gains.kd == 9e-4
        assert rc.gains.i_limit == 400.0
        assert rc.gains.out_limit == 0.2
        assert rc.tracker.detect.max_corners == 20
        assert rc.tracker.detect.quality_level == 0.05
        assert rc.tracker.detect.min_distance == 15.0
        assert rc.tracker.detect.window_radius == 2
        assert rc.tracker.lk.window_radius == 10
        assert rc.tracker.lk.pyramid_levels == 3
        assert rc.tracker.lk.max_iterations == 30
        assert rc.tracker.lk.epsilon == 0.01
        assert rc.tracker.lk.min_eigen_threshold == 1e-4
        assert rc.tracker.lk.residual_cap == 0.08
        assert rc.tracker.min_alive == 5
        assert rc.sim.camera_rate == 25.0
        assert rc.sim.altitude == 1.0
        assert rc.sim.focal_px == 500.0
        assert (rc.sim.image_width, rc.sim.image_height) == (640, 480)
        assert rc.sim.frame_size_cm == 58.0


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_load(self, name):
        rc = load_run_config(name)
        assert rc.preset == name
        assert rc.sim.duration > 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_overrides("windy")

    def test_preset_distinguishing_fields(self):
        calm = load_run_config("calm")
        outdoor = load_run_config("outdoor")
        lowlight = load_run_config("lowlight")
        blind = load_run_config("blind")
        assert calm.sim.wind_sigma == 0.0
        assert outdoor.sim.wind_sigma > load_run_config("indoor").sim.wind_sigma > 0
        assert lowlight.sim.lowlight_gain == 0.25
        assert lowlight.sim.lowlight_noise == 0.02
        assert blind.sim.blank_ground


# Fields a config layer may set, each with values its section accepts.
_LAYER_VALUES = {
    ("sim", "duration"): st.floats(0.5, 500.0),
    ("sim", "texture_seed"): st.integers(0, 10**6),
    ("sim", "wind_sigma"): st.floats(0.0, 1.0),
    ("sim", "blank_ground"): st.booleans(),
    ("gains", "kp"): st.floats(0.0, 1e-2),
    ("lk", "max_iterations"): st.integers(1, 50),
    ("tracker", "min_alive"): st.integers(1, 20),
}


def _tree(layer):
    tree = {}
    for (section, name), value in layer.items():
        tree.setdefault(section, {})[name] = value
    return tree


def _field(rc, key):
    section, name = key
    owner = rc.tracker if section in ("detect", "lk") else rc  # sections nested in tracker
    return getattr(getattr(owner, section), name)


class TestPrecedence:
    def test_file_overrides_preset_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sim": {"duration": 42.0, "texture_seed": 777}}))
        rc = load_run_config("calm", cfg, {"sim": {"duration": 7.0}})
        assert rc.sim.duration == 7.0
        assert rc.sim.texture_seed == 777
        assert rc.sim.wind_sigma == 0.0  # still from the calm preset

    @settings(deadline=None, max_examples=100)
    @given(
        preset=st.sampled_from((None, *PRESET_NAMES)),
        file_layer=st.fixed_dictionaries({}, optional=_LAYER_VALUES),
        set_layer=st.fixed_dictionaries({}, optional=_LAYER_VALUES),
    )
    def test_later_layer_wins_per_field(self, preset, file_layer, set_layer):
        # defaults < preset < --config file < --set, decided field by field.
        preset_layer = {
            (section, name): value
            for section, fields in (preset_overrides(preset) if preset else {}).items()
            for name, value in fields.items()
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(_tree(file_layer)))
            rc = load_run_config(preset, path, _tree(set_layer))
        defaults = load_run_config()
        for key in _LAYER_VALUES:
            want = _field(defaults, key)
            for layer in (preset_layer, file_layer, set_layer):
                want = layer.get(key, want)
            assert _field(rc, key) == want, key

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match=str(missing)):
            load_run_config(None, missing)

    def test_directory_is_not_a_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_run_config(None, tmp_path)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(None, bad)


class TestSchema:
    def test_every_section_field_at_its_default_is_accepted(self):
        # Built from the dataclasses themselves, not from the loader's type
        # table, so a field the table dropped shows up as "unknown field".
        tree = {}
        for section, cls in _SECTIONS.items():
            default = cls()
            tree[section] = {
                f.name: getattr(default, f.name)
                for f in dataclasses.fields(cls)
                if not dataclasses.is_dataclass(getattr(default, f.name))
            }
        assert tree["tracker"] == {"min_alive": 5}
        assert len(tree["sim"]) == len(dataclasses.fields(SimConfig))
        assert load_run_config(None, None, tree) == load_run_config()

    def test_run_config_holds_the_built_tracker_config(self):
        rc = load_run_config(None, None, {"tracker": {"min_alive": 3}, "lk": {"epsilon": 0.02}})
        assert [f.name for f in dataclasses.fields(rc)] == ["sim", "gains", "tracker", "preset"]
        assert rc.tracker_config() is rc.tracker
        assert (rc.tracker.min_alive, rc.tracker.lk.epsilon) == (3, 0.02)


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(None, None, {"simulator": {"duration": 1.0}})

    def test_unknown_field_is_field_precise(self):
        with pytest.raises(ConfigError, match="sim.durations"):
            load_run_config(None, None, {"sim": {"durations": 1.0}})

    def test_type_error_is_field_precise(self):
        with pytest.raises(ConfigError, match="sim.duration"):
            load_run_config(None, None, {"sim": {"duration": "long"}})

    def test_semantic_error_surfaces(self):
        with pytest.raises(ConfigError):
            load_run_config(None, None, {"gains": {"out_limit": 0.0}})

    def test_dt_divisibility_checked_up_front(self):
        with pytest.raises(ConfigError, match="physics_dt"):
            load_run_config(None, None, {"sim": {"physics_dt": 0.007}})

    @pytest.mark.parametrize("physics_dt", [0.007, 0.05, 5e-324])
    def test_sim_config_checks_dt_divisibility_at_construction(self, physics_dt):
        # 0.007 leaves a remainder, 0.05 exceeds the 0.04 s frame interval,
        # and a subnormal step overflows the step count.
        with pytest.raises(ConfigError, match="must divide the frame interval"):
            SimConfig(physics_dt=physics_dt)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gravity", -9.81),
            ("drag_coeff", -0.1),
            ("max_tilt", 1.6),
            ("cell_size", 0.0),
            ("settle_time", -1.0),
            ("frame_size_cm", 0.0),
        ],
    )
    def test_physical_sim_fields_checked(self, field, value):
        with pytest.raises(ConfigError, match=field):
            load_run_config(None, None, {"sim": {field: value}})

    @pytest.mark.parametrize("section", ["detect", "lk"])
    def test_window_radius_must_fit_frame(self, section):
        # A 64x48 frame holds a window of radius 22 with its one-pixel rim
        # (2r+3 = 47), not one of radius 23 (49).
        sim = {"image_width": 64, "image_height": 48}
        rc = load_run_config(None, None, {"sim": sim, section: {"window_radius": 22}})
        assert getattr(rc.tracker, section).window_radius == 22
        with pytest.raises(ConfigError, match=f"^{section}: window_radius=23 needs"):
            load_run_config(None, None, {"sim": sim, section: {"window_radius": 23}})

    def test_tracker_min_alive_bound(self):
        with pytest.raises(ConfigError):
            load_run_config(
                None, None, {"detect": {"max_corners": 4}, "tracker": {"min_alive": 9}}
            )


def test_config_digest_contents():
    rc = load_run_config("outdoor")
    digest = config_digest(rc)
    assert digest["preset"] == "outdoor"
    assert digest["texture_seed"] == rc.sim.texture_seed
    assert digest["frame_size_cm"] == 58.0
