import json

import pytest

from flowhold.config import (
    PRESET_NAMES,
    ConfigError,
    config_digest,
    load_run_config,
    preset_overrides,
)


class TestDefaults:
    def test_documented_defaults(self):
        rc = load_run_config()
        assert rc.gains.kp == 8e-4
        assert rc.gains.ki == 2e-4
        assert rc.gains.kd == 9e-4
        assert rc.gains.i_limit == 400.0
        assert rc.gains.out_limit == 0.2
        assert rc.detect.max_corners == 20
        assert rc.detect.quality_level == 0.05
        assert rc.detect.min_distance == 15.0
        assert rc.detect.window_radius == 2
        assert rc.lk.window_radius == 10
        assert rc.lk.pyramid_levels == 3
        assert rc.lk.max_iterations == 30
        assert rc.lk.epsilon == 0.01
        assert rc.lk.min_eigen_threshold == 1e-4
        assert rc.lk.residual_cap == 0.08
        assert rc.min_alive == 5
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


class TestPrecedence:
    def test_file_overrides_preset_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sim": {"duration": 42.0, "texture_seed": 777}}))
        rc = load_run_config("calm", cfg, {"sim": {"duration": 7.0}})
        assert rc.sim.duration == 7.0
        assert rc.sim.texture_seed == 777
        assert rc.sim.wind_sigma == 0.0  # still from the calm preset

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match=str(missing)):
            load_run_config(None, missing)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(None, bad)


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
