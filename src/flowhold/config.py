"""Run configuration: defaults, preset files, JSON overrides.

A run config is one JSON object with five sections (sim, gains,
tracker, detect, lk). Every field has a coded default; a named preset
overrides defaults; an explicit config file overrides the preset;
command-line overrides win over everything.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from flowhold.control import PidGains
from flowhold.corners import DetectParams
from flowhold.flow import LkParams
from flowhold.sim import ConfigError, SimConfig
from flowhold.tracker import TrackerConfig

__all__ = [
    "ConfigError",
    "PRESET_NAMES",
    "RunConfig",
    "config_digest",
    "load_run_config",
    "preset_overrides",
]

PRESET_NAMES = ("calm", "outdoor", "indoor", "lowlight", "blind")

# Each section and the dataclass that checks it. A field named after
# another section (tracker.detect, tracker.lk) is set through that section.
_SECTIONS = {
    "sim": SimConfig, "gains": PidGains, "tracker": TrackerConfig,
    "detect": DetectParams, "lk": LkParams,
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    gains: PidGains
    tracker: TrackerConfig
    preset: str | None = None

    def tracker_config(self) -> TrackerConfig:
        """Alias of ``tracker``, kept only for the callers in ``perfbench/``."""
        return self.tracker


def _coerce(value: Any, target: type, path: str) -> Any:
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return number
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, bool):  # target is bool
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


# The Python type of every settable field, per section, resolved once; a
# field of any other type fails here, at import.
_PY_TYPES = {"float": float, "int": int, "bool": bool}
_FIELD_TYPES = {
    section: {
        f.name: _PY_TYPES[f.type] for f in dataclasses.fields(cls) if f.name not in _SECTIONS
    }
    for section, cls in _SECTIONS.items()
}


def _merge_section(section: str, base: dict[str, Any], override: Mapping[str, Any]) -> None:
    types = _FIELD_TYPES[section]
    for key, value in override.items():
        if key not in types:
            raise ConfigError(f"{section}.{key}: unknown field")
        base[key] = _coerce(value, types[key], f"{section}.{key}")


def _validate_tree(tree: Mapping[str, Any], source: str) -> None:
    if not isinstance(tree, Mapping):
        raise ConfigError(f"{source}: top level must be a JSON object")
    for key, value in tree.items():
        if key not in _SECTIONS:
            raise ConfigError(f"{source}: unknown section {key!r}")
        if not isinstance(value, Mapping):
            raise ConfigError(f"{source}: section {key!r} must be a JSON object")


def preset_overrides(name: str) -> dict[str, Any]:
    """Load the in-repo override tree for a named preset."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    text = resources.files("flowhold.presets").joinpath(f"{name}.json").read_text("utf-8")
    tree = json.loads(text)
    _validate_tree(tree, f"preset {name}")
    return tree


def load_run_config(
    preset: str | None = None,
    config_path: str | Path | None = None,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> RunConfig:
    """Assemble a RunConfig from defaults, preset, file, and overrides.

    Raises ConfigError with a section.field path for any unknown or
    ill-typed entry, and with the section for any out-of-range value,
    before anything runs.
    """
    sections: dict[str, dict[str, Any]] = {name: {} for name in _SECTIONS}

    def apply(tree: Mapping[str, Any]) -> None:
        for name in _SECTIONS:
            if name in tree:
                _merge_section(name, sections[name], tree[name])

    if preset is not None:
        apply(preset_overrides(preset))
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            tree = json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        _validate_tree(tree, str(path))
        apply(tree)
    if overrides:
        _validate_tree(overrides, "overrides")
        apply(overrides)

    def build(section: str, **nested):
        try:
            return _SECTIONS[section](**sections[section], **nested)
        except ValueError as exc:  # a dataclass's semantic check names the field only
            raise ConfigError(f"{section}: {exc}") from None

    sim, gains = build("sim"), build("gains")
    tracker = build("tracker", detect=build("detect"), lk=build("lk"))
    for section in ("detect", "lk"):
        r = getattr(tracker, section).window_radius
        if 2 * r + 3 > min(sim.image_width, sim.image_height):  # window plus a 1 px rim
            raise ConfigError(
                f"{section}: window_radius={r} needs a frame of at least {2 * r + 3} px "
                f"per side, got {sim.image_width}x{sim.image_height}"
            )
    return RunConfig(sim=sim, gains=gains, tracker=tracker, preset=preset)


def config_digest(rc: RunConfig) -> dict[str, Any]:
    """Identifying fields recorded alongside a summary for reproducibility."""
    return {
        "preset": rc.preset,
        "texture_seed": rc.sim.texture_seed,
        "duration": rc.sim.duration,
        "settle_time": rc.sim.settle_time,
        "frame_size_cm": rc.sim.frame_size_cm,
    }
