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

_SECTIONS = ("sim", "gains", "tracker", "detect", "lk")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    gains: PidGains
    detect: DetectParams
    lk: LkParams
    min_alive: int
    preset: str | None = None

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(detect=self.detect, lk=self.lk, min_alive=self.min_alive)


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
    if target is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {target}")


_FIELD_TYPES = {
    "sim": {f.name: f.type for f in dataclasses.fields(SimConfig)},
    "gains": {f.name: f.type for f in dataclasses.fields(PidGains)},
    "detect": {f.name: f.type for f in dataclasses.fields(DetectParams)},
    "lk": {f.name: f.type for f in dataclasses.fields(LkParams)},
    "tracker": {"min_alive": "int"},
}

_PY_TYPES = {"float": float, "int": int, "bool": bool}


def _merge_section(section: str, base: dict[str, Any], override: Mapping[str, Any]) -> None:
    types = _FIELD_TYPES[section]
    for key, value in override.items():
        if key not in types:
            raise ConfigError(f"{section}.{key}: unknown field")
        target = _PY_TYPES.get(str(types[key]).strip())
        if target is None:
            raise ConfigError(f"{section}.{key}: unsupported field type")
        base[key] = _coerce(value, target, f"{section}.{key}")


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
        if not path.exists():
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

    def build(section: str, make):
        try:
            return make()
        except ValueError as exc:  # a dataclass's semantic check names the field only
            raise ConfigError(f"{section}: {exc}") from None

    sim = build("sim", lambda: SimConfig(**sections["sim"]))
    build("sim", lambda: sim.substeps)  # surfaces dt divisibility problems up front
    gains = build("gains", lambda: PidGains(**sections["gains"]))
    detect = build("detect", lambda: DetectParams(**sections["detect"]))
    lk = build("lk", lambda: LkParams(**sections["lk"]))
    tracker = build("tracker", lambda: TrackerConfig(
        detect=detect, lk=lk, min_alive=sections["tracker"].get("min_alive", 5)
    ))
    return RunConfig(
        sim=sim,
        gains=gains,
        detect=detect,
        lk=lk,
        min_alive=tracker.min_alive,
        preset=preset,
    )


def config_digest(rc: RunConfig) -> dict[str, Any]:
    """Identifying fields recorded alongside a summary for reproducibility."""
    return {
        "preset": rc.preset,
        "texture_seed": rc.sim.texture_seed,
        "duration": rc.sim.duration,
        "settle_time": rc.sim.settle_time,
        "frame_size_cm": rc.sim.frame_size_cm,
    }
