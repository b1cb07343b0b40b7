"""Run configuration: JSON schema, presets, strict parsing.

A file holds up to two sections, "physical" and "control" (21 keys). All
values SI except angular rates, which carry an explicit _rpm suffix in the
file format. Unknown keys are rejected; an int field takes only a JSON
integer, a float field only a finite number and a tuple field only a list
of finite numbers. gen-data's dataset spec is checked by the same rule
(parse_section).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .control import ControlConfig
from .params import PhysicalParameters, desk_parameters, paper_parameters
from .stepper import StepControls


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParameters
    control: ControlConfig

    @property
    def solver(self) -> StepControls:
        """Always StepControls(): the benchmark's workloads pass it as controls=."""
        return StepControls()

    def to_json_dict(self) -> dict:
        return {name: {file_key: getattr(obj, attr) for file_key, attr in keymap.items()}
                for name, obj, keymap in (("physical", self.physical, _PHYS_KEYS),
                                          ("control", self.control, _CONTROL_KEYS))}


_PHYS_KEYS = {
    "axial_length_m": "axial_length",
    "pitch_m": "pitch",
    "helix_radius_m": "helix_radius",
    "rod_radius_m": "rod_radius",
    "youngs_modulus_pa": "youngs_modulus",
    "poisson_ratio": "poisson_ratio",
    "head_radius_m": "head_radius",
    "viscosity_pa_s": "viscosity",
    "density_kg_m3": "density",
    "node_count": "node_count",
    "time_step_s": "time_step",
}

_CONTROL_KEYS = {
    "omega_low_rpm": "omega_low_rpm",
    "omega_high_rpm": "omega_high_rpm",
    "omega_buckling_rpm": "omega_buckling_rpm",
    "linearity_threshold_m2": "linearity_threshold",
    "history_length": "history_length",
    "observation_interval_s": "observation_interval",
    "startup_time_s": "startup_time",
    "cruise_speed_m_s": "cruise_speed",
    "min_pulse_s": "min_pulse",
    "straight_threshold_deg": "straight_threshold_deg",
}


def _finite(value) -> bool:
    return type(value) in (int, float) and -math.inf < value < math.inf


def parse_section(data: dict, cls: type, keymap: dict, section: str) -> dict:
    """The section's values by field name, each checked against its field's type."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(data) - set(keymap)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    types = {f.name: f.type for f in fields(cls)}
    out = {}
    for file_key, value in data.items():
        attr = keymap[file_key]
        if types[attr] == "int":
            if type(value) is not int:
                raise ConfigError(f"{section}.{file_key} must be an integer, got {value!r}")
        elif types[attr] == "tuple":
            if type(value) is not list or not all(map(_finite, value)):
                raise ConfigError(f"{section}.{file_key} must be a list of finite numbers, "
                                  f"got {value!r}")
        elif not _finite(value):
            raise ConfigError(f"{section}.{file_key} must be a finite number, got {value!r}")
        out[attr] = value
    return out


def preset(name: str) -> RunConfig:
    """Built-in configurations: full-scale 'paper' and CI-scale 'desk'."""
    if name == "paper":
        return RunConfig(paper_parameters(), ControlConfig(startup_time=100.0))
    if name == "desk":
        return RunConfig(desk_parameters(), ControlConfig(startup_time=60.0))
    raise ConfigError(f"unknown preset {name!r} (expected 'paper' or 'desk')")


def load_config(path=None, preset_name: str = "desk",
                overrides: dict | None = None) -> RunConfig:
    """Assemble a RunConfig from a preset plus an optional JSON file.

    File values override preset values key by key; unknown keys are errors.
    Only preset_name (the CLI's --preset) chooses the preset; a file cannot.
    """
    base = preset(preset_name)
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    if overrides:
        for section, vals in overrides.items():
            data.setdefault(section, {}).update(vals)
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - {"physical", "control"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    phys_kwargs = parse_section(data.get("physical", {}), PhysicalParameters,
                                _PHYS_KEYS, "physical")
    control_kwargs = parse_section(data.get("control", {}), ControlConfig,
                                   _CONTROL_KEYS, "control")
    try:
        physical = replace(base.physical, **phys_kwargs)
        control = replace(base.control, **control_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(physical=physical, control=control)
