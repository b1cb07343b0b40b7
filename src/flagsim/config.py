"""Run configuration: JSON schema, presets, strict parsing.

All values SI except angular rates, which carry an explicit _rpm suffix in
the file format. Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .control import ControlConfig
from .params import PhysicalParameters, desk_parameters, paper_parameters
from .stepper import StepControls


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParameters
    solver: StepControls
    control: ControlConfig
    seed: int = 0

    def to_json_dict(self) -> dict:
        sections = (("physical", self.physical, _PHYS_KEYS),
                    ("solver", self.solver, _SOLVER_KEYS),
                    ("control", self.control, _CONTROL_KEYS))
        out = {name: {file_key: getattr(obj, attr) for file_key, attr in keymap.items()}
               for name, obj, keymap in sections}
        out["seed"] = self.seed
        return out


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

_SOLVER_KEYS = {
    "newton_tol": "newton_tol",
    "max_newton_iters": "max_newton_iters",
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


def _parse_section(data: dict, keymap: dict, section: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(data) - set(keymap)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    out = {}
    for file_key, attr in keymap.items():
        if file_key in data:
            out[attr] = data[file_key]
    return out


def preset(name: str) -> RunConfig:
    """Built-in configurations: full-scale 'paper' and CI-scale 'desk'."""
    if name == "paper":
        return RunConfig(
            physical=paper_parameters(),
            solver=StepControls(),
            control=ControlConfig(startup_time=100.0),
            seed=0,
        )
    if name == "desk":
        return RunConfig(
            physical=desk_parameters(),
            solver=StepControls(),
            control=ControlConfig(startup_time=60.0),
            seed=0,
        )
    raise ConfigError(f"unknown preset {name!r} (expected 'paper' or 'desk')")


def load_config(path=None, preset_name: str = "desk", overrides: dict | None = None,
                seed: int | None = None) -> RunConfig:
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
    unknown = set(data) - {"physical", "solver", "control", "seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    phys_kwargs = _parse_section(data.get("physical", {}), _PHYS_KEYS, "physical")
    solver_kwargs = _parse_section(data.get("solver", {}), _SOLVER_KEYS, "solver")
    control_kwargs = _parse_section(data.get("control", {}), _CONTROL_KEYS, "control")
    try:
        physical = replace(base.physical, **phys_kwargs)
        solver = replace(base.solver, **solver_kwargs)
        control = replace(base.control, **control_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out_seed = base.seed
    if "seed" in data:
        out_seed = int(data["seed"])
    if seed is not None:
        out_seed = seed
    return RunConfig(physical=physical, solver=solver, control=control, seed=out_seed)
