"""Physical parameter sets for the swimmer and its presets.

All quantities are SI. Angular velocities cross the API boundary in rad/s;
rpm appears only in config files and CLI flags (keys carry an ``_rpm``
suffix there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SQRT_E = math.sqrt(math.e)


@dataclass(frozen=True)
class PhysicalParameters:
    """Geometry, material, fluid, and discretization constants."""

    axial_length: float      # helix axial extent [m]
    pitch: float             # helix pitch [m]
    helix_radius: float      # helix radius [m]
    rod_radius: float        # circular cross-section radius [m]
    youngs_modulus: float    # [Pa]
    poisson_ratio: float     # dimensionless, in [0, 0.5]
    head_radius: float       # spherical head radius [m]
    viscosity: float         # fluid dynamic viscosity [Pa s]
    density: float           # rod/head density [kg/m^3]
    node_count: int          # number of rod nodes, head included
    time_step: float         # integrator step [s]

    def __post_init__(self):
        positive = (
            ("axial_length", self.axial_length),
            ("pitch", self.pitch),
            ("helix_radius", self.helix_radius),
            ("rod_radius", self.rod_radius),
            ("youngs_modulus", self.youngs_modulus),
            ("head_radius", self.head_radius),
            ("viscosity", self.viscosity),
            ("density", self.density),
            ("time_step", self.time_step),
        )
        for name, value in positive:
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if not 0.0 <= self.poisson_ratio <= 0.5:
            raise ValueError(f"poisson_ratio must lie in [0, 0.5], got {self.poisson_ratio}")
        if self.node_count < 4:
            raise ValueError(f"node_count must be at least 4, got {self.node_count}")

    @property
    def cutoff(self) -> float:
        """Hydrodynamic cutoff delta = r0 sqrt(e)/2 [m]."""
        return self.rod_radius * SQRT_E / 2.0

    @property
    def edge_length(self) -> float:
        """Contour edge length 2*delta [m]."""
        return 2.0 * self.cutoff

    @property
    def helix_turns(self) -> float:
        return self.axial_length / self.pitch

    @property
    def helix_contour_length(self) -> float:
        """Arc length of the full helix implied by (L, lambda, R) [m]."""
        per_turn = math.hypot(2.0 * math.pi * self.helix_radius, self.pitch)
        return self.helix_turns * per_turn


def paper_parameters(node_count: int = 122, time_step: float = 1e-3) -> PhysicalParameters:
    """Full-scale robot: 13 cm helix, 1 mm rod, 1 cm head, mu = 2.7 Pa s."""
    return PhysicalParameters(
        axial_length=0.13,
        pitch=0.0326,
        helix_radius=0.00604,
        rod_radius=0.001,
        youngs_modulus=1.0e6,
        poisson_ratio=0.5,
        head_radius=0.01,
        viscosity=2.7,
        density=127000.0,
        node_count=node_count,
        time_step=time_step,
    )


# Stiffness calibration of the desk discretization: about 2 for the wider
# cross-section's drive torque, the rest to put the threshold near 10 rpm,
# which holds near the full-helix N=16 rod only. The default N=42 rod keeps
# its shape at 15 and 17 rpm over 40 s and buckles at 20 rpm.
DESK_STIFFNESS_CALIBRATION = 9.1


def desk_parameters(node_count: int = 42, time_step: float = 2.5e-3) -> PhysicalParameters:
    """Coarse preset for CI-scale runs.

    Keeps the full-scale helix (L, lambda, R), head, and fluid, but widens the
    cross-section so that node_count-2 edges of length 2*delta span the same
    contour, and rescales E (see DESK_STIFFNESS_CALIBRATION). Neither the
    speed nor the threshold converges in N: at 3 rpm N=42 swims at -0.157 mm/s
    over 40-60 s, the paper rod at -0.254, and N <= 26 the other way, head first.
    """
    base = paper_parameters()
    edge = base.helix_contour_length / (node_count - 2)
    rod_radius = edge / SQRT_E
    stiffness_ratio = (base.rod_radius / rod_radius) ** 4 * DESK_STIFFNESS_CALIBRATION
    return replace(
        base,
        rod_radius=rod_radius,
        youngs_modulus=base.youngs_modulus * stiffness_ratio,
        node_count=node_count,
        time_step=time_step,
    )
