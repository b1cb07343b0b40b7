"""Simulation and control toolkit for a uniflagellar swimming robot."""

from .params import PhysicalParameters, desk_parameters, paper_parameters
from .rod import RodState, build_initial_configuration
from .elastic import RestConfiguration
from .stepper import AngularVelocityProfile, HeadTrajectory, StepControls, simulate, step

__all__ = [
    "PhysicalParameters",
    "desk_parameters",
    "paper_parameters",
    "RodState",
    "build_initial_configuration",
    "RestConfiguration",
    "AngularVelocityProfile",
    "HeadTrajectory",
    "StepControls",
    "simulate",
    "step",
]
