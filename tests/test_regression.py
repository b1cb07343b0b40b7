"""The elastic kernel and a short trajectory against recorded references.

tests/data/record_fixtures.py says how the references were made. The
kernel arrays match to 1e-12 relative (reordered floating-point sums move
them by about 1e-16); the trajectory, which compounds rounding over 600
Newton steps, matches to 1e-9 of the head's travel.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from flagsim import (
    ElasticStiffnesses,
    RestConfiguration,
    build_initial_configuration,
    desk_parameters,
    paper_parameters,
)
from flagsim.elastic import evaluate_elastics
from flagsim.stepper import AngularVelocityProfile, simulate

DATA = Path(__file__).resolve().parent / "data"
RPM = 2.0 * math.pi / 60.0


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


@pytest.mark.parametrize("case", ["committed", "twisted"])
def test_elastic_kernel_matches_recorded(case):
    # "twisted" carries a twist moment at every node, so a dropped or
    # mis-signed twist term (which the 1e-4 FD-Hessian check can miss) shows
    ref = np.load(DATA / "jacobian_n10.npz")
    params = paper_parameters(node_count=10)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    stiff = ElasticStiffnesses.from_parameters(params)
    ev, jac = evaluate_elastics(ref["positions"], ref[f"{case}_thetas"], ref["ref_d1"],
                                ref["tangents"], ref["ref_twist"], rest, stiff,
                                with_jacobian=True)
    assert relative_error(jac, ref[f"{case}_band"]) <= 1e-12
    assert relative_error(ev.force, ref[f"{case}_force"]) <= 1e-12
    assert ev.energy == pytest.approx(float(ref[f"{case}_energy"]), rel=1e-12)


def test_pulse_trajectory_matches_recorded():
    # tiny rod: 1 s at 3 rpm, a 1 s pulse at 15 rpm, 1 s at 3 rpm
    ref = np.load(DATA / "pulse_tiny.npz")
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.pulse(3.0 * RPM, 15.0 * RPM, 1.0, 1.0)
    traj = simulate(params, profile, 3.0, 0.5)
    travel = np.max(np.linalg.norm(ref["head"] - ref["head"][0], axis=1))
    assert travel > 1e-3  # the robot moves a millimetre or more
    np.testing.assert_array_equal(traj.times, ref["times"])
    assert np.max(np.abs(traj.head - ref["head"])) <= 1e-9 * travel
    assert np.max(np.abs(traj.node1 - ref["node1"])) <= 1e-9 * travel
