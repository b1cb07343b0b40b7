"""The elastic kernel, three short trajectories and trained regressors
against recorded references.

tests/data/record_fixtures.py says how the references were made. The
kernel arrays match to 1e-12 relative (reordered floating-point sums move
them by about 1e-16); the trajectories, which compound rounding over 600
(tiny rod) and 50 (paper rod) Newton steps, match to 1e-9 of the head's
travel. The substep recovery window was recorded with a new spectrum for
every substep and now reuses the cached one, so it matches to 1e-3. The
regressors were recorded with a parameter-space solve of each damped
Gauss-Newton step; the Gram-matrix solve that replaced it reorders
the sums, so predictions on the training inputs match to 1e-8 of each
target's spread, after equal epochs.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import count_spectra, flaky_step, make_synthetic_dataset
from flagsim import (
    RestConfiguration,
    build_initial_configuration,
    desk_parameters,
    paper_parameters,
    stepper,
)
from flagsim.elastic import CommittedFrames, evaluate_elastics, jacobian_from_eval
from flagsim.learning import TrainControls, fit_inverse_maps, train_regressor
from flagsim.stepper import (
    AngularVelocityProfile,
    NewtonDivergenceError,
    StepDiagnostics,
    simulate,
)

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
    committed = CommittedFrames.of(ref["ref_d1"], ref["tangents"], ref["ref_twist"])
    ev = evaluate_elastics(ref["positions"], ref[f"{case}_thetas"], committed, rest)
    jac = jacobian_from_eval(ev, rest)
    assert relative_error(jac, ref[f"{case}_band"]) <= 1e-12
    assert relative_error(ev.force, ref[f"{case}_force"]) <= 1e-12
    assert ev.energy == pytest.approx(float(ref[f"{case}_energy"]), rel=1e-12)


def test_elastic_kernel_matches_recorded_off_the_committed_frames():
    # candidate DOFs displaced from the committed ones, so the edge and
    # reference-twist transports rotate the frames instead of fixing them
    ref = np.load(DATA / "elastic_moved_n10.npz")
    params = paper_parameters(node_count=10)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    committed = CommittedFrames.of(ref["ref_d1"], ref["tangents"], ref["ref_twist"])
    ev = evaluate_elastics(ref["positions"], ref["thetas"], committed, rest)
    assert relative_error(ev.d1, ref["d1"]) <= 1e-12
    assert relative_error(ev.ref_twist, ref["moved_ref_twist"]) <= 1e-12
    assert relative_error(ev.force, ref["force"]) <= 1e-12
    assert relative_error(jacobian_from_eval(ev, rest), ref["band"]) <= 1e-12
    assert ev.energy == pytest.approx(float(ref["energy"]), rel=1e-12)


def test_pulse_trajectory_matches_recorded():
    # tiny rod: 1 s at 3 rpm, a 1 s pulse at 15 rpm, 1 s at 3 rpm
    ref = np.load(DATA / "pulse_tiny.npz")
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.pulse(3.0 * RPM, 15.0 * RPM, 1.0, 1.0)
    traj = simulate(params, profile, 3.0, 0.5)
    travel = np.max(np.linalg.norm(ref["head"] - ref["head"][0], axis=1))
    assert travel > 1e-3  # the robot moves a millimetre or more
    np.testing.assert_array_equal(traj.times, 0.5 * np.arange(7))
    assert np.max(np.abs(traj.head - ref["head"])) <= 1e-9 * travel
    assert np.max(np.abs(traj.node1 - ref["node1"])) <= 1e-9 * travel


def test_paper_cruise_matches_recorded(paper_params):
    # paper rod at 3 rpm for 50 steps: the dense mobility, built twice (steps 0 and 40)
    ref = np.load(DATA / "paper_cruise.npz")
    traj = simulate(paper_params, AngularVelocityProfile.constant(3.0 * RPM), 0.05, 0.01)
    travel = np.max(np.linalg.norm(ref["head"] - ref["head"][0], axis=1))
    assert travel > 1e-8  # the head moves in 50 steps
    np.testing.assert_array_equal(traj.times, 0.01 * np.arange(6))
    assert np.max(np.abs(traj.head - ref["head"])) <= 1e-9 * travel
    assert np.max(np.abs(traj.node1 - ref["node1"])) <= 1e-9 * travel


def test_recovery_window_matches_recorded(monkeypatch):
    # tiny rod at 3 rpm whose first full step fails: 200 steps as 400 half
    # steps sharing the spectrum cache, rebuilt every 8 of them (51 spectra;
    # 401 when every substep built its own). Rebuilding every 8 steps
    # instead of every step moves a fallback-free run's head by 1.9e-4 of
    # its travel and node 1 by 5.6e-4; it moves this window's by 1.0e-4 and
    # 2.8e-4. The tolerance is 1e-3 of the head's travel.
    ref = np.load(DATA / "fallback_tiny.npz")
    params = desk_parameters(node_count=16, time_step=0.005)
    spectra = count_spectra(monkeypatch)
    flaky, sizes = flaky_step(stepper.step, NewtonDivergenceError("injected", StepDiagnostics()))
    monkeypatch.setattr(stepper, "step", flaky)
    traj = simulate(params, AngularVelocityProfile.constant(3.0 * RPM), 1.0, 0.1)
    assert sizes.count(0.0025) == 400 and len(spectra) <= 51
    travel = np.max(np.linalg.norm(ref["head"] - ref["head"][0], axis=1))
    assert travel > 1e-5
    assert np.max(np.abs(traj.head - ref["head"])) <= 1e-3 * travel
    assert np.max(np.abs(traj.node1 - ref["node1"])) <= 1e-3 * travel


def assert_fit_matches(result, ref, prefix):
    x, y = ref[f"{prefix}_inputs"], ref[f"{prefix}_targets"]
    assert result.epochs == int(ref[f"{prefix}_epochs"])
    drift = np.max(np.abs(result.model.predict(x)[:, 0] - ref[f"{prefix}_pred"]))
    assert drift <= 1e-8 * np.ptp(y)


def test_inverse_maps_match_recorded():
    # 128 training residuals per map against 331 parameters
    ref = np.load(DATA / "training.npz")
    maps = fit_inverse_maps(make_synthetic_dataset(), TrainControls(seed=13, max_epochs=60))
    for name in ("f_high", "f_low", "f_beta", "f_l"):
        assert_fit_matches(getattr(maps, name), ref, f"maps_{name}")


def test_fit_with_more_residuals_than_parameters_matches_recorded():
    # 450 rows, 90 held out: 360 training residuals against 331 parameters
    ref = np.load(DATA / "training.npz")
    result = train_regressor(ref["wide_inputs"], ref["wide_targets"],
                             TrainControls(seed=20, max_epochs=10))
    assert_fit_matches(result, ref, "wide")
