"""generate_dataset end to end on a coarse rod (N=16, dt = 0.25 s).

The settle is run once and forked per grid entry; every trajectory must
still be the fresh run of its profile, bit for bit.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

import flagsim.learning as learning
import flagsim.stepper as stepper
from flagsim import desk_parameters
from flagsim.hydro import HydroSolveError
from flagsim.learning import DatasetSpec, generate_dataset
from flagsim.stepper import SimulationError

RPM = 2 * math.pi / 60
LOW, HIGH, BUCKLING = 3 * RPM, 15 * RPM, 10 * RPM
DT_OBS = 0.5
K = 4


@pytest.fixture(scope="module")
def coarse():
    return desk_parameters(node_count=16, time_step=0.25)


def run(params, spec, workers=1):
    return generate_dataset(params, spec, LOW, HIGH, BUCKLING, dt_obs=DT_OBS, k=K,
                            workers=workers)


def recorded_calls(monkeypatch):
    """Every (args, trajectory) that learning.simulate returns, in call order."""
    calls = []
    original = learning.simulate

    def recording(*args, **kwargs):
        traj = original(*args, **kwargs)
        calls.append((args, traj))
        return traj

    monkeypatch.setattr(learning, "simulate", recording)
    return calls


@pytest.mark.parametrize("spec", [
    # 0 after a pulse, a settle off the observation grid, and a run long
    # enough that the calibration is a cut of the unpulsed entry
    DatasetSpec(total_time=45.0, t_high_grid=(1.0, 0.0), settle_time=4.3,
                segments_per_trajectory=3),
    # no 0: the calibration continues the settle itself
    DatasetSpec(total_time=10.0, t_high_grid=(1.0,), settle_time=4.0,
                segments_per_trajectory=3),
], ids=["unpulsed-entry", "no-unpulsed-entry"])
def test_forked_trajectories_equal_fresh_runs(monkeypatch, coarse, spec):
    calls = recorded_calls(monkeypatch)
    out = run(coarse, spec)
    assert out.datapoints and not out.rejections

    # once per grid entry in grid order, then the calibration; each from t = 0
    durations = [spec.total_time] * len(spec.t_high_grid) + [spec.settle_time + 40.0]
    assert [args[2] for args, _ in calls] == durations
    for (args, _), t_high in zip(calls, spec.t_high_grid):
        profile = stepper.AngularVelocityProfile.pulse(LOW, HIGH, spec.settle_time, t_high)
        assert np.array_equal(args[1].times, profile.times)
        assert np.array_equal(args[1].omegas, profile.omegas)
    for args, traj in calls:
        fresh = stepper.simulate(*args[:4])
        assert traj.times[0] == 0.0
        for f in fields(fresh):
            assert getattr(traj, f.name).tobytes() == getattr(fresh, f.name).tobytes(), f.name

    monkeypatch.undo()
    pooled = run(coarse, spec, workers=2)
    assert pooled.datapoints == out.datapoints
    assert pooled.rejections == out.rejections
    assert pooled.cruise_speed == out.cruise_speed
    assert pooled.cruise_direction.tobytes() == out.cruise_direction.tobytes()


def test_before_line_ends_before_an_off_grid_pulse(monkeypatch, coarse):
    # The pulse at 4.3 s falls between samples: the before-line ends on the
    # 4.0 s sample, the last one before the pulse, not the rounded 4.5 s one.
    spec = DatasetSpec(total_time=10.0, t_high_grid=(1.0,), settle_time=4.3,
                       segments_per_trajectory=3)
    calls = recorded_calls(monkeypatch)
    segments = []
    parameterize = learning.parameterize_segment

    def recording(samples, *args):
        segments.append(samples)
        return parameterize(samples, *args)

    monkeypatch.setattr(learning, "parameterize_segment", recording)
    out = run(coarse, spec)
    assert len(out.datapoints) == len(segments) == 3 and not out.rejections
    traj = calls[0][1]
    for samples in segments:
        (start,) = np.flatnonzero((traj.head == samples[0]).all(axis=1))
        before = slice(start, start + K + 1)
        assert traj.head[before].tobytes() == samples[:K + 1].tobytes()
        assert traj.times[before][-1] == 4.0
        assert np.all(traj.omega[before] == LOW)


def test_short_settle_raises_before_any_run(monkeypatch, coarse):
    calls = recorded_calls(monkeypatch)
    steps = []
    monkeypatch.setattr(stepper, "step", lambda *args: steps.append(args))
    spec = DatasetSpec(total_time=10.0, t_high_grid=(0.0, 1.0), settle_time=K * DT_OBS - 0.2,
                       segments_per_trajectory=3)
    with pytest.raises(ValueError, match="settle_time"):
        run(coarse, spec)
    assert not calls and not steps


def failing_step(fails):
    """stepper.step that raises HydroSolveError where fails(state, omega) holds."""
    real_step = stepper.step

    def step(state, rest, params, omega, spectrum, controls):
        if fails(state, omega):
            raise HydroSolveError("injected")
        return real_step(state, rest, params, omega, spectrum, controls)

    return step


def test_failures_are_rejected_per_entry(monkeypatch, coarse):
    spec = DatasetSpec(total_time=10.0, t_high_grid=(0.0, 1.0, 2.0), settle_time=4.0,
                       segments_per_trajectory=3)
    cruise_starts = []
    measure_cruise = learning.measure_cruise

    def recording_cruise(*args, start=None, **kwargs):
        cruise_starts.append(start)
        return measure_cruise(*args, start=start, **kwargs)

    monkeypatch.setattr(learning, "measure_cruise", recording_cruise)

    # A failed pulse rejects its own entry; the unpulsed entry and the
    # calibration continuing it are unaffected.
    monkeypatch.setattr(stepper, "step", failing_step(lambda state, omega: omega > BUCKLING))
    out = run(coarse, spec)
    reasons = [(r.t_high, r.reason) for r in out.rejections]
    assert reasons == [(1.0, "simulation failed: step at t=4.000000s: injected"),
                       (2.0, "simulation failed: step at t=4.000000s: injected")]
    assert out.datapoints and all(d.t_high == 0.0 for d in out.datapoints)
    assert cruise_starts[-1] is not None

    # A failure during the settle rejects every entry, and the calibration,
    # run again from the start, still raises. Every run fails on its ninth
    # step, the one from t = 2 s.
    steps = []

    def ninth_step(state, omega):
        steps.append(omega)
        if len(steps) == 9:
            steps.clear()
            return True
        return False

    monkeypatch.setattr(stepper, "step", failing_step(ninth_step))
    with pytest.raises(SimulationError, match="t=2.000000s"):
        run(coarse, spec)
    assert cruise_starts[-1] is None

    monkeypatch.setattr(learning, "measure_cruise", lambda *args, **kwargs: (0.0, None, None))
    out = run(coarse, spec)
    assert not out.datapoints
    assert [(r.t_high, r.reason) for r in out.rejections] == [
        (t, "simulation failed: step at t=2.000000s: injected") for t in spec.t_high_grid]
