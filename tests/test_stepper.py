import math
from dataclasses import fields

import numpy as np
import pytest

import flagsim.stepper as stepper
from flagsim import build_initial_configuration, desk_parameters
from flagsim import hydro
from flagsim.elastic import RestConfiguration
from flagsim.rod import DegenerateEdgeError, node_dof_indices
from flagsim.stepper import (
    AngularVelocityProfile,
    NewtonDivergenceError,
    SimulationError,
    StepControls,
    StepDiagnostics,
    simulate,
    step,
)

from conftest import (
    committed_perturbation,
    count_spectra,
    dense_from_band,
    fallback_sizes,
    flaky_step,
)


def test_node_separation_failure_is_simulation_error(monkeypatch):
    # Two flagellar nodes closer than the cutoff: the mobility guard fires and
    # simulate reports it as SimulationError without retrying at substeps.
    params = desk_parameters(node_count=16, time_step=0.005)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    bad = built.copy()
    # node 5 a quarter edge (half a cutoff) from node 3
    bad.positions[5] = bad.positions[3] + 0.25 * (bad.positions[4] - bad.positions[3])

    calls = []
    assemble = hydro.assemble_mobility

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(hydro, "assemble_mobility", counting)
    omega = 3 * 2 * math.pi / 60
    with pytest.raises(SimulationError) as info:
        simulate(params, AngularVelocityProfile.constant(omega), 0.5, 0.5,
                 initial_state=bad, rest=rest)
    assert isinstance(info.value.__cause__, hydro.HydroSolveError)
    assert len(calls) == 1


def test_banded_newton_solve_matches_dense(monkeypatch, desk_params, desk_built):
    # Every Newton correction from the band solve equals a dense solve of the
    # same matrix.
    _, rest = desk_built
    state = committed_perturbation(desk_built[0], rest, seed=3)
    solves = []
    get_lapack_funcs = stepper.get_lapack_funcs

    def recording(names, arrays):
        (gbsv,) = get_lapack_funcs(names, arrays)

        def solve(kl, ku, ab, b, **kwargs):
            dense, rhs = dense_from_band(ab), b.copy()
            out = gbsv(kl, ku, ab, b, **kwargs)
            solves.append((dense, rhs, out[2].copy()))
            return out
        return (solve,)

    monkeypatch.setattr(stepper, "get_lapack_funcs", recording)
    omega = 3 * 2 * math.pi / 60
    _, diag = step(state, rest, desk_params, omega,
                   stepper.mobility_spectrum(state, desk_params), StepControls())
    assert diag.converged and len(solves) == diag.iterations >= 1
    for dense, rhs, dq in solves:
        np.testing.assert_allclose(dq, np.linalg.solve(dense, rhs), rtol=1e-10)


def test_simulate_substep_fallback(monkeypatch):
    # One Newton failure is replaced by two half steps and the half size is
    # kept for the one-second recovery window; a failure at every size ends
    # the run as SimulationError.
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.constant(3 * 2 * math.pi / 60)
    error = NewtonDivergenceError("injected", StepDiagnostics())

    flaky, sizes = flaky_step(step, error)
    monkeypatch.setattr(stepper, "step", flaky)
    traj = simulate(params, profile, 1.5, 0.5)
    assert sizes == fallback_sizes(0.005, 300)
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0, 1.5])
    assert np.all(np.isfinite(traj.head))

    flaky, sizes = flaky_step(step, error, every_call=True)
    monkeypatch.setattr(stepper, "step", flaky)
    with pytest.raises(SimulationError, match="even at a quarter") as info:
        simulate(params, profile, 1.5, 0.5)
    assert info.value.__cause__ is error
    assert sizes == [None, 0.0025, 0.00125]


def _sample_bytes(integrator):
    return [[np.asarray(v).tobytes() for v in sample] for sample in integrator.samples]


def _assert_same_run(a, b):
    assert a.time == b.time
    for f in fields(a.state):
        x, y = getattr(a.state, f.name), getattr(b.state, f.name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name
    assert _sample_bytes(a) == _sample_bytes(b)


def test_integrator_copy_is_exact(monkeypatch):
    # A fork taken off a spectrum-refresh boundary, and one taken inside the
    # half-step recovery window, advance bit for bit like the original.
    params = desk_parameters(node_count=16, time_step=0.005)
    omega = 3 * 2 * math.pi / 60

    original = stepper.Integrator(params)
    original.advance(omega, 13)  # the spectrum cache dates from step 8
    original.record(omega)
    fork = original.copy()
    assert fork._spectrum is not None and fork._refresh == 8  # 40 ms at dt = 5 ms
    assert not np.shares_memory(fork._spectrum[0], original._spectrum[0])
    for _ in range(20):
        original.advance(omega)
        fork.advance(omega)
        original.record(omega)
        fork.record(omega)
        _assert_same_run(original, fork)

    # A fork owns its samples: observing further changes neither the
    # original's samples nor what the original observes.
    profile = AngularVelocityProfile.constant(omega)
    n = len(original.samples)
    before = original.observe(profile, n, params.time_step)
    kept = _sample_bytes(original)
    forked = original.copy().observe(profile, n + 3, params.time_step)
    assert _sample_bytes(original) == kept
    again = original.observe(profile, n, params.time_step)
    for f in fields(before):
        assert getattr(again, f.name).tobytes() == getattr(before, f.name).tobytes(), f.name
        assert getattr(forked, f.name)[:n].tobytes() == getattr(before, f.name).tobytes(), f.name

    flaky, sizes = flaky_step(step, NewtonDivergenceError("injected", StepDiagnostics()))
    monkeypatch.setattr(stepper, "step", flaky)
    original = stepper.Integrator(params)
    original.advance(omega, 7)  # the first step fails: half steps for 200 steps
    fork = original.copy()
    assert fork._recover == original._recover == 193
    for _ in range(210):  # past the window's end and two refreshes
        original.advance(omega)
        fork.advance(omega)
        _assert_same_run(original, fork)
    assert sizes.count(0.0025) == 2 * 2 * 200 - 2 * 7


@pytest.mark.parametrize("rod, duration, built", [("paper", 0.05, 2), ("tiny", 1.0, 25)])
def test_spectrum_refresh_counts_simulated_seconds(monkeypatch, paper_params, rod, duration,
                                                   built):
    # The spectrum is rebuilt every 40 ms of simulated time: every 40 steps
    # of the paper rod (dt = 1 ms, steps 0 and 40 of 50) and every 8 of the
    # tiny rod (dt = 5 ms, 25 times in 200 steps).
    params = paper_params if rod == "paper" else desk_parameters(node_count=16, time_step=0.005)
    spectra = count_spectra(monkeypatch)
    simulate(params, AngularVelocityProfile.constant(3 * 2 * math.pi / 60), duration, duration)
    assert len(spectra) == built


def test_cached_spectrum_tracks_a_rebuild_every_step(monkeypatch, paper_params):
    # The paper rod at 3 rpm for 50 steps, with the spectrum 40 ms (40 steps)
    # old at most, against a rebuild every step: the head moved by 3.1e-5 of
    # its travel and node 1 by 1.6e-4 when this was written.
    profile = AngularVelocityProfile.constant(3 * 2 * math.pi / 60)
    cached = simulate(paper_params, profile, 0.05, 0.01)
    monkeypatch.setattr(stepper, "MOBILITY_REFRESH", paper_params.time_step)
    spectra = count_spectra(monkeypatch)
    fresh = simulate(paper_params, profile, 0.05, 0.01)
    assert len(spectra) == 50
    travel = np.max(np.linalg.norm(fresh.head - fresh.head[0], axis=1))
    assert travel > 1e-8
    assert np.max(np.abs(cached.head - fresh.head)) <= 5e-4 * travel
    assert np.max(np.abs(cached.node1 - fresh.node1)) <= 5e-4 * travel


def test_integrator_is_first_order():
    # Richardson ratio |x(dt) - x(dt/2)| / |x(dt/2) - x(dt/4)| of the head
    # after 1 s at 3 rpm: about 2 for a first-order step (1.95 when this was
    # written). The spectrum refresh lags by the same 40 ms at every dt, so a
    # refresh that came to depend on dt and lowered the order would show.
    omega = 3 * 2 * math.pi / 60
    heads = [simulate(desk_parameters(node_count=16, time_step=dt),
                      AngularVelocityProfile.constant(omega), 1.0, 1.0).head[-1]
             for dt in (0.005, 0.0025, 0.00125)]
    ratio = np.linalg.norm(heads[0] - heads[1]) / np.linalg.norm(heads[1] - heads[2])
    assert 1.6 <= ratio <= 2.4


def test_external_force_head_terms():
    # Beyond the scattered solve and head force, external_force adds only the
    # mount couple: an equal and opposite pair on the head and node 1, the
    # node-1 part perpendicular to the base edge e0, whose torque e0 x f is
    # the head's rotational drag -8 pi mu b^3 (e0 x v_rel)/|e0|^2.
    params = desk_parameters(node_count=16)
    state = build_initial_configuration(params)
    rng = np.random.default_rng(0)
    state.velocities = 1e-4 * rng.standard_normal(state.velocities.shape)
    spectrum = stepper.mobility_spectrum(state, params)
    pos_idx, _ = node_dof_indices(params.node_count)
    node_vel = state.velocities[pos_idx]
    r_h = state.positions[1:] - state.positions[0]
    b, mu = params.head_radius, params.viscosity

    f_flag, _ = hydro.solve_forces_and_head_spin(spectrum, node_vel[1:], r_h, node_vel[0], b, mu)
    scattered = np.zeros_like(state.velocities)
    scattered[pos_idx[1:]] = f_flag
    scattered[0:3] = hydro.head_force(f_flag, r_h, b, mu, node_vel[0])
    mount = stepper.external_force(state, params, spectrum) - scattered

    outside = np.ones(mount.shape, dtype=bool)
    outside[0:3] = outside[4:7] = False
    assert not mount[outside].any()
    on_head, on_node1 = mount[0:3], mount[4:7]
    scale = np.linalg.norm(on_node1)
    assert scale > 0.0
    assert np.linalg.norm(on_head + on_node1) <= 1e-12 * scale
    e0 = r_h[0]
    assert abs(np.dot(on_node1, e0)) <= 1e-12 * scale * np.linalg.norm(e0)
    expected = -8 * math.pi * mu * b ** 3 * np.cross(e0, node_vel[1] - node_vel[0]) / np.dot(e0, e0)
    np.testing.assert_allclose(np.cross(e0, on_node1), expected, rtol=1e-12,
                               atol=1e-12 * np.linalg.norm(expected))


def _carry_node5_onto_node6(params, fraction):
    state = build_initial_configuration(params)
    pos_idx, _ = node_dof_indices(params.node_count)
    state.velocities[pos_idx[5]] = (state.positions[6] - state.positions[5]) \
        / (fraction * params.time_step)
    return state


def test_collapsing_predictor_takes_substeps(monkeypatch):
    # step's explicit predictor lands node 5 on node 6: the collapsed edge is
    # retried at half and quarter steps like a Newton failure, and a collapse
    # at every size ends the run as SimulationError.
    params = desk_parameters(node_count=16, time_step=0.005)
    sizes = []

    def recording(state, rest, params, omega, spectrum, controls):
        sizes.append(controls.time_step)
        return step(state, rest, params, omega, spectrum, controls)

    monkeypatch.setattr(stepper, "step", recording)
    integrator = stepper.Integrator(params, state=_carry_node5_onto_node6(params, 1.0))
    integrator.advance(0.3)  # half steps stop halfway
    assert sizes == [None, 0.0025, 0.0025]
    assert integrator.steps == 1 and integrator._recover > 0

    sizes.clear()
    integrator = stepper.Integrator(params, state=_carry_node5_onto_node6(params, 0.25))
    with pytest.raises(SimulationError, match="even at a quarter") as info:
        integrator.advance(0.3)
    assert isinstance(info.value.__cause__, DegenerateEdgeError)
    assert sizes == [None, 0.0025, 0.00125]


def test_simulate_continues_from_checkpoint():
    # A run continued from a checkpoint equals the run from its first sample;
    # a checkpoint that already reaches the duration is cut there.
    params = desk_parameters(node_count=16, time_step=0.005)
    rpm = 2 * math.pi / 60
    profile = AngularVelocityProfile.pulse(3 * rpm, 15 * rpm, 0.5, 0.25)
    fresh = simulate(params, profile, 1.0, 0.25)

    integrator = stepper.Integrator(params)
    settled = integrator.observe(AngularVelocityProfile.constant(3 * rpm), 3, 0.25)
    assert settled.omega[-1] == 3 * rpm  # the pulse profile reads high here
    out = simulate(params, profile, 1.0, 0.25, start=integrator)
    assert integrator.time == 1.0
    cut = simulate(params, profile, 0.5, 0.25, start=integrator)
    for f in fields(fresh):
        assert getattr(out, f.name).tobytes() == getattr(fresh, f.name).tobytes(), f.name
        assert getattr(cut, f.name).tobytes() == getattr(fresh, f.name)[:3].tobytes(), f.name
    assert integrator.time == 1.0

    with pytest.raises(ValueError, match="initial_state and rest"):
        simulate(params, profile, 1.0, 0.25, rest=integrator.rest, start=integrator)
    with pytest.raises(ValueError, match="initial_state and rest"):
        simulate(params, profile, 1.0, 0.25, initial_state=integrator.state,
                 start=integrator)
    integrator.advance(3 * rpm)
    with pytest.raises(ValueError, match="past its last sample"):
        simulate(params, profile, 1.0, 0.25, start=integrator)


def test_sample_times_are_steps_times_dt():
    # The run's one clock is steps * dt, so on the tiny rod every sample time
    # is exactly i * 0.5 s (a running sum of dt drifts by 8e-14 within 5 s),
    # also in a run continued from a checkpoint.
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.constant(3 * 2 * math.pi / 60)
    expected = 0.5 * np.arange(11)
    assert np.array_equal(simulate(params, profile, 5.0, 0.5).times, expected)

    integrator = stepper.Integrator(params)
    integrator.observe(profile, 4, 0.5)
    continued = simulate(params, profile, 5.0, 0.5, start=integrator)
    assert np.array_equal(continued.times, expected)
    assert integrator.time == 5.0
