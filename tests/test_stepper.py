import math
from dataclasses import fields, replace

import numpy as np
import pytest

import flagsim.stepper as stepper
from flagsim import build_initial_configuration, desk_parameters
from flagsim import hydro
from flagsim.config import load_config
from flagsim.elastic import RestConfiguration
from flagsim.rod import DegenerateEdgeError, node_dof_indices
from flagsim.stepper import (
    AngularVelocityProfile,
    NewtonDivergenceError,
    SimulationError,
    StepControls,
    simulate,
    step,
)

from conftest import (
    committed_perturbation,
    count_calls,
    count_spectra,
    dense_from_band,
    fallback_sizes,
    flaky_step,
)
from test_cli import TINY_CONFIG


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
    # Every Newton correction from the band factors equals a dense solve of
    # the matrix they were factored from, also in two more steps that start
    # from the first step's factors, the last of them from the residual
    # predicted by the force history.
    _, rest = desk_built
    state = committed_perturbation(desk_built[0], rest, seed=3)
    factored, solves = {}, []
    get_lapack_funcs = stepper.get_lapack_funcs

    def recording(names, arrays):
        gbtrf, gbtrs = get_lapack_funcs(names, arrays)

        def factor(ab, kl, ku, **kwargs):
            dense = dense_from_band(ab)
            lu, piv, info = gbtrf(ab, kl, ku, **kwargs)
            factored[id(lu)] = (lu, dense)  # lu stays alive, so its id stays its own
            return lu, piv, info

        def solve(lu, kl, ku, b, piv, **kwargs):
            dq, info = gbtrs(lu, kl, ku, b, piv, **kwargs)
            solves.append((factored[id(lu)][1], b.copy(), dq.copy()))
            return dq, info
        return factor, solve

    monkeypatch.setattr(stepper, "get_lapack_funcs", recording)
    omega = 3 * 2 * math.pi / 60
    spectrum = stepper.mobility_spectrum(state, desk_params)
    state, diag = step(state, rest, desk_params, omega, spectrum, StepControls(), None)
    assert diag.iterations >= 1 and len(solves) > diag.iterations
    first = len(factored)
    evaluations = count_calls(monkeypatch, stepper, "evaluate_elastics")
    for history in (1, 2):
        assert len(diag.newton.forces) == history
        state, diag = step(state, rest, desk_params, omega, spectrum, StepControls(),
                           diag.newton)
        assert diag.iterations >= 1 and len(factored) == first  # the old factors sufficed
    assert len(evaluations) == 2 + 1  # at q_pred and the iterate, then the predicted iterate
    for dense, rhs, dq in solves:
        np.testing.assert_allclose(dq, np.linalg.solve(dense, rhs), rtol=1e-10)


def test_correction_that_raises_the_residual_diverges(monkeypatch, desk_params, desk_built):
    # Newton takes every correction whole. Here every evaluation after the
    # first, at q_pred, adds a large force, so the correction from factors
    # made at q_pred raises the residual: step raises NewtonDivergenceError
    # after that one trial, for Integrator to retry at a smaller step, and
    # does not search shorter corrections.
    _, rest = desk_built
    state = committed_perturbation(desk_built[0], rest, seed=3)
    evaluate = stepper.evaluate_elastics
    calls = []

    def pushed(*args):
        ev = evaluate(*args)
        calls.append(None)
        return ev if len(calls) == 1 else replace(ev, force=ev.force + rest.stretching)

    monkeypatch.setattr(stepper, "evaluate_elastics", pushed)
    jacobians = count_calls(monkeypatch, stepper, "jacobian_from_eval")
    spectrum = stepper.mobility_spectrum(state, desk_params)
    with pytest.raises(NewtonDivergenceError, match="did not lower the residual"):
        step(state, rest, desk_params, 3 * 2 * math.pi / 60, spectrum, StepControls(), None)
    assert len(calls) == 2 and len(jacobians) == 1


def test_simulate_substep_fallback(monkeypatch):
    # One Newton failure is replaced by two half steps and the half size is
    # kept for the one-second recovery window; a failure at every size ends
    # the run as SimulationError.
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.constant(3 * 2 * math.pi / 60)
    error = NewtonDivergenceError("injected")

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
    # A fork taken mid-way between spectrum refreshes, and one taken inside
    # the half-step recovery window, advance bit for bit like the original:
    # each carries the spectrum, the Newton factors, the evaluation that the
    # next refresh step factors, and the force history the next step's
    # prediction starts from.
    params = desk_parameters(node_count=16, time_step=0.005)
    omega = 3 * 2 * math.pi / 60

    original = stepper.Integrator(params)
    original.advance(omega, 13)  # the spectrum cache dates from step 8
    original.record(omega)
    fork = original.copy()
    assert fork._spectrum is not None and fork._refresh == 8  # 40 ms at dt = 5 ms
    assert not np.shares_memory(fork._spectrum[0], original._spectrum[0])
    carry = fork._newton
    assert carry is original._newton  # never written, so shared
    assert carry.factors is not None and carry.evaluation is not None and len(carry.forces) == 2
    for _ in range(20):  # through the refreshes at steps 16, 24 and 32
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

    flaky, sizes = flaky_step(step, NewtonDivergenceError("injected"))
    monkeypatch.setattr(stepper, "step", flaky)
    original = stepper.Integrator(params)
    original.advance(omega, 7)  # the first step fails: half steps for 200 steps
    fork = original.copy()
    assert fork._recover == original._recover == 193
    carry = fork._newton
    assert carry is original._newton and carry.dt == 0.0025 and len(carry.forces) == 2
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
    # tiny rod (dt = 5 ms, 25 times in 200 steps). The Newton matrix is
    # factored on the same clock: once per spectrum, as the old factors
    # keep contracting in between.
    params = paper_params if rod == "paper" else desk_parameters(node_count=16, time_step=0.005)
    spectra = count_spectra(monkeypatch)
    jacobians = count_calls(monkeypatch, stepper, "jacobian_from_eval")
    simulate(params, AngularVelocityProfile.constant(3 * 2 * math.pi / 60), duration, duration)
    assert len(spectra) == len(jacobians) == built


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


def _truncated_rod():
    """The truncated N=16 rod: the desk preset with only node_count (and dt) overridden."""
    return load_config(None, "desk", overrides=TINY_CONFIG).physical


@pytest.mark.parametrize("rod, head_bound, node1_bound", [("pulse", 3.5e-9, 5e-9),
                                                          ("paper", 2.5e-9, 1e-8),
                                                          ("truncated", 5e-4, 3.5e-4)],
                         ids=["pulse", "paper", "truncated"])
def test_simplified_newton_tracks_full_newton(monkeypatch, paper_params, rod, head_bound,
                                              node1_bound):
    # Stopping Newton once theta/(1 - theta) |dq| is at most NEWTON_STOP of
    # the step's implicit change and committing q + dq, against running it
    # to NEWTON_TOL. On the regression fixtures' runs, the full-helix rod's
    # 15 rpm pulse moved the head by 8.1e-10 of its travel and node 1 by
    # 1.1e-9, and the paper cruise moved them by 4.5e-10 and 1.8e-9 (a stop
    # that dropped dq read 5.6e-6, 9.1e-6, 8.5e-7 and 4.8e-6). The truncated
    # rod, 5 s at 3 rpm, a 2 s pulse at 15 rpm and 6 s at 3 rpm, moved them
    # by 1.26e-4 and 9.1e-5 (1.2e-4 for the head with dq dropped). The bounds
    # are about 4 to 6 times the moves.
    rpm = 2 * math.pi / 60
    if rod == "pulse":
        run = (desk_parameters(node_count=16, time_step=0.005),
               AngularVelocityProfile.pulse(3 * rpm, 15 * rpm, 1.0, 1.0), 3.0, 0.5)
    elif rod == "paper":
        run = (paper_params, AngularVelocityProfile.constant(3 * rpm), 0.05, 0.01)
    else:
        run = (_truncated_rod(), AngularVelocityProfile.pulse(3 * rpm, 15 * rpm, 5.0, 2.0),
               13.0, 0.5)
    stopped = simulate(*run)
    monkeypatch.setattr(stepper, "NEWTON_STOP", 0.0)
    full = simulate(*run)
    travel = np.max(np.linalg.norm(full.head - full.head[0], axis=1))
    assert travel > 0.0
    assert np.max(np.abs(stopped.head - full.head)) <= head_bound * travel
    assert np.max(np.abs(stopped.node1 - full.node1)) <= node1_bound * travel


@pytest.mark.parametrize("rod, duration, bound", [("paper", 0.05, 1.1), ("truncated", 2.0, 1.02)],
                         ids=["paper", "truncated"])
def test_one_elastic_evaluation_per_step(monkeypatch, paper_params, rod, duration, bound):
    # A step evaluates the elastics once, at the iterate corrected from the
    # residual that the force history predicts; a refresh step factors the
    # last step's final evaluation first. The first two steps of a run and
    # steps that take a second correction evaluate more. The paper cruise's
    # 50 steps read 1.04 evaluations per step and 400 steps of the truncated
    # rod at 3 rpm 1.005 when this was written. A refresh step that drops the
    # contraction ratio and so takes a second correction read 1.04 and 1.0725,
    # one that evaluates at q_pred 1.06 and 1.16, and a step that evaluates at
    # q_pred as well 2.0 on both.
    params = paper_params if rod == "paper" else _truncated_rod()
    evaluations = count_calls(monkeypatch, stepper, "evaluate_elastics")
    simulate(params, AngularVelocityProfile.constant(3 * 2 * math.pi / 60), duration, duration)
    assert len(evaluations) <= bound * round(duration / params.time_step)


def test_refresh_steps_take_one_correction(monkeypatch):
    # A spectrum refresh drops the LU factors but keeps their contraction
    # ratio, so a refresh step stops after one correction like every other
    # step: 400 steps of the truncated rod at 3 rpm take 400. With the ratio
    # dropped at every refresh they took 427, 26 of the 49 refresh steps two.
    taken = []

    def recording(*args):
        state, diag = step(*args)
        taken.append(diag.iterations)
        return state, diag

    monkeypatch.setattr(stepper, "step", recording)
    simulate(_truncated_rod(), AngularVelocityProfile.constant(3 * 2 * math.pi / 60), 2.0, 2.0)
    assert len(taken) == 400 and sum(taken) == len(taken)


def test_refactoring_resets_the_contraction_ratio(monkeypatch):
    # Factors carried from the built rod turned a radian about z contract so
    # badly that a correction is not below half the one before: step
    # refactors once and theta restarts at 0.5, so it stays in [0, 0.5].
    # Kept, the measured ratio (1.33 when this was written) would make
    # theta/(1 - theta) negative and stop Newton at once, even with
    # NEWTON_STOP = 0, which otherwise runs Newton to NEWTON_TOL.
    monkeypatch.setattr(stepper, "NEWTON_STOP", 0.0)
    params = _truncated_rod()
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    c, s = math.cos(1.0), math.sin(1.0)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    turned = built.copy()
    turned.positions, turned.ref_d1, turned.ref_d2 = (
        a @ turn.T for a in (built.positions, built.ref_d1, built.ref_d2))
    omega = 3 * 2 * math.pi / 60
    _, distorted = step(turned, rest, params, omega, stepper.mobility_spectrum(turned, params),
                        StepControls(), None)
    carry = stepper.NewtonCarry(distorted.newton.dt, distorted.newton.factors)
    jacobians = count_calls(monkeypatch, stepper, "jacobian_from_eval")
    _, diag = step(built, rest, params, omega, stepper.mobility_spectrum(built, params),
                   StepControls(), carry)
    assert len(jacobians) == 1 and diag.iterations >= 2
    assert 0.0 <= diag.newton.theta <= 0.5


def test_full_step_after_fallback_restarts_the_force_history(monkeypatch):
    # The recovery window's half steps hand on forces 2.5 ms apart and
    # factors made at dt/2. The first full step after it uses neither: it
    # equals a step given no carry, bit for bit, and hands on a history of
    # its own force alone, so the step after it does not extrapolate either.
    params = desk_parameters(node_count=16, time_step=0.005)
    flaky, sizes = flaky_step(step, NewtonDivergenceError("injected"))
    calls = []

    def recording(*args):
        result = flaky(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(stepper, "step", recording)
    integrator = stepper.Integrator(params)
    integrator.advance(3 * 2 * math.pi / 60, 202)  # 200 steps of half steps, then two full
    assert sizes == fallback_sizes(0.005, 202)
    (args, (state, diag)), (_, (_, next_diag)) = calls[-2:]  # the two full steps
    carry = args[6]
    assert carry.dt == 0.0025 and len(carry.forces) == 2 and carry.factors is not None
    fresh, _ = step(*args[:6], None)
    for f in fields(state):
        assert getattr(state, f.name).tobytes() == getattr(fresh, f.name).tobytes(), f.name
    assert len(diag.newton.forces) == 1 and len(next_diag.newton.forces) == 2


def test_committed_frames_stay_near_the_tangents():
    # Newton commits q + dq with the frames of its evaluation at q, so the
    # reference directors are normal to the tangents at q, not quite to the
    # committed ones (RodState). Each step's transport projects them again,
    # so the gap is one correction's rotation and does not build up: over
    # the truncated rod's 13 s pulse the largest |ref_d1 . t| read 1.06e-5
    # and |ref_d2 . t| 1.11e-5 when this was written.
    rpm = 2 * math.pi / 60
    profile = AngularVelocityProfile.pulse(3 * rpm, 15 * rpm, 5.0, 2.0)
    integrator = stepper.Integrator(_truncated_rod())
    worst = 0.0
    for _ in range(integrator.steps_per(13.0)):
        integrator.advance(profile.value_at(integrator.time))
        state = integrator.state
        t = state.tangents
        worst = max(worst, np.abs(np.sum(state.ref_d1 * t, axis=1)).max(),
                    np.abs(np.sum(state.ref_d2 * t, axis=1)).max())
    assert 0.0 < worst <= 5e-5


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

    def recording(state, rest, params, omega, spectrum, controls, newton):
        sizes.append(controls.time_step)
        return step(state, rest, params, omega, spectrum, controls, newton)

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
