import math

import numpy as np
import pytest

import flagsim.stepper as stepper
from flagsim import build_initial_configuration, desk_parameters
from flagsim import hydro
from flagsim.elastic import RestConfiguration, dense_from_band
from flagsim.stepper import (
    AngularVelocityProfile,
    SimulationError,
    StepControls,
    simulate,
    step,
)

from conftest import committed_perturbation


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
    # same matrix, and a finite-difference Jacobian reaches the same state.
    _, rest, stiff = desk_built
    state = committed_perturbation(desk_built[0], rest, stiff, seed=3)
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
    analytic, diag = step(state, rest, stiff, desk_params, omega, StepControls())
    assert diag.converged and len(solves) == diag.iterations >= 1
    for dense, rhs, dq in solves:
        np.testing.assert_allclose(dq, np.linalg.solve(dense, rhs), rtol=1e-10)

    fd, _ = step(state, rest, stiff, desk_params, omega, StepControls(fd_jacobian=True))
    moved = analytic.dof_vector() - state.dof_vector()
    assert np.linalg.norm(fd.dof_vector() - analytic.dof_vector()) <= 2e-2 * np.linalg.norm(moved)
