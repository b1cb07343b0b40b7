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


@pytest.fixture(scope="session")
def paper_params():
    return paper_parameters()


@pytest.fixture(scope="session")
def desk_params():
    return desk_parameters()


@pytest.fixture(scope="session")
def paper_built(paper_params):
    state = build_initial_configuration(paper_params)
    rest = RestConfiguration.from_built_state(paper_params, state)
    stiff = ElasticStiffnesses.from_parameters(paper_params)
    return state, rest, stiff


@pytest.fixture(scope="session")
def desk_built(desk_params):
    state = build_initial_configuration(desk_params)
    rest = RestConfiguration.from_built_state(desk_params, state)
    stiff = ElasticStiffnesses.from_parameters(desk_params)
    return state, rest, stiff


def committed_perturbation(state, rest, stiff, seed, pos_scale=2e-4, theta_scale=0.1):
    """A perturbed state whose frames are properly transported from the build."""
    rng = np.random.default_rng(seed)
    positions = state.positions + pos_scale * rng.standard_normal(state.positions.shape)
    thetas = state.thetas + theta_scale * rng.standard_normal(state.thetas.shape)
    ev = evaluate_elastics(positions, thetas, state.ref_d1, state.tangents,
                           state.ref_twist, rest, stiff)
    out = state.copy()
    out.positions = positions
    out.thetas = thetas
    out.ref_d1 = ev.d1
    out.ref_d2 = ev.d2
    out.ref_twist = ev.ref_twist
    return out


def flaky_step(real_step, error, every_call=False):
    """A step that raises error on its first call, if full-size, or on every call.

    Returns (step, sizes); sizes records each call's controls.time_step
    (None for a full step).
    """
    sizes = []

    def step(state, rest, stiff, params, omega, controls, *args):
        sizes.append(controls.time_step)
        if every_call or sizes == [None]:
            raise error
        return real_step(state, rest, stiff, params, omega, controls, *args)

    return step, sizes


def fallback_sizes(dt, n_steps):
    """Step sizes after one failed full step at t=0: half steps for one second."""
    window = round(1.0 / dt)
    return [None] + [dt / 2] * (2 * window) + [None] * (n_steps - window)
