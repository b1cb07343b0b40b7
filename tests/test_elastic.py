import numpy as np
import pytest

from flagsim import build_initial_configuration, paper_parameters
from flagsim.elastic import (
    DegenerateEdgeError,
    RestConfiguration,
)

from conftest import committed_perturbation, dense_jacobian, elastics_at


@pytest.fixture(scope="module")
def small_built():
    params = paper_parameters(node_count=10)
    state = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, state)
    return params, state, rest


@pytest.fixture(scope="module")
def perturbed(small_built):
    params, state, rest = small_built
    return committed_perturbation(state, rest, seed=1)


def fd_energy_gradient(state, rest, step):
    q0 = state.dof_vector()
    grad = np.empty_like(q0)
    for i in range(q0.shape[0]):
        qp = q0.copy()
        qm = q0.copy()
        qp[i] += step
        qm[i] -= step
        ep = elastics_at(state, rest, qp).energy
        em = elastics_at(state, rest, qm).energy
        grad[i] = (ep - em) / (2.0 * step)
    return grad


def fd_energy_hessian(state, rest, step):
    q0 = state.dof_vector()
    n = q0.shape[0]

    def grad_at(q):
        g = np.empty(n)
        for j in range(n):
            qp = q.copy()
            qm = q.copy()
            qp[j] += step
            qm[j] -= step
            g[j] = (elastics_at(state, rest, qp).energy
                    - elastics_at(state, rest, qm).energy) / (2.0 * step)
        return g

    hess = np.empty((n, n))
    for i in range(n):
        qp = q0.copy()
        qm = q0.copy()
        qp[i] += step
        qm[i] -= step
        hess[:, i] = (grad_at(qp) - grad_at(qm)) / (2.0 * step)
    return hess


def test_stiffness_formulas(paper_params, paper_built):
    _, rest = paper_built
    e, r, nu = (paper_params.youngs_modulus, paper_params.rod_radius,
                paper_params.poisson_ratio)
    assert rest.stretching == pytest.approx(e * np.pi * r ** 2)
    ei_ei_gj = rest.moduli * rest.voronoi_lengths[:, None]
    assert ei_ei_gj[:, :2] == pytest.approx(e * np.pi * r ** 4 / 4.0)
    assert ei_ei_gj[:, 2] == pytest.approx(e / (2 * (1 + nu)) * np.pi * r ** 4 / 2.0)
    assert rest.stretching > 0 and np.all(rest.moduli > 0)


def test_stress_free_force(paper_built):
    state, rest = paper_built
    f = elastics_at(state, rest).force
    assert np.linalg.norm(f) < 1e-10 * rest.stretching


def test_uniform_stretch_end_force():
    # straight 3-node rod stretched 1%: end-node axial force = EA * 0.01
    params = paper_parameters(node_count=4)
    state = build_initial_configuration(params)
    # overwrite with a straight rod along x
    n = 4
    state.positions = np.zeros((n, 3))
    state.positions[:, 0] = np.arange(n) * 0.01
    state.ref_d1 = np.tile([0.0, 1.0, 0.0], (n - 1, 1))
    state.ref_d2 = np.tile([0.0, 0.0, 1.0], (n - 1, 1))
    state.ref_twist = np.zeros(n - 2)
    state.thetas = np.zeros(n - 1)
    rest = RestConfiguration.from_built_state(params, state)

    stretched = state.copy()
    stretched.positions = state.positions * 1.01
    f = elastics_at(stretched, rest).force
    end_force = f[4 * (n - 1): 4 * (n - 1) + 3]
    expected = rest.stretching * 0.01
    assert abs(-end_force[0] - expected) <= 1e-6 * expected
    assert np.linalg.norm(end_force[1:]) <= 1e-12 * expected


def test_translation_invariance(perturbed, small_built):
    _, _, rest = small_built
    state = perturbed
    f0 = elastics_at(state, rest).force
    shifted = state.copy()
    shifted.positions = state.positions + np.array([0.3, -0.1, 0.25])
    f1 = elastics_at(shifted, rest).force
    assert np.allclose(f0, f1, atol=1e-10 * max(np.abs(f0).max(), 1.0))


def test_nodal_force_sum_vanishes(perturbed, small_built):
    _, _, rest = small_built
    f = elastics_at(perturbed, rest).force
    n = perturbed.node_count
    nodal = f[(4 * np.arange(n))[:, None] + np.arange(3)]
    total = nodal.sum(axis=0)
    assert np.linalg.norm(total) <= 1e-10 * np.abs(nodal).max() * n


def test_torque_balance_with_twist_moments(perturbed, small_built):
    # rotation invariance: sum of x_i x F_i plus twist moments about tangents
    _, _, rest = small_built
    state = perturbed
    f = elastics_at(state, rest).force
    n = state.node_count
    nodal = f[(4 * np.arange(n))[:, None] + np.arange(3)]
    moments = f[4 * np.arange(n - 1) + 3]
    torque = np.cross(state.positions, nodal).sum(axis=0)
    torque += (moments[:, None] * state.tangents).sum(axis=0)
    scale = np.abs(np.cross(state.positions, nodal)).max() * n
    assert np.linalg.norm(torque) <= 1e-8 * max(scale, 1e-300)


def test_force_matches_fd_gradient(perturbed, small_built):
    params, _, rest = small_built
    f = elastics_at(perturbed, rest).force
    g = fd_energy_gradient(perturbed, rest, 1e-7 * params.axial_length)
    assert np.linalg.norm(f + g) <= 1e-4 * np.linalg.norm(g)


def test_energy_descends_along_force(perturbed, small_built):
    params, _, rest = small_built
    state = perturbed
    ev = elastics_at(state, rest)
    q1 = state.dof_vector() + 1e-9 * ev.force / np.linalg.norm(ev.force)
    assert elastics_at(state, rest, q1).energy < ev.energy


def test_jacobian_symmetry(perturbed, small_built):
    _, _, rest = small_built
    jac = dense_jacobian(perturbed, rest)
    assert np.linalg.norm(jac - jac.T) <= 1e-8 * np.linalg.norm(jac)


def test_jacobian_matches_fd_hessian(perturbed, small_built):
    # oracle: second central differences of the elastic energy
    _, _, rest = small_built
    jac = dense_jacobian(perturbed, rest)
    hess = fd_energy_hessian(perturbed, rest, 2e-6)
    assert np.linalg.norm(jac + hess) <= 1e-4 * np.linalg.norm(hess)


def test_jacobian_banded_structure(perturbed, small_built):
    # couplings vanish beyond the 11-DOF stencil width
    _, _, rest = small_built
    jac = dense_jacobian(perturbed, rest)
    n_dof = jac.shape[0]
    for i in range(n_dof):
        for j in range(n_dof):
            if abs(i - j) > 10:
                assert jac[i, j] == 0.0


def test_degenerate_edge_rejected(perturbed, small_built):
    _, _, rest = small_built
    state = perturbed.copy()
    state.positions[4] = state.positions[5]
    with pytest.raises(DegenerateEdgeError):
        elastics_at(state, rest)
