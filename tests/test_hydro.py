import math

import numpy as np
import pytest

from flagsim import build_initial_configuration, paper_parameters
from flagsim.hydro import (
    HydroSolveError,
    MobilityOperator,
    assemble_mobility,
    clamped_spectrum,
    head_force_torque,
    head_induced_flow,
    head_spin_from_torque_balance,
    node_tangents,
    solve_flagellar_forces,
    solve_forces_and_head_spin,
)


@pytest.fixture(scope="module")
def flagellum(paper_params):
    state = build_initial_configuration(paper_params)
    pos = state.positions[1:]
    tang = node_tangents(state.tangents)
    return paper_params, pos, tang


def random_rotation(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.1, 3.0)
    kx = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)


def test_mobility_symmetry(flagellum):
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    a = mob.matrix
    assert np.linalg.norm(a - a.T) <= 1e-12 * np.linalg.norm(a)


def test_mobility_blocks(flagellum):
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    mu = params.viscosity
    # off-diagonal block (j, k) = [I + rhat rhat]/(8 pi mu |r_jk|)
    j, k = 3, 17
    r = pos[j] - pos[k]
    rn = np.linalg.norm(r)
    rhat = r / rn
    expected = (np.eye(3) + np.outer(rhat, rhat)) / (8 * math.pi * mu * rn)
    got = mob.matrix[3 * j: 3 * j + 3, 3 * k: 3 * k + 3]
    assert np.allclose(got, expected, rtol=1e-13)
    # diagonal block: perpendicular projector over 8 pi mu delta
    t = tang[j]
    expected = (np.eye(3) - np.outer(t, t)) / (8 * math.pi * mu * params.cutoff)
    got = mob.matrix[3 * j: 3 * j + 3, 3 * j: 3 * j + 3]
    assert np.allclose(got, expected, rtol=1e-13)


def test_node_tangents_definition(flagellum):
    _, pos, tang = flagellum
    state = build_initial_configuration(paper_parameters())
    et = state.tangents
    mid = et[2] + et[3]
    mid /= np.linalg.norm(mid)
    assert np.allclose(tang[2], mid, atol=1e-14)
    assert np.allclose(tang[-1], et[-1], atol=1e-14)
    assert np.allclose(np.linalg.norm(tang, axis=1), 1.0, atol=1e-14)


def test_zero_flow_zero_force(flagellum):
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    f = solve_flagellar_forces(mob, np.zeros_like(pos))
    assert np.allclose(f, 0.0, atol=1e-18)


def test_two_node_system_matches_dense_oracle():
    # hand-assembled 6x6 system for two nodes, one edge
    mu, delta = 2.7, 8.2436e-4
    pos = np.array([[0.0, 0.0, 0.0], [0.004, 0.0, 0.0]])
    tang = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mob = assemble_mobility(pos, tang, mu, delta)

    a = np.zeros((6, 6))
    local = (np.eye(3) - np.outer(tang[0], tang[0])) / (8 * math.pi * mu * delta)
    a[0:3, 0:3] = local
    a[3:6, 3:6] = local
    r = pos[0] - pos[1]
    rn = np.linalg.norm(r)
    rhat = r / rn
    oseen = (np.eye(3) + np.outer(rhat, rhat)) / (8 * math.pi * mu * rn)
    a[0:3, 3:6] = oseen
    a[3:6, 0:3] = oseen
    assert np.allclose(mob.matrix, a, rtol=1e-14)

    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 3)) * 1e-3
    f = solve_flagellar_forces(mob, u)
    f_oracle = np.linalg.solve(a, -u.ravel()).reshape(2, 3)
    assert np.allclose(f, f_oracle, atol=1e-12 * np.abs(f_oracle).max())


def test_solve_linearity(flagellum):
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(pos.shape) * 1e-4
    f1 = solve_flagellar_forces(mob, u)
    f2 = solve_flagellar_forces(mob, 2.0 * u)
    assert np.allclose(f2, 2.0 * f1, rtol=1e-12)


def test_solve_residual(flagellum):
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(pos.shape) * 1e-4
    f = solve_flagellar_forces(mob, u)
    residual = np.linalg.norm(mob.matrix @ f.ravel() + u.ravel())
    assert residual <= 1e-10 * np.linalg.norm(u)


def test_singular_configuration_raises():
    mu, delta = 2.7, 8.2436e-4
    # two coincident nodes violate the cutoff separation; assembly rejects them
    pos = np.array([[0.0, 0.0, 0.0], [1e-18, 0.0, 0.0]])
    tang = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(HydroSolveError):
        mob = assemble_mobility(pos, tang, mu, delta)
        mob.factorize()


def test_head_flow_zero_motion(flagellum):
    params, pos, _ = flagellum
    r_h = pos - np.zeros(3)
    u = head_induced_flow(r_h, np.zeros(3), np.zeros(3), params.head_radius)
    assert np.allclose(u, 0.0)


def test_head_flow_printed_closed_form():
    # r along +x at r = 2b, U along x: u = (3/4) b [2/r] U (doublet term cancels)
    b = 0.01
    u_mag = 0.37
    r_h = np.array([[2 * b, 0.0, 0.0]])
    u = head_induced_flow(r_h, np.array([u_mag, 0, 0]), np.zeros(3), b, model="printed")
    expected = 0.75 * b * (2.0 / (2 * b)) * u_mag
    assert u[0, 0] == pytest.approx(expected, rel=1e-12)
    assert abs(u[0, 1]) < 1e-15 and abs(u[0, 2]) < 1e-15
    # direct tensor evaluation oracle
    r = 2 * b
    tensor = 0.75 * b * (
        (np.eye(3) / r + np.outer(r_h[0], r_h[0]) / r ** 3)
        + (b ** 2 / 3.0) * (np.eye(3) / r ** 3 - np.outer(r_h[0], r_h[0]) / r ** 5)
    )
    assert np.allclose(u[0], tensor @ np.array([u_mag, 0, 0]), rtol=1e-12)


def test_head_flow_far_field_decay():
    b = 0.01
    rng = np.random.default_rng(3)
    for _ in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r_h = (100 * b * direction)[None, :]
        vel = rng.standard_normal(3)
        u = head_induced_flow(r_h, vel, np.zeros(3), b, model="printed")
        assert np.linalg.norm(u) <= 0.75 * (b / (100 * b)) * np.linalg.norm(vel) * 2.01


def test_head_flow_printed_rotation_sign():
    # printed rotational term is (b^3/r^3) (r x Omega)
    b = 0.01
    r_h = np.array([[3 * b, 0.0, 0.0]])
    omega = np.array([0.0, 0.0, 2.0])
    u = head_induced_flow(r_h, np.zeros(3), omega, b, model="printed")
    expected = (b ** 3 / (3 * b) ** 3) * np.cross(r_h[0], omega)
    assert np.allclose(u[0], expected, rtol=1e-14)
    u_cl = head_induced_flow(r_h, np.zeros(3), omega, b, model="classical")
    assert np.allclose(u_cl[0], -expected, rtol=1e-14)


def test_classical_no_slip_on_surface():
    b = 0.01
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r_h = (b * direction)[None, :]
    vel = rng.standard_normal(3)
    omega = rng.standard_normal(3)
    u = head_induced_flow(r_h, vel, omega, b, model="classical")
    assert np.allclose(u[0], vel + np.cross(omega, r_h[0]), rtol=1e-10, atol=1e-12)


def test_head_force_pure_drag():
    b, mu = 0.01, 2.7
    r_h = np.array([[0.05, 0.0, 0.0]])
    f = np.zeros((1, 3))
    vel = np.array([1.0, 0.0, 0.0])
    force, torque = head_force_torque(f, r_h, b, mu, vel, np.zeros(3))
    assert np.allclose(force, [-6 * math.pi * mu * b, 0, 0], rtol=1e-14)
    assert np.allclose(torque, 0.0)


def test_head_torque_single_node():
    # single node at (d, 0, 0) with force (0, F, 0):
    # torque = -(b^3/d^3) (d,0,0) x (0,F,0) = (0, 0, -b^3 F / d^2)
    b, mu, d, fmag = 0.01, 2.7, 0.04, 2e-3
    r_h = np.array([[d, 0.0, 0.0]])
    f = np.array([[0.0, fmag, 0.0]])
    _, torque = head_force_torque(f, r_h, b, mu, np.zeros(3), np.zeros(3))
    assert np.allclose(torque, [0.0, 0.0, -b ** 3 * fmag / d ** 2], rtol=1e-13)


def test_head_zero_everything():
    b, mu = 0.01, 2.7
    r_h = np.array([[0.05, 0.0, 0.0]])
    force, torque = head_force_torque(np.zeros((1, 3)), r_h, b, mu,
                                      np.zeros(3), np.zeros(3))
    assert np.allclose(force, 0.0) and np.allclose(torque, 0.0)


def test_torque_balance_zero_and_linear(flagellum):
    params, pos, _ = flagellum
    r_h = pos - np.zeros(3)
    b, mu = params.head_radius, params.viscosity
    assert np.allclose(head_spin_from_torque_balance(np.zeros_like(pos), r_h, b, mu), 0.0)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(pos.shape) * 1e-4
    w1 = head_spin_from_torque_balance(f, r_h, b, mu)
    w2 = head_spin_from_torque_balance(2 * f, r_h, b, mu)
    assert np.allclose(w2, 2 * w1, rtol=1e-13)


def test_torque_balance_closes_total_torque(flagellum):
    # the returned spin makes head drag + induced torque + filament moment vanish
    params, pos, _ = flagellum
    b, mu = params.head_radius, params.viscosity
    r_h = pos - np.zeros(3)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(pos.shape) * 1e-4
    spin = head_spin_from_torque_balance(f, r_h, b, mu)
    _, t_h = head_force_torque(f, r_h, b, mu, np.zeros(3), spin)
    total = t_h + np.cross(r_h, f).sum(axis=0)
    assert np.linalg.norm(total) <= 1e-10 * np.linalg.norm(np.cross(r_h, f)).max() * len(f)


def test_frame_objectivity(flagellum):
    params, pos, tang = flagellum
    rng = np.random.default_rng(7)
    rot = random_rotation(rng)
    u = rng.standard_normal(pos.shape) * 1e-4

    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    f = solve_flagellar_forces(mob, u)

    mob_r = assemble_mobility(pos @ rot.T, tang @ rot.T, params.viscosity, params.cutoff)
    f_r = solve_flagellar_forces(mob_r, u @ rot.T)
    assert np.allclose(f_r, f @ rot.T, rtol=1e-10)


def test_viscosity_scaling(flagellum):
    params, pos, tang = flagellum
    rng = np.random.default_rng(8)
    u = rng.standard_normal(pos.shape) * 1e-4
    f1 = solve_flagellar_forces(assemble_mobility(pos, tang, params.viscosity, params.cutoff), u)
    f3 = solve_flagellar_forces(assemble_mobility(pos, tang, 3.0 * params.viscosity, params.cutoff), u)
    assert np.allclose(f3, 3.0 * f1, rtol=1e-12)


def test_coincident_node_rejected():
    b = 0.01
    with pytest.raises(ValueError):
        head_induced_flow(np.zeros((1, 3)), np.ones(3), np.zeros(3), b)


def test_self_consistent_solver_matches_lagged_fixed_point(flagellum):
    # at a converged fixed point, the returned spin satisfies the balance
    params, pos, tang = flagellum
    rng = np.random.default_rng(9)
    v_nodes = rng.standard_normal(pos.shape) * 1e-4
    r_h = pos - (pos[0] - np.array([params.head_radius, 0, 0]))
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    f, spin = solve_forces_and_head_spin(
        clamped_spectrum(mob, 0.25, params.viscosity), v_nodes, r_h, np.zeros(3),
        params.head_radius, params.viscosity,
    )
    balance = head_spin_from_torque_balance(f, r_h, params.head_radius, params.viscosity)
    assert np.allclose(spin, balance, rtol=1e-10, atol=1e-18)
