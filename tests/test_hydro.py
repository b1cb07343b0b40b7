import math

import numpy as np
import pytest

from flagsim import build_initial_configuration, desk_parameters, paper_parameters
from flagsim.config import load_config
from flagsim.hydro import (
    HydroSolveError,
    assemble_mobility,
    clamped_spectrum,
    head_force,
    node_tangents,
    solve_forces_and_head_spin,
)
from flagsim.stepper import MOBILITY_FLOOR

from conftest import head_induced_flow, head_spin_from_torque_balance, head_torque
from test_cli import TINY_CONFIG


@pytest.fixture(scope="module")
def flagellum(paper_params):
    state = build_initial_configuration(paper_params)
    pos = state.positions[1:]
    tang = node_tangents(state.tangents)
    return paper_params, pos, tang


def production_solve(params, pos, tang, r_h, v_nodes, viscosity=None):
    """Forces and head spin as a step computes them, through the clamped spectrum."""
    mu = params.viscosity if viscosity is None else viscosity
    mob = assemble_mobility(pos, tang, mu, params.cutoff)
    return solve_forces_and_head_spin(clamped_spectrum(mob, 0.25, mu), v_nodes, r_h,
                                      np.zeros(3), params.head_radius, mu)


@pytest.fixture(scope="module")
def rest_spectrum(flagellum):
    """(mobility matrix, eigenvectors, inverse clamped eigenvalues, floor) at rest."""
    params, pos, tang = flagellum
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    matrix = mob.matrix.copy()  # clamped_spectrum consumes mob.matrix
    vecs, inv = clamped_spectrum(mob, 0.25, params.viscosity)
    floor = 0.25 / (8 * math.pi * params.viscosity * params.cutoff)
    return matrix, vecs, inv, floor


def head_offsets(params, pos):
    """Node positions relative to a head centre one radius behind node 1."""
    return pos - (pos[0] - np.array([params.head_radius, 0.0, 0.0]))


def assert_close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


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
    f, spin = production_solve(params, pos, tang, head_offsets(params, pos), np.zeros_like(pos))
    assert not f.any() and not spin.any()


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


def test_solve_linearity(flagellum):
    params, pos, tang = flagellum
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(pos.shape) * 1e-4
    f1, spin1 = production_solve(params, pos, tang, r_h, v)
    f2, spin2 = production_solve(params, pos, tang, r_h, 2.0 * v)
    assert_close(f2, 2.0 * f1)
    assert_close(spin2, 2.0 * spin1)


def test_singular_configuration_raises():
    mu, delta = 2.7, 8.2436e-4
    # two coincident nodes violate the cutoff separation; assembly rejects them
    pos = np.array([[0.0, 0.0, 0.0], [1e-18, 0.0, 0.0]])
    tang = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(HydroSolveError):
        assemble_mobility(pos, tang, mu, delta)


def test_head_flow_zero_motion(flagellum):
    params, pos, _ = flagellum
    r_h = pos - np.zeros(3)
    u = head_induced_flow(r_h, np.zeros(3), np.zeros(3), params.head_radius)
    assert np.allclose(u, 0.0)


def test_head_flow_far_field_decay():
    b = 0.01
    rng = np.random.default_rng(3)
    for _ in range(20):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r_h = (100 * b * direction)[None, :]
        vel = rng.standard_normal(3)
        u = head_induced_flow(r_h, vel, np.zeros(3), b)
        assert np.linalg.norm(u) <= 0.75 * (b / (100 * b)) * np.linalg.norm(vel) * 2.01


def test_head_flow_printed_rotation_sign():
    # the paper prints (b^3/r^3) (r x Omega); the no-slip flow is its negative
    b = 0.01
    r_h = np.array([[3 * b, 0.0, 0.0]])
    omega = np.array([0.0, 0.0, 2.0])
    printed = (b ** 3 / (3 * b) ** 3) * np.cross(r_h[0], omega)
    u = head_induced_flow(r_h, np.zeros(3), omega, b)
    assert np.allclose(u[0], -printed, rtol=1e-14)


def test_classical_no_slip_on_surface():
    b = 0.01
    rng = np.random.default_rng(4)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r_h = (b * direction)[None, :]
    vel = rng.standard_normal(3)
    omega = rng.standard_normal(3)
    u = head_induced_flow(r_h, vel, omega, b)
    assert np.allclose(u[0], vel + np.cross(omega, r_h[0]), rtol=1e-10, atol=1e-12)


def test_head_force_pure_drag():
    b, mu = 0.01, 2.7
    r_h = np.array([[0.05, 0.0, 0.0]])
    f = np.zeros((1, 3))
    vel = np.array([1.0, 0.0, 0.0])
    force = head_force(f, r_h, b, mu, vel)
    torque = head_torque(f, r_h, b, mu, np.zeros(3))
    assert np.allclose(force, [-6 * math.pi * mu * b, 0, 0], rtol=1e-14)
    assert np.allclose(torque, 0.0)


def test_head_torque_single_node():
    # single node at (d, 0, 0) with force (0, F, 0):
    # torque = -(b^3/d^3) (d,0,0) x (0,F,0) = (0, 0, -b^3 F / d^2)
    b, mu, d, fmag = 0.01, 2.7, 0.04, 2e-3
    r_h = np.array([[d, 0.0, 0.0]])
    f = np.array([[0.0, fmag, 0.0]])
    torque = head_torque(f, r_h, b, mu, np.zeros(3))
    assert np.allclose(torque, [0.0, 0.0, -b ** 3 * fmag / d ** 2], rtol=1e-13)


def test_head_zero_everything():
    b, mu = 0.01, 2.7
    r_h = np.array([[0.05, 0.0, 0.0]])
    force = head_force(np.zeros((1, 3)), r_h, b, mu, np.zeros(3))
    torque = head_torque(np.zeros((1, 3)), r_h, b, mu, np.zeros(3))
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
    t_h = head_torque(f, r_h, b, mu, spin)
    total = t_h + np.cross(r_h, f).sum(axis=0)
    assert np.linalg.norm(total) <= 1e-10 * np.linalg.norm(np.cross(r_h, f)).max() * len(f)


def test_frame_objectivity(flagellum):
    params, pos, tang = flagellum
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(7)
    rot = random_rotation(rng)
    v = rng.standard_normal(pos.shape) * 1e-4

    f, spin = production_solve(params, pos, tang, r_h, v)
    f_r, spin_r = production_solve(params, pos @ rot.T, tang @ rot.T, r_h @ rot.T, v @ rot.T)
    assert_close(f_r, f @ rot.T)
    assert_close(spin_r, rot @ spin)


def test_viscosity_scaling(flagellum):
    params, pos, tang = flagellum
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(pos.shape) * 1e-4
    f1, spin1 = production_solve(params, pos, tang, r_h, v)
    f3, spin3 = production_solve(params, pos, tang, r_h, v, viscosity=3.0 * params.viscosity)
    assert_close(f3, 3.0 * f1)
    assert_close(spin3, spin1)


def test_coincident_node_rejected():
    b = 0.01
    with pytest.raises(ValueError):
        head_induced_flow(np.zeros((1, 3)), np.ones(3), np.zeros(3), b)
    # the solve a step runs rejects it too, before any flow is formed
    with pytest.raises(ValueError):
        solve_forces_and_head_spin((np.eye(3), np.ones(3)), np.zeros((1, 3)), np.zeros((1, 3)),
                                   np.ones(3), b, 2.7)


def test_self_consistent_solver_matches_lagged_fixed_point(flagellum):
    # at a converged fixed point, the returned spin satisfies the balance
    params, pos, tang = flagellum
    rng = np.random.default_rng(9)
    v_nodes = rng.standard_normal(pos.shape) * 1e-4
    r_h = head_offsets(params, pos)
    f, spin = production_solve(params, pos, tang, r_h, v_nodes)
    balance = head_spin_from_torque_balance(f, r_h, params.head_radius, params.viscosity)
    assert np.allclose(spin, balance, rtol=1e-10, atol=1e-18)


def test_clamped_spectrum_is_orthonormal(rest_spectrum):
    _, vecs, _, _ = rest_spectrum
    assert np.linalg.norm(vecs.T @ vecs - np.eye(vecs.shape[0])) <= 1e-12


def test_clamped_spectrum_clamps_87_modes_at_rest(rest_spectrum):
    _, _, inv, floor = rest_spectrum
    assert inv.shape == (363,)
    assert np.count_nonzero(inv == 1.0 / floor) == 87


def test_unclamped_modes_are_eigenpairs(rest_spectrum):
    matrix, vecs, inv, floor = rest_spectrum
    kept = inv != 1.0 / floor
    v = vecs[:, kept]
    residual = np.linalg.norm(matrix @ v - v / inv[kept], axis=0)
    assert residual.max() <= 1e-12 * np.linalg.norm(matrix, 2)


def test_stacked_solve_matches_columnwise(flagellum, rest_spectrum):
    # the same spectrum applied to one right-hand side at a time, with the
    # spin closed through head_spin_from_torque_balance
    params, pos, _ = flagellum
    _, vecs, inv, _ = rest_spectrum
    b, mu = params.head_radius, params.viscosity
    n = pos.shape[0]
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(10)
    v_nodes = rng.standard_normal(pos.shape) * 1e-4
    v_head = rng.standard_normal(3) * 1e-4

    def apply(flow):
        return (vecs @ (inv * (vecs.T @ flow.ravel()))).reshape(n, 3)

    f_base = apply(head_induced_flow(r_h, v_head, np.zeros(3), b) - v_nodes)
    f_rot = np.stack([apply(head_induced_flow(r_h, np.zeros(3), e, b)) for e in np.eye(3)],
                     axis=2)
    gain = np.stack([head_spin_from_torque_balance(f_rot[:, :, i], r_h, b, mu)
                     for i in range(3)], axis=1)
    spin_ref = np.linalg.solve(np.eye(3) - gain,
                               head_spin_from_torque_balance(f_base, r_h, b, mu))
    forces_ref = f_base + f_rot @ spin_ref

    forces, spin = solve_forces_and_head_spin((vecs, inv), v_nodes, r_h, v_head, b, mu)
    assert np.linalg.norm(forces - forces_ref) <= 1e-13 * np.linalg.norm(forces_ref)
    assert np.linalg.norm(spin - spin_ref) <= 1e-13 * np.linalg.norm(spin_ref)


def test_identity_spectrum_solve_matches_oracles(flagellum):
    # with an identity mobility the forces are the stacked right-hand side
    # itself: the oracle's head flow at the returned spin minus the node
    # velocities, which pins the translating column and the three spin columns
    params, pos, _ = flagellum
    b, mu = params.head_radius, params.viscosity
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(11)
    v_nodes = rng.standard_normal(pos.shape) * 1e-4
    v_head = rng.standard_normal(3) * 1e-4
    d = 3 * pos.shape[0]
    forces, spin = solve_forces_and_head_spin((np.eye(d), np.ones(d)), v_nodes, r_h, v_head, b, mu)
    expected = head_induced_flow(r_h, v_head, spin, b) - v_nodes
    assert np.linalg.norm(forces - expected) <= 1e-13 * np.linalg.norm(expected)
    balance = head_spin_from_torque_balance(forces, r_h, b, mu)
    assert np.linalg.norm(spin - balance) <= 1e-12 * np.linalg.norm(balance)


def test_solve_closes_oracle_torque_on_rest_spectrum(flagellum, rest_spectrum):
    # the forces and spin a step uses leave no net torque on the robot:
    # head drag and induced torque cancel the filament forces' moment
    params, pos, _ = flagellum
    _, vecs, inv, _ = rest_spectrum
    b, mu = params.head_radius, params.viscosity
    r_h = head_offsets(params, pos)
    rng = np.random.default_rng(12)
    v_nodes = rng.standard_normal(pos.shape) * 1e-4
    v_head = rng.standard_normal(3) * 1e-4
    forces, spin = solve_forces_and_head_spin((vecs, inv), v_nodes, r_h, v_head, b, mu)
    moment = np.cross(r_h, forces).sum(axis=0)
    total = head_torque(forces, r_h, b, mu, spin) + moment
    assert np.linalg.norm(total) <= 1e-12 * np.linalg.norm(moment)


def straight_rod_drag(params, floor):
    """Drag (along, across) on a straight rod translating at 1 m/s, through the clamped spectrum.

    The rod is N-1 flagellar nodes spaced 2 delta on the x-axis, with no
    head. The drag is the sum over the nodes of M^-1 U along U, for a
    uniform velocity U along the rod and across it.
    """
    n = params.node_count - 1
    pos = np.zeros((n, 3))
    pos[:, 0] = params.edge_length * np.arange(n)
    tang = np.tile([1.0, 0.0, 0.0], (n, 1))
    mob = assemble_mobility(pos, tang, params.viscosity, params.cutoff)
    vecs, inv = clamped_spectrum(mob, floor, params.viscosity)
    return [float((vecs @ (inv * (vecs.T @ np.tile(u, n)))).reshape(n, 3).sum(axis=0) @ u)
            for u in np.eye(3)[:2]]


def test_straight_rod_drag_is_independent_of_the_floor(paper_params):
    # Raising the floor from the run's MOBILITY_FLOOR (0.25) to 1.0 moves
    # the paper rod's axial drag by -1.4% (0.8033 to 0.7924 N) and its
    # transverse drag (1.274 N) by less than 0.1%.
    # The tiny rod, desk_parameters(16), fails this test: its axial drag falls
    # by 9.3% (1.818 to 1.649 N), and across/along reads 1.23 against the
    # spheroid's 1.45. That gap is the target for a positive-definite
    # mobility without a floor (ROADMAP).
    low = straight_rod_drag(paper_params, MOBILITY_FLOOR)
    high = straight_rod_drag(paper_params, 1.0)
    for a, b in zip(low, high):
        assert abs(b / a - 1.0) < 0.03


def test_straight_rod_drag_matches_slender_spheroid(paper_params):
    # Oracle: a slender prolate spheroid of half-length l and radius a at
    # speed U (Batchelor 1970), to leading order in 1/ln(2l/a):
    # F_along = 4 pi mu l U / (ln(2l/a) - 1/2), F_across = 8 pi mu l U / (ln(2l/a) + 1/2).
    # A chain of nodes is no spheroid; the ratios read 1.15 and 1.10.
    params = paper_params
    half = 0.5 * (params.node_count - 2) * params.edge_length
    log = math.log(2.0 * half / params.rod_radius)
    scale = 4.0 * math.pi * params.viscosity * half
    along, across = straight_rod_drag(params, MOBILITY_FLOOR)
    assert along == pytest.approx(scale / (log - 0.5), rel=0.2)
    assert across == pytest.approx(2.0 * scale / (log + 0.5), rel=0.2)


def rigid_helix_thrust_ratio(params):
    """Axial force over axial torque [1/m] on the built helix spun rigidly about its axis.

    The flagellar nodes move at x_hat x r about the x-axis through the head
    centre, and the forces on them are the clamped mobility solve's,
    M^-1 (-u), with no head. The ratio does not depend on the spin rate.
    """
    state = build_initial_configuration(params)
    r = state.positions[1:] - state.positions[0]
    mob = assemble_mobility(r, node_tangents(state.tangents), params.viscosity, params.cutoff)
    vecs, inv = clamped_spectrum(mob, MOBILITY_FLOOR, params.viscosity)
    u = np.cross([1.0, 0.0, 0.0], r)
    forces = -(vecs @ (inv * (vecs.T @ u.ravel()))).reshape(-1, 3)
    return forces[:, 0].sum() / np.cross(r, forces)[:, 0].sum()


@pytest.mark.parametrize("rod", ["paper", "desk", "truncated"])
def test_rigid_helix_thrust_has_the_rft_sign(paper_params, rod):
    # Oracle: resistive-force theory (Gray & Hancock 1955; Lighthill 1976)
    # on the same nodes gives a negative axial force per axial torque, -24
    # to -57 1/m for any drag ratio of 1.5-2. The solve reads -13.9 1/m on
    # the paper rod, -4.10 on the desk preset (N=42) and -4.16 on the
    # truncated CI rod (the desk preset at N=16, tests/test_cli.py's
    # TINY_CONFIG). The full-helix desk_parameters(16), whose 8.6 mm rod is
    # wider than its 6.04 mm coil, reads +6.76: it pushes the wrong way, so
    # it cannot be the CI rod (ROADMAP item 1).
    params = {"paper": paper_params, "desk": desk_parameters(),
              "truncated": load_config(None, "desk", overrides=TINY_CONFIG).physical}[rod]
    assert rigid_helix_thrust_ratio(params) < 0.0
