import json

import numpy as np
import pytest

from flagsim import (
    RestConfiguration,
    build_initial_configuration,
    desk_parameters,
    hydro,
    paper_parameters,
)
from flagsim.elastic import (
    BANDWIDTH,
    DIAG_ROW,
    CommittedFrames,
    evaluate_elastics,
    jacobian_from_eval,
)
from flagsim.geometry import SteeringDatapoint
from flagsim.rod import unpack_dofs


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
    return state, rest


@pytest.fixture(scope="session")
def desk_built(desk_params):
    state = build_initial_configuration(desk_params)
    rest = RestConfiguration.from_built_state(desk_params, state)
    return state, rest


def save_json(obj, path):
    """Write obj.to_json_dict() as the CLI writes its JSON files."""
    path.write_text(json.dumps(obj.to_json_dict(), indent=1, sort_keys=True) + "\n")


def committed_perturbation(state, rest, seed, pos_scale=2e-4, theta_scale=0.1):
    """A perturbed state whose frames are properly transported from the build."""
    rng = np.random.default_rng(seed)
    positions = state.positions + pos_scale * rng.standard_normal(state.positions.shape)
    thetas = state.thetas + theta_scale * rng.standard_normal(state.thetas.shape)
    ev = evaluate_elastics(positions, thetas, CommittedFrames.from_state(state), rest)
    out = state.copy()
    out.positions = positions
    out.thetas = thetas
    out.ref_d1 = ev.d1
    out.ref_d2 = ev.d2
    out.ref_twist = ev.ref_twist
    return out


def elastics_at(state, rest, q=None):
    """evaluate_elastics from a committed state's frames, at its own DOFs or at q."""
    positions, thetas = (state.positions, state.thetas) if q is None else unpack_dofs(q)
    return evaluate_elastics(positions, thetas, CommittedFrames.from_state(state), rest)


def der_energy(ev, thetas, rest):
    """Oracle: the discrete elastic rod energy at an evaluated configuration.

    Written from the definitions (Bergou et al. 2008) apart from
    flagsim.elastic's kernels. Per edge the stretch energy is
    (EA/2) l0 (l/l0 - 1)^2. At each internal node, with the material
    directors m1 = cos(theta) d1 + sin(theta) d2 and
    m2 = cos(theta) d2 - sin(theta) d1, the curvature binormal
    kb = 2 t_e x t_f / (1 + t_e.t_f) gives the curvatures
    k1 = kb.(m2_e + m2_f)/2 and k2 = -kb.(m1_e + m1_f)/2, and the twist is
    tau = theta_f - theta_e + the reference twist. The bend and twist
    energy is (1/2) (EI, EI, GJ)/l_vor times the squared departures of
    (k1, k2, tau) from the rest values. ev supplies the tangents, the
    transported reference directors (d1, d2) and the reference twist.
    """
    t = ev.tangents
    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    m1 = c * ev.d1 + s * ev.d2
    m2 = c * ev.d2 - s * ev.d1
    kb = 2.0 * np.cross(t[:-1], t[1:]) / (1.0 + np.sum(t[:-1] * t[1:], axis=1))[:, None]
    k1 = 0.5 * np.sum(kb * (m2[:-1] + m2[1:]), axis=1)
    k2 = -0.5 * np.sum(kb * (m1[:-1] + m1[1:]), axis=1)
    tau = thetas[1:] - thetas[:-1] + ev.ref_twist
    strain = np.column_stack((k1 - rest.kappa[:, 0], k2 - rest.kappa[:, 1], tau - rest.twist))
    stretch = ev.edge_lengths / rest.edge_lengths - 1.0
    return (0.5 * np.sum(rest.moduli * strain ** 2)
            + 0.5 * rest.stretching * np.sum(rest.edge_lengths * stretch ** 2))


def dense_jacobian(state, rest):
    """The elastic force Jacobian at a committed state as a square matrix."""
    return dense_from_band(jacobian_from_eval(elastics_at(state, rest), rest))


def _band_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of every entry with |i - j| <= BANDWIDTH."""
    return np.nonzero(np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= BANDWIDTH)


def dense_from_band(ab: np.ndarray) -> np.ndarray:
    """Expand band storage back to the square matrix it holds."""
    d = ab.shape[1]
    i, j = _band_pairs(d)
    a = np.zeros((d, d))
    a[i, j] = ab[DIAG_ROW + i - j, j]
    return a


def _sphere_distances(r_h):
    """|r| per node offset from the head centre; the sphere flows are singular at 0."""
    r = np.linalg.norm(r_h, axis=1)
    if (r == 0.0).any():
        raise ValueError("flagellar node coincides with the head center")
    return r


def head_induced_flow(r_h, head_velocity, head_spin, head_radius):
    """Oracle: no-slip flow of a sphere of radius b translating at U, spinning at Omega.

    Stokes' textbook solution, written apart from flagsim.hydro:
    u = (3b/4r)(U + (U.n)n) + (b^3/4r^3)(U - 3(U.n)n) + (b^3/r^3) Omega x r,
    with n = r/|r|. Its rotation term is the negative of the paper's printed
    (b^3/r^3)(r x Omega), which does not match the surface velocity U + Omega x r.
    """
    r = _sphere_distances(r_h)
    b = head_radius
    n = r_h / r[:, None]
    u_n = (n @ head_velocity)[:, None] * n
    stokeslet = (3.0 * b / (4.0 * r))[:, None] * (head_velocity + u_n)
    doublet = (b ** 3 / (4.0 * r ** 3))[:, None] * (head_velocity - 3.0 * u_n)
    rotlet = (b ** 3 / r ** 3)[:, None] * np.cross(head_spin, r_h)
    return stokeslet + doublet + rotlet


def head_torque(forces, r_h, head_radius, viscosity, head_spin):
    """Oracle: torque on the head, the filament-flow induction plus -8 pi mu b^3 Omega."""
    r = _sphere_distances(r_h)
    b = head_radius
    induced = -((b ** 3 / r ** 3)[:, None] * np.cross(r_h, forces)).sum(axis=0)
    return induced - 8.0 * np.pi * viscosity * b ** 3 * head_spin


def head_spin_from_torque_balance(forces, r_h, head_radius, viscosity):
    """Oracle: the head spin that zeroes the whole robot's torque.

    8 pi mu b^3 Omega = sum (1 - b^3/r^3) r x f.
    """
    r = _sphere_distances(r_h)
    b = head_radius
    moment = ((1.0 - b ** 3 / r ** 3)[:, None] * np.cross(r_h, forces)).sum(axis=0)
    return moment / (8.0 * np.pi * viscosity * b ** 3)


def brute_polyline_distance(points, verts, n_grid):
    """Distance from each point to the nearest of n_grid samples on every segment."""
    t = np.linspace(0, 1, n_grid)[:, None, None]
    samples = (verts[:-1] + t * (verts[1:] - verts[:-1])).reshape(-1, 3)
    return np.linalg.norm(points[:, None] - samples, axis=2).min(axis=1)


def flaky_step(real_step, error, every_call=False):
    """A step that raises error on its first call, if full-size, or on every call.

    Returns (step, sizes); sizes records each call's controls.time_step
    (None for a full step).
    """
    sizes = []

    def step(state, rest, params, omega, spectrum, controls, newton):
        sizes.append(controls.time_step)
        if every_call or sizes == [None]:
            raise error
        return real_step(state, rest, params, omega, spectrum, controls, newton)

    return step, sizes


def count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of owner.name from here on."""
    calls = []
    function = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return function(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_spectra(monkeypatch):
    """A list that gains one entry per hydro.clamped_spectrum call from here on."""
    return count_calls(monkeypatch, hydro, "clamped_spectrum")


def fallback_sizes(dt, n_steps):
    """Step sizes after one failed full step at t=0: half steps for one second."""
    window = round(1.0 / dt)
    return [None] + [dt / 2] * (2 * window) + [None] * (n_steps - window)


def make_synthetic_dataset(n=160, seed=0, cruise=2e-4):
    """Smooth invertible ground truth emulating the steering data ranges."""
    rng = np.random.default_rng(seed)
    t_high = rng.uniform(2.0, 40.0, n)
    t_low = rng.uniform(30.0, 400.0, n)
    alpha = 1.8 * t_high * (1.0 + 0.10 * np.tanh(t_high / 15.0))
    h = cruise * t_low * (1.0 + 0.05 * np.sin(t_high / 6.0))
    beta = -25.0 + 1.3 * t_high - 0.01 * t_low
    l = -cruise * (5.0 + 0.4 * t_high) - 1e-4 * np.sin(t_low / 50.0)
    return [
        SteeringDatapoint(t_high=float(th), t_low=float(tl), h=float(hh),
                          alpha=float(a), beta=float(b), l=float(ll))
        for th, tl, hh, a, b, ll in zip(t_high, t_low, h, alpha, beta, l)
    ]
