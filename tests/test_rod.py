import numpy as np
import pytest

from flagsim import build_initial_configuration, paper_parameters
from flagsim.params import PhysicalParameters
from flagsim.rod import (
    DegenerateEdgeError,
    RodBuildError,
    material_frames,
    pack_dofs,
    parallel_transport,
    unpack_dofs,
)
from dataclasses import replace

from conftest import elastics_at


def test_edge_length_and_contour_values(paper_params):
    # direct arithmetic: 2*(r0 sqrt(e)/2) and (N-2)*2delta
    assert paper_params.edge_length == pytest.approx(1.6487212707e-3, rel=1e-9)
    assert (paper_params.node_count - 2) * paper_params.edge_length == pytest.approx(
        0.19784655, rel=1e-6
    )
    # consistent with the quoted 20 cm filament contour
    assert paper_params.helix_contour_length == pytest.approx(0.1995, rel=1e-2)


def test_minimal_rod_counts():
    p = paper_parameters(node_count=4)
    state = build_initial_configuration(p)
    q = state.dof_vector()
    assert q.shape == (15,)
    assert state.edges.shape == (3, 3)
    assert state.thetas.shape == (3,)
    # one twist DOF is the prescribed motor angle, leaving two free
    free_twist = state.thetas.shape[0] - 1
    assert free_twist == 2


def test_built_state_is_stress_free(paper_built, paper_params):
    state, rest = paper_built
    f = elastics_at(state, rest).force
    assert np.linalg.norm(f) < 1e-10 * paper_params.youngs_modulus * paper_params.rod_radius ** 2


def test_built_edges_are_uniform(paper_built, paper_params):
    state, _ = paper_built
    lengths = np.linalg.norm(state.edges, axis=1)
    assert lengths[0] == pytest.approx(paper_params.head_radius, abs=1e-15)
    assert np.allclose(lengths[1:], paper_params.edge_length, atol=1e-12)


def test_build_rejects_inconsistent_discretization():
    base = paper_parameters()
    with pytest.raises(RodBuildError):
        build_initial_configuration(replace(base, node_count=240))


def test_build_is_deterministic(paper_params):
    a = build_initial_configuration(paper_params)
    b = build_initial_configuration(paper_params)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.ref_d1, b.ref_d1)
    assert np.array_equal(a.ref_twist, b.ref_twist)


def test_pack_unpack_roundtrip(paper_built):
    state, _ = paper_built
    q = pack_dofs(state.positions, state.thetas)
    pos, th = unpack_dofs(q)
    assert np.array_equal(pos, state.positions)
    assert np.array_equal(th, state.thetas)
    assert np.array_equal(pack_dofs(pos, th), q)
    # layout: x_j at 4j..4j+2, theta_j at 4j+3
    assert q[4] == state.positions[1, 0]
    assert q[3] == state.thetas[0]


def test_frames_adapted_and_orthonormal(paper_built):
    state, _ = paper_built
    t = state.tangents
    for d in (state.ref_d1, state.ref_d2):
        assert np.abs(np.sum(d * t, axis=1)).max() <= 1e-12
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(np.sum(state.ref_d1 * state.ref_d2, axis=1)).max() <= 1e-12


def test_parallel_transport_identity():
    t = np.array([[0.0, 0.0, 1.0]])
    v = np.array([[1.0, 0.0, 0.0]])
    out = parallel_transport(v, t, t)
    assert np.allclose(out, v, atol=1e-15)


def test_parallel_transport_matches_rodrigues_oracle():
    # oracle: rotate d1 by the rotation taking t0 to t1 (axis t0 x t1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        t0 = rng.standard_normal(3)
        t0 /= np.linalg.norm(t0)
        d1 = rng.standard_normal(3)
        d1 -= np.dot(d1, t0) * t0
        d1 /= np.linalg.norm(d1)
        t1 = rng.standard_normal(3)
        t1 /= np.linalg.norm(t1)

        axis = np.cross(t0, t1)
        s = np.linalg.norm(axis)
        c = np.dot(t0, t1)
        axis /= s
        angle = np.arctan2(s, c)
        kx = np.array([
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ])
        rot = np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)
        expected = rot @ d1

        out = parallel_transport(d1[None], t0[None], t1[None])[0]
        assert np.allclose(out, expected, atol=1e-12)


def test_parallel_transport_90_degrees_about_d1():
    # tangent rotated 90 degrees about d1: d1 unchanged, d2 lands on -t_old
    t0 = np.array([[0.0, 0.0, 1.0]])
    d1 = np.array([[1.0, 0.0, 0.0]])
    d2 = np.array([[0.0, 1.0, 0.0]])
    t1 = np.array([[0.0, 1.0, 0.0]])  # rotated 90 deg about d1 = x
    out1 = parallel_transport(d1, t0, t1)[0]
    out2 = parallel_transport(d2, t0, t1)[0]
    assert np.allclose(out1, d1[0], atol=1e-14)
    assert np.allclose(out2, -t0[0], atol=1e-14)


def test_parallel_transport_rejects_antiparallel_tangents():
    # a reversed edge has no minimal rotation: a typed error, no division by ~0
    rng = np.random.default_rng(5)
    t0 = rng.standard_normal((4, 3))
    t0 /= np.linalg.norm(t0, axis=1)[:, None]
    d1 = np.cross(t0, rng.standard_normal((4, 3)))
    t1 = t0.copy()
    t1[2] = -t0[2]
    with pytest.raises(DegenerateEdgeError):
        parallel_transport(d1, t0, t1)


def test_parallel_transport_preserves_orthonormality():
    rng = np.random.default_rng(3)
    t0 = rng.standard_normal((40, 3))
    t0 /= np.linalg.norm(t0, axis=1)[:, None]
    d1 = rng.standard_normal((40, 3))
    d1 -= np.sum(d1 * t0, axis=1)[:, None] * t0
    d1 /= np.linalg.norm(d1, axis=1)[:, None]
    t1 = t0 + 0.05 * rng.standard_normal((40, 3))
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    out = parallel_transport(d1, t0, t1)
    assert np.abs(np.sum(out * t1, axis=1)).max() <= 1e-12
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


def test_material_frames_cases():
    rng = np.random.default_rng(11)
    t = rng.standard_normal((5, 3))
    t /= np.linalg.norm(t, axis=1)[:, None]
    d1 = rng.standard_normal((5, 3))
    d1 -= np.sum(d1 * t, axis=1)[:, None] * t
    d1 /= np.linalg.norm(d1, axis=1)[:, None]
    d2 = np.cross(t, d1)

    m1, m2 = material_frames(d1, d2, np.zeros(5))
    assert np.allclose(m1, d1, atol=1e-15)
    assert np.allclose(m2, d2, atol=1e-15)

    m1, m2 = material_frames(d1, d2, np.full(5, np.pi / 2))
    assert np.allclose(m1, d2, atol=1e-14)
    assert np.allclose(m2, -d1, atol=1e-14)

    m1, m2 = material_frames(d1, d2, np.full(5, 0.3))
    assert np.abs(np.sum(m1 * m2, axis=1)).max() <= 1e-12
    assert np.abs(np.linalg.norm(m1, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(np.sum(m1 * t, axis=1)).max() <= 1e-12
