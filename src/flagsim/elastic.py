"""Elastic stretching, bending, and twisting forces of the discrete rod.

Energies follow the standard discrete-rod forms: per-edge stretching,
curvature-binormal bending at internal nodes, and reference-twist-corrected
twisting. Forces are negative energy gradients on the interleaved DOF
vector [x_0, theta^0, x_1, theta^1, ..., x_{N-1}]; the Jacobian is the
negated energy Hessian. Natural (stress-free) strains are recorded from the
as-built configuration.

Each bend/twist term touches the 11 consecutive DOFs
[x_{i-1}, theta^{i-1}, x_i, theta^i, x_{i+1}], so the Hessian has
bandwidth 10 (BANDWIDTH). The Jacobian is assembled straight into LAPACK
general band storage, the (3*BANDWIDTH + 1, 4N-1) array that gbsv takes
with kl = ku = BANDWIDTH: entry a[i, j] sits at [2*BANDWIDTH + i - j, j],
and the top BANDWIDTH rows are left zero for the LU fill-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParameters
from .rod import (
    RodState,
    cross_rows,
    material_frames,
    pack_dofs,
    parallel_transport,
    signed_angle,
    unpack_dofs,
    update_reference_twist,
)

class DegenerateEdgeError(ValueError):
    """An edge collapsed below the minimum resolvable length."""


@dataclass(frozen=True)
class ElasticStiffnesses:
    stretching: float  # EA [N]
    bending: float     # EI [N m^2]
    twisting: float    # GJ [N m^2]

    @classmethod
    def from_parameters(cls, params: PhysicalParameters) -> "ElasticStiffnesses":
        r2 = params.rod_radius ** 2
        r4 = params.rod_radius ** 4
        ea = params.youngs_modulus * math.pi * r2
        ei = params.youngs_modulus * math.pi * r4 / 4.0
        gj = params.youngs_modulus / (2.0 * (1.0 + params.poisson_ratio)) * math.pi * r4 / 2.0
        return cls(stretching=ea, bending=ei, twisting=gj)


@dataclass(frozen=True)
class RestConfiguration:
    """Natural strains and lumped masses frozen at build time."""

    edge_lengths: np.ndarray   # (N-1,)
    voronoi_lengths: np.ndarray  # (N-2,) per internal node
    kappa: np.ndarray          # (N-2, 2) natural curvature
    twist: np.ndarray          # (N-2,) natural twist
    mass: np.ndarray           # (4N-1,) lumped mass per DOF
    min_edge: float            # degenerate-edge guard [m]

    @classmethod
    def from_built_state(cls, params: PhysicalParameters, state: RodState) -> "RestConfiguration":
        lengths = np.linalg.norm(state.edges, axis=1)
        voronoi = 0.5 * (lengths[:-1] + lengths[1:])
        m1, m2 = state.material_frames()
        kappa, _ = _curvatures(state.tangents, m1, m2)
        twist = state.thetas[1:] - state.thetas[:-1] + state.ref_twist

        n = params.node_count
        rho_a = params.density * math.pi * params.rod_radius ** 2
        node_mass = np.zeros(n)
        node_mass[:-1] += 0.5 * rho_a * lengths
        node_mass[1:] += 0.5 * rho_a * lengths
        head_mass = params.density * 4.0 / 3.0 * math.pi * params.head_radius ** 3
        node_mass[0] += head_mass
        # The filament base is mounted on the head; the head's rotational
        # inertia about transverse axes acts at the base node one radius away.
        node_mass[1] += 0.4 * head_mass
        edge_inertia = 0.5 * (rho_a * lengths) * params.rod_radius ** 2

        mass = np.empty(4 * n - 1)
        idx = np.arange(n)
        mass[4 * idx[:, None] + np.arange(3)] = node_mass[:, None]
        mass[4 * np.arange(n - 1) + 3] = edge_inertia
        return cls(
            edge_lengths=lengths,
            voronoi_lengths=voronoi,
            kappa=kappa,
            twist=twist,
            mass=mass,
            min_edge=1e-6 * params.edge_length,
        )


@dataclass
class ElasticEval:
    """Elastic forces at a candidate configuration, plus the adapted frames.

    Carries the geometric intermediates so the Jacobian can be assembled
    later without re-evaluating the configuration.
    """

    force: np.ndarray        # (4N-1,)
    energy: float
    tangents: np.ndarray     # (N-1, 3)
    d1: np.ndarray           # (N-1, 3) reference frames transported onto the candidate
    d2: np.ndarray
    ref_twist: np.ndarray    # (N-2,)
    edge_lengths: np.ndarray
    _cache: dict | None = None


def _check_edges(lengths: np.ndarray, min_edge: float) -> None:
    if not np.all(np.isfinite(lengths)) or np.any(lengths < min_edge):
        raise DegenerateEdgeError(
            f"edge length below {min_edge:.3e} m (min {np.min(lengths):.3e} m)"
        )


def _adapted_geometry(positions, thetas, prev_d1, prev_tangents, prev_ref_twist, min_edge):
    edges = positions[1:] - positions[:-1]
    lengths = np.linalg.norm(edges, axis=1)
    _check_edges(lengths, min_edge)
    tangents = edges / lengths[:, None]
    d1 = parallel_transport(prev_d1, prev_tangents, tangents)
    d1 -= np.sum(d1 * tangents, axis=1)[:, None] * tangents
    d1 /= np.linalg.norm(d1, axis=1)[:, None]
    d2 = np.cross(tangents, d1)
    ref_twist = update_reference_twist(d1, tangents, prev_ref_twist)
    m1, m2 = material_frames(d1, d2, thetas)
    return lengths, tangents, d1, d2, ref_twist, m1, m2


def _curvatures(tangents, m1, m2):
    """Two-component curvature at each internal node and the binormals."""
    te, tf = tangents[:-1], tangents[1:]
    chi = 1.0 + np.sum(te * tf, axis=1)
    kb = 2.0 * cross_rows(te, tf) / chi[:, None]
    k1 = 0.5 * np.sum(kb * (m2[:-1] + m2[1:]), axis=1)
    k2 = -0.5 * np.sum(kb * (m1[:-1] + m1[1:]), axis=1)
    return np.stack([k1, k2], axis=1), kb


def elastic_energy(positions, thetas, prev_d1, prev_tangents, prev_ref_twist,
                   rest: RestConfiguration, stiff: ElasticStiffnesses) -> float:
    """Total elastic energy of a candidate configuration."""
    lengths, tangents, d1, d2, ref_twist, m1, m2 = _adapted_geometry(
        positions, thetas, prev_d1, prev_tangents, prev_ref_twist, rest.min_edge
    )
    strain = lengths / rest.edge_lengths - 1.0
    e_stretch = 0.5 * stiff.stretching * np.sum(strain ** 2 * rest.edge_lengths)
    kappa, _ = _curvatures(tangents, m1, m2)
    dk = kappa - rest.kappa
    e_bend = 0.5 * stiff.bending * np.sum(np.sum(dk ** 2, axis=1) / rest.voronoi_lengths)
    tau = thetas[1:] - thetas[:-1] + ref_twist
    e_twist = 0.5 * stiff.twisting * np.sum((tau - rest.twist) ** 2 / rest.voronoi_lengths)
    return e_stretch + e_bend + e_twist


def _stretch_gradients(tangents, lengths, rest, stiff):
    """Per-edge energy gradient wrt (x_i, x_{i+1}): (M, 6)."""
    strain = lengths / rest.edge_lengths - 1.0
    g = stiff.stretching * strain[:, None] * tangents
    return np.concatenate([-g, g], axis=1)


def _stretch_hessians(tangents, lengths, rest, stiff):
    """Per-edge energy Hessian blocks: (M, 6, 6)."""
    m = tangents.shape[0]
    eye = np.eye(3)
    tt = tangents[:, :, None] * tangents[:, None, :]
    blk = stiff.stretching * (
        (1.0 / rest.edge_lengths - 1.0 / lengths)[:, None, None] * eye[None]
        + tt / lengths[:, None, None]
    )
    h = np.empty((m, 6, 6))
    h[:, :3, :3] = blk
    h[:, 3:, 3:] = blk
    h[:, :3, 3:] = -blk
    h[:, 3:, :3] = -blk
    return h


def _bend_twist_gradients(tangents, lengths, m1, m2, thetas, ref_twist, rest, stiff):
    """Gradients of bending + twisting energy on the 11-DOF stencil per node.

    Stencil ordering matches the interleaved DOF vector:
    [x_{i-1}, theta^{i-1}, x_i, theta^i, x_{i+1}].
    Returns (grad (S, 11), gradKappa (S, 11, 2), gradTau (S, 11), kappa, tau, kb).
    """
    te, tf = tangents[:-1], tangents[1:]
    le, lf = lengths[:-1], lengths[1:]
    m1e, m1f = m1[:-1], m1[1:]
    m2e, m2f = m2[:-1], m2[1:]
    chi = 1.0 + np.sum(te * tf, axis=1)
    kb = 2.0 * cross_rows(te, tf) / chi[:, None]
    tilde_t = (te + tf) / chi[:, None]
    tilde_d1 = (m1e + m1f) / chi[:, None]
    tilde_d2 = (m2e + m2f) / chi[:, None]
    k1 = 0.5 * np.sum(kb * (m2e + m2f), axis=1)
    k2 = -0.5 * np.sum(kb * (m1e + m1f), axis=1)

    dk1_de = (-k1[:, None] * tilde_t + cross_rows(tf, tilde_d2)) / le[:, None]
    dk1_df = (-k1[:, None] * tilde_t - cross_rows(te, tilde_d2)) / lf[:, None]
    dk2_de = (-k2[:, None] * tilde_t - cross_rows(tf, tilde_d1)) / le[:, None]
    dk2_df = (-k2[:, None] * tilde_t + cross_rows(te, tilde_d1)) / lf[:, None]

    s = te.shape[0]
    grad_kappa = np.zeros((s, 11, 2))
    grad_kappa[:, 0:3, 0] = -dk1_de
    grad_kappa[:, 4:7, 0] = dk1_de - dk1_df
    grad_kappa[:, 8:11, 0] = dk1_df
    grad_kappa[:, 0:3, 1] = -dk2_de
    grad_kappa[:, 4:7, 1] = dk2_de - dk2_df
    grad_kappa[:, 8:11, 1] = dk2_df
    grad_kappa[:, 3, 0] = -0.5 * np.sum(kb * m1e, axis=1)
    grad_kappa[:, 7, 0] = -0.5 * np.sum(kb * m1f, axis=1)
    grad_kappa[:, 3, 1] = -0.5 * np.sum(kb * m2e, axis=1)
    grad_kappa[:, 7, 1] = -0.5 * np.sum(kb * m2f, axis=1)

    grad_tau = np.zeros((s, 11))
    g0 = -0.5 / le[:, None] * kb
    g2 = 0.5 / lf[:, None] * kb
    grad_tau[:, 0:3] = g0
    grad_tau[:, 8:11] = g2
    grad_tau[:, 4:7] = -(g0 + g2)
    grad_tau[:, 3] = -1.0
    grad_tau[:, 7] = 1.0

    kappa = np.stack([k1, k2], axis=1)
    tau = thetas[1:] - thetas[:-1] + ref_twist
    dk = (kappa - rest.kappa) / rest.voronoi_lengths[:, None]
    dt = (tau - rest.twist) / rest.voronoi_lengths
    grad = stiff.bending * np.einsum("sdc,sc->sd", grad_kappa, dk)
    grad += stiff.twisting * dt[:, None] * grad_tau
    aux = dict(kb=kb, tilde_t=tilde_t, tilde_d1=tilde_d1, tilde_d2=tilde_d2,
               chi=chi, kappa=kappa, tau=tau,
               dk1_de=dk1_de, dk1_df=dk1_df, dk2_de=dk2_de, dk2_df=dk2_df)
    return grad, grad_kappa, grad_tau, aux


def _cross_matrices(v):
    s = v.shape[0]
    m = np.zeros((s, 3, 3))
    m[:, 0, 1] = -v[:, 2]
    m[:, 0, 2] = v[:, 1]
    m[:, 1, 0] = v[:, 2]
    m[:, 1, 2] = -v[:, 0]
    m[:, 2, 0] = -v[:, 1]
    m[:, 2, 1] = v[:, 0]
    return m


def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _bend_twist_hessians(tangents, lengths, m1, m2, grad_kappa, grad_tau, aux, rest, stiff):
    """Energy Hessian blocks (S, 11, 11) for bending + twisting."""
    te, tf = tangents[:-1], tangents[1:]
    le, lf = lengths[:-1], lengths[1:]
    m1e, m1f = m1[:-1], m1[1:]
    m2e, m2f = m2[:-1], m2[1:]
    kb = aux["kb"]
    tilde_t = aux["tilde_t"]
    tilde_d1 = aux["tilde_d1"]
    tilde_d2 = aux["tilde_d2"]
    chi = aux["chi"]
    k1 = aux["kappa"][:, 0]
    k2 = aux["kappa"][:, 1]
    s = te.shape[0]
    eye = np.eye(3)[None]
    le2 = (le ** 2)[:, None, None]
    lf2 = (lf ** 2)[:, None, None]
    lelf = (le * lf)[:, None, None]
    chi_ = chi[:, None, None]
    k1_ = k1[:, None, None]
    k2_ = k2[:, None, None]

    tt = _outer(tilde_t, tilde_t)
    tf_x_d2 = cross_rows(tf, tilde_d2)
    te_x_d2 = cross_rows(te, tilde_d2)
    tf_x_d1 = cross_rows(tf, tilde_d1)
    te_x_d1 = cross_rows(te, tilde_d1)

    d2k1_dede = (2.0 * k1_ * tt - _outer(tf_x_d2, tilde_t) - _outer(tilde_t, tf_x_d2)) / le2 \
        - k1_ / (chi_ * le2) * (eye - _outer(te, te)) \
        + _outer(kb, m2e) / (2.0 * le2)
    d2k1_dfdf = (2.0 * k1_ * tt + _outer(te_x_d2, tilde_t) + _outer(tilde_t, te_x_d2)) / lf2 \
        - k1_ / (chi_ * lf2) * (eye - _outer(tf, tf)) \
        + _outer(kb, m2f) / (2.0 * lf2)
    d2k1_dedf = -k1_ / (chi_ * lelf) * (eye + _outer(te, tf)) \
        + (2.0 * k1_ * tt - _outer(tf_x_d2, tilde_t) + _outer(tilde_t, te_x_d2)
           - _cross_matrices(tilde_d2)) / lelf

    d2k2_dede = (2.0 * k2_ * tt + _outer(tf_x_d1, tilde_t) + _outer(tilde_t, tf_x_d1)) / le2 \
        - k2_ / (chi_ * le2) * (eye - _outer(te, te)) \
        - _outer(kb, m1e) / (2.0 * le2)
    d2k2_dfdf = (2.0 * k2_ * tt - _outer(te_x_d1, tilde_t) - _outer(tilde_t, te_x_d1)) / lf2 \
        - k2_ / (chi_ * lf2) * (eye - _outer(tf, tf)) \
        - _outer(kb, m1f) / (2.0 * lf2)
    d2k2_dedf = -k2_ / (chi_ * lelf) * (eye + _outer(te, tf)) \
        + (2.0 * k2_ * tt + _outer(tf_x_d1, tilde_t) - _outer(tilde_t, te_x_d1)
           + _cross_matrices(tilde_d1)) / lelf

    # theta-theta and theta-position curvature second derivatives
    d2k1_te2 = -0.5 * np.sum(kb * m2e, axis=1)
    d2k1_tf2 = -0.5 * np.sum(kb * m2f, axis=1)
    d2k2_te2 = 0.5 * np.sum(kb * m1e, axis=1)
    d2k2_tf2 = 0.5 * np.sum(kb * m1f, axis=1)

    def mixed(mvec, sign_cross, l_, t_other):
        # d^2 kappa / (d edge d theta): (S, 3)
        return (0.5 * np.sum(kb * mvec, axis=1)[:, None] * tilde_t
                + sign_cross * cross_rows(t_other, mvec) / chi[:, None]) / l_[:, None]

    d2k1_de_te = mixed(m1e, -1.0, le, tf)
    d2k1_de_tf = mixed(m1f, -1.0, le, tf)
    d2k1_df_te = mixed(m1e, 1.0, lf, te)
    d2k1_df_tf = mixed(m1f, 1.0, lf, te)
    d2k2_de_te = mixed(m2e, -1.0, le, tf)
    d2k2_de_tf = mixed(m2f, -1.0, le, tf)
    d2k2_df_te = mixed(m2e, 1.0, lf, te)
    d2k2_df_tf = mixed(m2f, 1.0, lf, te)

    pos = (slice(0, 3), slice(4, 7), slice(8, 11))

    dk = (aux["kappa"] - rest.kappa) / rest.voronoi_lengths[:, None]
    w1 = (stiff.bending * dk[:, 0])[:, None, None]
    w2 = (stiff.bending * dk[:, 1])[:, None, None]
    dtau = (aux["tau"] - rest.twist) / rest.voronoi_lengths
    wt = (stiff.twisting * dtau)[:, None, None]

    d2m_dede = -0.5 / le2 * (_outer(kb, te + tilde_t) + 2.0 / chi_ * _cross_matrices(tf))
    d2m_dfdf = -0.5 / lf2 * (_outer(kb, tf + tilde_t) + 2.0 / chi_ * _cross_matrices(te))
    d2m_dedf = 0.5 / lelf * (2.0 / chi_ * _cross_matrices(te) - _outer(kb, tilde_t))
    d2m_dfde = 0.5 / lelf * (-2.0 / chi_ * _cross_matrices(tf) - _outer(kb, tilde_t))

    # Weighted sums of the per-energy second derivatives, filled once.
    dee = w1 * d2k1_dede + w2 * d2k2_dede + wt * d2m_dede
    dff = w1 * d2k1_dfdf + w2 * d2k2_dfdf + wt * d2m_dfdf
    def_ = w1 * d2k1_dedf + w2 * d2k2_dedf + wt * d2m_dedf
    dfe = w1 * np.swapaxes(d2k1_dedf, 1, 2) + w2 * np.swapaxes(d2k2_dedf, 1, 2) \
        + wt * d2m_dfde

    vor = rest.voronoi_lengths[:, None, None]
    hess = stiff.bending / vor * np.einsum("sdc,sec->sde", grad_kappa, grad_kappa)
    hess += stiff.twisting / vor * _outer(grad_tau, grad_tau)

    hess[:, pos[0], pos[0]] += dee
    hess[:, pos[0], pos[1]] += -dee + def_
    hess[:, pos[0], pos[2]] += -def_
    hess[:, pos[1], pos[0]] += -dee + dfe
    hess[:, pos[1], pos[1]] += dee - def_ - dfe + dff
    hess[:, pos[1], pos[2]] += def_ - dff
    hess[:, pos[2], pos[0]] += -dfe
    hess[:, pos[2], pos[1]] += dfe - dff
    hess[:, pos[2], pos[2]] += dff

    w1s = w1[:, :, 0]
    w2s = w2[:, :, 0]
    hess[:, 3, 3] += w1s[:, 0] * d2k1_te2 + w2s[:, 0] * d2k2_te2
    hess[:, 7, 7] += w1s[:, 0] * d2k1_tf2 + w2s[:, 0] * d2k2_tf2

    for col, pairs in ((3, ((d2k1_de_te, d2k1_df_te), (d2k2_de_te, d2k2_df_te))),
                       (7, ((d2k1_de_tf, d2k1_df_tf), (d2k2_de_tf, d2k2_df_tf)))):
        (k1e, k1f), (k2e, k2f) = pairs
        ce = w1s * k1e + w2s * k2e
        cf = w1s * k1f + w2s * k2f
        hess[:, pos[0], col] += -ce
        hess[:, pos[1], col] += ce - cf
        hess[:, pos[2], col] += cf
        hess[:, col, pos[0]] += -ce
        hess[:, col, pos[1]] += ce - cf
        hess[:, col, pos[2]] += cf
    return hess


_INDEX_CACHE: dict[int, dict[str, np.ndarray]] = {}

BANDWIDTH = 10  # the 11-DOF bend/twist stencil couples DOFs at most 10 apart
BAND_ROWS = 3 * BANDWIDTH + 1  # gbsv storage: kl = ku = BANDWIDTH plus kl LU fill rows
DIAG_ROW = 2 * BANDWIDTH  # band row of the main diagonal


def _band_flat(rows: np.ndarray, cols: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of a[rows, cols] in (BAND_ROWS, d) band storage."""
    return (DIAG_ROW + rows - cols) * d + cols


def _dof_indices(n: int) -> dict[str, np.ndarray]:
    """Scatter indices of the per-element blocks, stretch edges first.

    "grad" indexes the (4N-1,) DOF vector; "band" indexes the raveled
    (BAND_ROWS, 4N-1) band storage, a[i, j] -> ab[DIAG_ROW + i - j, j].
    """
    cached = _INDEX_CACHE.get(n)
    if cached is not None:
        return cached
    d = 4 * n - 1
    stretch_nodes = np.arange(n - 1)
    stretch = np.empty((n - 1, 6), dtype=np.intp)
    stretch[:, 0:3] = 4 * stretch_nodes[:, None] + np.arange(3)
    stretch[:, 3:6] = 4 * (stretch_nodes + 1)[:, None] + np.arange(3)
    stencil = 4 * np.arange(n - 2)[:, None] + np.arange(11)
    cached = {
        "grad": np.concatenate([stretch.ravel(), stencil.ravel()]),
        "band": np.concatenate([
            _band_flat(stretch[:, :, None], stretch[:, None, :], d).ravel(),
            _band_flat(stencil[:, :, None], stencil[:, None, :], d).ravel(),
        ]),
    }
    _INDEX_CACHE[n] = cached
    return cached


def _band_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of every entry with |i - j| <= BANDWIDTH."""
    return np.nonzero(np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= BANDWIDTH)


def band_from_dense(a: np.ndarray) -> np.ndarray:
    """Copy the |i - j| <= BANDWIDTH part of a square matrix into band storage."""
    d = a.shape[0]
    i, j = _band_pairs(d)
    ab = np.zeros((BAND_ROWS, d))
    ab[DIAG_ROW + i - j, j] = a[i, j]
    return ab


def dense_from_band(ab: np.ndarray) -> np.ndarray:
    """Expand band storage back to the square matrix it holds."""
    d = ab.shape[1]
    i, j = _band_pairs(d)
    a = np.zeros((d, d))
    a[i, j] = ab[DIAG_ROW + i - j, j]
    return a


def evaluate_elastics(positions, thetas, prev_d1, prev_tangents, prev_ref_twist,
                      rest: RestConfiguration, stiff: ElasticStiffnesses,
                      with_jacobian: bool = False):
    """Elastic force at a candidate configuration.

    Frames are transported from the committed previous configuration, so the
    result is a pure function of (positions, thetas) given that anchor. The
    per-edge stretch and per-node bend/twist gradients are summed onto the
    (4N-1,) DOF vector with one bincount, stretch entries first. Returns
    ElasticEval, or (ElasticEval, jacobian) when with_jacobian, the Jacobian
    in the band storage of jacobian_from_eval, which can also be called later.
    """
    n = positions.shape[0]
    lengths, tangents, d1, d2, ref_twist, m1, m2 = _adapted_geometry(
        positions, thetas, prev_d1, prev_tangents, prev_ref_twist, rest.min_edge
    )
    idx = _dof_indices(n)

    gs = _stretch_gradients(tangents, lengths, rest, stiff)
    gbt, grad_kappa, grad_tau, aux = _bend_twist_gradients(
        tangents, lengths, m1, m2, thetas, ref_twist, rest, stiff
    )
    grad = np.bincount(idx["grad"], weights=np.concatenate([gs.ravel(), gbt.ravel()]),
                       minlength=4 * n - 1)

    strain = lengths / rest.edge_lengths - 1.0
    energy = 0.5 * stiff.stretching * np.sum(strain ** 2 * rest.edge_lengths)
    dkap = aux["kappa"] - rest.kappa
    energy += 0.5 * stiff.bending * np.sum(np.sum(dkap ** 2, axis=1) / rest.voronoi_lengths)
    energy += 0.5 * stiff.twisting * np.sum((aux["tau"] - rest.twist) ** 2 / rest.voronoi_lengths)

    result = ElasticEval(
        force=-grad,
        energy=energy,
        tangents=tangents,
        d1=d1,
        d2=d2,
        ref_twist=ref_twist,
        edge_lengths=lengths,
        _cache={"m1": m1, "m2": m2, "grad_kappa": grad_kappa, "grad_tau": grad_tau,
                "aux": aux, "idx": idx, "n": n},
    )
    if not with_jacobian:
        return result
    return result, jacobian_from_eval(result, rest, stiff)


def _symmetrized(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + np.swapaxes(h, 1, 2))


def jacobian_from_eval(ev: ElasticEval, rest: RestConfiguration,
                       stiff: ElasticStiffnesses) -> np.ndarray:
    """Elastic force Jacobian from a cached evaluation, in LAPACK band storage.

    The Jacobian (the negated energy Hessian) couples DOFs at most BANDWIDTH
    apart, so it is returned as the (BAND_ROWS, 4N-1) array that gbsv takes
    with kl = ku = BANDWIDTH: a[i, j] sits at [DIAG_ROW + i - j, j], and the
    first BANDWIDTH rows are zero (LU fill-in space). The per-element Hessian
    blocks are symmetrized before one bincount sums them into the band.
    """
    c = ev._cache
    d = 4 * c["n"] - 1
    hs = _stretch_hessians(ev.tangents, ev.edge_lengths, rest, stiff)
    hbt = _bend_twist_hessians(ev.tangents, ev.edge_lengths, c["m1"], c["m2"],
                               c["grad_kappa"], c["grad_tau"], c["aux"], rest, stiff)
    weights = np.concatenate([_symmetrized(hs).ravel(), _symmetrized(hbt).ravel()])
    hess = np.bincount(c["idx"]["band"], weights=weights, minlength=BAND_ROWS * d)
    return -hess.reshape(BAND_ROWS, d)


def internal_force(state: RodState, rest: RestConfiguration, stiff: ElasticStiffnesses) -> np.ndarray:
    """Elastic force vector at a committed state (frames taken as stored)."""
    out = evaluate_elastics(
        state.positions, state.thetas, state.ref_d1, state.tangents, state.ref_twist,
        rest, stiff,
    )
    return out.force


def internal_force_jacobian(state: RodState, rest: RestConfiguration,
                            stiff: ElasticStiffnesses) -> np.ndarray:
    """Dense d(force)/d(q) at a committed state; symmetric (negated energy Hessian)."""
    _, jac = evaluate_elastics(
        state.positions, state.thetas, state.ref_d1, state.tangents, state.ref_twist,
        rest, stiff, with_jacobian=True,
    )
    return dense_from_band(jac)


def internal_force_jacobian_fd(positions, thetas, anchor_d1, anchor_tangents,
                               anchor_ref_twist, rest: RestConfiguration,
                               stiff: ElasticStiffnesses, step: float) -> np.ndarray:
    """Finite-difference elastic Jacobian (cross-check fallback).

    Central differences of the force over committed probes: each probe
    transports the frames from the anchor onto the perturbed configuration
    and evaluates the force there. The frame transport is path dependent, so
    this picks up an antisymmetric connection-curvature term of relative
    size ~1e-3 on top of the energy Hessian; the result is symmetrized. Good
    enough as a Newton matrix for cross-checking, not as a reference Hessian
    (for that, difference the energy twice).
    """
    q0 = pack_dofs(positions, thetas)
    n_dof = q0.shape[0]
    jac = np.empty((n_dof, n_dof))

    def committed_force(q):
        pos, th = unpack_dofs(q)
        ev = evaluate_elastics(pos, th, anchor_d1, anchor_tangents, anchor_ref_twist,
                               rest, stiff)
        ev2 = evaluate_elastics(pos, th, ev.d1, ev.tangents, ev.ref_twist, rest, stiff)
        return ev2.force

    for i in range(n_dof):
        qp = q0.copy()
        qm = q0.copy()
        qp[i] += step
        qm[i] -= step
        jac[:, i] = (committed_force(qp) - committed_force(qm)) / (2.0 * step)
    return 0.5 * (jac + jac.T)
