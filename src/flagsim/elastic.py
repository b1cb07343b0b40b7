"""Elastic stretching, bending, and twisting forces of the discrete rod.

Energies follow the standard discrete-rod forms: per-edge stretching,
curvature-binormal bending at internal nodes, and reference-twist-corrected
twisting (Bergou et al., "Discrete elastic rods", SIGGRAPH 2008). Forces
are negative energy gradients on the interleaved DOF vector
[x_0, theta^0, x_1, theta^1, ..., x_{N-1}]; the Jacobian is the negated
energy Hessian. Natural (stress-free) strains are recorded from the
as-built configuration.

Each bend/twist term touches the 11 consecutive DOFs
[x_{i-1}, theta^{i-1}, x_i, theta^i, x_{i+1}], so the Hessian has
bandwidth 10 (BANDWIDTH). The Jacobian is assembled straight into LAPACK
general band storage, the (3*BANDWIDTH + 1, 4N-1) array that gbsv takes
with kl = ku = BANDWIDTH: entry a[i, j] sits at [2*BANDWIDTH + i - j, j],
and the top BANDWIDTH rows are left zero for the LU fill-in.

Bend/twist kernel. At internal node i the edges e = x_i - x_{i-1} and
f = x_{i+1} - x_i have lengths l_e, l_f, tangents t_e, t_f and material
directors m1, m2. With chi = 1 + t_e.t_f, kb = 2 t_e x t_f / chi,
t~ = (t_e + t_f)/chi and d~1 = (m1_e + m1_f)/chi (d~2 likewise), the
strains are k1 = kb.(m2_e + m2_f)/2, k2 = -kb.(m1_e + m1_f)/2 and
tau = theta_f - theta_e + reference twist. Derivatives are written as
8-vectors [x, a, y, b]: x and y are 3-vectors on the e and f sides, a and
b the theta_e and theta_f entries. One such vector sits on the stencil
as (-x/l_e, a, x/l_e - y/l_f, b, y/l_f). The strain gradients are

    grad k1  = [-k1 t~ + t_f x d~2, -kb.m1_e/2, -k1 t~ - t_e x d~2, -kb.m1_f/2]
    grad k2  = [-k2 t~ - t_f x d~1, -kb.m2_e/2, -k2 t~ + t_e x d~1, -kb.m2_f/2]
    grad tau = [kb/2, -1, kb/2, 1]

and the energy gradient is w1 grad k1 + w2 grad k2 + w_t grad tau, with
w1, w2 = EI (k - k_rest)/l_vor and w_t = GJ (tau - tau_rest)/l_vor. Let
K = w1 k1 + w2 k2, g = w2 d~1 - w1 d~2, s = 2 g + w_t t~, and per edge
a_e = w1 m1_e + w2 m2_e, b_e = w1 m2_e - w2 m1_e - w_t t_e (a_f, b_f on
f). The energy Hessian is sym(sum_k c_k u_k v_k^T), sym(A) = (A + A^T)/2,
a sum of 15 rank-one terms (e_j are the unit vectors, j = 1..3):

    c_k       u_k                                       v_k
    1         [2K t~ + 2 t_f x g - w_t kb/2, 0,          [t~, 0, t~, 0]
               2K t~ - 2 t_e x g - w_t kb/2, 0]
    K/chi     [t_e, 0, -t_f, 0]                         = u_k
    1/2       [kb, 0, 0, 0]                             [b_e, 0, 0, 0]
    1/2       [0, 0, kb, 0]                             [0, 0, b_f, 0]
    1         [2 X_e, -kb.b_e/2, 2 Y_e, 0]              [0, 1, 0, 0]
    1         [2 X_f, 0, 2 Y_f, -kb.b_f/2]              [0, 0, 0, 1]
    -K/chi    [e_j, 0, e_j, 0]                          = u_k
    1         [e_j, 0, 0, 0]                            [0, 0, e_j x s, 0]
    EI/l_vor  grad k1, grad k2                          = u_k
    GJ/l_vor  grad tau                                  = u_k

where X_e = (kb.a_e) t~/2 - t_f x a_e/chi and Y_e = (kb.a_e) t~/2
+ t_e x a_e/chi (X_f, Y_f from a_f); kb.b_e = kb.(w1 m2_e - w2 m1_e), as
kb is normal to t_e. The first row merges the curvature
term 2K t~ t~^T, the pair (t_f x g, -t_e x g) t~^T with its mirror, and
the twist term -w_t kb t~^T / 2. The two X/Y rows are the theta-position
columns and the theta-theta entries. The e_j (e_j x s)^T rows are the
skew coupling [s]x = 2[g]x + (w_t/chi)([t_e]x + [t_f]x) between the e
and f sides. The e-e and f-f blocks also carry skew terms, but those
cancel under the symmetrization and are left out. Every u_k and c_k v_k
is embedded on the 11 stencil DOFs first, so one batched matmul over
(S, 15, 11) arrays sums the terms of all S stencils at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParameters
from .rod import (
    DegenerateEdgeError,
    RodState,
    cross_rows,
    material_frames,
    parallel_transport,
    update_reference_twist,
)


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
        kappa = _curvatures(state.tangents, m1, m2)[-1]
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
    # NaN fails every comparison, so a NaN length is rejected too
    if not min_edge <= lengths.min() <= lengths.max() < math.inf:
        raise DegenerateEdgeError(
            f"edge length below {min_edge:.3e} m (min {np.min(lengths):.3e} m)"
        )


def _adapted_geometry(positions, thetas, prev_d1, prev_tangents, prev_ref_twist, min_edge):
    edges = positions[1:] - positions[:-1]
    lengths = np.sqrt((edges * edges).sum(axis=1))
    _check_edges(lengths, min_edge)
    tangents = edges / lengths[:, None]
    d1 = parallel_transport(prev_d1, prev_tangents, tangents)
    d1 -= (d1 * tangents).sum(axis=1)[:, None] * tangents
    d1 /= np.sqrt((d1 * d1).sum(axis=1))[:, None]
    d2 = cross_rows(tangents, d1)
    ref_twist = update_reference_twist(d1, tangents, prev_ref_twist)
    m1, m2 = material_frames(d1, d2, thetas)
    return lengths, tangents, d1, d2, ref_twist, m1, m2


# The stencil 8-vectors [x, a, y, b] are built as (2, 4) arrays, one row
# per side: e = [x, a], f = [y, b].
_SIGNS = np.array([1.0, -1.0])
_TWIST_THETA = np.array([-1.0, 1.0])  # dtau/dtheta_e, dtau/dtheta_f
# (w1, w2, w_t) -> [[w1, w2], [-w2, w1]], the weights of a and b on (m1, m2)
_AB_WEIGHTS = np.array([[0, 1], [1, 0]])
_AB_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0]])
_BLOCK_SIGNS = np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 1, 2, 1)
_EYE = np.eye(3)
# Embedding of an 8-vector whose x is already divided by l_e and y by l_f
# on the 11 stencil DOFs: (-x, a, x - y, b, y).
_EMBED = np.zeros((8, 11))
_EMBED[[0, 1, 2, 0, 1, 2, 3], [0, 1, 2, 4, 5, 6, 3]] = [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
_EMBED[[4, 5, 6, 4, 5, 6, 7], [4, 5, 6, 8, 9, 10, 7]] = [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]

# Rank-one terms, in the order of the module docstring's table, with the
# sym() halving folded into the coefficients. Rows 0..5 depend on the
# stencil; rows 6..8 (identity) and 9..11 (skew) are constant in u; rows
# 12..14 are the strain gradients.
_N_TERMS = 15
_U_CONST = np.zeros((_N_TERMS, 2, 4))
_U_CONST[6:9, 0, :3] = _EYE
_U_CONST[6:9, 1, :3] = _EYE
_U_CONST[9:12, 0, :3] = _EYE
_V_CONST = np.zeros((_N_TERMS, 2, 4))
_V_CONST[4, 0, 3] = 1.0
_V_CONST[5, 1, 3] = 1.0
_V_CONST[6:9] = _U_CONST[6:9]
_C_CONST = np.array([0.5, 0.0, 0.25, 0.25, 0.5, 0.5, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0])


def _curvatures(tangents, m1, m2):
    """Curvature at each internal node, with the pieces the derivatives reuse.

    Returns chi = 1 + t_e.t_f (S,), the binormal kb (S, 3), the material
    directors as (S, 2, 2, 3) indexed [node, edge e/f, director m1/m2],
    their projections kb.m (S, 2, 2), and kappa (S, 2).
    """
    te, tf = tangents[:-1], tangents[1:]
    chi = 1.0 + (te * tf).sum(axis=1)
    kb = 2.0 * cross_rows(te, tf) / chi[:, None]
    frames = np.stack((m1[:-1], m2[:-1], m1[1:], m2[1:]), axis=1).reshape(-1, 2, 2, 3)
    proj = (frames @ kb[:, None, :, None])[..., 0]
    # (k1, k2) = (kb.(m2_e + m2_f), -kb.(m1_e + m1_f)) / 2
    kappa = 0.5 * _SIGNS * (proj[:, 0] + proj[:, 1])[:, ::-1]
    return chi, kb, frames, proj, kappa


def _stretch_gradients(tangents, strain, stiff):
    """Per-edge energy gradient wrt (x_i, x_{i+1}): (M, 6)."""
    g = stiff.stretching * strain[:, None] * tangents
    return np.concatenate([-g, g], axis=1)


def _stretch_hessians(tangents, lengths, rest, stiff):
    """Per-edge energy Hessian blocks: (M, 6, 6)."""
    blk = stiff.stretching * (
        (1.0 / rest.edge_lengths - 1.0 / lengths)[:, None, None] * _EYE
        + tangents[:, :, None] * tangents[:, None, :] / lengths[:, None, None]
    )
    return (blk[:, None, :, None, :] * _BLOCK_SIGNS).reshape(-1, 6, 6)


def _bend_twist_gradients(tangents, lengths, m1, m2, thetas, ref_twist, rest, stiff):
    """Bend plus twist energy and its gradient on the 11-DOF stencils.

    Returns (grad (S, 11), energy, terms), where terms holds what the
    Hessian reuses: the strain gradients (k1, k2, tau) as 8-vectors
    "dstrain" (S, 3, 8), their weights w = (w1, w2, w_t) (S, 3), the
    moduli (EI, EI, GJ)/l_vor (S, 3), the per-stencil embedding "embed"
    (S, 8, 11) of the 8-vectors on the stencil DOFs and the curvature pieces.
    """
    te, tf = tangents[:-1], tangents[1:]
    chi, kb, frames, proj, kappa = _curvatures(tangents, m1, m2)
    s = chi.shape[0]
    t_tilde = (te + tf) / chi[:, None]
    # (d~2, -d~1) and the cross factors (t_f, -t_e) of the x and y sides
    dturn = (frames[:, 0] + frames[:, 1])[:, ::-1] * (_SIGNS / chi[:, None])[:, :, None]
    sides = np.stack((tf, -te), axis=1)

    dstrain = np.empty((s, 3, 2, 4))
    dstrain[:, :2, :, :3] = (cross_rows(sides[:, None], dturn[:, :, None])
                             - kappa[:, :, None, None] * t_tilde[:, None, None])
    dstrain[:, :2, :, 3] = -0.5 * np.swapaxes(proj, 1, 2)
    dstrain[:, 2, :, :3] = 0.5 * kb[:, None]
    dstrain[:, 2, :, 3] = _TWIST_THETA
    dstrain = dstrain.reshape(s, 3, 8)

    strain = np.empty((s, 3))
    strain[:, :2] = kappa - rest.kappa
    strain[:, 2] = thetas[1:] - thetas[:-1] + ref_twist - rest.twist
    moduli = np.array([stiff.bending, stiff.bending, stiff.twisting]) \
        / rest.voronoi_lengths[:, None]
    w = moduli * strain
    energy = 0.5 * (w * strain).sum()

    inv_l = 1.0 / lengths
    scale = np.ones((s, 8))
    scale[:, :3] = inv_l[:-1, None]
    scale[:, 4:7] = inv_l[1:, None]
    embed = scale[:, :, None] * _EMBED
    grad = (w[:, None] @ dstrain @ embed)[:, 0]
    terms = dict(te=te, tf=tf, chi=chi, kb=kb, frames=frames, proj=proj, kappa=kappa,
                 t_tilde=t_tilde, dturn=dturn, sides=sides, dstrain=dstrain, w=w,
                 moduli=moduli, embed=embed)
    return grad, energy, terms


def _rank_one_terms(terms):
    """The bend/twist Hessian as rank-one terms on the stencils: u and c v.

    Row k of each (S, 15, 11) array holds the k-th term of the module
    docstring's table, embedded on the 11 stencil DOFs; the energy Hessian
    of each stencil is u^T (c v) + its transpose (the halving of sym() is
    folded into c).
    """
    te, tf, chi, kb, t_tilde = (terms[k] for k in ("te", "tf", "chi", "kb", "t_tilde"))
    sides, w = terms["sides"], terms["w"]
    s = chi.shape[0]
    wt = w[:, 2:]
    big_k = (w[:, :2] * terms["kappa"]).sum(axis=1)
    g = -(w[:, None, :2] @ terms["dturn"])[:, 0]
    # per edge a = w1 m1 + w2 m2 and w1 m2 - w2 m1 (b without its -w_t t),
    # as (S, edge, a/b, 3), and their projections on kb
    weights = w[:, _AB_WEIGHTS] * _AB_SIGNS
    ab = weights[:, None] @ terms["frames"]
    kb_ab = terms["proj"] @ np.swapaxes(weights, 1, 2)

    u = np.empty((s, _N_TERMS, 2, 4))
    u[:] = _U_CONST
    v = np.empty((s, _N_TERMS, 2, 4))
    v[:] = _V_CONST
    u[:, 0, :, :3] = (2.0 * big_k[:, None] * t_tilde - 0.5 * wt * kb)[:, None] \
        + 2.0 * cross_rows(sides, g[:, None])
    v[:, 0, :, :3] = t_tilde[:, None]
    u[:, 1, 0, :3] = te
    u[:, 1, 1, :3] = -tf
    v[:, 1] = u[:, 1]
    u[:, 2, 0, :3] = kb
    u[:, 3, 1, :3] = kb
    v[:, 2, 0, :3] = ab[:, 0, 1] - wt * te
    v[:, 3, 1, :3] = ab[:, 1, 1] - wt * tf
    u[:, 4:6, :, :3] = kb_ab[:, :, 0, None, None] * t_tilde[:, None, None] \
        - 2.0 * cross_rows(sides[:, None], ab[:, :, 0, None]) / chi[:, None, None, None]
    u[:, 4, 0, 3] = -0.5 * kb_ab[:, 0, 1]
    u[:, 5, 1, 3] = -0.5 * kb_ab[:, 1, 1]
    v[:, 9:12, 1, :3] = cross_rows(_EYE, (2.0 * g + wt * t_tilde)[:, None])
    u[:, 12:] = terms["dstrain"].reshape(s, 3, 2, 4)
    v[:, 12:] = u[:, 12:]

    c = np.empty((s, _N_TERMS))
    c[:] = _C_CONST
    c[:, 1] = 0.5 * big_k / chi
    c[:, 6:9] = -c[:, 1:2]
    c[:, 12:] = 0.5 * terms["moduli"]
    embed = terms["embed"]
    return u.reshape(s, _N_TERMS, 8) @ embed, (v.reshape(s, _N_TERMS, 8) * c[:, :, None]) @ embed


def evaluate_elastics(positions, thetas, prev_d1, prev_tangents, prev_ref_twist,
                      rest: RestConfiguration, stiff: ElasticStiffnesses) -> ElasticEval:
    """Elastic force and energy at a candidate configuration.

    Frames are transported from the committed previous configuration, so the
    result is a pure function of (positions, thetas) given that anchor. The
    per-edge stretch and per-node bend/twist gradients are summed onto the
    (4N-1,) DOF vector with one bincount, stretch entries first. The
    result carries what jacobian_from_eval needs to assemble the Jacobian.
    """
    n = positions.shape[0]
    lengths, tangents, d1, d2, ref_twist, m1, m2 = _adapted_geometry(
        positions, thetas, prev_d1, prev_tangents, prev_ref_twist, rest.min_edge
    )
    idx = _dof_indices(n)
    strain = lengths / rest.edge_lengths - 1.0
    gs = _stretch_gradients(tangents, strain, stiff)
    gbt, energy, terms = _bend_twist_gradients(
        tangents, lengths, m1, m2, thetas, ref_twist, rest, stiff
    )
    grad = np.bincount(idx["grad"], weights=np.concatenate([gs.ravel(), gbt.ravel()]),
                       minlength=4 * n - 1)
    energy += 0.5 * stiff.stretching * (strain * strain * rest.edge_lengths).sum()

    terms.update(idx=idx, n=n)
    return ElasticEval(
        force=-grad,
        energy=energy,
        tangents=tangents,
        d1=d1,
        d2=d2,
        ref_twist=ref_twist,
        edge_lengths=lengths,
        _cache=terms,
    )


def jacobian_from_eval(ev: ElasticEval, rest: RestConfiguration,
                       stiff: ElasticStiffnesses) -> np.ndarray:
    """Elastic force Jacobian from a cached evaluation, in LAPACK band storage.

    The Jacobian (the negated energy Hessian) couples DOFs at most BANDWIDTH
    apart, so it is returned as the (BAND_ROWS, 4N-1) array that gbsv takes
    with kl = ku = BANDWIDTH: a[i, j] sits at [DIAG_ROW + i - j, j], and the
    first BANDWIDTH rows are zero (LU fill-in space). The bend/twist blocks
    are one batched product of rank-one terms (see the module docstring),
    symmetrized and embedded on the 11-DOF stencils; one bincount sums them
    and the stretch blocks into the band.
    """
    c = ev._cache
    d = 4 * c["n"] - 1
    hs = _stretch_hessians(ev.tangents, ev.edge_lengths, rest, stiff)
    u, cv = _rank_one_terms(c)
    hbt = np.swapaxes(u, 1, 2) @ cv
    hbt += np.swapaxes(hbt, 1, 2)
    weights = np.concatenate([hs.ravel(), hbt.ravel()])
    hess = np.bincount(c["idx"]["band"], weights=weights, minlength=BAND_ROWS * d)
    return -hess.reshape(BAND_ROWS, d)


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
