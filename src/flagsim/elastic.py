"""Elastic stretching, bending, and twisting forces of the discrete rod.

Energies follow the standard discrete-rod forms: per-edge stretching,
curvature-binormal bending at internal nodes, and reference-twist-corrected
twisting (Bergou et al., "Discrete elastic rods", SIGGRAPH 2008). Forces
are negative energy gradients on the interleaved DOF vector
[x_0, theta^0, x_1, theta^1, ..., x_{N-1}]; the Jacobian is the negated
energy Hessian. Natural (stress-free) strains are recorded from the
as-built configuration. No step reads the energy itself, so only the
tests write it out (tests/conftest.py, der_energy).

Each bend/twist term touches the 11 consecutive DOFs
[x_{i-1}, theta^{i-1}, x_i, theta^i, x_{i+1}], so the Hessian has
bandwidth 10 (BANDWIDTH). The Jacobian is assembled straight into LAPACK
general band storage, the (3*BANDWIDTH + 1, 4N-1) array that gbtrf takes
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
cancel under the symmetrization and are left out. The rows whose u_k
depend on the stencil (the first six and the strain gradients) are
stacked as u and c_k v_k, (S, 9, 8) arrays, so one batched matmul sums
them for all S stencils at once; the -K/chi identity rows and the skew
rows, whose u_k are constant, are added as 3x3 blocks. Each stencil's
(8, 8) Hessian is then symmetrized, gets its stretch blocks and is
embedded on its 11 DOFs as E^T H E.

Cost split. A time step runs the force kernel about once (1.01 to 1.12
times per step on the benchmark's workloads) and the Jacobian about once
per spectrum refresh. On small rods their cost is per-call array
dispatch, so work is done at the coarsest level it allows:
- once per run: RestConfiguration, including the bend/twist moduli
  (EI, EI, GJ)/l_vor, and the band scatter indices (_band_indices, per
  node count);
- once per step: CommittedFrames, the committed frames the step's
  evaluations transport from, with the cosine and sine of the committed
  reference twist;
- once per evaluation: one set of minimal rotations carries the committed
  edges onto the candidate ones and each edge onto its neighbour (the
  second set also gives chi and kb); the pieces the force and the
  Jacobian share are cached on the ElasticEval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParameters
from .rod import (
    DegenerateEdgeError,
    RodState,
    cross_rows,
    node_dof_indices,
    rotate_directors,
    skew_rows,
    transport_rotations,
    twist_turns,
    update_reference_twist,
)


@dataclass(frozen=True)
class RestConfiguration:
    """Natural strains, stiffnesses and lumped masses frozen at build time."""

    edge_lengths: np.ndarray   # (N-1,)
    voronoi_lengths: np.ndarray  # (N-2,) per internal node
    kappa: np.ndarray          # (N-2, 2) natural curvature
    twist: np.ndarray          # (N-2,) natural twist
    mass: np.ndarray           # (4N-1,) lumped mass per DOF
    min_edge: float            # degenerate-edge guard [m]
    moduli: np.ndarray         # (N-2, 3) (EI, EI, GJ) / l_vor per internal node
    stretching: float          # EA [N]

    @classmethod
    def from_built_state(cls, params: PhysicalParameters, state: RodState) -> "RestConfiguration":
        lengths = np.linalg.norm(state.edges, axis=1)
        voronoi = 0.5 * (lengths[:-1] + lengths[1:])
        tangents = state.tangents
        _, chi, b = transport_rotations(tangents[:-1], tangents[1:])
        material = rotate_directors(np.stack((state.ref_d1, state.ref_d2), axis=1), state.thetas)
        kappa = _stencil_curvature(chi, b, material)[-1]
        twist = state.thetas[1:] - state.thetas[:-1] + state.ref_twist

        r2 = params.rod_radius ** 2
        r4 = params.rod_radius ** 4
        ea = params.youngs_modulus * math.pi * r2
        ei = params.youngs_modulus * math.pi * r4 / 4.0
        gj = params.youngs_modulus / (2.0 * (1.0 + params.poisson_ratio)) * math.pi * r4 / 2.0

        n = params.node_count
        rho_a = params.density * math.pi * r2
        node_mass = np.zeros(n)
        node_mass[:-1] += 0.5 * rho_a * lengths
        node_mass[1:] += 0.5 * rho_a * lengths
        head_mass = params.density * 4.0 / 3.0 * math.pi * params.head_radius ** 3
        node_mass[0] += head_mass
        # The filament base is mounted on the head; the head's rotational
        # inertia about transverse axes acts at the base node one radius away.
        node_mass[1] += 0.4 * head_mass
        edge_inertia = 0.5 * (rho_a * lengths) * r2

        mass = np.empty(4 * n - 1)
        pos_idx, theta_idx = node_dof_indices(n)
        mass[pos_idx] = node_mass[:, None]
        mass[theta_idx] = edge_inertia
        return cls(
            edge_lengths=lengths,
            voronoi_lengths=voronoi,
            kappa=kappa,
            twist=twist,
            mass=mass,
            min_edge=1e-6 * params.edge_length,
            moduli=np.array([ei, ei, gj]) / voronoi[:, None],
            stretching=ea,
        )


@dataclass(frozen=True)
class CommittedFrames:
    """The committed configuration that a step's evaluations transport from.

    Built once per step (CommittedFrames.of); every evaluate_elastics of the
    step's Newton solve reads it and none writes it.
    """

    d1: np.ndarray         # (N-1, 3) reference director 1 per edge
    tangents: np.ndarray   # (N-1, 3) unit tangents
    ref_twist: np.ndarray  # (N-2,) reference twist per internal node
    turns: np.ndarray      # (N-2, 2, 2) twist_turns(ref_twist)

    @classmethod
    def of(cls, d1: np.ndarray, tangents: np.ndarray, ref_twist: np.ndarray) -> "CommittedFrames":
        return cls(d1, tangents, ref_twist, twist_turns(ref_twist))

    @classmethod
    def from_state(cls, state: RodState) -> "CommittedFrames":
        return cls.of(state.ref_d1, state.tangents, state.ref_twist)


@dataclass
class ElasticEval:
    """Elastic forces at a candidate configuration, plus the adapted frames.

    Carries the geometric intermediates so the Jacobian can be computed
    later without re-evaluating the configuration.
    """

    force: np.ndarray        # (4N-1,)
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


# The stencil 8-vectors [x, a, y, b] are built as (2, 4) arrays, one row
# per side: e = [x, a], f = [y, b].
_HALF_SIGNS = np.array([0.5, -0.5])
_SIGNS = np.array([1.0, -1.0])
_TWIST_THETA = np.array([-1.0, 1.0])  # dtau/dtheta_e, dtau/dtheta_f
# (w1, w2, w_t) -> [[w1, w2], [-w2, w1]], the weights of a and b on (m1, m2)
_AB_WEIGHTS = np.array([[0, 1], [1, 0]])
_AB_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0]])
_EYE = np.eye(3)
# Embedding of an 8-vector whose x is already divided by l_e and y by l_f
# on the 11 stencil DOFs: (-x, a, x - y, b, y).
_EMBED = np.zeros((8, 11))
_EMBED[[0, 1, 2, 0, 1, 2, 3], [0, 1, 2, 4, 5, 6, 3]] = [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
_EMBED[[4, 5, 6, 4, 5, 6, 7], [4, 5, 6, 8, 9, 10, 7]] = [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
# sum_j [e_j, 0, e_j, 0] [e_j, 0, e_j, 0]^T: identity blocks on the x and y sides.
_SIDE_IDENTITY = np.zeros((8, 8))
for _i, _j in ((0, 0), (0, 4), (4, 0), (4, 4)):
    _SIDE_IDENTITY[_i:_i + 3, _j:_j + 3] = _EYE

# Rank-one terms that go through the batched product, with the sym()
# halving folded into c v: the rows 0..5 of the module docstring's table,
# then the strain gradients. The constant-u rows (identity and skew) are
# added as blocks. Row 8's theta entries (dtau/dtheta) and the unit theta
# columns of rows 4 and 5 are constant.
_N_PRODUCT = 9
_TERMS_TEMPLATE = np.zeros((2, 1, _N_PRODUCT, 2, 4))  # [u, c v]
_TERMS_TEMPLATE[0, 0, 8, :, 3] = _TWIST_THETA
_TERMS_TEMPLATE[1, 0, 4, 0, 3] = 0.5
_TERMS_TEMPLATE[1, 0, 5, 1, 3] = 0.5


def _stencil_curvature(chi, b, material):
    """Curvature binormals and curvatures of the stencils, with the pieces the derivatives reuse.

    chi = 1 + t_e.t_f (S,) and b = t_e x t_f (S, 3) are the transport of
    edge e onto edge f; material holds the directors (m1, m2) per edge,
    (N-1, 2, 3). Returns kb (S, 3), the stencils' directors (S, 2, 2, 3)
    indexed [node, edge e/f, m1/m2], their projections kb.m (S, 2, 2) and
    kappa (S, 2).
    """
    kb = 2.0 * b / chi[:, None]
    frames = np.concatenate((material[:-1], material[1:]), axis=1).reshape(-1, 2, 2, 3)
    proj = (frames.reshape(-1, 4, 3) @ kb[:, :, None]).reshape(-1, 2, 2)
    # (k1, k2) = (kb.(m2_e + m2_f), -kb.(m1_e + m1_f)) / 2
    kappa = (proj[:, 0] + proj[:, 1])[:, ::-1] * _HALF_SIGNS
    return kb, frames, proj, kappa


def evaluate_elastics(positions, thetas, committed: CommittedFrames,
                      rest: RestConfiguration) -> ElasticEval:
    """Elastic force at a candidate configuration.

    Frames are transported from the committed configuration, so the result
    is a pure function of (positions, thetas) given that anchor. One set of
    minimal rotations carries the committed edges onto the candidate ones
    and each candidate edge e onto its neighbour f; the second set also
    gives the curvature binormals. The stretch and bend/twist gradients
    are gathered per edge and differenced onto the nodes. The result
    carries what jacobian_from_eval needs to assemble the Jacobian.
    """
    n = positions.shape[0]
    m = n - 1
    edges = positions[1:] - positions[:-1]
    lengths = np.sqrt((edges * edges).sum(axis=1))
    _check_edges(lengths, rest.min_edge)
    tangents = edges / lengths[:, None]
    # rotations[:m] carry the committed edges onto the candidate ones,
    # rotations[m:] each candidate edge e onto its neighbour f
    rotations, rot_chi, rot_b = transport_rotations(
        np.concatenate((committed.tangents, tangents[:-1])), np.concatenate((tangents, tangents[1:])))
    d1 = (rotations[:m] @ committed.d1[:, :, None])[:, :, 0]
    d1 -= (d1 * tangents).sum(axis=1)[:, None] * tangents
    d1 /= np.sqrt((d1 * d1).sum(axis=1))[:, None]
    d2 = cross_rows(tangents, d1)
    ref_frames = np.concatenate((d1, d2), axis=1).reshape(m, 2, 3)
    ref_twist = update_reference_twist(d1[:-1], rotations[m:], ref_frames[1:],
                                       committed.turns, committed.ref_twist)
    chi = rot_chi[m:]
    kb, frames, proj, kappa = _stencil_curvature(chi, rot_b[m:], rotate_directors(ref_frames, thetas))

    s = m - 1
    strain = np.empty((s, 3))
    np.subtract(kappa, rest.kappa, out=strain[:, :2])
    strain[:, 2] = thetas[1:] - thetas[:-1] + ref_twist - rest.twist
    w = rest.moduli * strain
    wt = w[:, 2:]

    # The bend/twist energy gradient as 8-vectors (module docstring): with
    # K = w1 k1 + w2 k2 and g = w2 d~1 - w1 d~2, the x and y parts are
    # -K t~ + w_t kb/2 - (t_f, -t_e) x g and the theta parts
    # -(w1 kb.m1 + w2 kb.m2)/2 -+ w_t.
    te, tf = tangents[:-1], tangents[1:]
    t_tilde = (te + tf) / chi[:, None]
    big_k = (w[:, :2] * kappa).sum(axis=1)
    turned = (frames[:, 0] + frames[:, 1])[:, ::-1] * (_SIGNS / chi[:, None])[:, :, None]
    g = -(w[:, None, :2] @ turned)[:, 0]
    sides = np.concatenate((tf, -te), axis=1).reshape(s, 2, 3)
    half_wt_kb = 0.5 * wt * kb
    grad_x = (half_wt_kb - big_k[:, None] * t_tilde)[:, None] - sides @ skew_rows(g)
    kb_a = proj @ w[:, :2, None]  # (S, 2, 1): kb.a per edge, a = w1 m1 + w2 m2
    grad_theta = -0.5 * kb_a[:, :, 0] + wt * _TWIST_THETA

    # Per edge j, the x part of stencil j and the y part of stencil j - 1,
    # both over l_j, plus the stretch gradient EA (l/l0 - 1) t; node i then
    # gets edge i-1's minus edge i's. Edge j's twist angle gets the a part
    # of stencil j and the b part of stencil j - 1. The force is minus the
    # gradient.
    tension = rest.stretching * (lengths / rest.edge_lengths - 1.0)
    per_edge = np.zeros((n + 1, 3))
    per_edge[1:-2] = grad_x[:, 0]
    per_edge[2:-1] += grad_x[:, 1]
    per_edge[1:-1] /= lengths[:, None]
    per_edge[1:-1] += tension[:, None] * tangents
    force = np.empty(4 * n)
    by_node = force.reshape(n, 4)
    np.subtract(per_edge[1:], per_edge[:-1], out=by_node[:, :3])
    theta_force = by_node[:-1, 3]
    np.negative(grad_theta[:, 0], out=theta_force[:-1])
    theta_force[-1] = 0.0
    theta_force[1:] -= grad_theta[:, 1]

    cache = dict(te=te, tf=tf, chi=chi, kb=kb, frames=frames, proj=proj, kappa=kappa,
                 t_tilde=t_tilde, turned=turned, sides=sides, g=g, w=w, big_k=big_k, kb_a=kb_a,
                 half_wt_kb=half_wt_kb, grad_x=grad_x, tension=tension, n=n)
    return ElasticEval(
        force=force[:-1],
        tangents=tangents,
        d1=d1,
        d2=d2,
        ref_twist=ref_twist,
        edge_lengths=lengths,
        _cache=cache,
    )


def _bend_twist_hessians(c, moduli):
    """The bend/twist energy Hessians of the stencils on their 8-vectors, (S, 8, 8).

    Rows 0..5 of the module docstring's table and the three strain
    gradients are stacked as u and c v (S, 9, 8) for one batched product;
    the identity and skew rows are added as blocks, and the sum is
    symmetrized.
    """
    te, chi, kb, t_tilde, sides, w = (c[k] for k in ("te", "chi", "kb", "t_tilde", "sides", "w"))
    s = chi.shape[0]
    wt = w[:, 2:]
    weights = w[:, _AB_WEIGHTS] * _AB_SIGNS
    # per edge a = w1 m1 + w2 m2 and w1 m2 - w2 m1 (b without its -w_t t),
    # as (S, edge, a/b, 3), and kb.b per edge (kb is normal to t_e, t_f)
    ab = weights[:, None] @ c["frames"]
    kb_b = (c["proj"] @ weights[:, 1, :, None])[:, :, 0]

    terms = np.empty((2, s, _N_PRODUCT, 2, 4))
    terms[:] = _TERMS_TEMPLATE
    u, cv = terms
    rows = u.reshape(s, 2 * _N_PRODUCT, 4)  # [term, side] flattened: rows[:, 2k + side]
    np.subtract(c["half_wt_kb"][:, None], 2.0 * c["grad_x"], out=u[:, 0, :, :3])
    np.multiply(t_tilde[:, None], 0.5, out=cv[:, 0, :, :3])
    np.negative(sides[:, ::-1], out=u[:, 1, :, :3])  # [t_e, -t_f]
    k_chi = 0.5 * c["big_k"] / chi
    np.multiply(u[:, 1], k_chi[:, None, None], out=cv[:, 1])
    rows[:, 4:8:3, :3] = kb[:, None]  # terms 2 and 3: kb on side e, kb on side f
    edge_tangents = np.concatenate((te, c["tf"]), axis=1).reshape(s, 2, 3)
    cv.reshape(s, 2 * _N_PRODUCT, 4)[:, 4:8:3, :3] = \
        0.25 * (ab[:, :, 1] - wt[:, :, None] * edge_tangents)
    # (t_f, -t_e) x a_e and x a_f, each times -2/chi: sides @ [a]x is sides x a
    np.add(c["kb_a"][:, :, :, None] * t_tilde[:, None, None],
           sides[:, None] @ skew_rows(ab[:, :, 0] * (-2.0 / chi)[:, None, None]),
           out=u[:, 4:6, :, :3])
    rows[:, 8:12:3, 3] = -0.5 * kb_b
    # strain gradients: grad k1, grad k2 and grad tau
    np.subtract(sides[:, None] @ skew_rows(c["turned"]),
                c["kappa"][:, :, None, None] * t_tilde[:, None, None], out=u[:, 6:8, :, :3])
    np.multiply(np.swapaxes(c["proj"], 1, 2), -0.5, out=u[:, 6:8, :, 3])
    u[:, 8, :, :3] = (0.5 * kb)[:, None]
    np.multiply(u[:, 6:], 0.5 * moduli[:, :, None, None], out=cv[:, 6:])

    h = np.swapaxes(u.reshape(s, _N_PRODUCT, 8), 1, 2) @ cv.reshape(s, _N_PRODUCT, 8)
    h -= k_chi[:, None, None] * _SIDE_IDENTITY
    h[:, :3, 4:7] += skew_rows(c["g"] + 0.5 * wt * t_tilde)
    h += np.swapaxes(h, 1, 2)
    return h


def jacobian_from_eval(ev: ElasticEval, rest: RestConfiguration) -> np.ndarray:
    """Elastic force Jacobian from a cached evaluation, in LAPACK band storage.

    The Jacobian (the negated energy Hessian) couples DOFs at most BANDWIDTH
    apart, so it is returned as the (BAND_ROWS, 4N-1) array that gbtrf takes
    with kl = ku = BANDWIDTH: a[i, j] sits at [DIAG_ROW + i - j, j], and the
    first BANDWIDTH rows are zero (LU fill-in space). Each stencil's
    bend/twist Hessian (see the module docstring) gets the stretch block of
    edge e on its x side (the last stencil also that of edge f on its y
    side), scaled by l^2 so that the embedding on the 11-DOF stencil, which
    divides x by l_e and y by l_f, leaves it as the edge's block; one
    bincount sums the stencils into the band.
    """
    c = ev._cache
    n = c["n"]
    d = 4 * n - 1
    lengths = ev.edge_lengths
    h = _bend_twist_hessians(c, rest.moduli)
    # stretch blocks EA [(1/l0 - 1/l) I + t t^T / l], times l^2
    t = ev.tangents
    blocks = (rest.stretching * lengths)[:, None, None] * (t[:, :, None] * t[:, None, :])
    blocks += (c["tension"] * lengths)[:, None, None] * _EYE
    h[:, :3, :3] += blocks[:-1]
    h[-1, 4:7, 4:7] += blocks[-1]
    inv_l = 1.0 / lengths
    scale = np.ones((n - 2, 2, 4))
    scale[:, 0, :3] = inv_l[:-1, None]
    scale[:, 1, :3] = inv_l[1:, None]
    embed = scale.reshape(-1, 8, 1) * _EMBED
    hess = np.swapaxes(embed, 1, 2) @ h @ embed
    band = np.bincount(_band_indices(n), weights=hess.ravel(), minlength=BAND_ROWS * d)
    return -band.reshape(BAND_ROWS, d)


BANDWIDTH = 10  # the 11-DOF bend/twist stencil couples DOFs at most 10 apart
BAND_ROWS = 3 * BANDWIDTH + 1  # gbtrf storage: kl = ku = BANDWIDTH plus kl LU fill rows
DIAG_ROW = 2 * BANDWIDTH  # band row of the main diagonal


@functools.cache
def _band_indices(n: int) -> np.ndarray:
    """Scatter indices of the stencils' (11, 11) blocks into the raveled band storage.

    a[i, j] -> ab[DIAG_ROW + i - j, j] in the (BAND_ROWS, 4N-1) array.
    """
    d = 4 * n - 1
    stencil = 4 * np.arange(n - 2)[:, None] + np.arange(11)
    rows, cols = stencil[:, :, None], stencil[:, None, :]
    return ((DIAG_ROW + rows - cols) * d + cols).ravel()
