"""Discrete rod geometry: initial helix, adapted frames, DOF packing.

Node 0 is the head center. Node 1 sits on the motor axis through the head
at distance b (one head radius) so the first edge e^0 is parallel to the
helix axis; nodes 1..N-1 sample the helical filament with every contour
edge exactly 2*delta long. The DOF vector interleaves positions and twist
angles: q = [x_0, theta^0, x_1, theta^1, ..., x_{N-2}, theta^{N-2}, x_{N-1}].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParameters


class RodBuildError(ValueError):
    """Raised for parameter sets with an inconsistent helix discretization."""


class DegenerateEdgeError(ValueError):
    """An edge collapsed below the minimum resolvable length."""


@dataclass
class RodState:
    """Full configuration of the discretized robot at one instant.

    The reference directors are the frames of the last evaluated
    configuration. A time step commits its last Newton iterate plus one
    more correction (stepper.step), so they are normal to the tangents of
    that iterate and off the committed tangents by that correction's
    rotation: |ref_d1 . t| reaches about 1e-5 over a 15 rpm pulse of the
    truncated N=16 rod. The next step's transport projects them onto its
    candidate tangents again, so the gap does not build up.
    """

    positions: np.ndarray           # (N, 3)
    thetas: np.ndarray              # (N-1,) twist angle per edge
    velocities: np.ndarray          # (4N-1,) dq/dt, interleaved like q
    ref_d1: np.ndarray              # (N-1, 3) reference director 1 per edge
    ref_d2: np.ndarray              # (N-1, 3)
    ref_twist: np.ndarray           # (N-2,) accumulated reference twist per internal node

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]

    @property
    def edges(self) -> np.ndarray:
        return self.positions[1:] - self.positions[:-1]

    @property
    def tangents(self) -> np.ndarray:
        e = self.edges
        lengths = np.sqrt((e * e).sum(axis=1))
        if (lengths == 0.0).any():
            raise DegenerateEdgeError("zero-length edge has no tangent")
        return e / lengths[:, None]

    def dof_vector(self) -> np.ndarray:
        return pack_dofs(self.positions, self.thetas)

    def copy(self) -> "RodState":
        return RodState(
            positions=self.positions.copy(),
            thetas=self.thetas.copy(),
            velocities=self.velocities.copy(),
            ref_d1=self.ref_d1.copy(),
            ref_d2=self.ref_d2.copy(),
            ref_twist=self.ref_twist.copy(),
        )


@functools.cache
def node_dof_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(position indices (N,3), twist indices (N-1,)) into the DOF vector."""
    return 4 * np.arange(n)[:, None] + np.arange(3), 4 * np.arange(n - 1) + 3


def pack_dofs(positions: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Interleave (N,3) positions and (N-1,) twist angles into a 4N-1 vector."""
    n = positions.shape[0]
    pos_idx, theta_idx = node_dof_indices(n)
    q = np.empty(4 * n - 1)
    q[pos_idx] = positions
    q[theta_idx] = thetas
    return q


def unpack_dofs(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pack_dofs."""
    n = (q.shape[0] + 1) // 4
    pos_idx, theta_idx = node_dof_indices(n)
    return q[pos_idx], q[theta_idx]


# Levi-Civita symbol as a (9, 3) matrix: (a x b)_i = sum_jk eps[3j + k, i] a_j b_k.
_LEVI_CIVITA = np.zeros((9, 3))
_LEVI_CIVITA[[5, 6, 1, 7, 2, 3], [0, 1, 2, 0, 1, 2]] = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
# The same symbol as a (3, 9) matrix: a @ _SKEW is [a]x, raveled, where [a]x b = a x b.
_SKEW = _LEVI_CIVITA.reshape(3, 3, 3).transpose(0, 2, 1).reshape(3, 9)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcasting; cheaper than np.cross on small arrays.

    One outer product and one 2-D matmul; every output entry is a_j b_k - a_k b_j,
    rounded exactly as written out by hand.
    """
    outer = a[..., :, None] * b[..., None, :]
    return (outer.reshape(-1, 9) @ _LEVI_CIVITA).reshape(outer.shape[:-1])


def skew_rows(a: np.ndarray) -> np.ndarray:
    """The cross-product matrices [a]x of (..., 3) vectors a, as (..., 3, 3): [a]x b = a x b.

    Every entry is 0 or +-a_j, exactly.
    """
    return (a.reshape(-1, 3) @ _SKEW).reshape(a.shape + (3,))


# (a b^T raveled) @ _DOT_CROSS = [a . b, a x b]
_DOT_CROSS = np.concatenate((np.eye(3).reshape(9, 1), _LEVI_CIVITA), axis=1)
# [c, b, (b b^T / chi) raveled] @ _RODRIGUES = c I + [b]x + b b^T / chi, raveled
_RODRIGUES = np.zeros((13, 9))
_RODRIGUES[0, ::4] = 1.0
_RODRIGUES[1:4] = _SKEW
_RODRIGUES[4:] = np.eye(9)

# Below this, 1 + t_from . t_to is lost to rounding (its absolute error is
# about 1e-16) and the minimal rotation between the tangents is undefined.
ANTIPARALLEL_TOL = 1e-10


def transport_rotations(t_from: np.ndarray, t_to: np.ndarray) -> tuple[np.ndarray, ...]:
    """The minimal rotations taking each unit t_from onto unit t_to.

    Arguments are (..., 3). With c = t_from . t_to, chi = 1 + c and
    b = t_from x t_to, the rotation is Rodrigues' c I + [b]x + b b^T / chi,
    so parallel tangents give the identity. Antiparallel tangents (an edge
    reversed in one step, or folded back onto its neighbour) have no
    minimal rotation: DegenerateEdgeError when chi <= ANTIPARALLEL_TOL.

    Returns (rotations (..., 3, 3), chi, b).
    """
    shape = t_from.shape[:-1]
    c_b = (t_from[..., :, None] * t_to[..., None, :]).reshape(-1, 9) @ _DOT_CROSS
    chi = 1.0 + c_b[:, 0]
    # NaN fails the comparison too
    if not chi.min() > ANTIPARALLEL_TOL:
        raise DegenerateEdgeError(
            f"antiparallel tangents have no parallel transport (1 + t0.t1 = {np.min(chi):.3e})"
        )
    b = c_b[:, 1:]
    bb = (b[:, :, None] * (b / chi[:, None])[:, None, :]).reshape(-1, 9)
    rotations = np.concatenate((c_b, bb), axis=1) @ _RODRIGUES
    return rotations.reshape(shape + (3, 3)), chi.reshape(shape), b.reshape(shape + (3,))


def parallel_transport(vectors: np.ndarray, t_from: np.ndarray, t_to: np.ndarray) -> np.ndarray:
    """Minimal rotation taking each unit t_from onto unit t_to, applied to vectors.

    Arguments are (..., 3). DegenerateEdgeError for antiparallel tangents
    (see transport_rotations).
    """
    return (transport_rotations(t_from, t_to)[0] @ vectors[..., None])[..., 0]


_QUARTER_TURN = np.array([[1.0], [-1.0]])  # (d1, d2)[::-1] * _QUARTER_TURN = (d2, -d1)


def rotate_directors(frames: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Rotate (..., 2, 3) director pairs (d1, d2) by the angles thetas about their tangents.

    Returns the material pairs (m1, m2) = (c d1 + s d2, c d2 - s d1).
    """
    c = np.cos(thetas)[..., None, None]
    s = np.sin(thetas)[..., None, None]
    return c * frames + s * (frames[..., ::-1, :] * _QUARTER_TURN)


def twist_turns(ref_twist: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrices that update_reference_twist applies for a stored twist.

    They depend only on the committed twist, so a step builds them once for
    all of its evaluations.
    """
    c = np.cos(ref_twist)
    s = np.sin(ref_twist)
    turns = np.empty(ref_twist.shape + (2, 2))
    turns[..., 0, 0] = turns[..., 1, 1] = -s
    turns[..., 0, 1] = -c
    turns[..., 1, 0] = c
    return turns


def update_reference_twist(d1: np.ndarray, rotations: np.ndarray, frames: np.ndarray,
                           turns: np.ndarray, ref_twist_old: np.ndarray) -> np.ndarray:
    """Track the twist of the reference frame along the centerline.

    For each internal node, rotations (S, 3, 3) carries d1 (S, 3) of the
    previous edge onto the next edge's tangent t, whose reference directors
    (d1, d2) are frames (S, 2, 3); turns = twist_turns(ref_twist_old). The
    projections of the carried director on (d1, d2) are the cosine and minus
    the sine of the angle from it to d1 about t; turns rotates that angle by
    the stored twist, and one arctan2 adds the result to the stored twist.
    """
    yx = turns @ (frames @ (rotations @ d1[..., None]))
    return ref_twist_old + np.arctan2(yx[..., 0, 0], yx[..., 1, 0])


RAMP_PHASE = math.pi  # radial ramp from the axis onto the helix, in phase angle


def _helix_point(params: PhysicalParameters, phi: float) -> np.ndarray:
    """Filament centerline point at phase phi, relative to the filament base.

    The cylinder axis is +x through the base; the radius ramps smoothly from
    zero (the motor axis) to the helix radius over RAMP_PHASE, then stays
    constant; the pitch is uniform throughout. The wind is right-handed.
    """
    rise = params.pitch / (2.0 * math.pi)
    s = min(phi / RAMP_PHASE, 1.0)
    radius = params.helix_radius * s * s * (3.0 - 2.0 * s)
    return np.array([
        rise * phi,
        -radius * math.cos(phi),
        -radius * math.sin(phi),
    ])


def _next_phase(params: PhysicalParameters, phi: float) -> float:
    """Phase advance placing the next node one edge length (2*delta) away."""
    target = params.edge_length
    base = _helix_point(params, phi)

    def chord(dphi: float) -> float:
        p = _helix_point(params, phi + dphi)
        return float(np.linalg.norm(p - base))

    hi = math.pi
    if chord(hi) < target:
        raise RodBuildError("edge length exceeds the largest realizable helix chord")
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is two adjacent floats: halving moves it no more
        if chord(mid) < target:
            lo = mid
        else:
            hi = mid
    return phi + 0.5 * (lo + hi)


def build_initial_configuration(params: PhysicalParameters) -> RodState:
    """Construct the stress-free initial state: head, shaft edge, filament.

    The helix axis is +x through the head center. Node 1 (the filament base)
    sits one head radius from the head center along the axis; subsequent
    nodes follow the ramped helix of _helix_point with every edge exactly
    one edge length (2*delta) long, found by bisection on the phase. Twist
    angles start at zero and the frames are space-parallel-transported, so
    the as-built state carries no elastic strain. Deterministic: identical
    params give bit-identical states. RodBuildError when the N-2 contour
    edges are longer than the helix contour that (L, lambda, R) allows.
    """
    n = params.node_count
    arc = (n - 2) * params.edge_length
    if arc > params.helix_contour_length + params.edge_length:
        raise RodBuildError(
            f"(N-2) edges of 2*delta span {arc:.6g} m but the helix contour from "
            f"(L, lambda, R) is only {params.helix_contour_length:.6g} m"
        )

    positions = np.zeros((n, 3))
    base = np.array([params.head_radius, 0.0, 0.0])
    positions[1] = base
    phi = 0.0
    for j in range(2, n):
        phi = _next_phase(params, phi)
        positions[j] = base + _helix_point(params, phi)

    edges = positions[1:] - positions[:-1]
    tangents = edges / np.linalg.norm(edges, axis=1)[:, None]

    # First-edge director: deterministic unit vector orthogonal to t^0 = +x.
    d1 = np.empty((n - 1, 3))
    d1[0] = (0.0, 1.0, 0.0)
    for j in range(1, n - 1):
        v = parallel_transport(d1[j - 1][None, :], tangents[j - 1][None, :], tangents[j][None, :])[0]
        v -= np.dot(v, tangents[j]) * tangents[j]
        d1[j] = v / np.linalg.norm(v)
    d2 = np.cross(tangents, d1)

    return RodState(
        positions=positions,
        thetas=np.zeros(n - 1),
        velocities=np.zeros(4 * n - 1),
        ref_d1=d1,
        ref_d2=d2,
        ref_twist=np.zeros(n - 2),
    )
