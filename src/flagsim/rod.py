"""Discrete rod geometry: initial helix, adapted frames, DOF packing.

Node 0 is the head center. Node 1 sits on the motor axis through the head
at distance b (one head radius) so the first edge e^0 is parallel to the
helix axis; nodes 1..N-1 sample the helical filament with every contour
edge exactly 2*delta long. The DOF vector interleaves positions and twist
angles: q = [x_0, theta^0, x_1, theta^1, ..., x_{N-2}, theta^{N-2}, x_{N-1}].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import PhysicalParameters


class RodBuildError(ValueError):
    """Raised for parameter sets with an inconsistent helix discretization."""


class DegenerateEdgeError(ValueError):
    """An edge collapsed below the minimum resolvable length."""


@dataclass(frozen=True)
class HelixSpec:
    """Discretization of the helical filament."""

    handedness: str            # "right" or "left"
    n_helix_nodes: int         # nodes on the helix (x_1 .. x_{N-1})
    contour_edge_length: float  # chord length between helix nodes, == 2*delta

    def __post_init__(self):
        if self.handedness not in ("right", "left"):
            raise ValueError(f"handedness must be 'right' or 'left', got {self.handedness!r}")
        if self.n_helix_nodes < 2:
            raise ValueError("need at least two helix nodes")
        if not self.contour_edge_length > 0.0:
            raise ValueError("contour_edge_length must be positive")


@dataclass
class RodState:
    """Full configuration of the discretized robot at one instant."""

    positions: np.ndarray           # (N, 3)
    thetas: np.ndarray              # (N-1,) twist angle per edge
    velocities: np.ndarray          # (4N-1,) dq/dt, interleaved like q
    ref_d1: np.ndarray              # (N-1, 3) reference director 1 per edge
    ref_d2: np.ndarray              # (N-1, 3)
    ref_twist: np.ndarray           # (N-2,) accumulated reference twist per internal node
    head_velocity: np.ndarray       # (3,)
    head_angular_velocity: np.ndarray  # (3,)
    time: float = 0.0

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]

    @property
    def edges(self) -> np.ndarray:
        return self.positions[1:] - self.positions[:-1]

    @property
    def tangents(self) -> np.ndarray:
        e = self.edges
        lengths = np.linalg.norm(e, axis=1)
        if np.any(lengths == 0.0):
            raise DegenerateEdgeError("zero-length edge has no tangent")
        return e / lengths[:, None]

    def dof_vector(self) -> np.ndarray:
        return pack_dofs(self.positions, self.thetas)

    def material_frames(self) -> tuple[np.ndarray, np.ndarray]:
        return material_frames(self.ref_d1, self.ref_d2, self.thetas)

    def copy(self) -> "RodState":
        return RodState(
            positions=self.positions.copy(),
            thetas=self.thetas.copy(),
            velocities=self.velocities.copy(),
            ref_d1=self.ref_d1.copy(),
            ref_d2=self.ref_d2.copy(),
            ref_twist=self.ref_twist.copy(),
            head_velocity=self.head_velocity.copy(),
            head_angular_velocity=self.head_angular_velocity.copy(),
            time=self.time,
        )


_NODE_INDEX_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def node_dof_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(position indices (N,3), twist indices (N-1,)) into the DOF vector."""
    cached = _NODE_INDEX_CACHE.get(n)
    if cached is None:
        pos_idx = 4 * np.arange(n)[:, None] + np.arange(3)
        theta_idx = 4 * np.arange(n - 1) + 3
        cached = (pos_idx, theta_idx)
        _NODE_INDEX_CACHE[n] = cached
    return cached


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


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product; avoids np.cross call overhead on small arrays."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def parallel_transport(vectors: np.ndarray, t_from: np.ndarray, t_to: np.ndarray) -> np.ndarray:
    """Minimal rotation taking each t_from onto t_to, applied to vectors.

    All arguments are (M, 3); degenerate pairs (parallel tangents) leave the
    vector unchanged.
    """
    vectors = np.atleast_2d(vectors)
    t_from = np.atleast_2d(t_from)
    t_to = np.atleast_2d(t_to)
    axis = cross_rows(t_from, t_to)
    axis_norm = np.sqrt(np.sum(axis * axis, axis=1))
    out = vectors.copy()
    ok = axis_norm > 1e-14
    if np.any(ok):
        b = axis[ok] / axis_norm[ok][:, None]
        tf = t_from[ok]
        tt = t_to[ok]
        n0 = cross_rows(tf, b)
        n1 = cross_rows(tt, b)
        v = vectors[ok]
        out[ok] = (
            np.sum(v * tf, axis=1)[:, None] * tt
            + np.sum(v * n0, axis=1)[:, None] * n1
            + np.sum(v * b, axis=1)[:, None] * b
        )
    return out


def transport_frames(
    ref_d1: np.ndarray, ref_d2: np.ndarray, old_tangents: np.ndarray, new_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-parallel transport of the reference frames onto new edge tangents.

    Returns (d1, d2, tangents) adapted to the edges of new_positions.
    Degenerate (zero-length) edges are rejected.
    """
    edges = new_positions[1:] - new_positions[:-1]
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise ValueError("degenerate edge encountered during frame transport")
    tangents = edges / lengths[:, None]
    d1 = parallel_transport(ref_d1, old_tangents, tangents)
    # Re-orthonormalize against drift; cheap and keeps triads adapted to 1e-12.
    d1 -= np.sum(d1 * tangents, axis=1)[:, None] * tangents
    d1 /= np.linalg.norm(d1, axis=1)[:, None]
    d2 = np.cross(tangents, d1)
    return d1, d2, tangents


def material_frames(
    ref_d1: np.ndarray, ref_d2: np.ndarray, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate reference directors by the twist angles about the tangents."""
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    m1 = c * ref_d1 + s * ref_d2
    m2 = -s * ref_d1 + c * ref_d2
    return m1, m2


def update_reference_twist(
    ref_d1: np.ndarray, tangents: np.ndarray, ref_twist_old: np.ndarray
) -> np.ndarray:
    """Track the twist of the reference frame along the centerline.

    For each internal node, transports d1 of the previous edge onto the next
    edge's tangent, rotates by the stored twist, and accumulates the signed
    residual angle to d1 of the next edge.
    """
    u_prev = ref_d1[:-1]
    u_next = ref_d1[1:]
    t_prev = tangents[:-1]
    t_next = tangents[1:]
    ut = parallel_transport(u_prev, t_prev, t_next)
    c = np.cos(ref_twist_old)[:, None]
    s = np.sin(ref_twist_old)[:, None]
    ut = c * ut + s * cross_rows(t_next, ut)
    angle = signed_angle(ut, u_next, t_next)
    return ref_twist_old + angle


def signed_angle(u: np.ndarray, v: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Signed angle from u to v about axis, numerically stable near 0 and pi."""
    w = cross_rows(u, v)
    angle = 2.0 * np.arctan2(
        np.linalg.norm(u - v, axis=-1), np.linalg.norm(u + v, axis=-1)
    )
    sign = np.where(np.sum(axis * w, axis=-1) < 0.0, -1.0, 1.0)
    return sign * angle


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
        if chord(mid) < target:
            lo = mid
        else:
            hi = mid
    return phi + 0.5 * (lo + hi)


def helix_spec(params: PhysicalParameters) -> HelixSpec:
    """Discretization implied by the parameter set, with a consistency check."""
    n_helix = params.node_count - 1
    arc = (params.node_count - 2) * params.edge_length
    if arc > params.helix_contour_length + params.edge_length:
        raise RodBuildError(
            f"(N-2) edges of 2*delta span {arc:.6g} m but the helix contour from "
            f"(L, lambda, R) is only {params.helix_contour_length:.6g} m"
        )
    return HelixSpec(
        handedness="right",
        n_helix_nodes=n_helix,
        contour_edge_length=params.edge_length,
    )


def build_initial_configuration(params: PhysicalParameters) -> RodState:
    """Construct the stress-free initial state: head, shaft edge, filament.

    The helix axis is +x through the head center. Node 1 (the filament base)
    sits one head radius from the head center along the axis; subsequent
    nodes follow the ramped helix of _helix_point with every edge exactly
    one edge length (2*delta) long, found by bisection on the phase. Twist
    angles start at zero and the frames are space-parallel-transported, so
    the as-built state carries no elastic strain. Deterministic: identical
    params give bit-identical states.
    """
    helix_spec(params)
    n = params.node_count

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
        head_velocity=np.zeros(3),
        head_angular_velocity=np.zeros(3),
        time=0.0,
    )
