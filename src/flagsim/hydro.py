"""Hydrodynamic force model: slender-body flow on the filament, sphere flows.

The filament couples node velocities and forces through a dense mobility
operator built from a local cutoff term acting on the force component
perpendicular to the node tangent, plus pairwise Oseen-tensor interactions.
The head contributes a translating/rotating-sphere flow along the filament,
a force and torque induced by the filament forces, and Stokes drag; its spin
rate closes the problem through whole-robot torque balance. Each formula has
one copy: solve_forces_and_head_spin carries the sphere flows and the torque
balance inline, and head_force gives the head's force from the solved forces.

A mobility refresh uses one (3n, 3n) buffer: assemble_mobility writes the
operator into it, and clamped_spectrum lets LAPACK overwrite it with the
eigenvectors. solve_forces_and_head_spin then applies that spectrum to all
its right-hand sides at once, reading the eigenvectors twice per call.

Cost split: the spectrum is built once per MOBILITY_REFRESH seconds of
simulated time (see stepper); solve_forces_and_head_spin runs once per
step and builds the cross-product matrices [r]x of the head offsets once,
for both the spin-flow columns and the torque map; head_force, called on
the solve's forces, takes the distances by direct products without
checking them again. The gesv handle of the 3x3 torque balance is looked
up once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .rod import skew_rows

_DGESV = get_lapack_funcs(("gesv",), (np.zeros((1, 1)),))[0]
_EYE3 = np.eye(3)


class HydroSolveError(RuntimeError):
    """Mobility operator is undefined at this configuration.

    Raised by assemble_mobility when two flagellar nodes sit closer than
    the cutoff delta: the slender-body model needs every Stokeslet pair at
    least delta apart, and the Oseen blocks of a near-coincident pair scale
    together, so no condition check sees it. clamped_spectrum and
    solve_forces_and_head_spin raise it when their LAPACK call (dsyevd,
    gesv) fails. stepper.Integrator reports it as SimulationError without a
    substep retry, since a smaller step does not move the nodes apart.
    """


@dataclass
class MobilityOperator:
    matrix: np.ndarray  # (3n, 3n) maps stacked node forces f to -u_f
    cutoff: float       # delta [m]


def node_tangents(edge_tangents: np.ndarray) -> np.ndarray:
    """Unit tangent per flagellar node (nodes 1..N-1).

    Interior nodes average their two adjacent edge tangents; the last node
    uses its single edge. Node 1 averages the shaft edge and the first
    contour edge.
    """
    m = edge_tangents.shape[0]  # N-1 edges -> N-1 flagellar nodes
    t = np.empty((m, 3))
    t[:-1] = edge_tangents[:-1] + edge_tangents[1:]
    t[-1] = edge_tangents[-1]
    t /= np.linalg.norm(t, axis=1)[:, None]
    return t


def assemble_mobility(positions: np.ndarray, tangents: np.ndarray,
                      viscosity: float, cutoff: float) -> MobilityOperator:
    """Dense mobility operator over the flagellar nodes.

    positions: (n, 3) flagellar node positions; tangents: (n, 3) node tangents.
    Diagonal blocks are the perpendicular projector over 8*pi*mu*delta; the
    (j, k) block is [I + rhat rhat]/(8 pi mu |r_jk|) with r_jk from node k to
    node j. Exactly symmetric by construction. Each of the nine component
    planes is written straight into an (n, 3, n, 3) view of the result, so
    the matrix is the only (3n, 3n) array built. Raises HydroSolveError when
    two nodes lie closer than the cutoff (the model needs every pair at least
    delta apart; at rest neighbours sit one edge, 2 delta, apart).
    """
    n = positions.shape[0]
    d = positions[:, None, :] - positions[None, :, :]
    r = np.linalg.norm(d, axis=2)
    np.fill_diagonal(r, np.inf)
    if n > 1:
        closest = float(r.min())
        if closest < cutoff:
            raise HydroSolveError(
                f"flagellar nodes {closest:.3e} m apart, closer than the cutoff "
                f"{cutoff:.3e} m"
            )
    rhat = d / r[:, :, None]
    drag = 8.0 * math.pi * viscosity
    oseen_scale = drag * r
    matrix = np.empty((3 * n, 3 * n))
    blocks = matrix.reshape(n, 3, n, 3)  # blocks[j, a, k, b] = matrix[3j + a, 3k + b]
    for a in range(3):
        for b in range(3):
            plane = np.multiply(rhat[:, :, a], rhat[:, :, b], out=blocks[:, a, :, b])
            if a == b:
                plane += 1.0
            plane /= oseen_scale
    diag = np.eye(3)[None, :, :] - tangents[:, :, None] * tangents[:, None, :]
    diag /= drag * cutoff
    nodes = np.arange(n)
    blocks[nodes, :, nodes, :] = diag
    return MobilityOperator(matrix=matrix, cutoff=cutoff)


def _head_distances(r_h: np.ndarray) -> np.ndarray:
    """|r_h| per node; a node at the head center has no sphere flow."""
    r = np.sqrt((r_h * r_h).sum(axis=1))
    if (r <= 0.0).any():
        raise ValueError("flagellar node coincides with the head center")
    return r


def _translating_sphere_flow(r_h: np.ndarray, r: np.ndarray, head_velocity: np.ndarray,
                             b: float) -> np.ndarray:
    """Flow at r_h (distances r) of a sphere of radius b translating at head_velocity.

    With beta = b/r: (3 beta/4 + beta^3/4) U + (3/4)(beta - beta^3)(r.U/r^2) r.
    """
    beta = b / r
    beta3 = beta * beta * beta
    along = 0.75 * (beta - beta3) * (r_h @ head_velocity) / (r * r)
    return (0.75 * beta + 0.25 * beta3)[:, None] * head_velocity + along[:, None] * r_h


def head_force(forces: np.ndarray, r_h: np.ndarray, head_radius: float,
               viscosity: float, head_velocity: np.ndarray) -> np.ndarray:
    """Force on the head: filament-flow induction plus Stokes drag.

    No node of r_h may sit at the head center; solve_forces_and_head_spin,
    which gives the forces, checks that, so the distances are not checked
    again here.
    """
    r2 = (r_h * r_h).sum(axis=1)
    beta = head_radius / np.sqrt(r2)
    beta3 = beta * beta * beta
    # -(3/2) beta + beta^3/2 on f, (3/4)(beta^3 - beta)(f.r/r^2) on r
    along = 0.75 * (beta3 - beta) * (forces * r_h).sum(axis=1) / r2
    force = (0.5 * beta3 - 1.5 * beta) @ forces + along @ r_h
    force -= 6.0 * math.pi * viscosity * head_radius * head_velocity
    return force


def clamped_spectrum(mobility: MobilityOperator, floor_fraction: float,
                     viscosity: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis of the mobility with eigenvalues floored.

    The discrete operator is indefinite: the purely perpendicular local term
    gives tangential force components no self-resistance, so short-wavelength
    modes alias into near-zero and negative eigenvalues that an explicit
    scheme amplifies without bound. Eigenvalues below
    floor_fraction/(8 pi mu delta) are clamped to that floor, which leaves
    smooth (physical) modes untouched and bounds the force response of the
    aliased ones at 1/floor_fraction times the local drag.

    Consumes mobility.matrix: LAPACK dsyevd decomposes it in place, reading
    its lower triangle (the matrix is exactly symmetric), and overwrites it
    with the eigenvectors. The returned eigenvector matrix is its transpose,
    an F-ordered view of the same buffer, so a refresh allocates no second
    (3n, 3n) array. Raises HydroSolveError when dsyevd fails.

    Returns (eigenvectors, inverse clamped eigenvalues).
    """
    local = 1.0 / (8.0 * math.pi * viscosity * mobility.cutoff)
    a = mobility.matrix.T  # F-contiguous, so dsyevd works on it without a copy
    dsyevd = get_lapack_funcs(("syevd",), (a,))[0]
    evals, vecs, info = dsyevd(a, lower=1, overwrite_a=1)
    if info != 0:
        raise HydroSolveError(f"mobility eigendecomposition failed (dsyevd info={info})")
    inv = 1.0 / np.maximum(evals, floor_fraction * local)
    return vecs, inv


def solve_forces_and_head_spin(spectrum: tuple[np.ndarray, np.ndarray],
                               node_velocities: np.ndarray, r_h: np.ndarray,
                               head_velocity: np.ndarray, head_radius: float,
                               viscosity: float) -> tuple[np.ndarray, np.ndarray]:
    """Flagellar forces and head spin, closed self-consistently.

    The forces depend on the head-spin flow and the spin follows from torque
    balance on those same forces, so both are solved together: the spin
    dependence is linear, leaving a 3x3 system. Lagging the spin by one step
    instead is violently unstable (the algebraic loop gain exceeds one for
    this geometry). The mobility inverse is applied through spectrum, the
    (eigenvectors, inverse clamped eigenvalues) pair from clamped_spectrum,
    once, to the stacked (3n, 4) right-hand side [u_rel | rotational flow]:
    the node flow of the translating head relative to the nodes, then the
    flow of a unit head spin about each axis. A solve reads the
    eigenvector matrix twice. One product with the (3, 3n) torque map then
    gives the balance's right-hand side and its coupling, and LAPACK gesv
    solves it; HydroSolveError when that system is singular.
    """
    r = _head_distances(r_h)
    b = head_radius
    n = r_h.shape[0]
    ratio = b ** 3 / r ** 3
    vecs, inv = spectrum

    skew = skew_rows(r_h)  # [r]x f = r x f
    flows = np.empty((3 * n, 4))
    by_node = flows.reshape(n, 3, 4)
    np.subtract(_translating_sphere_flow(r_h, r, head_velocity, b), node_velocities,
                out=by_node[:, :, 0])
    np.multiply(skew, -ratio[:, None, None], out=by_node[:, :, 1:])  # (b^3/r^3) Omega x r
    coeffs = vecs.T @ flows
    coeffs *= inv[:, None]
    stacked = vecs @ coeffs

    # Torque-balance map f -> sum (1 - b^3/r^3) r x f, as a (3, 3n) matrix
    # ([r]x is antisymmetric, so its transpose carries the minus sign).
    torque = (((ratio - 1.0)[:, None, None] * skew).reshape(3 * n, 3).T @ stacked)
    drag = 8.0 * math.pi * viscosity * b ** 3
    _, _, spin, info = _DGESV(drag * _EYE3 - torque[:, 1:], torque[:, 0])
    if info != 0:
        raise HydroSolveError(f"head-spin torque balance is singular (dgesv info={info})")
    forces = stacked[:, 0] + stacked[:, 1:] @ spin
    return forces.reshape(n, 3), spin
