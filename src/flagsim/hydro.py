"""Hydrodynamic force model: slender-body flow on the filament, sphere flows.

The filament couples node velocities and forces through a dense mobility
operator built from a local cutoff term acting on the force component
perpendicular to the node tangent, plus pairwise Oseen-tensor interactions.
The head contributes a translating/rotating-sphere flow along the filament,
a force and torque induced by the filament forces, and Stokes drag; its spin
rate closes the problem through whole-robot torque balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rod import cross_rows


class HydroSolveError(RuntimeError):
    """Mobility operator is undefined at this configuration.

    Raised by assemble_mobility when two flagellar nodes sit closer than
    the cutoff delta: the slender-body model needs every Stokeslet pair at
    least delta apart, and the Oseen blocks of a near-coincident pair scale
    together, so no condition check sees it. stepper.Integrator reports it
    as SimulationError without a substep retry, since a smaller step does
    not move the nodes apart.
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
    node j. Symmetric by construction. Raises HydroSolveError when two nodes
    lie closer than the cutoff (the model needs every pair at least delta
    apart; at rest neighbours sit one edge, 2 delta, apart).
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
    blocks = np.eye(3)[None, None, :, :] + rhat[:, :, :, None] * rhat[:, :, None, :]
    blocks /= (8.0 * math.pi * viscosity * r)[:, :, None, None]
    diag = np.eye(3)[None, :, :] - tangents[:, :, None] * tangents[:, None, :]
    diag /= 8.0 * math.pi * viscosity * cutoff
    blocks[np.arange(n), np.arange(n)] = diag
    matrix = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    return MobilityOperator(matrix=matrix, cutoff=cutoff)


def head_induced_flow(r_h: np.ndarray, head_velocity: np.ndarray,
                      head_spin: np.ndarray, head_radius: float) -> np.ndarray:
    """Flow along the filament induced by the moving head.

    r_h: (n, 3) node positions relative to the head center. This is the
    standard no-slip translating/rotating sphere solution, not the paper's
    printed form with (b^3/r^3)(r x Omega): that form does not match the
    sphere's surface velocity U + Omega x r.
    """
    r = np.linalg.norm(r_h, axis=1)
    if np.any(r <= 0.0):
        raise ValueError("flagellar node coincides with the head center")
    b = head_radius
    ru = r_h @ head_velocity
    r1 = r[:, None]
    rot = (b ** 3 / r ** 3)[:, None] * cross_rows(head_spin, r_h)
    trans = 0.75 * b * (head_velocity[None, :] / r1 + r_h * (ru / r ** 3)[:, None]) \
        + 0.25 * b ** 3 * (head_velocity[None, :] / r1 ** 3 - 3.0 * r_h * (ru / r ** 5)[:, None])
    return rot + trans


def head_force_torque(forces: np.ndarray, r_h: np.ndarray, head_radius: float,
                      viscosity: float, head_velocity: np.ndarray,
                      head_spin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Force and torque on the head: filament-flow induction plus Stokes drag."""
    r = np.linalg.norm(r_h, axis=1)
    if np.any(r <= 0.0):
        raise ValueError("flagellar node coincides with the head center")
    b = head_radius
    c1 = -1.5 * b / r + 0.5 * b ** 3 / r ** 3
    c2 = (-0.75 * b / r + 0.75 * b ** 3 / r ** 3) / r ** 2
    fr = np.sum(forces * r_h, axis=1)
    force = np.sum(c1[:, None] * forces + (c2 * fr)[:, None] * r_h, axis=0)
    force += -6.0 * math.pi * viscosity * b * head_velocity
    torque = -np.sum((b ** 3 / r ** 3)[:, None] * cross_rows(r_h, forces), axis=0)
    torque += -8.0 * math.pi * viscosity * b ** 3 * head_spin
    return force, torque


def head_spin_from_torque_balance(forces: np.ndarray, r_h: np.ndarray,
                                  head_radius: float, viscosity: float) -> np.ndarray:
    """Head angular velocity that zeroes the net torque on the whole robot.

    Balances the head drag torque against the filament-flow torque on the
    head and the moment of the filament hydrodynamic forces about the head
    center: 8 pi mu b^3 Omega = sum (1 - b^3/r^3) r x f.
    """
    r = np.linalg.norm(r_h, axis=1)
    if np.any(r <= 0.0):
        raise ValueError("flagellar node coincides with the head center")
    b = head_radius
    weight = 1.0 - b ** 3 / r ** 3
    total = np.sum(weight[:, None] * cross_rows(r_h, forces), axis=0)
    return total / (8.0 * math.pi * viscosity * b ** 3)


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

    Returns (eigenvectors, inverse clamped eigenvalues).
    """
    local = 1.0 / (8.0 * math.pi * viscosity * mobility.cutoff)
    evals, vecs = np.linalg.eigh(mobility.matrix)
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
    (eigenvectors, inverse clamped eigenvalues) pair from clamped_spectrum.
    """
    r = np.linalg.norm(r_h, axis=1)
    if np.any(r <= 0.0):
        raise ValueError("flagellar node coincides with the head center")
    b = head_radius
    n = r_h.shape[0]

    vecs, inv = spectrum

    u_trans = head_induced_flow(r_h, head_velocity, np.zeros(3), b)
    u_rel = (u_trans - node_velocities).ravel()
    f_base = (vecs @ (inv * (vecs.T @ u_rel))).reshape(n, 3)

    # Stacked linear map Omega -> rotational flow at the nodes.
    cross_r = cross_rows(np.eye(3), r_h[:, None, :])  # row i is e_i x r: cross_r @ f = r x f
    scale = (b ** 3 / r ** 3)[:, None, None]
    flow = (-scale * cross_r).reshape(3 * n, 3)  # (b^3/r^3) Omega x r
    f_rot = (vecs @ (inv[:, None] * (vecs.T @ flow))).reshape(n, 3, 3)

    # Torque-balance map f -> sum (1 - b^3/r^3) r x f.
    weighted_cross = (1.0 - b ** 3 / r ** 3)[:, None, None] * cross_r
    drag = 8.0 * math.pi * viscosity * b ** 3
    coupling = np.einsum("nab,nbc->ac", weighted_cross, f_rot)
    rhs = np.einsum("nab,nb->a", weighted_cross, f_base)
    spin = np.linalg.solve(drag * np.eye(3) - coupling, rhs)
    forces = f_base + f_rot @ spin
    return forces, spin
