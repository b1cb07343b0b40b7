"""Closed-form trajectory geometry.

Line fits to head-position windows, the direction-of-motion vector, the
body frame, waypoint projection onto the motion plane, the desired-maneuver
parameters, and the parameterization of a recorded steering segment into a
training datapoint. All functions are pure; positions in meters, angles in
degrees at the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rod import transport_rotations


class GeometryError(ValueError):
    """Base for geometric degeneracies; callers defer or retry in a rotated frame."""


class DegenerateFitError(GeometryError):
    """Head history runs perpendicular to the x-axis; slopes are undefined."""


class AmbiguousSignError(GeometryError):
    """Direction-of-motion sign term vanished."""


class DegenerateFrameError(GeometryError):
    """Body-frame cross product vanished."""


class DegeneratePlaneError(GeometryError):
    """Projection plane (or its parameterization) is degenerate."""


class NoTurnError(GeometryError):
    """Before/after lines are parallel; the segment holds no steering event."""


@dataclass(frozen=True)
class LineFit:
    """y = a1 x + a2, z = a3 x + a4 with the residual sum of squares."""

    a1: float
    a2: float
    a3: float
    a4: float
    residual: float  # [m^2]


@dataclass(frozen=True)
class BodyFrame:
    """Principal directions of the swimmer: motion v, normal n, binormal w."""

    v: np.ndarray
    n: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class DesiredManeuver:
    """Turn-point geometry expressed in the body frame (h, l in m; angles deg)."""

    h: float
    l: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class SteeringDatapoint:
    """One training tuple: actuation times and the realized turn geometry."""

    t_high: float   # [s]
    t_low: float    # [s]
    h: float        # [m]
    alpha: float    # [deg], in [0, 180]
    beta: float     # [deg], in (-90, 90)
    l: float        # signed [m]

    def validate(self) -> None:
        if not (self.t_high >= 0.0 and self.t_low > 0.0 and self.h > 0.0):
            raise ValueError(f"invalid datapoint scales: {self}")
        if not (0.0 <= self.alpha <= 180.0 and -90.0 < self.beta < 90.0):
            raise ValueError(f"datapoint angles out of range: {self}")


def fit_line(points: np.ndarray) -> LineFit:
    """Closed-form least-squares line through head samples.

    points: (k+1, 3). Solves min sum (y - a1 x - a2)^2 + (z - a3 x - a4)^2.
    Raises DegenerateFitError when the x-spread vanishes (motion perpendicular
    to the x-axis); callers retry in a rotated frame.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ValueError("need at least two 3-D samples")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    k1 = pts.shape[0]
    sx = np.sum(x)
    den = k1 * np.sum(x * x) - sx * sx
    scale = k1 * np.sum(x * x)
    if den <= 1e-12 * max(scale, 1e-300):
        raise DegenerateFitError("x-coordinates carry no spread; rotate the frame")
    a1 = (k1 * np.sum(x * y) - sx * np.sum(y)) / den
    a2 = (np.sum(y) - a1 * sx) / k1
    a3 = (k1 * np.sum(x * z) - sx * np.sum(z)) / den
    a4 = (np.sum(z) - a3 * sx) / k1
    residual = float(np.sum((y - a1 * x - a2) ** 2 + (z - a3 * x - a4) ** 2))
    return LineFit(a1=float(a1), a2=float(a2), a3=float(a3), a4=float(a4),
                   residual=residual)


def direction_vector(fit: LineFit, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Unit direction of motion along the fitted line.

    Sign chosen so the head leads the first flagellar node:
    v = sgn{(x0 - x1) . [1, a1, a3]} [1, a1, a3]/|[1, a1, a3]|.
    """
    d = np.array([1.0, fit.a1, fit.a3])
    sign_term = float(np.dot(np.asarray(x0) - np.asarray(x1), d))
    if abs(sign_term) <= 1e-12 * np.linalg.norm(x0 - x1) * np.linalg.norm(d):
        raise AmbiguousSignError("head-to-node direction is perpendicular to the line")
    return math.copysign(1.0, sign_term) * d / np.linalg.norm(d)


def body_frame(v: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> BodyFrame:
    """Orthonormal frame from the motion direction and the first two nodes."""
    axis = np.cross(v, np.asarray(x1) - np.asarray(x2))
    norm = np.linalg.norm(axis)
    if norm <= 1e-12 * np.linalg.norm(np.asarray(x1) - np.asarray(x2)):
        raise DegenerateFrameError("node direction parallel to motion")
    n = axis / norm
    w = np.cross(v, n)
    w /= np.linalg.norm(w)
    return BodyFrame(v=np.asarray(v, dtype=float), n=n, w=w)


def project_p1(v: np.ndarray, x0: np.ndarray, p1: np.ndarray,
               p2: np.ndarray) -> np.ndarray:
    """Project p1 onto the plane spanned by v through x0 and p2.

    The plane is [v x (p2 - x0)] . (x - x0) = 0; the projection moves p1
    along the plane normal (the coordinate-free form of the componentwise
    update, valid regardless of the normal's x-component).
    """
    normal = np.cross(v, np.asarray(p2) - np.asarray(x0))
    nn = float(np.dot(normal, normal))
    if nn <= (1e-12 * np.linalg.norm(np.asarray(p2) - np.asarray(x0))) ** 2:
        raise DegeneratePlaneError("waypoint direction parallel to motion")
    shift = float(np.dot(normal, np.asarray(x0) - np.asarray(p1))) / nn
    return np.asarray(p1, dtype=float) + shift * normal


def turn_angles(dp: np.ndarray, frame: BodyFrame) -> tuple[float, float]:
    """In-plane turn angle alpha and plane azimuth beta, both in degrees.

    alpha = acos(dp.v/|dp|) in [0, 180]; beta = atan of the w-component over
    the n-component (single-argument arctangent, range (-90, 90) as printed).
    """
    norm = np.linalg.norm(dp)
    if norm <= 0.0:
        raise ValueError("turn vector has zero length")
    c = float(np.dot(dp, frame.v)) / norm
    alpha = math.degrees(math.acos(min(1.0, max(-1.0, c))))
    vxn = np.cross(frame.v, frame.n)
    num = float(np.dot(dp, vxn))
    den = float(np.dot(dp, frame.n)) * float(np.linalg.norm(vxn))
    if den == 0.0:
        beta = math.copysign(90.0, num) if num != 0.0 else 0.0
    else:
        beta = math.degrees(math.atan(num / den))
    return alpha, beta


def desired_parameters(x0: np.ndarray, p1_hat: np.ndarray, p2: np.ndarray,
                       frame: BodyFrame) -> DesiredManeuver:
    """Desired maneuver implied by the projected turn point and the waypoint."""
    x0 = np.asarray(x0, dtype=float)
    p1_hat = np.asarray(p1_hat, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    dp = p2 - p1_hat
    h = float(np.linalg.norm(dp))
    if h <= 0.0:
        raise DegeneratePlaneError("waypoint coincides with the projected turn point")
    reach = p1_hat - x0
    l = math.copysign(1.0, float(np.dot(reach, frame.v))) * float(np.linalg.norm(reach)) \
        if np.linalg.norm(reach) > 0.0 else 0.0
    alpha, beta = turn_angles(dp, frame)
    return DesiredManeuver(h=h, l=l, alpha=alpha, beta=beta)


def constrained_after_fit(fit_before: LineFit, end_point: np.ndarray,
                          samples: np.ndarray) -> LineFit:
    """After-turn line through the endpoint, coplanar with the before-line.

    Of the one-parameter family satisfying the endpoint interpolation and the
    coplanarity condition (the y- and z-plane intersections agree), returns
    the member minimizing the squared residuals over the given samples.
    Raises NoTurnError when the endpoint lies on the before-line itself (both
    plane gaps vanish: the path never left the line), DegeneratePlaneError
    when it sits only on the before-line's z-plane (the family
    parameterization breaks), and NoTurnError downstream when the slopes
    coincide.
    """
    a1, a2, a3, a4 = fit_before.a1, fit_before.a2, fit_before.a3, fit_before.a4
    xe, ye, ze = float(end_point[0]), float(end_point[1]), float(end_point[2])
    p_gap = a1 * xe + a2 - ye
    q_gap = a3 * xe + a4 - ze
    scale = abs(ye) + abs(a1 * xe) + abs(a2) + abs(ze) + abs(a3 * xe) + abs(a4)
    tol = 1e-12 * max(scale, 1e-300)
    if abs(q_gap) <= tol:
        if abs(p_gap) <= tol:
            raise NoTurnError("endpoint lies on the before-line")
        raise DegeneratePlaneError("endpoint lies on the before-line z-plane")
    chi = p_gap / q_gap

    dx = samples[:, 0] - xe
    dy = samples[:, 1] - ye
    dz = samples[:, 2] - ze
    sxx = float(np.sum(dx * dx))
    if sxx <= 0.0:
        raise DegenerateFitError("after-turn samples carry no x-spread")
    b1 = (float(np.sum(dx * dy)) / (1.0 + chi ** -2)
          + (a1 - a3 * chi) * sxx / (1.0 + chi ** 2)
          + float(np.sum(dx * dz)) / (chi + 1.0 / chi)) / sxx
    b2 = ye - b1 * xe
    b3 = a3 - (a1 - b1) / chi
    b4 = ze - b3 * xe
    residual = float(np.sum((dy - b1 * dx) ** 2 + (dz - b3 * dx) ** 2))
    return LineFit(a1=b1, a2=b2, a3=b3, a4=b4, residual=residual)


def project_onto_line(fit: LineFit, point: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a point onto the fitted line."""
    px = (point[0] + fit.a1 * (point[1] - fit.a2) + fit.a3 * (point[2] - fit.a4)) \
        / (1.0 + fit.a1 ** 2 + fit.a3 ** 2)
    return np.array([px, fit.a1 * px + fit.a2, fit.a3 * px + fit.a4])


def line_intersection(before: LineFit, after: LineFit) -> np.ndarray:
    """Intersection of the coplanar before/after lines (the turn point)."""
    da = before.a1 - after.a1
    if abs(da) <= 1e-12 * (1.0 + abs(before.a1) + abs(after.a1)):
        raise NoTurnError("before/after lines are parallel")
    x = (after.a2 - before.a2) / da
    y = (before.a1 * after.a2 - after.a1 * before.a2) / da
    dz = before.a3 - after.a3
    if abs(dz) <= 1e-15 * (1.0 + abs(before.a3) + abs(after.a3)):
        # Coplanarity couples the slopes; a z-parallel pair with a genuine
        # x-y turn means the turn lies in the y-plane: take z from either line.
        z = before.a3 * x + before.a4
    else:
        z = (before.a3 * after.a4 - after.a3 * before.a4) / dz
    return np.array([x, y, z])


def _parameterize_in_frame(samples, x1_t0, x2_t0, t_high, t_low, dt_obs, k):
    before = fit_line(samples[: k + 1])
    x0_t0 = samples[k]
    v = direction_vector(before, x0_t0, x1_t0)
    frame = body_frame(v, x1_t0, x2_t0)

    end_idx = samples.shape[0] - 1
    if int(round(t_low / dt_obs)) < k:
        raise ValueError("after-turn window of k samples would reach into the pulse")
    after_samples = samples[end_idx - k: end_idx]
    after = constrained_after_fit(before, samples[end_idx], after_samples)

    x0_hat = project_onto_line(before, x0_t0)
    p1 = line_intersection(before, after)
    m = desired_parameters(x0_hat, p1, samples[end_idx], frame)
    return SteeringDatapoint(t_high=t_high, t_low=t_low, h=m.h, alpha=m.alpha,
                             beta=m.beta, l=m.l)


def parameterize_segment(samples: np.ndarray, x1_t0: np.ndarray, x2_t0: np.ndarray,
                         t_high: float, t_low: float, dt_obs: float,
                         k: int) -> SteeringDatapoint:
    """Convert a recorded steering segment into a training datapoint.

    samples: (S, 3) head positions on the observation grid covering
    [t0 - k dt, t_p + t_high + t_low], where t_p is the instant the steering
    pulse was applied and t0 the last sample at or before it; x1_t0/x2_t0
    are the first two flagellar nodes at t0.
    Fits the before-line on the k+1 samples up to t0 and the constrained
    after-line on the k samples reaching back k dt from the endpoint, then
    intersects the two lines for the turn point and returns
    (t_high, t_low, h, alpha, beta, l). The after window must not reach into
    the pulse: t_low < k dt raises ValueError (extract_segments admits only
    t_low > k dt). A segment whose endpoint stays on the before-line raises
    NoTurnError.

    A degenerate x-orientation is retried once in a rotated frame
    (in_x_frame); scalars are rotation invariant.
    """
    samples = np.asarray(samples, dtype=float)
    expected = k + math.ceil((t_high + t_low) / dt_obs - 1e-9) + 1
    if samples.shape[0] != expected:
        raise ValueError(
            f"expected {expected} samples covering the segment, got {samples.shape[0]}"
        )
    return in_x_frame(
        lambda s, x1, x2: _parameterize_in_frame(s, x1, x2, t_high, t_low, dt_obs, k),
        samples, np.asarray(x1_t0, float), np.asarray(x2_t0, float))


def in_x_frame(fit, samples: np.ndarray, *points: np.ndarray):
    """fit(samples, *points); on DegenerateFitError, once more in a rotated frame.

    The retry rotates every argument by the minimal rotation
    (rod.transport_rotations) taking the unit d along samples[-1] - samples[0]
    onto s x, with s = copysign(1, d_x) the sign of the nearer x-direction,
    so the samples run along the x-axis. As 1 + d.(s x) >= 1, the rotation
    always exists. fit must return rotation-invariant results.
    """
    try:
        return fit(samples, *points)
    except DegenerateFitError:
        d = samples[-1] - samples[0]
        d = d / np.linalg.norm(d)
        rot = transport_rotations(d, np.array([math.copysign(1.0, d[0]), 0.0, 0.0]))[0]
        return fit(samples @ rot.T, *(rot @ p for p in points))


def point_segment_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from a point to the segment [a, b]."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom <= 0.0:
        return float(np.linalg.norm(point - a))
    t = float(np.dot(point - a, ab)) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(point - (a + t * ab)))


def polyline_distance(point: np.ndarray, vertices: np.ndarray) -> float:
    """Minimum distance from a point to a polyline through the vertices."""
    verts = np.asarray(vertices, dtype=float)
    if verts.shape[0] == 1:
        return float(np.linalg.norm(point - verts[0]))
    return min(
        point_segment_distance(np.asarray(point, float), verts[i], verts[i + 1])
        for i in range(verts.shape[0] - 1)
    )
