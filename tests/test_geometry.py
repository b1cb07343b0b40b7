import math

import numpy as np
import pytest

from flagsim.geometry import (
    AmbiguousSignError,
    BodyFrame,
    DegenerateFitError,
    DegeneratePlaneError,
    LineFit,
    NoTurnError,
    SteeringDatapoint,
    body_frame,
    constrained_after_fit,
    desired_parameters,
    direction_vector,
    fit_line,
    line_intersection,
    parameterize_segment,
    point_segment_distance,
    polyline_distance,
    project_onto_line,
    project_p1,
    turn_angles,
)
from flagsim.rod import transport_rotations

from conftest import brute_polyline_distance


def lstsq_oracle(points):
    """Generic normal-equations fit of y = a1 x + a2, z = a3 x + a4."""
    x = points[:, 0]
    design = np.vstack([x, np.ones_like(x)]).T
    (a1, a2), res_y, *_ = np.linalg.lstsq(design, points[:, 1], rcond=None)
    (a3, a4), res_z, *_ = np.linalg.lstsq(design, points[:, 2], rcond=None)
    ry = float(res_y[0]) if len(res_y) else float(np.sum((points[:, 1] - design @ [a1, a2]) ** 2))
    rz = float(res_z[0]) if len(res_z) else float(np.sum((points[:, 2] - design @ [a3, a4]) ** 2))
    return np.array([a1, a2, a3, a4]), ry + rz


def coefficients(fit):
    return np.array([fit.a1, fit.a2, fit.a3, fit.a4])


def test_fit_exact_line():
    x = np.linspace(0.0, 1.0, 8)
    pts = np.stack([x, 2 * x + 1, -x + 3], axis=1)
    fit = fit_line(pts)
    assert np.allclose(coefficients(fit), [2, 1, -1, 3], atol=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-24)


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        k = rng.integers(3, 30)
        x = rng.uniform(-1, 1, size=k + 1)
        x += np.linspace(0, 1, k + 1)  # guarantee spread
        pts = np.stack([
            x,
            rng.normal() * x + rng.normal() + 0.01 * rng.standard_normal(k + 1),
            rng.normal() * x + rng.normal() + 0.01 * rng.standard_normal(k + 1),
        ], axis=1)
        fit = fit_line(pts)
        coeffs, resid = lstsq_oracle(pts)
        worst = max(worst, np.abs(coefficients(fit) - coeffs).max(),
                    abs(fit.residual - resid))
    assert worst <= 1e-9


def test_fit_two_points_interpolates():
    pts = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 0.0]])
    fit = fit_line(pts)
    assert np.allclose(coefficients(fit), [2, 1, -2, 2], atol=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-28)


def test_fit_degenerate_orientation():
    pts = np.zeros((5, 3))
    pts[:, 1] = np.linspace(0, 1, 5)  # motion along y, zero x spread
    with pytest.raises(DegenerateFitError):
        fit_line(pts)


def test_direction_vector_cases():
    fit = LineFit(0.0, 0.0, 0.0, 0.0, 0.0)
    v = direction_vector(fit, np.array([1.0, 0, 0]), np.array([0.0, 0, 0]))
    assert np.allclose(v, [1, 0, 0])

    fit = LineFit(1.0, 0.0, 0.0, 0.0, 0.0)
    v = direction_vector(fit, np.array([0.0, 0, 0]), np.array([1.0, 1.0, 0]))
    assert np.allclose(v, -np.array([1, 1, 0]) / math.sqrt(2))

    with pytest.raises(AmbiguousSignError):
        direction_vector(fit, np.array([0.0, 0, 0]), np.array([1.0, -1.0, 0.0]))


def test_body_frame_unit_algebra():
    v = np.array([1.0, 0, 0])
    frame = body_frame(v, np.array([0, 1.0, 0]), np.zeros(3))
    assert np.allclose(frame.n, [0, 0, 1])
    assert np.allclose(frame.w, [0, -1, 0])


def test_body_frame_orthonormal_and_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x1 = rng.standard_normal(3)
        x2 = rng.standard_normal(3)
        frame = body_frame(v, x1, x2)
        for a, b in [(frame.v, frame.n), (frame.v, frame.w), (frame.n, frame.w)]:
            assert abs(np.dot(a, b)) <= 1e-12
        scaled = body_frame(v, x2 + 10 * (x1 - x2), x2)
        assert np.allclose(scaled.n, frame.n, atol=1e-12)
        assert np.allclose(scaled.w, frame.w, atol=1e-12)


def test_body_frame_degenerate():
    v = np.array([1.0, 0, 0])
    with pytest.raises(Exception):
        body_frame(v, np.array([2.0, 0, 0]), np.array([1.0, 0, 0]))


def test_projection_idempotent_on_plane():
    rng = np.random.default_rng(2)
    v = np.array([1.0, 0.2, -0.1])
    v /= np.linalg.norm(v)
    x0 = rng.standard_normal(3)
    p2 = x0 + rng.standard_normal(3)
    normal = np.cross(v, p2 - x0)
    # a point already on the plane
    p1 = x0 + 0.3 * v + 0.7 * (p2 - x0)
    assert np.allclose(project_p1(v, x0, p1, p2), p1, atol=1e-15)


def test_projection_recovers_offset_point():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x0 = rng.standard_normal(3)
        p2 = x0 + rng.standard_normal(3)
        normal = np.cross(v, p2 - x0)
        nn = np.linalg.norm(normal)
        if nn < 1e-6:
            continue
        on_plane = x0 + rng.normal() * v + rng.normal() * (p2 - x0)
        p1 = on_plane + 0.05 * normal / nn
        p1_hat = project_p1(v, x0, p1, p2)
        assert np.allclose(p1_hat, on_plane, atol=1e-12)
        # plane-equation residual
        assert abs(np.dot(normal, p1_hat - x0)) <= 1e-12 * np.linalg.norm(p2 - x0)


def test_projection_minimality():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        x0 = rng.standard_normal(3)
        p2 = x0 + rng.standard_normal(3)
        if np.linalg.norm(np.cross(v, p2 - x0)) < 1e-6:
            continue
        p1 = rng.standard_normal(3)
        p1_hat = project_p1(v, x0, p1, p2)
        for _ in range(5):
            sample = x0 + rng.normal() * v + rng.normal() * (p2 - x0)
            assert np.linalg.norm(p1_hat - p1) <= np.linalg.norm(sample - p1) + 1e-12


def test_projection_degenerate_plane():
    v = np.array([1.0, 0, 0])
    with pytest.raises(DegeneratePlaneError):
        project_p1(v, np.zeros(3), np.ones(3), np.array([2.0, 0, 0]))


def test_desired_parameters_cases():
    frame = BodyFrame(v=np.array([1.0, 0, 0]), n=np.array([0, 1.0, 0]),
                      w=np.array([0, 0, 1.0]))
    x0 = np.zeros(3)
    # p2 - p1 parallel to v -> alpha = 0
    m = desired_parameters(x0, np.array([0.05, 0, 0]), np.array([0.12, 0, 0]), frame)
    assert m.alpha == pytest.approx(0.0, abs=1e-9)
    # pure-n turn -> beta = 0
    m = desired_parameters(x0, np.array([0.05, 0, 0]), np.array([0.05, 0.04, 0]), frame)
    assert m.beta == pytest.approx(0.0, abs=1e-12)
    assert m.alpha == pytest.approx(90.0, abs=1e-9)
    assert m.h == pytest.approx(0.04)
    # p1 behind x0 -> l < 0
    m = desired_parameters(np.array([0.1, 0, 0]), np.array([0.05, 0, 0]),
                           np.array([0.12, 0.01, 0]), frame)
    assert m.l < 0
    assert m.l == pytest.approx(-0.05)


def test_turn_angle_ranges():
    rng = np.random.default_rng(5)
    frame = BodyFrame(v=np.array([1.0, 0, 0]), n=np.array([0, 1.0, 0]),
                      w=np.array([0, 0, 1.0]))
    for _ in range(500):
        dp = rng.standard_normal(3)
        alpha, beta = turn_angles(dp, frame)
        assert 0.0 <= alpha <= 180.0
        assert -90.0 <= beta <= 90.0


def synthetic_segment(k=10, dt=0.5, t_high=6.0, t_low=40.0, v_speed=2e-4,
                      alpha_deg=18.0, beta_deg=25.0, l_pre=0.004):
    """Piecewise-linear trajectory with a known coplanar kink.

    The before-line runs along a generic direction; at the turn point the
    path bends by alpha within the plane at azimuth beta (measured in the
    frame implied by v and the chosen node positions). Returns the inputs to
    parameterize_segment plus the expected datapoint.
    """
    v = np.array([1.0, 0.35, -0.2])
    v /= np.linalg.norm(v)
    # build an orthonormal frame around v
    helper = np.array([0.0, 0.0, 1.0])
    n = np.cross(v, helper)
    n /= np.linalg.norm(n)
    w = np.cross(v, n)

    # node positions at t0 chosen so the body frame reproduces (n, w):
    # n = v x (x1 - x2) / |...| -> pick x1 - x2 = w (then v x w = -n... check)
    # v x w = v x (v x n) = v (v.n) - n (v.v) = -n, so use x1 - x2 = -w.
    x0_t0 = np.array([0.05, -0.02, 0.01])
    x1_t0 = x0_t0 - 0.002 * v
    x2_t0 = x1_t0 + 0.0016 * w  # x1 - x2 = -w scaled

    frame_n = np.cross(v, x1_t0 - x2_t0)
    frame_n /= np.linalg.norm(frame_n)
    frame_w = np.cross(v, frame_n)

    turn_dir = (math.cos(math.radians(alpha_deg)) * v
                + math.sin(math.radians(alpha_deg)) * (
                    math.cos(math.radians(beta_deg)) * frame_n
                    + math.sin(math.radians(beta_deg)) * frame_w))

    p1 = x0_t0 + l_pre * v  # ahead of the head at t0
    t_turn = l_pre / v_speed  # time after t0 at which the kink is reached

    times = np.arange(-k, int(round((t_high + t_low) / dt)) + 1) * dt
    samples = np.empty((times.shape[0], 3))
    for i, t in enumerate(times):
        if t <= t_turn:
            samples[i] = x0_t0 + v_speed * t * v
        else:
            samples[i] = p1 + v_speed * (t - t_turn) * turn_dir
    p2 = samples[-1]
    h = np.linalg.norm(p2 - p1)
    expected = SteeringDatapoint(t_high=t_high, t_low=t_low, h=h,
                                 alpha=alpha_deg, beta=beta_deg, l=l_pre)
    return samples, x1_t0, x2_t0, t_high, t_low, dt, k, expected


def test_parameterize_segment_recovers_construction():
    samples, x1, x2, t_high, t_low, dt, k, expected = synthetic_segment()
    got = parameterize_segment(samples, x1, x2, t_high, t_low, dt, k)
    assert got.h == pytest.approx(expected.h, rel=1e-6)
    assert got.alpha == pytest.approx(expected.alpha, rel=1e-6)
    assert got.beta == pytest.approx(expected.beta, rel=1e-6)
    assert got.l == pytest.approx(expected.l, rel=1e-6)
    got.validate()


def test_parameterize_segment_rotated_frame_fallback():
    # same construction rotated so motion runs perpendicular to x
    samples, x1, x2, t_high, t_low, dt, k, expected = synthetic_segment()
    rot = transport_rotations(np.array([1.0, 0.35, -0.2]) / np.linalg.norm([1.0, 0.35, -0.2]),
                              np.array([1.0, 0.0, 0.0]))[0]
    # rotate so v maps onto +y: compose rotations
    swap = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    full = swap @ rot
    got = parameterize_segment(samples @ full.T, full @ x1, full @ x2,
                               t_high, t_low, dt, k)
    assert got.h == pytest.approx(expected.h, rel=1e-6)
    assert got.alpha == pytest.approx(expected.alpha, rel=1e-6)
    assert got.beta == pytest.approx(expected.beta, rel=1e-6)
    assert got.l == pytest.approx(expected.l, rel=1e-6)


def test_parameterize_segment_no_turn_rejected():
    samples, x1, x2, t_high, t_low, dt, k, _ = synthetic_segment(alpha_deg=0.0,
                                                                 beta_deg=0.0)
    with pytest.raises(NoTurnError):
        parameterize_segment(samples, x1, x2, t_high, t_low, dt, k)


def test_after_fit_satisfies_constraints():
    rng = np.random.default_rng(6)
    for _ in range(200):
        before = LineFit(a1=rng.normal(), a2=rng.normal(),
                         a3=rng.normal(), a4=rng.normal(), residual=0.0)
        end = rng.standard_normal(3)
        samples = rng.standard_normal((12, 3))
        samples[:, 0] += np.linspace(0, 1, 12)
        try:
            after = constrained_after_fit(before, end, samples)
        except DegeneratePlaneError:
            continue
        scale = 1.0 + np.abs(end).max()
        # endpoint interpolation
        assert abs(after.a1 * end[0] + after.a2 - end[1]) <= 1e-9 * scale
        assert abs(after.a3 * end[0] + after.a4 - end[2]) <= 1e-9 * scale
        # coplanarity: intersection consistent between y- and z-forms
        if abs(before.a1 - after.a1) > 1e-9 and abs(before.a3 - after.a3) > 1e-9:
            xy = (after.a2 - before.a2) / (before.a1 - after.a1)
            xz = (after.a4 - before.a4) / (before.a3 - after.a3)
            assert abs(xy - xz) <= 1e-9 * (1.0 + abs(xy))


def test_after_fit_minimizes_objective():
    # golden-section oracle over the one-parameter family
    rng = np.random.default_rng(7)
    for _ in range(50):
        before = LineFit(a1=rng.normal(), a2=rng.normal(),
                         a3=rng.normal(), a4=rng.normal(), residual=0.0)
        end = rng.standard_normal(3)
        samples = rng.standard_normal((15, 3))
        samples[:, 0] += np.linspace(0, 2, 15)
        try:
            after = constrained_after_fit(before, end, samples)
        except DegeneratePlaneError:
            continue
        p_gap = before.a1 * end[0] + before.a2 - end[1]
        q_gap = before.a3 * end[0] + before.a4 - end[2]
        chi = p_gap / q_gap

        def objective(b1):
            b2 = end[1] - b1 * end[0]
            b3 = before.a3 - (before.a1 - b1) / chi
            b4 = end[2] - b3 * end[0]
            return float(np.sum(
                (samples[:, 1] - b1 * samples[:, 0] - b2) ** 2
                + (samples[:, 2] - b3 * samples[:, 0] - b4) ** 2
            ))

        from scipy.optimize import minimize_scalar
        res = minimize_scalar(objective, bracket=(after.a1 - 1.0, after.a1 + 1.0),
                              method="brent", options={"xtol": 1e-13})
        assert after.a1 == pytest.approx(res.x, abs=1e-6)
        assert objective(after.a1) <= objective(res.x) + 1e-12 * (1 + objective(res.x))


def test_projection_onto_line():
    fit = LineFit(a1=2.0, a2=1.0, a3=-1.0, a4=3.0, residual=0.0)
    # a point on the line projects to itself
    x = 0.7
    pt = np.array([x, 2 * x + 1, -x + 3])
    assert np.allclose(project_onto_line(fit, pt), pt, atol=1e-14)
    # off-line point projects orthogonally
    off = pt + np.array([0.5, 0.1, -0.3])
    proj = project_onto_line(fit, off)
    direction = np.array([1.0, fit.a1, fit.a3])
    assert abs(np.dot(off - proj, direction)) <= 1e-12


def test_line_intersection_parallel_raises():
    a = LineFit(1.0, 0.0, 0.5, 0.0, 0.0)
    b = LineFit(1.0, 1.0, 0.5, 1.0, 0.0)
    with pytest.raises(NoTurnError):
        line_intersection(a, b)


def test_point_segment_distance_cases():
    a = np.zeros(3)
    b = np.array([1.0, 0, 0])
    assert point_segment_distance(np.array([0.5, 1.0, 0.0]), a, b) == pytest.approx(1.0)
    assert point_segment_distance(np.array([2.0, 0.0, 0.0]), a, b) == pytest.approx(1.0)
    assert point_segment_distance(np.array([-3.0, 4.0, 0.0]), a, b) == pytest.approx(5.0)


def test_polyline_distance_brute_force_oracle():
    # 100 random 5-segment polylines, one point each; dense sampling
    # overestimates the distance by at most what the grid resolves
    rng = np.random.default_rng(8)
    for _ in range(100):
        verts = rng.standard_normal((6, 3))
        point = rng.standard_normal((1, 3))
        got = polyline_distance(point[0], verts)
        brute = brute_polyline_distance(point, verts, 2001)[0]
        assert got <= brute + 1e-12
        assert got >= brute - 1e-3
