import math

import numpy as np
import pytest

import flagsim.stepper
from flagsim import desk_parameters, hydro
from flagsim.control import (
    ControlConfig,
    ControlInput,
    Controller,
    InverseMaps,
    WaypointQueue,
    compute_t_app,
    run_closed_loop,
)
from flagsim.stepper import NewtonDivergenceError, SimulationError, StepDiagnostics

from conftest import fallback_sizes, flaky_step


def t_app_scan_oracle(beta_d, beta, l_d, l, omega_rpm, cruise):
    """Brute-force integer scan of the period count, then the same lift."""
    period = 60.0 / omega_rpm
    dbeta = beta_d - beta

    def objective(kappa):
        return abs((dbeta + 360.0 * kappa) * cruise / (6.0 * omega_rpm) + l - l_d)

    center = omega_rpm * (l_d - l) / (60.0 * cruise) - dbeta / 360.0
    candidates = range(int(math.floor(center)) - 3, int(math.floor(center)) + 5)
    best = min(candidates, key=lambda k: (objective(k), -k))
    t_app = dbeta / (6.0 * omega_rpm) + period * best
    while t_app < 0.0:
        t_app += period
    return t_app, best


def test_t_app_zero_case():
    assert compute_t_app(10.0, 10.0, 0.05, 0.05, 3.0, 2e-4) == 0.0


def test_t_app_matches_scan_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10000):
        beta_d = rng.uniform(-90, 90)
        beta = rng.uniform(-90, 90)
        l_d = rng.uniform(-0.2, 0.2)
        l = rng.uniform(-0.2, 0.2)
        omega = rng.uniform(0.5, 10.0)
        cruise = rng.uniform(5e-5, 1e-3)
        got = compute_t_app(beta_d, beta, l_d, l, omega, cruise)
        expect, _ = t_app_scan_oracle(beta_d, beta, l_d, l, omega, cruise)
        assert got == pytest.approx(expect, abs=1e-12 * max(1.0, abs(expect)))
        assert got >= 0.0


def test_t_app_residual_bound():
    # residual distance error is at most half a period of travel: 30 v / omega
    rng = np.random.default_rng(1)
    omega, cruise = 3.0, 2e-4
    bound = 30.0 * cruise / omega
    assert bound == pytest.approx(0.002)
    period = 60.0 / omega
    for _ in range(500):
        beta_d = rng.uniform(-90, 90)
        beta = rng.uniform(-90, 90)
        l_d = rng.uniform(-0.1, 0.1)
        l = rng.uniform(-0.1, 0.1)
        t_app = compute_t_app(beta_d, beta, l_d, l, omega, cruise)
        dbeta = beta_d - beta
        # residual at the optimal period count (before the nonnegativity
        # lift, which trades l for whole periods as documented)
        _, kappa_star = t_app_scan_oracle(beta_d, beta, l_d, l, omega, cruise)
        residual = abs((dbeta + 360 * kappa_star) * cruise / (6 * omega) + l - l_d)
        assert residual <= bound + 1e-12
        # the lift only adds whole periods
        raw = dbeta / (6 * omega) + period * kappa_star
        assert (t_app - raw) / period == pytest.approx(round((t_app - raw) / period), abs=1e-9)


class LinearMaps(InverseMaps):
    """Exact synthetic maps for controller unit tests."""

    def __init__(self, c_alpha=2.0, cruise=2e-4, beta0=-10.0):
        self.c_alpha = c_alpha
        self.cruise = cruise
        self.beta0 = beta0

    def timing(self, h, alpha):
        return alpha / self.c_alpha, h / self.cruise, False

    def realized(self, t_high, t_low):
        return self.beta0 + 0.5 * t_high, -self.cruise * 5.0, False


def make_config(**kw):
    defaults = dict(
        omega_low_rpm=3.0,
        omega_high_rpm=15.0,
        omega_buckling_rpm=10.0,
        linearity_threshold=1e-6,
        history_length=10,
        observation_interval=0.5,
        startup_time=20.0,
        cruise_speed=2e-4,
    )
    defaults.update(kw)
    return ControlConfig(**defaults)


def straight_history(k=10, dt=0.5, speed=2e-4, t_end=30.0):
    times = t_end - dt * np.arange(k, -1, -1)
    pts = np.zeros((k + 1, 3))
    pts[:, 0] = speed * times
    return pts


def make_input(t=30.0, cfg=None, p1=None, p2=None, omega=None, history=None):
    cfg = cfg or make_config()
    history = straight_history(cfg.history_length, cfg.observation_interval,
                               cfg.cruise_speed, t) if history is None else history
    x0 = history[-1]
    return ControlInput(
        time=t,
        head_history=history,
        x1=x0 - np.array([2e-3, 0, 1e-4]),
        x2=x0 - np.array([4e-3, 2e-4, 0]),
        p1=p1,
        p2=p2,
        omega=cfg.omega_low if omega is None else omega,
    )


def test_startup_schedule_is_low():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    n_startup = int(round(cfg.startup_time / cfg.observation_interval))
    for j in range(n_startup + 1):
        assert ctrl.omega_at(j) == pytest.approx(cfg.omega_low)


def test_incomplete_input_keeps_schedule():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    before = dict(ctrl.schedule)
    out = ctrl.decide(make_input(t=30.0, cfg=cfg, p1=np.array([0.05, 0, 0]), p2=None))
    assert ctrl.schedule == before
    assert ctrl.log[-1].rejection == "incomplete input"
    # pending p1 retained for later
    assert ctrl.pending_p1 is not None


def test_nonlinear_window_defers():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    history = straight_history(t_end=30.0)
    history[5] += np.array([0.0, 0.05, 0.0])  # break linearity
    inp = make_input(t=30.0, cfg=cfg, p1=np.array([0.05, 0, 0]),
                     p2=np.array([0.08, 0.01, 0]), history=history)
    before = dict(ctrl.schedule)
    ctrl.decide(inp)
    assert ctrl.schedule == before
    assert ctrl.log[-1].rejection == "trajectory not linear"
    assert ctrl.pending_p2 is not None


def test_above_buckling_defers():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    inp = make_input(t=30.0, cfg=cfg, p1=np.array([0.05, 0, 0]),
                     p2=np.array([0.08, 0.01, 0]), omega=cfg.omega_high)
    ctrl.decide(inp)
    assert ctrl.log[-1].rejection == "above-buckling actuation active"


def test_straight_waypoints_schedule_pure_low():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    t = 30.0
    x0 = np.array([cfg.cruise_speed * t, 0, 0])
    inp = make_input(t=t, cfg=cfg, p1=x0 + np.array([0.02, 0, 0]),
                     p2=x0 + np.array([0.05, 0, 0]))
    ctrl.decide(inp)
    rec = ctrl.log[-1]
    assert rec.rejection is None
    assert rec.alpha_d == pytest.approx(0.0, abs=1e-6)
    assert rec.t_high == 0.0
    idx = int(round(t / cfg.observation_interval))
    future = [ctrl.omega_at(idx + j) for j in range(1, 40)]
    assert all(w in (cfg.omega_low, 0.0) for w in future)
    assert cfg.omega_high not in future


def test_turn_schedules_three_phases():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    t = 30.0
    x0 = np.array([cfg.cruise_speed * t, 0, 0])
    p1 = x0 + np.array([0.03, 0, 0])
    p2 = p1 + 0.04 * np.array([math.cos(math.radians(15)),
                               math.sin(math.radians(15)), 0.0])
    ctrl.decide(make_input(t=t, cfg=cfg, p1=p1, p2=p2))
    rec = ctrl.log[-1]
    assert rec.rejection is None
    assert rec.alpha_d == pytest.approx(15.0, abs=0.2)
    assert rec.t_high > 0.0
    assert rec.t_app >= 0.0
    assert rec.t_app + rec.t_high <= rec.t_app + rec.t_high + rec.t_low
    idx = int(round(t / cfg.observation_interval))
    horizon = rec.t_app + rec.t_high + rec.t_low
    emitted = [ctrl.omega_at(idx + j)
               for j in range(1, int(horizon / cfg.observation_interval))]
    values = set(emitted)
    assert values <= {cfg.omega_low, cfg.omega_high}
    # pulse block matches (t_app, t_app + t_high)
    for j, w in enumerate(emitted, start=1):
        td = j * cfg.observation_interval
        if rec.t_app <= td < rec.t_app + rec.t_high:
            assert w == cfg.omega_high
        else:
            assert w == cfg.omega_low


def test_replay_determinism():
    cfg = make_config()
    stream = []
    t = 30.0
    x0 = np.array([cfg.cruise_speed * t, 0, 0])
    p1 = x0 + np.array([0.03, 0, 0])
    p2 = p1 + np.array([0.04, 0.01, 0.005])
    for j in range(20):
        stream.append(make_input(t=t + 0.5 * j, cfg=cfg, p1=p1, p2=p2))
    out1 = []
    out2 = []
    for out in (out1, out2):
        ctrl = Controller(LinearMaps(), cfg)
        for inp in stream:
            out.append(ctrl.decide(inp))
    assert out1 == out2


def test_emitted_values_binary_plus_stop():
    cfg = make_config()
    ctrl = Controller(LinearMaps(), cfg)
    t = 30.0
    x0 = np.array([cfg.cruise_speed * t, 0, 0])
    p1 = x0 + np.array([0.03, 0, 0])
    p2 = p1 + np.array([0.04, 0.02, 0])
    emitted = set()
    for j in range(2000):
        emitted.add(ctrl.decide(make_input(t=t + 0.5 * j, cfg=cfg, p1=p1, p2=p2)))
    allowed = {0.0, cfg.omega_low, cfg.omega_high}
    assert emitted <= allowed


def test_schedule_exhaustion_stops():
    cfg = make_config(startup_time=5.0)
    ctrl = Controller(LinearMaps(), cfg)
    # never provide complete input: after the startup schedule, omega = 0
    n_startup = int(round(cfg.startup_time / cfg.observation_interval))
    assert ctrl.omega_at(n_startup + 1) == 0.0


def test_waypoint_queue_advance():
    pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0.05, 0], [0.3, 0.05, 0]])
    q = WaypointQueue(points=pts)
    head = np.array([-0.05, 0.0, 0.0])
    p1, p2 = q.current_pair(head)
    assert np.allclose(p1, pts[0]) and np.allclose(p2, pts[1])
    head = np.array([0.05, 0.0, 0.0])
    p1, p2 = q.current_pair(head)
    assert np.allclose(p1, pts[1]) and np.allclose(p2, pts[2])
    # cursor never retreats
    p1, p2 = q.current_pair(np.array([-0.5, 0.0, 0.0]))
    assert np.allclose(p1, pts[1])
    # final leg: incomplete pair
    head = np.array([0.25, 0.05, 0.0])
    p1, p2 = q.current_pair(head)
    assert np.allclose(p1, pts[3])
    assert p2 is None
    # all passed
    p1, p2 = q.current_pair(np.array([0.5, 0.05, 0.0]))
    assert p1 is None and p2 is None


def test_query_clamped_outside_hull():
    from flagsim.learning import TrainControls, train_regressor

    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(40, 2))
    y = x[:, 0] + x[:, 1]
    result = train_regressor(x, y, TrainControls(seed=3, max_epochs=30))
    maps = InverseMaps(result.model, result.model, result.model, result.model)
    _, _, clamped = maps.timing(5.0, 5.0)
    assert clamped
    _, _, clamped = maps.timing(0.5, 0.5)
    assert not clamped


def test_closed_loop_solver_failure_is_simulation_error(monkeypatch):
    # a node-separation failure must reach the CLI as SimulationError (exit 2)
    # naming the simulated time, not escape as a traceback
    params = desk_parameters(node_count=16, time_step=0.005)
    error = hydro.HydroSolveError("nodes closer than the cutoff")
    calls = []

    def failing_step(state, *args, **kwargs):
        calls.append(state.time)
        if len(calls) == 3:
            raise error
        out = state.copy()
        out.time = state.time + params.time_step
        return out, StepDiagnostics()

    monkeypatch.setattr(flagsim.stepper, "step", failing_step)
    waypoints = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    with pytest.raises(SimulationError, match=r"t=0\.010000s") as info:
        run_closed_loop(params, LinearMaps(), waypoints, make_config(), max_duration=1.0)
    assert info.value.__cause__ is error
    assert len(calls) == 3


def test_closed_loop_substep_fallback(monkeypatch):
    # the closed loop steps through the same fallback as simulate: one Newton
    # failure is replaced by two half steps and the half size is kept for the
    # one-second recovery window; a failure at every size is SimulationError
    params = desk_parameters(node_count=16, time_step=0.005)
    waypoints = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    error = NewtonDivergenceError("injected", StepDiagnostics())
    real_step = flagsim.stepper.step

    flaky, sizes = flaky_step(real_step, error)
    monkeypatch.setattr(flagsim.stepper, "step", flaky)
    result = run_closed_loop(params, LinearMaps(), waypoints, make_config(), max_duration=1.5)
    assert sizes == fallback_sizes(0.005, 300)
    assert np.array_equal(result.times, [0.0, 0.5, 1.0, 1.5])
    assert np.all(np.isfinite(result.head))

    flaky, sizes = flaky_step(real_step, error, every_call=True)
    monkeypatch.setattr(flagsim.stepper, "step", flaky)
    with pytest.raises(SimulationError, match="even at a quarter") as info:
        run_closed_loop(params, LinearMaps(), waypoints, make_config(), max_duration=1.5)
    assert info.value.__cause__ is error
    assert sizes == [None, 0.0025, 0.00125]
