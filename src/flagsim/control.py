"""Waypoint-following control: the online decision rule and the closed loop.

The controller runs on the observation clock (one decision per interval).
While the measured trajectory window is linear and all inputs are present,
it plans a three-phase schedule: coast, steering pulse, coast; the wait
before the pulse phase-aligns the periodically rotating body frame so the
desired turn-plane azimuth is realized. Actuation is binary plus stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import GeometryError, polyline_distance
from .params import PhysicalParameters
from .stepper import HeadTrajectory, Integrator, StepControls

# Unused here (Integrator steps the closed loop), but bench/tracer.py replaces
# both attributes of this module by name and fails without them.
from .rod import build_initial_configuration
from .stepper import step


def compute_t_app(beta_desired: float, beta: float, l_desired: float, l: float,
                  omega_low_rpm: float, cruise_speed: float) -> float:
    """Wait time before the steering pulse.

    Angles in degrees, distances in meters, omega in rpm, speed in m/s. The
    first term matches the turn-plane azimuth exactly; the integer number of
    full rotation periods brings the turn point as close as possible to the
    desired one (residual at most half a period of travel). A negative wait
    is lifted by whole periods, preserving the azimuth.
    """
    if omega_low_rpm <= 0.0 or cruise_speed <= 0.0:
        raise ValueError("omega_low_rpm and cruise_speed must be positive")
    period = 60.0 / omega_low_rpm
    dbeta = beta_desired - beta
    kappa = math.floor(omega_low_rpm * (l_desired - l) / (60.0 * cruise_speed)
                       - dbeta / 360.0 + 0.5)
    t_app = dbeta / (6.0 * omega_low_rpm) + period * kappa
    while t_app < 0.0:
        t_app += period
    return t_app


@dataclass(frozen=True)
class ControlConfig:
    omega_low_rpm: float = 3.0
    omega_high_rpm: float = 15.0
    omega_buckling_rpm: float = 10.0
    linearity_threshold: float = 1e-6   # delta_l [m^2]
    history_length: int = 10            # k
    observation_interval: float = 0.5   # delta t [s]
    startup_time: float = 150.0         # t0: coast before the first decision [s]
    cruise_speed: float = 2e-4          # measured below-buckling speed [m/s]
    min_pulse: float = 2.5e-3           # pulses below one step are dropped [s]
    straight_threshold_deg: float = 2.0  # turns this shallow need no pulse

    def __post_init__(self):
        if not self.omega_low_rpm < self.omega_buckling_rpm < self.omega_high_rpm:
            raise ValueError("need omega_low < omega_buckling < omega_high")
        if self.history_length < 3:
            raise ValueError("history_length must be at least 3")
        if self.observation_interval <= 0.0 or self.startup_time <= 0.0:
            raise ValueError("intervals must be positive")
        if not 0.0 < self.cruise_speed < math.inf:
            raise ValueError(f"cruise_speed must be positive and finite, got {self.cruise_speed}")

    @property
    def omega_low(self) -> float:
        return self.omega_low_rpm * 2.0 * math.pi / 60.0

    @property
    def omega_high(self) -> float:
        return self.omega_high_rpm * 2.0 * math.pi / 60.0

    @property
    def omega_buckling(self) -> float:
        return self.omega_buckling_rpm * 2.0 * math.pi / 60.0


@dataclass
class ControlInput:
    """Observation handed to the controller at one decision instant."""

    time: float
    head_history: np.ndarray | None     # (k+1, 3), oldest first, or None if short
    x1: np.ndarray | None
    x2: np.ndarray | None
    p1: np.ndarray | None
    p2: np.ndarray | None
    omega: float                        # currently applied rate [rad/s]


@dataclass
class DecisionRecord:
    time: float
    linearity: float | None = None
    h_d: float | None = None
    l_d: float | None = None
    alpha_d: float | None = None
    beta_d: float | None = None
    t_high: float | None = None
    t_low: float | None = None
    beta: float | None = None
    l: float | None = None
    t_app: float | None = None
    rejection: str | None = None

    def to_json_dict(self) -> dict:
        return {k: (None if v is None else float(v) if isinstance(v, (int, float, np.floating)) else v)
                for k, v in self.__dict__.items()}


class InverseMaps:
    """Prediction surface over the four trained regressors.

    Queries outside the training hull are clamped to it and flagged; the
    clamp events surface in the decision log.
    """

    def __init__(self, f_high, f_low, f_beta, f_l):
        self.f_high = f_high
        self.f_low = f_low
        self.f_beta = f_beta
        self.f_l = f_l

    @staticmethod
    def _query(model, x: np.ndarray) -> tuple[float, bool]:
        lo = np.asarray(model.metadata.get("input_low", [-np.inf] * x.shape[0]))
        hi = np.asarray(model.metadata.get("input_high", [np.inf] * x.shape[0]))
        clamped = np.clip(x, lo, hi)
        was_clamped = bool(np.any(clamped != x))
        return float(model.predict(clamped[None, :])[0, 0]), was_clamped

    def timing(self, h: float, alpha: float) -> tuple[float, float, bool]:
        x = np.array([h, alpha])
        t_high, c1 = self._query(self.f_high, x)
        t_low, c2 = self._query(self.f_low, x)
        return t_high, t_low, c1 or c2

    def realized(self, t_high: float, t_low: float) -> tuple[float, float, bool]:
        x = np.array([t_high, t_low])
        beta, c1 = self._query(self.f_beta, x)
        l, c2 = self._query(self.f_l, x)
        return beta, l, c1 or c2


class Controller:
    """Online decision rule on the observation clock.

    State persists across steps: the pending angular-velocity schedule and
    the last received waypoints (inputs are never erased, only updated).
    Deterministic and replayable: the emitted schedule is a pure function of
    the input stream.

    The start-up schedule holds omega_low over samples 0..n_startup. The
    decision at sample n_startup is still rejected as "startup" (its time
    equals startup_time), and the first plan, at n_startup + 1, writes the
    schedule from n_startup + 2 on. So omega_at(n_startup + 1) is 0: the
    motor stops for one observation interval after start-up.
    """

    def __init__(self, maps: InverseMaps, config: ControlConfig):
        self.maps = maps
        self.config = config
        self.schedule: dict[int, float] = {}
        self.pending_p1: np.ndarray | None = None
        self.pending_p2: np.ndarray | None = None
        self.log: list[DecisionRecord] = []
        n_startup = int(round(config.startup_time / config.observation_interval))
        n_startup = max(n_startup, config.history_length)
        for j in range(n_startup + 1):
            self.schedule[j] = config.omega_low

    def omega_at(self, step_index: int) -> float:
        """Actuation over [step_index, step_index+1) observation intervals."""
        return self.schedule.get(step_index, 0.0)

    def decide(self, inp: ControlInput) -> float:
        """Consume one observation, update the schedule, emit omega(t + dt)."""
        cfg = self.config
        dt = cfg.observation_interval
        idx = int(round(inp.time / dt))
        record = DecisionRecord(time=inp.time)

        if inp.p1 is not None:
            self.pending_p1 = np.asarray(inp.p1, dtype=float)
        if inp.p2 is not None:
            self.pending_p2 = np.asarray(inp.p2, dtype=float)

        try:
            self._plan(inp, idx, record)
        except GeometryError as exc:
            record.rejection = f"{type(exc).__name__}: {exc}"
        self.log.append(record)
        return self.omega_at(idx + 1)

    def _plan(self, inp: ControlInput, idx: int, record: DecisionRecord) -> None:
        cfg = self.config
        complete = (
            inp.head_history is not None
            and inp.head_history.shape[0] == cfg.history_length + 1
            and inp.x1 is not None and inp.x2 is not None
            and self.pending_p1 is not None and self.pending_p2 is not None
        )
        if inp.time <= cfg.startup_time or not complete:
            record.rejection = "startup" if inp.time <= cfg.startup_time else "incomplete input"
            return
        if inp.omega >= cfg.omega_buckling:
            record.rejection = "above-buckling actuation active"
            return

        def desired_in_frame(history, x1, x2, p1, p2):
            fit = geometry.fit_line(history)
            record.linearity = fit.residual
            if fit.residual > cfg.linearity_threshold:
                return None
            x0 = history[-1]
            v = geometry.direction_vector(fit, x0, x1)
            frame = geometry.body_frame(v, x1, x2)
            try:
                p1_hat = geometry.project_p1(v, x0, p1, p2)
            except geometry.DegeneratePlaneError:
                # waypoints collinear with the motion: any containing plane
                # works, so project onto the motion line itself (a straight run)
                p1_hat = x0 + float(np.dot(p1 - x0, v)) * v
            return geometry.desired_parameters(x0, p1_hat, p2, frame)

        desired = geometry.in_x_frame(
            desired_in_frame, np.asarray(inp.head_history, dtype=float),
            np.asarray(inp.x1, dtype=float), np.asarray(inp.x2, dtype=float),
            self.pending_p1, self.pending_p2)
        if desired is None:
            record.rejection = "trajectory not linear"
            return

        t_high, t_low, clamped_t = self.maps.timing(desired.h, desired.alpha)
        t_high = max(t_high, 0.0)
        t_low = max(t_low, cfg.observation_interval)
        if desired.alpha <= cfg.straight_threshold_deg or t_high < cfg.min_pulse:
            t_high = 0.0
        beta, l, clamped_b = self.maps.realized(t_high, t_low)
        t_app = compute_t_app(desired.beta, beta, desired.l, l,
                              cfg.omega_low_rpm, cfg.cruise_speed)

        record.h_d = desired.h
        record.l_d = desired.l
        record.alpha_d = desired.alpha
        record.beta_d = desired.beta
        record.t_high = t_high
        record.t_low = t_low
        record.beta = beta
        record.l = l
        record.t_app = t_app
        if clamped_t or clamped_b:
            record.rejection = "query clamped to training hull"

        # rewrite the future schedule (three phases at the observation grid)
        dt = cfg.observation_interval
        horizon = t_app + t_high + t_low
        for key in [k for k in self.schedule if k > idx]:
            del self.schedule[key]
        j = 1
        while j * dt < horizon:
            if t_app <= j * dt < t_app + t_high:
                self.schedule[idx + j] = cfg.omega_high
            else:
                self.schedule[idx + j] = cfg.omega_low
            j += 1


@dataclass
class ClosedLoopResult(HeadTrajectory):
    """A closed-loop run's samples, decision log and waypoint passes."""

    log: list
    waypoint_pass_times: list   # (waypoint index, time) per pass
    tracking_error: np.ndarray  # (S,) head distance to the waypoint polyline [m]


@dataclass
class WaypointQueue:
    """Ordered waypoints with a monotone pass cursor.

    cursor counts waypoints already passed. While the head lies between
    consecutive waypoints i and i+1 the emitted pair is (i+1, i+2); on the
    final leg only the last waypoint remains and the pair is incomplete.
    """

    points: np.ndarray   # (K, 3)
    cursor: int = 0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    def _passed(self, head: np.ndarray, i: int) -> bool:
        pts = self.points
        if i + 1 < pts.shape[0]:
            direction = pts[i + 1] - pts[i]
        else:
            direction = pts[i] - pts[i - 1]
        return float(np.dot(head - pts[i], direction)) >= 0.0

    def current_pair(self, head: np.ndarray):
        k = self.points.shape[0]
        while self.cursor < k and self._passed(head, self.cursor):
            self.cursor += 1
        if self.cursor + 1 < k:
            return self.points[self.cursor], self.points[self.cursor + 1]
        if self.cursor + 1 == k:
            return self.points[self.cursor], None
        return None, None

    def remaining(self) -> int:
        return max(self.points.shape[0] - self.cursor, 0)


def run_closed_loop(params: PhysicalParameters, maps: InverseMaps,
                    waypoints: np.ndarray, config: ControlConfig,
                    controls: StepControls | None = None,
                    max_duration: float = 2000.0) -> ClosedLoopResult:
    """Couple the forward dynamics with the controller on a universal clock.

    Runs until the schedule is exhausted with no waypoints left (the
    controller emits zero and the robot stops) or max_duration elapses.
    Tracking error is the distance from the head to the waypoint polyline at
    every observation instant. The robot is stepped by Integrator, the same
    loop as simulate, so it gets the substep fallback, and a solver failure
    is raised as SimulationError naming the simulated time. The samples are
    the integrator's, each recorded with the rate applied from it onwards,
    so simulating the recorded rates as a profile replays the run. The
    recorded rate is 0 for the one interval after start-up that Controller
    leaves unscheduled.
    """
    queue = WaypointQueue(points=waypoints)
    if queue.points.shape[0] < 2:
        raise ValueError("need at least two waypoints")
    integrator = Integrator(params, controls)
    dt_obs = config.observation_interval
    steps_per_obs = integrator.steps_per(dt_obs)
    controller = Controller(maps, config)

    k = config.history_length
    samples = integrator.samples
    w = controller.omega_at(0)
    integrator.record(w)
    pass_times: list = []

    n_obs = int(round(max_duration / dt_obs))
    zero_streak = 0
    for obs_i in range(1, n_obs + 1):
        # Each sample records the rate applied from it onwards: decide()
        # rewrites only the schedule after the current sample.
        integrator.advance(w, steps_per_obs)
        w_applied, w = w, controller.omega_at(obs_i)
        integrator.record(w)
        t_now, x0, x1, x2, _ = samples[-1]

        cursor_before = queue.cursor
        p1, p2 = queue.current_pair(x0)
        if queue.cursor != cursor_before:
            pass_times.extend([(queue.cursor + i, t_now)
                               for i in range(queue.cursor - cursor_before)])
        history = None
        if len(samples) >= k + 1:
            history = np.array([s[1] for s in samples[-(k + 1):]])
        inp = ControlInput(time=t_now, head_history=history, x1=x1, x2=x2,
                           p1=p1, p2=p2, omega=w_applied)
        if controller.decide(inp) == 0.0:
            zero_streak += 1
            mission_done = queue.remaining() <= 1 or p2 is None
            if mission_done or zero_streak >= 20:
                break
        else:
            zero_streak = 0

    errors = np.array([polyline_distance(s[1], queue.points) for s in samples])
    return ClosedLoopResult.from_samples(samples, log=controller.log,
                                         waypoint_pass_times=pass_times, tracking_error=errors)
