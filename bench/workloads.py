"""The benchmark's three workloads: inputs from the seed, operations, checks.

An operation is one simulated trajectory, one closed-loop run or one
training fit. Each is attempted, timed and checked; an operation that
raises or fails a check counts as failed and the run goes on.

Checks: every trajectory is finite; trajectories computed twice in one
run are bit-identical; the final head displacement matches the reference
recorded with the benchmark (``reference.json``) within REFERENCE_RTOL;
a generated dataset has one row or rejection per requested segment and
finite rows. Dataset angles are deliberately not checked.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import flagsim.config
import flagsim.control
import flagsim.elastic
import flagsim.learning
import flagsim.rod
import flagsim.stepper
from flagsim.geometry import SteeringDatapoint

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Relative tolerance on the final head displacement against the reference.
# Reordered floating-point arithmetic moves it by ~1e-10; a change in the
# physics moves it by far more than 1e-3.
REFERENCE_RTOL = 1e-3

# The tiny rod: the desk preset at N=16 and dt=5 ms, observed every 0.5 s.
TINY_OVERRIDES = {
    "physical": {"node_count": 16, "time_step_s": 0.005},
    "control": {"observation_interval_s": 0.5, "startup_time_s": 5.0},
}

PAPER_DURATION = 0.2      # simulated seconds per paper-cruise operation
PAPER_OBSERVATION = 0.05  # [s]

GEN_TOTAL_TIME = 13.0                   # [s] per pulse trajectory
GEN_PULSES = (0.5, 1.0, 1.5, 2.0)       # t_H of the pulsed trajectory [s]
GEN_SEGMENTS = 4

TRAIN_ROWS = 200
TRAIN_EPOCHS = 15   # fixed budget: patience equals max_epochs
TRAIN_REPEATS = 2

LOOP_VARIANTS = 8
LOOP_DURATION = 10.0  # simulated seconds per closed-loop run
LOOP_AHEAD = (7.0, 12.0, 18.0, 26.0)  # waypoint distances, in seconds of cruise
LOOP_OFFSET = 2.5                     # sideways offset, in seconds of cruise
LOOP_SIDES = (0.0, 4.1, 0.2, 3.2)      # azimuth of each offset [rad]
# Tiny-rod cruise at 3 rpm from the built configuration (head motion
# between 5 s and 10 s).
TINY_CRUISE_SPEED = 6.7e-5                           # [m/s]
TINY_CRUISE_DIRECTION = np.array([0.929, -0.368, 0.034])


def tiny_config():
    return flagsim.config.load_config(None, "desk", overrides=TINY_OVERRIDES)


def paper_config():
    return flagsim.config.load_config(None, "paper")


@dataclass
class Setup:
    cfg: object
    state: object
    rest: object


CONFIGS = {"paper": paper_config, "tiny": tiny_config}


def build_setup(rod: str) -> Setup:
    cfg = CONFIGS[rod]()
    state = flagsim.rod.build_initial_configuration(cfg.physical)
    rest = flagsim.elastic.RestConfiguration.from_built_state(cfg.physical, state)
    return Setup(cfg, state, rest)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs from the seed


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotated_state(state, rotation: np.ndarray):
    """The built rod turned rigidly about the origin (the head centre)."""
    out = state.copy()
    out.positions = state.positions @ rotation.T
    out.ref_d1 = state.ref_d1 @ rotation.T
    out.ref_d2 = state.ref_d2 @ rotation.T
    return out


def synthetic_dataset(variant: int, rows: int = TRAIN_ROWS) -> list:
    """Steering rows shaped like the tiny rod's: turn grows with t_H."""
    rng = np.random.default_rng(1000 + variant)
    t_high = rng.uniform(0.0, 3.0, rows)
    t_low = rng.uniform(1.0, 10.0, rows)
    v = TINY_CRUISE_SPEED
    h = v * t_low + 2e-5 + rng.normal(0.0, 1e-6, rows)
    alpha = np.clip(20.0 * t_high + rng.normal(0.0, 1.0, rows), 0.0, 180.0)
    beta = -10.0 + 8.0 * t_high + rng.normal(0.0, 1.0, rows)
    l = v * (t_low - 2.0) + rng.normal(0.0, 1e-6, rows)
    return [SteeringDatapoint(*row) for row in zip(t_high, t_low, h, alpha, beta, l)]


def loop_waypoints() -> np.ndarray:
    """Waypoints ahead of the robot, off its line by LOOP_OFFSET seconds of cruise.

    The sides are chosen so that one steering pulse falls inside
    LOOP_DURATION for every set of training rows, which keeps the work of
    a run the same from seed to seed.
    """
    u = TINY_CRUISE_DIRECTION / np.linalg.norm(TINY_CRUISE_DIRECTION)
    side = np.cross(u, [0.0, 0.0, 1.0])
    side /= np.linalg.norm(side)
    up = np.cross(u, side)
    v = TINY_CRUISE_SPEED
    return np.array([v * ahead * u + v * LOOP_OFFSET * (math.cos(angle) * side
                                                        + math.sin(angle) * up)
                     for ahead, angle in zip(LOOP_AHEAD, LOOP_SIDES)])


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Run:
    """What one benchmark run attempted, timed and found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rates: list = field(default_factory=list)       # simulated s per wall s, per operation
    train_times: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    ops: int = 0                                    # operations of the measured phase
    units: dict = field(default_factory=dict)       # key -> (arrays, sim/wall), first seen

    def attempt(self, label: str, fn):
        """Run one operation; fn returns a list of failed checks."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def remember(self, key, arrays, rate, problems: list) -> None:
        """Keep a unit's outputs, or check them bit for bit against the first."""
        if key not in self.units:
            self.units[key] = (arrays, rate)
        elif not same_bits(self.units[key][0], arrays):
            problems.append(f"{key}: repeated computation is not bit-identical")


def same_bits(a, b) -> bool:
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def sim_seconds(traj) -> float:
    return float(traj.times[-1] - traj.times[0])


def trajectory_arrays(traj) -> tuple:
    return (traj.times, traj.head, traj.node1, traj.node2, traj.omega)


def check_trajectory(traj, displacement, reference, problems: list) -> None:
    if not all(np.all(np.isfinite(a)) for a in trajectory_arrays(traj)):
        problems.append("trajectory not finite")
        return
    ref = np.asarray(reference)
    err = float(np.linalg.norm(displacement - ref))
    if not err <= REFERENCE_RTOL * float(np.linalg.norm(ref)):
        problems.append(f"head displacement {displacement.tolist()} is "
                        f"{err:.3e} m from the reference {ref.tolist()}")


# ---------------------------------------------------------------------------
# training


def train_maps(run: Run, variant: int):
    """TRAIN_REPEATS identical fits of the four inverse maps; returns the maps."""
    data = synthetic_dataset(variant)
    controls = flagsim.learning.TrainControls(seed=variant, max_epochs=TRAIN_EPOCHS,
                                              patience=TRAIN_EPOCHS)
    fitted = []

    def fit():
        start = time.perf_counter()
        models = flagsim.learning.fit_inverse_maps(data, controls)
        run.train_times.append(time.perf_counter() - start)
        maps = [models.f_high.model, models.f_low.model, models.f_beta.model,
                models.f_l.model]
        arrays = tuple(a for m in maps for a in (*m.weights, *m.biases))
        problems = []
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("model weights not finite")
        if fitted and not same_bits(fitted[0][1], arrays):
            problems.append("repeated fit is not bit-identical")
        fitted.append((maps, arrays))
        return problems

    for i in range(TRAIN_REPEATS):
        run.attempt(f"fit {i}", fit)
    return flagsim.control.InverseMaps(*fitted[0][0]) if fitted else None


# ---------------------------------------------------------------------------
# workloads


class PaperCruise:
    """Paper rod (N=122, dt=1 ms) at a constant 3 rpm from the built state.

    Each operation simulates PAPER_DURATION from the built configuration
    turned by one of two seeded rotations, alternately, so every run
    repeats an input and the physics is checked in a seeded frame.
    """

    name = "paper-cruise"
    rod = "paper"
    min_ops = 3

    def __init__(self, seed: int, setup: Setup):
        rng = np.random.default_rng(seed)
        self.rotations = [random_rotation(rng), random_rotation(rng)]
        self.setup = setup

    def prepare(self, run: Run) -> None:
        pass

    def unit(self, k: int):
        """One cruise; the displacement is turned back into the built frame."""
        cfg = self.setup.cfg
        rotation = self.rotations[k % 2]
        profile = flagsim.stepper.AngularVelocityProfile.constant(cfg.control.omega_low)
        start = time.perf_counter()
        traj = flagsim.stepper.simulate(
            cfg.physical, profile, PAPER_DURATION, PAPER_OBSERVATION,
            controls=cfg.solver, initial_state=rotated_state(self.setup.state, rotation),
            rest=self.setup.rest,
        )
        wall = time.perf_counter() - start
        displacement = (traj.head[-1] - traj.head[0]) @ rotation
        return f"rotation {k % 2}", traj, wall, displacement

    def operation(self, run: Run, k: int, reference: dict) -> None:
        def op():
            key, traj, wall, displacement = self.unit(k)
            problems = []
            check_trajectory(traj, displacement, reference[self.name]["head_displacement_m"],
                             problems)
            run.rates.append(sim_seconds(traj) / wall)
            run.remember(key, trajectory_arrays(traj), sim_seconds(traj) / wall, problems)
            return problems
        run.attempt(f"cruise {k}", op)

    def probe(self):
        key, traj, wall, _ = self.unit(0)
        return key, trajectory_arrays(traj), sim_seconds(traj) / wall


class _Capture:
    """Records every trajectory learning.simulate returns while active."""

    def __init__(self):
        self.calls = []  # (trajectory or None, wall seconds)

    def __enter__(self):
        self.original = flagsim.learning.simulate

        def capture(*args, **kwargs):
            start = time.perf_counter()
            try:
                traj = self.original(*args, **kwargs)
            except Exception:
                self.calls.append((None, time.perf_counter() - start))
                raise
            self.calls.append((traj, time.perf_counter() - start))
            return traj

        flagsim.learning.simulate = capture
        return self

    def __exit__(self, *exc):
        flagsim.learning.simulate = self.original


class TinyGenData:
    """learning.generate_dataset on the tiny rod, one worker, grid (0, t_H).

    One operation per run. Its trajectories are the operations counted:
    the grid's two and the built-in cruise calibration (settle time plus
    40 s).
    """

    name = "tiny-gen-data"
    rod = "tiny"
    min_ops = 1

    def __init__(self, seed: int, setup: Setup):
        self.setup = setup
        self.t_pulse = GEN_PULSES[seed % len(GEN_PULSES)]
        self.seed = seed

    def prepare(self, run: Run) -> None:
        pass

    def spec(self):
        return flagsim.learning.DatasetSpec(
            total_time=GEN_TOTAL_TIME, t_high_grid=(0.0, self.t_pulse),
            settle_time=self.setup.cfg.control.startup_time,
            segments_per_trajectory=GEN_SEGMENTS, seed=self.seed,
        )

    def operation(self, run: Run, k: int, reference: dict) -> None:
        cfg = self.setup.cfg
        spec = self.spec()
        with _Capture() as cap:
            start = time.perf_counter()
            try:
                out = flagsim.learning.generate_dataset(
                    cfg.physical, spec,
                    omega_low=cfg.control.omega_low,
                    omega_high=cfg.control.omega_high,
                    omega_buckling=cfg.control.omega_buckling_rpm * 2.0 * math.pi / 60.0,
                    controls=cfg.solver, dt_obs=cfg.control.observation_interval,
                    k=cfg.control.history_length, workers=1,
                )
                error = None
            except Exception as exc:  # its trajectories are counted below
                traceback.print_exc(file=sys.stderr)
                out, error = None, exc
            wall = time.perf_counter() - start

        # generate_dataset runs the grid in order, then the calibration.
        labels = ["t_H=0", f"t_H={self.t_pulse}", "cruise"]
        calls = dict(zip(labels, cap.calls))
        complete = len(calls) == len(labels) and all(t is not None for t, _ in calls.values())
        if out is not None and complete:
            run.rates.append(sum(sim_seconds(t) for t, _ in calls.values()) / wall)
        if out is not None:
            run.counts["datapoints"] += len(out.datapoints)
            run.counts["segment_rejections"] += len(out.rejections)
        cruise = calls.get("cruise", (None, 0.0))[0]
        i_pulse = int(round(spec.settle_time / cfg.control.observation_interval))

        for label in labels:
            def op(label=label):
                traj, seconds = calls.get(label, (None, 0.0))
                if traj is None:
                    return ["trajectory not simulated"]
                problems = []
                check_trajectory(traj, traj.head[-1] - traj.head[0],
                                 reference[self.name][label], problems)
                if label == "cruise":
                    return problems
                # Up to the pulse every trajectory is the cruise run again
                # (the recorded omega already switches at the pulse instant).
                end = traj.times.shape[0] if label == "t_H=0" else i_pulse + 1
                if cruise is not None and not same_bits(
                        tuple(a[:end] for a in trajectory_arrays(traj)[:4]),
                        tuple(a[:end] for a in trajectory_arrays(cruise)[:4])):
                    problems.append("differs in bits from the cruise run where the inputs are equal")
                run.remember(label, trajectory_arrays(traj), sim_seconds(traj) / seconds,
                             problems)
                return problems
            run.attempt(label, op)

        # The dataset is judged once every trajectory came back; a bad one
        # fails the grid without adding an attempt of its own.
        if not complete:
            return
        problems = [f"generate_dataset raised {type(error).__name__}: {error}"] if error else []
        if out is not None:
            expected = GEN_SEGMENTS * len(spec.t_high_grid)
            rows = len(out.datapoints) + len(out.rejections)
            if rows != expected:
                problems.append(f"{rows} rows plus rejections, expected {expected}")
            values = [(d.t_high, d.t_low, d.h, d.alpha, d.beta, d.l) for d in out.datapoints]
            if not np.all(np.isfinite(np.array(values, dtype=float))):
                problems.append("dataset rows not finite")
        if problems:
            run.failed += 1
            run.problems.extend(f"dataset: {p}" for p in problems)

    def pulse_trajectory(self, t_pulse: float):
        """What generate_dataset simulates for one grid entry."""
        cfg = self.setup.cfg
        profile = flagsim.stepper.AngularVelocityProfile.pulse(
            cfg.control.omega_low, cfg.control.omega_high,
            cfg.control.startup_time, t_pulse)
        return flagsim.stepper.simulate(cfg.physical, profile, GEN_TOTAL_TIME,
                                        cfg.control.observation_interval,
                                        controls=cfg.solver)

    def probe(self):
        start = time.perf_counter()
        traj = self.pulse_trajectory(self.t_pulse)
        rate = sim_seconds(traj) / (time.perf_counter() - start)
        return f"t_H={self.t_pulse}", trajectory_arrays(traj), rate


class TinyClosedLoop:
    """Inverse maps trained on seeded rows, then control.run_closed_loop.

    The seed picks the training rows (one of LOOP_VARIANTS sets). Every
    operation then runs the same waypoints for LOOP_DURATION simulated
    seconds, so repeats are checked bit for bit.
    """

    name = "tiny-closed-loop"
    rod = "tiny"
    min_ops = 2

    def __init__(self, seed: int, setup: Setup):
        self.setup = setup
        self.variant = seed % LOOP_VARIANTS
        self.waypoints = loop_waypoints()
        self.maps = None

    def prepare(self, run: Run) -> None:
        self.maps = train_maps(run, self.variant)

    def unit(self):
        if self.maps is None:
            raise RuntimeError("no inverse maps: every training fit failed")
        cfg = self.setup.cfg
        control_cfg = replace(cfg.control, cruise_speed=TINY_CRUISE_SPEED)
        start = time.perf_counter()
        result = flagsim.control.run_closed_loop(
            cfg.physical, self.maps, self.waypoints, control_cfg,
            controls=cfg.solver, max_duration=LOOP_DURATION,
        )
        return result, time.perf_counter() - start

    def operation(self, run: Run, k: int, reference: dict) -> None:
        def op():
            result, wall = self.unit()
            problems = []
            check_trajectory(result, result.head[-1] - result.head[0],
                             reference[self.name][str(self.variant)], problems)
            run.rates.append(sim_seconds(result) / wall)
            run.remember("closed loop", trajectory_arrays(result), sim_seconds(result) / wall,
                         problems)
            run.counts["decisions"] += len(result.log)
            run.counts["planned"] += sum(r.t_high is not None for r in result.log)
            run.counts["waypoints_passed"] += len(result.waypoint_pass_times)
            run.counts["max_tracking_error_m"] = max(
                run.counts["max_tracking_error_m"], float(np.max(result.tracking_error)), 0.0)
            return problems
        run.attempt(f"closed loop {k}", op)

    def probe(self):
        result, wall = self.unit()
        return "closed loop", trajectory_arrays(result), sim_seconds(result) / wall


WORKLOADS = {w.name: w for w in (PaperCruise, TinyGenData, TinyClosedLoop)}
