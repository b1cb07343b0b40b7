"""Time integration of the coupled rod/fluid system.

Each step treats the hydrodynamic force explicitly (evaluated at the current
configuration and velocities) and the elastic force implicitly, solving the
discrete balance with damped Newton. The first-edge twist rate is prescribed
by the actuation command; the head spin follows from torque balance.

Integrator is the one stepping loop: Integrator.observe samples it on an
observation grid (simulate and the dataset settle run through it) and
control.run_closed_loop advances it between controller decisions, so all
share the mobility-spectrum cache, the substep fallback and the error
reporting. Integrator.time = steps * dt is the one clock of a run: RodState
holds the rod and no time. The integrator also owns the run's samples
(time, x_0, x_1, x_2 and the rate applied from the sample onwards), which
every caller records through Integrator.record. An integrator is therefore
a whole checkpoint: Integrator.copy forks a run exactly, samples included,
and simulate continues a run from such a checkpoint, so runs that share a
start compute it once. step is one time step and holds no state between
calls.

The drag solve goes through the mobility spectrum with its eigenvalues
floored at MOBILITY_FLOOR times the local drag (hydro.clamped_spectrum).
step takes the spectrum from its caller. Integrator keeps one cache of it,
which the full step and the fallback substeps share, and rebuilds it every
MOBILITY_REFRESH seconds of simulated time: once per
round(MOBILITY_REFRESH / dt) steps, each substep counting as one.

Newton stops at a residual norm of NEWTON_TOL times the force scale and
stalls after MAX_NEWTON_ITERS iterations. Like the spectrum's, these are
constants: StepControls carries only the step size the substeps change.

Cost split of step. Per run (shared through the arguments or cached per
rod size): the rest configuration with its stiffnesses and lumped masses, and
the band positions of the pinned twist DOF. Per step: the committed frames
(elastic.CommittedFrames), the explicit drift dt v_old, M/dt^2 (dt changes
with the substep fallback), the hydrodynamic force and the gbsv handle.
Per force evaluation: the elastic force and the residual, whose pinned
entry is zeroed so its norm needs no masked copy; per Newton iteration:
the band Jacobian, solved in place. Nothing else is kept between steps,
so Integrator.copy forks a run exactly.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import hydro
from .elastic import (
    BAND_ROWS,
    BANDWIDTH,
    DIAG_ROW,
    CommittedFrames,
    DegenerateEdgeError,
    RestConfiguration,
    evaluate_elastics,
    jacobian_from_eval,
)
from .params import PhysicalParameters
from .rod import RodState, build_initial_configuration, node_dof_indices, unpack_dofs


class NewtonDivergenceError(RuntimeError):
    def __init__(self, message: str, diagnostics: "StepDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


class SimulationError(RuntimeError):
    pass


MOBILITY_FLOOR = 0.25  # spectral floor of the drag solve, as a fraction of the local drag
MOBILITY_REFRESH = 0.04  # simulated seconds between spectrum rebuilds in Integrator
NEWTON_TOL = 1e-6      # Newton's force-residual tolerance, relative to the force scale
MAX_NEWTON_ITERS = 50  # Newton iterations before a step counts as stalled


@dataclass(frozen=True)
class StepControls:
    """The step size of step: the benchmark passes it as controls= and counts substeps by it."""

    time_step: float | None = None  # None -> PhysicalParameters.time_step; substeps set it


@dataclass
class StepDiagnostics:
    iterations: int = 0
    converged: bool = False


@dataclass(frozen=True)
class AngularVelocityProfile:
    """Piecewise-constant, right-continuous actuation schedule omega(t)."""

    times: np.ndarray   # strictly increasing breakpoints [s]
    omegas: np.ndarray  # [rad/s]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        w = np.asarray(self.omegas, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.size == 0:
            raise ValueError("times and omegas must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
            raise ValueError("breakpoint times and omegas must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "omegas", w)

    def value_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return float(self.omegas[max(idx, 0)])

    @classmethod
    def constant(cls, omega: float) -> "AngularVelocityProfile":
        return cls(times=np.array([0.0]), omegas=np.array([omega]))

    @classmethod
    def pulse(cls, omega_low: float, omega_high: float, t_start: float,
              high_duration: float) -> "AngularVelocityProfile":
        """Low until t_start, high for high_duration, then low again."""
        if high_duration <= 0.0:
            return cls.constant(omega_low)
        return cls(
            times=np.array([0.0, t_start, t_start + high_duration]),
            omegas=np.array([omega_low, omega_high, omega_low]),
        )


@dataclass
class HeadTrajectory:
    """Head and first-node samples on the observation grid."""

    times: np.ndarray   # (S,)
    head: np.ndarray    # (S, 3) x_0
    node1: np.ndarray   # (S, 3) x_1
    node2: np.ndarray   # (S, 3) x_2
    omega: np.ndarray   # (S,) rate applied from this sample onwards [rad/s]

    @classmethod
    def from_samples(cls, samples: list, **extra):
        """The (time, x_0, x_1, x_2, omega) entries of Integrator.samples as columns."""
        return cls(*map(np.array, zip(*samples)), **extra)


def sample_count(duration: float, observation_interval: float) -> int:
    """Samples on the observation grid over [0, duration], both ends included."""
    return int(math.floor(duration / observation_interval + 1e-9)) + 1


def mobility_spectrum(state: RodState, params: PhysicalParameters) -> tuple[np.ndarray, np.ndarray]:
    """Flagellar mobility spectrum at the current configuration, clamped at MOBILITY_FLOOR."""
    mobility = hydro.assemble_mobility(
        state.positions[1:], hydro.node_tangents(state.tangents),
        params.viscosity, params.cutoff,
    )
    return hydro.clamped_spectrum(mobility, MOBILITY_FLOOR, params.viscosity)


def external_force(state: RodState, params: PhysicalParameters,
                   spectrum: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Hydrodynamic force vector f_ext over all DOFs at the current configuration.

    The head velocity is the state's velocities[0:3]; the head spin is
    closed self-consistently with the flagellar forces by torque balance
    inside the solve. spectrum is the clamped mobility spectrum to solve
    with (mobility_spectrum), taken at this configuration or at one a few
    steps back: Integrator rebuilds its cached spectrum every
    MOBILITY_REFRESH seconds, and the rod drifts a fraction of an edge
    length in between.
    """
    n = params.node_count
    pos = state.positions
    r_h = pos[1:] - pos[0]
    pos_idx, _ = node_dof_indices(n)
    node_vel = state.velocities[pos_idx]
    f_flag, _ = hydro.solve_forces_and_head_spin(
        spectrum, node_vel[1:], r_h, node_vel[0],
        params.head_radius, params.viscosity,
    )
    f_head = hydro.head_force(f_flag, r_h, params.head_radius, params.viscosity, node_vel[0])
    f_ext = np.zeros(4 * n - 1)
    f_ext[pos_idx[1:]] = f_flag
    f_ext[0:3] = f_head

    # Mount couple: the base edge is fixed in the head, so reorienting it
    # spins the head about a transverse axis against its rotational Stokes
    # drag. Realized as a drag force pair on the relative perpendicular
    # velocity of the base edge (torque 8 pi mu b^3 * W_perp over the arm).
    e0 = r_h[0]
    e0_len2 = float(np.dot(e0, e0))
    v_rel = node_vel[1] - node_vel[0]
    v_perp = v_rel - (np.dot(v_rel, e0) / e0_len2) * e0
    mount = (8.0 * math.pi * params.viscosity * params.head_radius ** 3 / e0_len2) * v_perp
    f_ext[4:7] -= mount
    f_ext[0:3] += mount
    return f_ext


@functools.cache
def _pinned_entries(d: int) -> np.ndarray:
    """Flat band-storage indices of row and column 3 of a (d, d) band matrix, diagonal last."""
    cols = np.arange(min(3 + BANDWIDTH + 1, d))  # a[3, j], |3 - j| <= BANDWIDTH
    return np.concatenate([(DIAG_ROW + 3 - cols) * d + cols,
                           np.arange(BAND_ROWS) * d + 3, [DIAG_ROW * d + 3]])


def step(state: RodState, rest: RestConfiguration, params: PhysicalParameters, omega: float,
         spectrum: tuple[np.ndarray, np.ndarray],
         controls: StepControls) -> tuple[RodState, StepDiagnostics]:
    """Advance the system one time step under actuation rate omega [rad/s].

    spectrum is the clamped mobility spectrum, passed on to external_force.
    controls stays the sixth positional argument: bench/tracer.py counts
    substeps by the controls it finds there.
    What depends only on the committed state (its frames, the explicit
    drift dt v_old, the hydrodynamic force) is computed once here and shared
    by every force evaluation of the Newton solve.
    """
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    dt = controls.time_step if controls.time_step is not None else params.time_step
    q_old = state.dof_vector()
    drift = dt * state.velocities
    committed = CommittedFrames.from_state(state)
    inertia = rest.mass / dt ** 2

    f_ext = external_force(state, params, spectrum)

    q_new = q_old + drift
    q_new[3] = q_old[3] + omega * dt

    def force_eval(q):
        pos, th = unpack_dofs(q)
        ev = evaluate_elastics(pos, th, committed, rest)
        residual = inertia * (q - q_old - drift) - ev.force - f_ext
        residual[3] = 0.0  # theta^0 carries the prescribed rotation: no balance
        return ev, residual, math.sqrt(residual @ residual)

    diag = StepDiagnostics()
    converged = False
    ev, residual, rnorm = force_eval(q_new)
    # Floor keeps the tolerance above force rounding noise (~1e-12 EA) so a
    # force-free equilibrium converges immediately.
    scale = max(math.sqrt(f_ext @ f_ext), math.sqrt(ev.force @ ev.force),
                1e-6 * rest.stretching)
    pinned = _pinned_entries(q_old.shape[0])
    dgbsv = get_lapack_funcs(("gbsv",), (q_old,))[0]
    for it in range(MAX_NEWTON_ITERS):
        if rnorm <= NEWTON_TOL * scale:
            converged = True
            break
        # jac - M/dt^2 is the Newton matrix negated (exactly, and so is the
        # LU), so its solution is the Newton step negated: q + alpha dq.
        jac = jacobian_from_eval(ev, rest)
        jac[DIAG_ROW] -= inertia
        # Pin the constrained twist DOF: unit row/column; its residual is 0.
        jac.flat[pinned] = 0.0
        jac[DIAG_ROW, 3] = 1.0
        _, _, dq, info = dgbsv(BANDWIDTH, BANDWIDTH, jac, residual, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise NewtonDivergenceError(f"singular Newton system (dgbsv info={info})", diag)

        # Backtracking on the residual norm.
        alpha = 1.0
        best = None
        for _ in range(10):
            q_try = q_new + alpha * dq
            q_try[3] = q_new[3]
            try:
                trial = force_eval(q_try)
            except DegenerateEdgeError:
                alpha *= 0.5
                continue
            if best is None or trial[2] < best[3]:
                best = (q_try, trial[0], trial[1], trial[2])
            if trial[2] < rnorm:
                break
            alpha *= 0.5
        if best is None:
            raise NewtonDivergenceError("line search failed on every step length", diag)
        q_new, ev, residual, rnorm = best
        diag.iterations = it + 1

    if not converged:
        raise NewtonDivergenceError(
            f"Newton stalled at residual {rnorm:.3e} (tol {NEWTON_TOL * scale:.3e}) "
            f"after {MAX_NEWTON_ITERS} iterations", diag,
        )
    diag.converged = converged

    pos_new, th_new = unpack_dofs(q_new)
    new_state = RodState(
        positions=pos_new,
        thetas=th_new,
        velocities=(q_new - q_old) / dt,
        ref_d1=ev.d1,
        ref_d2=ev.d2,
        ref_twist=ev.ref_twist,
    )
    return new_state, diag


class Integrator:
    """The stepping loop every simulation runs: state, samples, cache and fallback.

    Owns a copy of the state, the rest configuration (built from params
    when not given), the time step, the step count and the run's samples;
    time is steps * dt, counted from the given or built state. On a step
    that fails to converge the integrator drops to half (then quarter)
    substeps and keeps the reduction for a one-second recovery window
    before trying the full step again. Only a failure at the finest level
    propagates, as SimulationError. An edge that collapses or reverses
    (DegenerateEdgeError, e.g. in step's explicit predictor) takes the same
    retries. A HydroSolveError (e.g. two nodes closer than the cutoff)
    becomes SimulationError at once, without substep retries.
    copy() forks the run: the fork and the original advance and record
    bit-identically.

    Full steps and substeps share one cached mobility spectrum, rebuilt
    before every refresh-th step of either size, where refresh =
    round(MOBILITY_REFRESH / dt) is the step count of MOBILITY_REFRESH
    seconds at the full step (8 at dt = 5 ms, 40 at 1 ms). It may date from
    a substep that a failure rolled back, within one step of the current
    state: inside the drift the cache tolerates between rebuilds.
    """

    def __init__(self, params: PhysicalParameters, controls: StepControls | None = None,
                 state: RodState | None = None, rest: RestConfiguration | None = None):
        self.params = params
        self.controls = controls or StepControls()
        self.dt = self.controls.time_step if self.controls.time_step is not None \
            else params.time_step
        if state is None or rest is None:
            built = build_initial_configuration(params)
        self.state = state.copy() if state is not None else built
        self.rest = rest if rest is not None else RestConfiguration.from_built_state(params, built)
        self.steps = 0
        self.samples: list = []  # (time, x_0, x_1, x_2, omega) per record()
        self._spectrum = None
        self._age = 0  # steps attempted, full or sub; a multiple of _refresh rebuilds
        self._recover = 0  # remaining steps to run at half size before retrying full
        self._recover_window = max(int(round(1.0 / self.dt)), 1)
        self._refresh = max(int(round(MOBILITY_REFRESH / self.dt)), 1)

    @property
    def time(self) -> float:
        return self.steps * self.dt

    def copy(self) -> "Integrator":
        """An exact fork: state, step count, samples, spectrum cache and fallback window.

        params, controls and rest are read-only and shared, and so is each
        sample, which is never changed once recorded.
        """
        fork = copy.copy(self)
        fork.state = self.state.copy()
        fork.samples = list(self.samples)
        if self._spectrum is not None:
            # order="K": the eigenvectors are F-ordered, and a C-ordered copy
            # would round the drag solve's products differently.
            fork._spectrum = tuple(a.copy(order="K") for a in self._spectrum)
        return fork

    def steps_per(self, interval: float) -> int:
        """Steps in interval, which must be a positive integer multiple of dt."""
        ratio = interval / self.dt
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(ratio, 1.0):
            raise ValueError("observation interval must be a positive integer multiple "
                             "of the time step")
        return n

    def advance(self, omega: float, n_steps: int = 1) -> None:
        """Take n_steps time steps at actuation rate omega [rad/s]."""
        for _ in range(n_steps):
            self._advance_one(omega)

    def record(self, omega: float) -> None:
        """Append the current state as a sample; omega is the rate applied from it onwards."""
        x0, x1, x2 = self.state.positions[:3].copy()
        self.samples.append((self.time, x0, x1, x2, float(omega)))

    def observe(self, profile: AngularVelocityProfile, n_samples: int,
                observation_interval: float) -> HeadTrajectory:
        """Record samples every observation interval until n_samples exist.

        Returns the first n_samples. omega is read from the profile before
        every step and recorded with every sample. The current state is
        recorded first, in place of its sample when the run has one, so a
        run continued under a new profile takes the new rate from there on.
        ValueError if the integrator was advanced past its last sample.
        """
        steps_per_obs = self.steps_per(observation_interval)
        if (self.samples[-1][0] if self.samples else 0.0) != self.time:
            raise ValueError("the integrator was advanced past its last sample")
        del self.samples[-1:]
        self.record(profile.value_at(self.time))
        while len(self.samples) < n_samples:
            for _ in range(steps_per_obs):
                self.advance(profile.value_at(self.time))
            self.record(profile.value_at(self.time))
        return HeadTrajectory.from_samples(self.samples[:n_samples])

    def _advance_one(self, omega: float) -> None:
        t = self.time
        for sub in (2, 4) if self._recover > 0 else (1, 2, 4):
            try:
                self._step(omega, sub)
                break
            except (NewtonDivergenceError, DegenerateEdgeError) as exc:
                if sub == 4:
                    raise SimulationError(
                        f"step at t={t:.6f}s failed even at a quarter of the "
                        f"time step: {exc}"
                    ) from exc
            except hydro.HydroSolveError as exc:
                # A smaller step does not move the nodes apart: no retry.
                raise SimulationError(f"step at t={t:.6f}s: {exc}") from exc
        if self._recover > 0:
            self._recover -= 1
        self.steps += 1

    def _step(self, omega: float, sub: int) -> None:
        """One time step as sub steps of dt / sub; sub = 1 is the full step."""
        controls = self.controls if sub == 1 else replace(self.controls, time_step=self.dt / sub)
        state = self.state
        for _ in range(sub):
            if self._spectrum is None or self._age % self._refresh == 0:
                self._spectrum = None  # release the old spectrum before building the new one
                self._spectrum = mobility_spectrum(state, self.params)
            self._age += 1
            state, _ = step(state, self.rest, self.params, omega, self._spectrum, controls)
        self.state = state
        if sub > 1 and self._recover == 0:
            self._recover = self._recover_window


def simulate(params: PhysicalParameters, profile: AngularVelocityProfile,
             duration: float, observation_interval: float,
             controls: StepControls | None = None,
             initial_state: RodState | None = None,
             rest: RestConfiguration | None = None,
             start: Integrator | None = None) -> HeadTrajectory:
    """Run the forward dynamics and sample the head every observation interval.

    Deterministic: identical inputs produce bit-identical outputs. The
    steps, the substep fallback and the error reporting are Integrator's;
    omega is read from the profile at the start of every step.

    start continues a run from a checkpoint: an integrator whose samples
    reach its current time, taken under a profile that agrees with this
    one before that time. It is advanced in place (Integrator.observe), and
    the call returns the run from its first sample, bit-identical to a run
    of the profile from there; a checkpoint that already reaches duration
    is cut there. The checkpoint carries its own state and rest
    configuration, so neither initial_state nor rest may be given with it.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and nonnegative, got {duration}")
    n_samples = sample_count(duration, observation_interval)
    if start is None:
        start = Integrator(params, controls, initial_state, rest)
    elif initial_state is not None or rest is not None:
        raise ValueError("start carries its own state and rest configuration; "
                         "initial_state and rest must not be given with it")
    elif params != start.params or (controls is not None and controls != start.controls):
        raise ValueError("start was run with other parameters or step controls")
    return start.observe(profile, n_samples, observation_interval)
