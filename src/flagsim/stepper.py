"""Time integration of the coupled rod/fluid system.

Each step treats the hydrodynamic force explicitly (evaluated at the current
configuration and velocities) and the elastic force implicitly, solving the
discrete balance with simplified Newton. The first-edge twist rate is prescribed
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

Newton is simplified Newton (Hairer & Wanner, Solving ODEs II, IV.8):
each correction is one back-substitution with LU factors (dgbtrf) of the
band Newton matrix J - M/dt^2. step takes from its caller, and returns, a
NewtonCarry: the factors, the latest contraction ratio theta, the
elastic forces F_n, F_(n-1) that the last two steps' balances imply, and
the last step's final evaluation. Newton starts from the explicit
predictor q_pred = q_old + dt v_old. With two forces, the residual at
q_pred is predicted from F(q_pred) ~ 2 F_n - F_(n-1) instead of evaluated,
and its correction is the first iterate; a carry without factors (a
spectrum refresh drops them) has the carried evaluation factored first. If
the residual at the first iterate is not below the predicted one, Newton
starts over from an evaluation at q_pred. step refactors at the current
iterate when it has no factors or when a correction is not below half the
one before; a carry made at another dt is dropped whole. Every correction
is taken whole: one that does not lower the residual raises
NewtonDivergenceError, and Integrator retries the step at half and quarter
steps, which is how simplified Newton treats divergence. Newton stops at a
residual norm of NEWTON_TOL times the force scale, or, after at least one
correction, once the error left after the next correction dq, about
theta/(1 - theta) |dq|, is at most NEWTON_STOP times the step's implicit
change |q - q_pred|; it then commits q + dq. That change is twice the
step's local-error estimate, so iterating further buys no accuracy. theta
is the latest ratio of two successive corrections of real residuals with
the same factors. It starts at 0.5, where step refactors and the error is
|dq| itself, returns there at each refactoring at an iterate and so stays
in [0, 0.5]; a spectrum refresh keeps it. Newton stalls after
MAX_NEWTON_ITERS iterations. Like the spectrum's, these are constants:
StepControls carries only the step size the substeps change.

Cost split of step. Per run (shared through the arguments or cached per
rod size): the rest configuration with its stiffnesses and lumped masses, and
the band positions of the pinned twist DOF. Per step: the committed frames
(elastic.CommittedFrames), the explicit drift dt v_old, M/dt^2 (dt changes
with the substep fallback), the hydrodynamic force, the predicted residual
and the force the committed balance implies. Most steps then cost one
elastic force evaluation and two band back-substitutions: one for the
predicted residual and one for the committed last correction. A step also
evaluates at q_pred when its carry holds fewer than two forces (the first
two steps at a dt) or when the predicted start fails; each further Newton
iteration (none in 400 steps of the truncated N=16 rod at 3 rpm) costs one
evaluation and one back-substitution. An evaluation is the elastic force and
the residual, whose pinned entry is zeroed so its norm needs no masked copy.
Per refactoring, about once per spectrum: the band Jacobian and its LU
factors. The NewtonCarry is the only thing kept between steps; Integrator
keeps it, so Integrator.copy forks a run exactly.
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
    ElasticEval,
    RestConfiguration,
    evaluate_elastics,
    jacobian_from_eval,
)
from .params import PhysicalParameters
from .rod import RodState, build_initial_configuration, node_dof_indices, unpack_dofs


class NewtonDivergenceError(RuntimeError):
    pass


class SimulationError(RuntimeError):
    pass


MOBILITY_FLOOR = 0.25  # spectral floor of the drag solve, as a fraction of the local drag
MOBILITY_REFRESH = 0.04  # simulated seconds between spectrum rebuilds in Integrator
NEWTON_TOL = 1e-6      # Newton's force-residual tolerance, relative to the force scale
MAX_NEWTON_ITERS = 50  # Newton iterations before a step counts as stalled
NEWTON_STOP = 0.05     # stop once a correction is this fraction of the step's implicit change


@dataclass(frozen=True)
class StepControls:
    """The step size of step: the benchmark passes it as controls= and counts substeps by it."""

    time_step: float | None = None  # None -> PhysicalParameters.time_step; substeps set it


@dataclass(frozen=True)
class NewtonCarry:
    """What one step's Newton solve hands to the next step at the same dt.

    factors are the LU factors (lu, piv) of the band Newton matrix
    J - M/dt^2 (dgbtrf), or None. theta is the latest contraction ratio:
    a correction's size over the one before it, both solved with the same
    factors for real residuals; 0.5 until one is measured. forces
    are the elastic forces that the last one or two steps' balances imply
    at their committed DOFs, oldest first:
    F_n = M (q_n - q_(n-1) - dt v_(n-1)) / dt^2 - f_ext,(n-1). evaluation
    is the last step's final ElasticEval, which the next step factors when
    the factors were dropped. No array is written once made, so copies
    share them.
    """

    dt: float
    factors: tuple | None = None
    theta: float = 0.5
    forces: tuple = ()
    evaluation: ElasticEval | None = None


@dataclass
class StepDiagnostics:
    iterations: int = 0  # corrections taken to an evaluated iterate (not the committed last one)
    newton: NewtonCarry | None = None  # what the next step at this dt starts from


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
         spectrum: tuple[np.ndarray, np.ndarray], controls: StepControls,
         newton: NewtonCarry | None) -> tuple[RodState, StepDiagnostics]:
    """Advance the system one time step under actuation rate omega [rad/s].

    spectrum is the clamped mobility spectrum, passed on to external_force.
    controls stays the sixth positional argument: bench/tracer.py counts
    substeps by the controls it finds there. newton is what an earlier
    step's solve handed on (NewtonCarry), or None; a carry made at another
    dt is dropped whole. What the solve hands on comes back on the
    diagnostics. What depends only on the committed state (its frames, the
    explicit drift dt v_old, the hydrodynamic force) is computed once here
    and shared by every force evaluation of the Newton solve.
    """
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    dt = controls.time_step if controls.time_step is not None else params.time_step
    if newton is None or newton.dt != dt:
        newton = NewtonCarry(dt)
    factors, theta = newton.factors, newton.theta
    q_old = state.dof_vector()
    drift = dt * state.velocities
    committed = CommittedFrames.from_state(state)
    inertia = rest.mass / dt ** 2

    f_ext = external_force(state, params, spectrum)

    q_pred = q_old + drift
    q_pred[3] = q_old[3] + omega * dt

    def force_eval(q):
        pos, th = unpack_dofs(q)
        ev = evaluate_elastics(pos, th, committed, rest)
        residual = inertia * (q - q_old - drift) - ev.force - f_ext
        residual[3] = 0.0  # theta^0 carries the prescribed rotation: no balance
        return q, ev, residual, math.sqrt(residual @ residual)

    diag = StepDiagnostics()
    pinned = _pinned_entries(q_old.shape[0])
    dgbtrf, dgbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (q_old,))

    def factor(ev):
        # jac - M/dt^2 is the Newton matrix negated (exactly, and so is the
        # LU), so its solution is the Newton step negated: q + dq.
        jac = jacobian_from_eval(ev, rest)
        jac[DIAG_ROW] -= inertia
        # Pin the constrained twist DOF: unit row/column; its residual is 0.
        jac.flat[pinned] = 0.0
        jac[DIAG_ROW, 3] = 1.0
        lu, piv, info = dgbtrf(jac, BANDWIDTH, BANDWIDTH, overwrite_ab=1)
        if info != 0:
            raise NewtonDivergenceError(f"singular Newton system (dgbtrf info={info})")
        return lu, piv

    def correction(factors, residual):
        dq, _ = dgbtrs(factors[0], BANDWIDTH, BANDWIDTH, residual, factors[1])
        return dq, math.sqrt(dq @ dq)

    def corrected(q, dq):
        q = q + dq
        q[3] = q_pred[3]
        return q

    # The first iterate: the residual at q_pred is predicted from the force
    # history, F(q_pred) ~ 2 F_n - F_(n-1), and corrected with the carried
    # factors. It stands if its residual is below the predicted one;
    # otherwise Newton starts from an evaluation at q_pred.
    start = None
    if len(newton.forces) == 2:
        if factors is None:  # dropped with the spectrum: factor the carried evaluation
            factors = factor(newton.evaluation)
        older, newer = newton.forces
        predicted = -(2.0 * newer - older) - f_ext
        predicted[3] = 0.0
        try:
            trial = force_eval(corrected(q_pred, correction(factors, predicted)[0]))
        except DegenerateEdgeError:
            trial = None
        if trial is not None and trial[3] < math.sqrt(predicted @ predicted):
            start, diag.iterations = trial, 1
    q_new, ev, residual, rnorm = start or force_eval(q_pred)
    # Floor keeps the tolerance above force rounding noise (~1e-12 EA) so a
    # force-free equilibrium converges immediately.
    scale = max(math.sqrt(f_ext @ f_ext), math.sqrt(ev.force @ ev.force),
                1e-6 * rest.stretching)

    last = math.inf  # size of the previous correction of a real residual, with these factors
    for it in range(diag.iterations, MAX_NEWTON_ITERS):
        if rnorm <= NEWTON_TOL * scale:
            break
        if factors is not None:
            dq, size = correction(factors, residual)
            if last < math.inf:
                theta = size / last
        if factors is None or size >= 0.5 * last:
            # No factors, or old ones that no longer contract: factor here.
            factors, theta = factor(ev), 0.5
            dq, size = correction(factors, residual)
        if it > 0:
            # q + dq is off the solution by about theta/(1 - theta) |dq|.
            change = q_new - q_pred
            if theta / (1.0 - theta) * size <= NEWTON_STOP * math.sqrt(change @ change):
                q_new = corrected(q_new, dq)
                break

        trial = force_eval(corrected(q_new, dq))
        if trial[3] >= rnorm:
            raise NewtonDivergenceError(
                f"Newton correction did not lower the residual ({rnorm:.3e} -> {trial[3]:.3e})")
        q_new, ev, residual, rnorm = trial
        last = size
        diag.iterations = it + 1
    else:
        raise NewtonDivergenceError(
            f"Newton stalled at residual {rnorm:.3e} (tol {NEWTON_TOL * scale:.3e}) "
            f"after {MAX_NEWTON_ITERS} iterations")
    moved = q_new - q_old
    force = inertia * (moved - drift) - f_ext  # the elastic force this balance implies
    diag.newton = NewtonCarry(dt, factors, theta, newton.forces[-1:] + (force,), ev)

    pos_new, th_new = unpack_dofs(q_new)
    new_state = RodState(
        positions=pos_new,
        thetas=th_new,
        velocities=moved / dt,
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

    Full steps and substeps share the mobility spectrum and step's NewtonCarry.
    The spectrum and the carry's LU factors are dropped before every refresh-th
    step of either size, where refresh = round(MOBILITY_REFRESH / dt) is the
    step count of MOBILITY_REFRESH seconds at the full step (8 at dt = 5 ms, 40
    at 1 ms); the spectrum is rebuilt at once and the factors from the carried
    evaluation of the last step. In between, step refactors only when the old
    factors stop contracting. The carry's contraction ratio, force history and
    evaluation survive refreshes. step drops the whole carry when the step size
    changes, so the first step at a new size neither extrapolates from forces
    taken at the old one nor uses its factors. A correction that does not lower
    the residual raises NewtonDivergenceError, which takes the substep retries
    above. The spectrum and the factors may date from a substep that a failure
    rolled back, within one step of the current state: inside the drift they
    tolerate between rebuilds. The force history never does, as a failed step
    is retried at a smaller size.
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
        self._newton = None  # step's NewtonCarry; its factors go with _spectrum
        self._age = 0  # steps attempted, full or sub; a multiple of _refresh rebuilds
        self._recover = 0  # remaining steps to run at half size before retrying full
        self._recover_window = max(int(round(1.0 / self.dt)), 1)
        self._refresh = max(int(round(MOBILITY_REFRESH / self.dt)), 1)

    @property
    def time(self) -> float:
        return self.steps * self.dt

    def copy(self) -> "Integrator":
        """An exact fork: state, step count, samples, caches and fallback window.

        The caches are the spectrum and the NewtonCarry: the LU factors, the
        contraction ratio, the last evaluation and the force history the next
        step predicts from.
        params, controls and rest are read-only and shared, and so are the
        NewtonCarry and each sample, which are never changed once made.
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
                # Drop both caches; release the old spectrum before building the new one.
                self._spectrum = None
                if self._newton is not None:
                    self._newton = replace(self._newton, factors=None)
                self._spectrum = mobility_spectrum(state, self.params)
            self._age += 1
            state, diag = step(state, self.rest, self.params, omega, self._spectrum, controls,
                               self._newton)
            self._newton = diag.newton
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
