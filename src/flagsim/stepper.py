"""Time integration of the coupled rod/fluid system.

Each step treats the hydrodynamic force explicitly (evaluated at the current
configuration and velocities) and the elastic force implicitly, solving the
discrete balance with damped Newton. The first-edge twist rate is prescribed
by the actuation command; the head spin follows from torque balance.

Integrator is the one stepping loop: simulate samples it on an observation
grid and control.run_closed_loop advances it between controller decisions,
so both share the mobility-spectrum cache, the substep fallback and the
error reporting. step is one time step and holds no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import hydro
from .elastic import (
    BANDWIDTH,
    DIAG_ROW,
    DegenerateEdgeError,
    ElasticStiffnesses,
    RestConfiguration,
    band_from_dense,
    evaluate_elastics,
    internal_force_jacobian_fd,
    jacobian_from_eval,
)
from .params import PhysicalParameters
from .rod import RodState, build_initial_configuration, node_dof_indices, pack_dofs, unpack_dofs


class NewtonDivergenceError(RuntimeError):
    def __init__(self, message: str, diagnostics: "StepDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class StepControls:
    newton_tol: float = 1e-6        # relative force-residual tolerance
    max_newton_iters: int = 50
    time_step: float | None = None  # None -> PhysicalParameters.time_step
    fd_jacobian: bool = False       # finite-difference elastic Jacobian (cross-check)
    head_flow_model: str = "classical"
    mobility_floor: float = 0.25    # spectral floor for the drag solve, fraction of local drag
    mobility_refresh: int = 8       # steps between spectrum recomputations

    def __post_init__(self):
        if not 0.0 < self.newton_tol <= 1e-2:
            raise ValueError(f"newton_tol must lie in (0, 1e-2], got {self.newton_tol}")
        if self.max_newton_iters < 5:
            raise ValueError(f"max_newton_iters must be >= 5, got {self.max_newton_iters}")
        if self.mobility_floor <= 0.0:
            raise ValueError(f"mobility_floor must be positive, got {self.mobility_floor}")
        if self.mobility_refresh < 1:
            raise ValueError("mobility_refresh must be at least 1")


@dataclass
class StepDiagnostics:
    iterations: int = 0
    residuals: list = field(default_factory=list)
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
    omega: np.ndarray   # (S,) applied actuation [rad/s]


def mobility_spectrum(state: RodState, params: PhysicalParameters,
                      controls: StepControls) -> tuple[np.ndarray, np.ndarray]:
    """Clamped spectrum of the flagellar mobility at the current configuration."""
    mobility = hydro.assemble_mobility(
        state.positions[1:], hydro.node_tangents(state.tangents),
        params.viscosity, params.cutoff,
    )
    return hydro.clamped_spectrum(mobility, controls.mobility_floor, params.viscosity)


def external_force(state: RodState, params: PhysicalParameters,
                   controls: StepControls,
                   spectrum: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hydrodynamic force vector at the current configuration.

    The head spin is closed self-consistently with the flagellar forces by
    torque balance inside the solve. Returns (f_ext over all DOFs, flagellar
    node forces (N-1, 3), head spin). spectrum is the clamped mobility
    spectrum to solve with (Integrator passes a cached one, refreshed every
    controls.mobility_refresh steps; the configuration drifts a fraction of
    an edge length in between); None computes it here.
    """
    n = params.node_count
    pos = state.positions
    r_h = pos[1:] - pos[0]
    pos_idx, _ = node_dof_indices(n)
    node_vel = state.velocities[pos_idx]
    if spectrum is None:
        spectrum = mobility_spectrum(state, params, controls)
    f_flag, head_spin = hydro.solve_forces_and_head_spin(
        spectrum, node_vel[1:], r_h, state.head_velocity,
        params.head_radius, params.viscosity, model=controls.head_flow_model,
    )
    f_head, _ = hydro.head_force_torque(
        f_flag, r_h, params.head_radius, params.viscosity,
        state.head_velocity, head_spin,
    )
    f_ext = np.zeros(4 * n - 1)
    f_ext[pos_idx[1:]] = f_flag
    f_ext[0:3] = f_head

    # Mount couple: the base edge is fixed in the head, so reorienting it
    # spins the head about a transverse axis against its rotational Stokes
    # drag. Realized as a drag force pair on the relative perpendicular
    # velocity of the base edge (torque 8 pi mu b^3 * W_perp over the arm).
    e0 = pos[1] - pos[0]
    e0_len2 = float(np.dot(e0, e0))
    v_rel = node_vel[1] - node_vel[0]
    v_perp = v_rel - (np.dot(v_rel, e0) / e0_len2) * e0
    mount = (8.0 * math.pi * params.viscosity * params.head_radius ** 3 / e0_len2) * v_perp
    f_ext[4:7] -= mount
    f_ext[0:3] += mount
    return f_ext, f_flag, head_spin


def step(state: RodState, rest: RestConfiguration, stiff: ElasticStiffnesses,
         params: PhysicalParameters, omega: float, controls: StepControls,
         spectrum: tuple[np.ndarray, np.ndarray] | None = None,
         ) -> tuple[RodState, StepDiagnostics]:
    """Advance the system one time step under actuation rate omega [rad/s].

    spectrum is passed on to external_force.
    """
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    dt = controls.time_step if controls.time_step is not None else params.time_step
    n = params.node_count
    q_old = state.dof_vector()
    v_old = state.velocities
    mass = rest.mass

    f_ext, f_flag, head_spin = external_force(state, params, controls, spectrum)

    free = np.ones(4 * n - 1, dtype=bool)
    free[3] = False  # theta^0 carries the prescribed rotation

    q_new = q_old + dt * v_old
    q_new[3] = q_old[3] + omega * dt

    inertia = mass / dt ** 2
    dgbsv = get_lapack_funcs(("gbsv",), (q_old,))[0]
    # Band positions of row 3 (a[3, j], |3 - j| <= BANDWIDTH) for the pin.
    row3_cols = np.arange(min(3 + BANDWIDTH + 1, 4 * n - 1))

    def force_eval(q):
        pos, th = unpack_dofs(q)
        ev = evaluate_elastics(pos, th, state.ref_d1, state.tangents,
                               state.ref_twist, rest, stiff)
        residual = inertia * (q - q_old - dt * v_old) - ev.force - f_ext
        return ev, residual, np.linalg.norm(residual[free])

    diag = StepDiagnostics()
    converged = False
    ev, residual, rnorm = force_eval(q_new)
    diag.residuals.append(rnorm)
    # Floor keeps the tolerance above force rounding noise (~1e-12 EA) so a
    # force-free equilibrium converges immediately.
    scale = max(np.linalg.norm(f_ext), np.linalg.norm(ev.force),
                1e-6 * stiff.stretching)
    for it in range(controls.max_newton_iters):
        if rnorm <= controls.newton_tol * scale:
            converged = True
            break
        if controls.fd_jacobian:
            pos_new, th_new = unpack_dofs(q_new)
            jac_el = band_from_dense(internal_force_jacobian_fd(
                pos_new, th_new, state.ref_d1, state.tangents, state.ref_twist,
                rest, stiff, 1e-7 * params.axial_length,
            ))
        else:
            jac_el = jacobian_from_eval(ev, rest, stiff)
        jac = -jac_el
        jac[DIAG_ROW] += inertia
        # Pin the constrained twist DOF: unit row/column, zero residual.
        jac[DIAG_ROW + 3 - row3_cols, row3_cols] = 0.0
        jac[:, 3] = 0.0
        jac[DIAG_ROW, 3] = 1.0
        rhs = residual.copy()
        rhs[3] = 0.0
        _, _, dq, info = dgbsv(BANDWIDTH, BANDWIDTH, jac, rhs, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise NewtonDivergenceError(f"singular Newton system (dgbsv info={info})", diag)

        # Backtracking on the residual norm.
        alpha = 1.0
        best = None
        for _ in range(10):
            q_try = q_new - alpha * dq
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
        diag.residuals.append(rnorm)
        diag.iterations = it + 1

    if not converged:
        raise NewtonDivergenceError(
            f"Newton stalled at residual {rnorm:.3e} (tol {controls.newton_tol * scale:.3e}) "
            f"after {controls.max_newton_iters} iterations", diag,
        )
    diag.converged = converged

    pos_new, th_new = unpack_dofs(q_new)
    v_new = (q_new - q_old) / dt
    omega_head = head_spin
    new_state = RodState(
        positions=pos_new,
        thetas=th_new,
        velocities=v_new,
        ref_d1=ev.d1,
        ref_d2=ev.d2,
        ref_twist=ev.ref_twist,
        head_velocity=v_new[0:3].copy(),
        head_angular_velocity=omega_head,
        time=state.time + dt,
    )
    return new_state, diag


class Integrator:
    """The stepping loop every simulation runs: state, cache and fallback.

    Owns a copy of the state, the rest configuration (built from params
    when not given), the stiffnesses, the time step and the step count;
    time is t0 + steps * dt. The clamped mobility spectrum is cached and
    refreshed every controls.mobility_refresh full steps. On a step that
    fails to converge the integrator drops to half (then quarter) substeps
    and keeps the reduction for a one-second recovery window before trying
    the full step again; the cache is cleared when the window opens. Only a
    failure at the finest level propagates, as SimulationError. A
    HydroSolveError (e.g. two nodes closer than the cutoff) becomes
    SimulationError at once, without substep retries.
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
        self.stiff = ElasticStiffnesses.from_parameters(params)
        self.t0 = self.state.time
        self.steps = 0
        self._spectrum = None
        self._age = 0  # full steps attempted; a multiple of mobility_refresh refreshes
        self._recover = 0  # remaining steps to run at half size before retrying full
        self._recover_window = max(int(round(1.0 / self.dt)), 1)

    @property
    def time(self) -> float:
        return self.t0 + self.steps * self.dt

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

    def _advance_one(self, omega: float) -> None:
        t = self.time
        levels = (1, 2) if self._recover > 0 else (0, 1, 2)
        for level in levels:
            try:
                if level == 0:
                    self._full_step(omega)
                else:
                    self._substeps(omega, 2 ** level)
                break
            except NewtonDivergenceError as exc:
                if level == 2:
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

    def _full_step(self, omega: float) -> None:
        if self._spectrum is None or self._age % self.controls.mobility_refresh == 0:
            self._spectrum = mobility_spectrum(self.state, self.params, self.controls)
        self._age += 1
        self.state, _ = step(self.state, self.rest, self.stiff, self.params, omega,
                             self.controls, self._spectrum)

    def _substeps(self, omega: float, sub: int) -> None:
        controls = replace(self.controls, time_step=self.dt / sub)
        state = self.state
        for _ in range(sub):
            state, _ = step(state, self.rest, self.stiff, self.params, omega, controls)
        self.state = state
        if self._recover == 0:
            self._recover = self._recover_window
            self._spectrum = None


def simulate(params: PhysicalParameters, profile: AngularVelocityProfile,
             duration: float, observation_interval: float,
             controls: StepControls | None = None,
             initial_state: RodState | None = None,
             rest: RestConfiguration | None = None) -> HeadTrajectory:
    """Run the forward dynamics and sample the head every observation interval.

    Deterministic: identical inputs produce bit-identical outputs. The
    steps, the substep fallback and the error reporting are Integrator's;
    omega is read from the profile at the start of every step.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    integrator = Integrator(params, controls, initial_state, rest)
    steps_per_obs = integrator.steps_per(observation_interval)

    n_samples = int(math.floor(duration / observation_interval + 1e-9)) + 1
    times = np.empty(n_samples)
    head = np.empty((n_samples, 3))
    node1 = np.empty((n_samples, 3))
    node2 = np.empty((n_samples, 3))
    omegas = np.empty(n_samples)
    for i in range(n_samples):
        if i > 0:
            for _ in range(steps_per_obs):
                integrator.advance(profile.value_at(integrator.time))
        state = integrator.state
        times[i] = state.time
        head[i] = state.positions[0]
        node1[i] = state.positions[1]
        node2[i] = state.positions[2]
        omegas[i] = profile.value_at(integrator.time)
    return HeadTrajectory(times=times, head=head, node1=node1, node2=node2, omega=omegas)
