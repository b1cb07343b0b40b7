"""Steering dataset generation and the inverse-dynamics regressors.

The regressors are small feed-forward networks (2-20-10-5-1, tanh hidden
layers, linear output) trained by damped Gauss-Newton least squares with
evidence-based reweighting of the sum-squared-error and weight-decay terms
(MacKay 1992; Foresee & Hagan 1997). The trainer works in the data space:
one eigendecomposition of the Gram matrix J J^T of the residual Jacobian
per epoch gives every damped step and the effective number of parameters
in closed form. That decomposition costs the cube of the n training
residuals, so it is the cheap side only while n stays at or below the
parameter count P (331 for two inputs). Every caller stays there: at most
256 training residuals. Training is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import GeometryError, parameterize_segment
from .params import PhysicalParameters
from .stepper import AngularVelocityProfile, Integrator, StepControls, sample_count, simulate

HIDDEN_LAYERS = (20, 10, 5)
# Levenberg-Marquardt damping mu: the first value, the factor on a rejected
# trial, the factor on an accepted one, and the value above which training
# stops
MU_INITIAL = 1e-2
MU_RAISE = 5.0
MU_DROP = 0.3
MU_LIMIT = 1e12
VALIDATION_FRACTION = 0.2  # share of the rows held out to select the iterate


# ---------------------------------------------------------------------------
# model


@dataclass
class MLPModel:
    """Weights and normalizers of one regressor."""

    layer_sizes: list
    weights: list            # per layer, (out, in)
    biases: list             # per layer, (out,)
    input_shift: np.ndarray
    input_scale: np.ndarray
    output_shift: np.ndarray
    output_scale: np.ndarray
    metadata: dict = field(default_factory=dict)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate the network; inputs (n, d_in) -> (n, d_out)."""
        x = (np.atleast_2d(inputs) - self.input_shift) / self.input_scale
        y = _forward(x, self.weights, self.biases)[-1]
        return y * self.output_scale + self.output_shift

    def to_json_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "input_norm": {"shift": self.input_shift.tolist(),
                           "scale": self.input_scale.tolist()},
            "output_norm": {"shift": self.output_shift.tolist(),
                            "scale": self.output_scale.tolist()},
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MLPModel":
        """The model data holds; ValueError if a shape disagrees with layer_sizes."""
        model = cls(
            layer_sizes=list(data["layer_sizes"]),
            weights=[np.asarray(w, dtype=float) for w in data["weights"]],
            biases=[np.asarray(b, dtype=float) for b in data["biases"]],
            input_shift=np.asarray(data["input_norm"]["shift"], dtype=float),
            input_scale=np.asarray(data["input_norm"]["scale"], dtype=float),
            output_shift=np.asarray(data["output_norm"]["shift"], dtype=float),
            output_scale=np.asarray(data["output_norm"]["scale"], dtype=float),
            metadata=dict(data.get("metadata", {})),
        )
        sizes = model.layer_sizes
        if len(sizes) < 2:
            raise ValueError(f"layer_sizes {sizes} needs an input and an output width")
        found = [a.shape for a in (*model.weights, *model.biases, model.input_shift,
                                   model.input_scale, model.output_shift, model.output_scale)]
        expected = ([(n_out, n_in) for n_in, n_out in zip(sizes, sizes[1:])]
                    + [(n_out,) for n_out in sizes[1:]] + [(sizes[0],)] * 2 + [(sizes[-1],)] * 2)
        if found != expected:
            raise ValueError(f"array shapes {found} do not fit layer_sizes {sizes}, "
                             f"which need {expected}")
        return model

    @classmethod
    def load(cls, path) -> "MLPModel":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class TrainControls:
    seed: int = 0
    max_epochs: int = 400
    patience: int = 25


@dataclass
class TrainResult:
    model: MLPModel
    train_rmse: float
    val_rmse: float
    epochs: int
    alpha: float
    beta: float


def _init_parameters(layer_sizes, rng):
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-scale, scale, size=fan_out))
    return weights, biases


def _flatten(weights, biases):
    return np.concatenate([w.ravel() for w in weights]
                          + [b.ravel() for b in biases])


def _unflatten(theta, layer_sizes):
    weights = []
    biases = []
    pos = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(theta[pos: pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
    for fan_out in layer_sizes[1:]:
        biases.append(theta[pos: pos + fan_out])
        pos += fan_out
    return weights, biases


def _forward(x, weights, biases):
    activations = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.tanh(activations[-1] @ w.T + b))
    activations.append(activations[-1] @ weights[-1].T + biases[-1])
    return activations


def _jacobian(x, weights, biases):
    """Jacobian (n, P) of the one output wrt the flat parameter vector."""
    n = x.shape[0]
    acts = _forward(x, weights, biases)
    n_layers = len(weights)
    # _flatten's order: every weight matrix, then every bias vector
    offsets = np.cumsum([0] + [w.size for w in weights] + [b.size for b in biases])

    jac = np.empty((n, offsets[-1]))
    delta = np.ones((n, 1))  # at the linear output layer
    for layer in range(n_layers - 1, -1, -1):
        jac[:, offsets[layer]: offsets[layer + 1]] = (
            delta[:, :, None] * acts[layer][:, None, :]
        ).reshape(n, -1)
        jac[:, offsets[n_layers + layer]: offsets[n_layers + layer + 1]] = delta
        if layer > 0:
            delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
    return jac


def train_regressor(inputs: np.ndarray, targets: np.ndarray,
                    controls: TrainControls | None = None) -> TrainResult:
    """Fit one network to 1-D targets by regularized second-order least squares.

    Minimizes beta * sum(errors^2)/2 + alpha * sum(weights^2)/2 with damped
    Gauss-Newton updates; alpha and beta are re-estimated each accepted step
    from the effective number of parameters gamma (evidence framework).
    VALIDATION_FRACTION of the rows are held out, and the iterate with the
    best validation error is kept. ValueError for targets that are not one
    value per input row.

    Each epoch decomposes the Gram matrix J J^T = U diag(s) U^T of the
    (n, P) residual Jacobian once. By Woodbury, the damped step
    (beta J^T J + lam I)^-1 grad with lam = alpha + mu is then
    J^T U [(beta U^T e - (alpha beta/lam) U^T J theta) / (beta s + lam)]
    + (alpha/lam) theta, and gamma = sum(beta s / (beta s + alpha)). This
    holds for any n but is the cheap side only for n <= P.
    """
    controls = controls or TrainControls()
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n, d_in = inputs.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must be one value per input row, shape ({n},); "
                         f"got {targets.shape}")
    targets = targets[:, None]
    if n < 20:
        raise ValueError(f"need at least 20 datapoints, got {n}")
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
        raise ValueError("inputs and targets must be finite")

    in_shift = inputs.mean(axis=0)
    in_scale = inputs.std(axis=0)
    in_scale[in_scale <= 0.0] = 1.0
    out_shift = targets.mean(axis=0)
    out_scale = targets.std(axis=0)
    out_scale[out_scale <= 0.0] = 1.0
    x_all = (inputs - in_shift) / in_scale
    y_all = (targets - out_shift) / out_scale

    layer_sizes = [d_in, *HIDDEN_LAYERS, 1]
    # separate generators: the parameter draw must not depend on dataset size
    weights, biases = _init_parameters(layer_sizes, np.random.default_rng(controls.seed))
    n_val = int(round(VALIDATION_FRACTION * n))  # at least 4, since n >= 20
    perm = np.random.default_rng(controls.seed + 9973).permutation(n)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    x_tr, y_tr = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]
    theta = _flatten(weights, biases)
    n_eff = x_tr.shape[0]

    alpha, beta = 1e-4, 1.0
    mu = MU_INITIAL

    def objective(th):
        w, b = _unflatten(th, layer_sizes)
        e = (_forward(x_tr, w, b)[-1] - y_tr).ravel()
        return 0.5 * beta * float(e @ e) + 0.5 * alpha * float(th @ th), e

    def val_rmse_of(th):
        w, b = _unflatten(th, layer_sizes)
        e = (_forward(x_val, w, b)[-1] - y_val).ravel()
        return float(np.sqrt(np.mean(e ** 2)))

    best_theta = theta.copy()
    best_val = val_rmse_of(theta)
    stale = 0
    epochs_run = 0
    f_cur, err = objective(theta)
    for epoch in range(controls.max_epochs):
        epochs_run = epoch + 1
        w, b = _unflatten(theta, layer_sizes)
        jac = _jacobian(x_tr, w, b)
        grad = beta * (jac.T @ err) + alpha * theta
        if np.linalg.norm(grad) <= 1e-10 * max(1.0, float(np.linalg.norm(theta))):
            best_theta = theta.copy()
            best_val = val_rmse_of(theta)
            break

        gram_s, gram_u = np.linalg.eigh(jac @ jac.T)
        # J J^T is positive semidefinite: rounding can leave its null
        # eigenvalues slightly negative, which beta s + alpha must not cancel
        gram_s = np.maximum(gram_s, 0.0)
        u_err = gram_u.T @ err
        u_jtheta = gram_u.T @ (jac @ theta)
        accepted = False
        for _ in range(25):
            lam = alpha + mu
            coef = (beta * u_err - (alpha * beta / lam) * u_jtheta) / (beta * gram_s + lam)
            candidate = theta - (jac.T @ (gram_u @ coef) + (alpha / lam) * theta)
            f_new, err_new = objective(candidate)
            if np.isfinite(f_new) and f_new < f_cur:
                theta = candidate
                f_cur, err = f_new, err_new
                mu = max(mu * MU_DROP, 1e-14)
                accepted = True
                break
            mu *= MU_RAISE
            if mu > MU_LIMIT:
                break
        if not accepted:
            break

        # evidence re-estimation of the regularizers
        gamma = float(np.sum(beta * gram_s / (beta * gram_s + alpha)))
        gamma = min(max(gamma, 1e-6), theta.size)
        e_w = 0.5 * float(theta @ theta)
        e_d = 0.5 * float(err @ err)
        alpha = gamma / max(2.0 * e_w, 1e-12)
        beta = max(n_eff - gamma, 1.0) / max(2.0 * e_d, 1e-12)
        f_cur = 0.5 * beta * float(err @ err) + 0.5 * alpha * float(theta @ theta)

        val = val_rmse_of(theta)
        if val < best_val - 1e-12:
            best_val = val
            best_theta = theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= controls.patience:
                break

    weights, biases = _unflatten(best_theta, layer_sizes)
    e_tr = _forward(x_tr, weights, biases)[-1] - y_tr
    train_rmse = float(np.sqrt(np.mean(e_tr.ravel() ** 2)))
    model = MLPModel(
        layer_sizes=layer_sizes,
        weights=[w.copy() for w in weights],
        biases=[b.copy() for b in biases],
        input_shift=in_shift,
        input_scale=in_scale,
        output_shift=out_shift,
        output_scale=out_scale,
        metadata={
            "seed": controls.seed,
            "train_rmse_normalized": train_rmse,
            "val_rmse_normalized": best_val,
            "epochs": epochs_run,
            "input_low": inputs.min(axis=0).tolist(),
            "input_high": inputs.max(axis=0).tolist(),
        },
    )
    return TrainResult(model=model, train_rmse=train_rmse, val_rmse=best_val,
                       epochs=epochs_run, alpha=float(alpha), beta=float(beta))


# ---------------------------------------------------------------------------
# dataset generation


@dataclass(frozen=True)
class DatasetSpec:
    """Protocol for generating steering datapoints from long runs."""

    total_time: float                 # [s] length of each long trajectory
    t_high_grid: tuple                # pulse durations [s]
    settle_time: float                # t0: pulse application instant [s]
    segments_per_trajectory: int = 8
    seed: int = 0                     # the spec's label for _meta.json; nothing here is random

    def __post_init__(self):
        if not (0.0 < self.total_time < math.inf and 0.0 < self.settle_time < math.inf):
            raise ValueError("total_time and settle_time must be positive and finite")
        if not all(0.0 <= t < math.inf for t in self.t_high_grid):
            raise ValueError("pulse durations must be nonnegative and finite")
        if self.segments_per_trajectory < 1:
            raise ValueError("need at least one segment per trajectory")


@dataclass
class RejectionRecord:
    t_high: float
    t_end: float
    reason: str


@dataclass
class GeneratedDataset:
    datapoints: list
    rejections: list
    cruise_speed: float          # measured below-buckling speed [m/s]
    cruise_direction: np.ndarray


def extract_segments(traj, spec: DatasetSpec, t_high: float, dt_obs: float,
                     k: int) -> tuple[list, list]:
    """Datapoints and rejections from one long pulsed trajectory."""
    datapoints = []
    rejections = []
    t0 = spec.settle_time
    lag = k * dt_obs
    lo = t0 + t_high + lag
    hi = spec.total_time
    if hi <= lo + dt_obs:
        return [], [RejectionRecord(t_high, hi, "trajectory shorter than the lag window")]
    # evenly spaced segment endpoints, snapped to the observation grid
    ends = np.linspace(lo + dt_obs, hi, spec.segments_per_trajectory)
    base_idx = sample_count(t0, dt_obs) - 1  # last sample at or before the pulse
    for t_end in ends:
        idx_end = int(round(t_end / dt_obs))
        idx_end = min(idx_end, traj.times.shape[0] - 1)
        t_end_snapped = idx_end * dt_obs
        t_low = t_end_snapped - t0 - t_high
        if not lag < t_low <= spec.total_time - t_high - t0:
            rejections.append(RejectionRecord(t_high, t_end_snapped,
                                              "t_low outside the admissible range"))
            continue
        samples = traj.head[base_idx - k: idx_end + 1]
        try:
            point = parameterize_segment(
                samples, traj.node1[base_idx], traj.node2[base_idx],
                t_high, t_low, dt_obs, k,
            )
            point.validate()
        except (GeometryError, ValueError) as exc:
            rejections.append(RejectionRecord(t_high, t_end_snapped,
                                              f"{type(exc).__name__}: {exc}"))
            continue
        datapoints.append(point)
    return datapoints, rejections


CRUISE_WINDOW = 40.0  # [s] of cruise after the settle that measure_cruise averages over


def measure_cruise(params: PhysicalParameters, omega_low: float,
                   controls: StepControls, settle_time: float, dt_obs: float,
                   start: Integrator | None = None) -> tuple[float, np.ndarray, object]:
    """Steady below-buckling speed and direction from a calibration run.

    The run holds omega_low for settle_time + CRUISE_WINDOW from the built
    state; the speed is the head's mean over the window. start continues it
    from the Integrator of an earlier constant-omega_low run, which it
    advances in place (stepper.simulate), with bit-identical results.
    Returns (speed, direction, the run's trajectory); bench/record_reference.py
    records the trajectory's displacement.
    """
    traj = simulate(params, AngularVelocityProfile.constant(omega_low),
                    settle_time + CRUISE_WINDOW, dt_obs, controls=controls, start=start)
    i0 = sample_count(settle_time, dt_obs) - 1
    disp = traj.head[-1] - traj.head[i0]
    elapsed = traj.times[-1] - traj.times[i0]
    speed = float(np.linalg.norm(disp) / elapsed)
    direction = disp / max(np.linalg.norm(disp), 1e-300)
    return speed, direction, traj


def generate_dataset(params: PhysicalParameters, spec: DatasetSpec,
                     omega_low: float, omega_high: float,
                     omega_buckling: float,
                     controls: StepControls | None = None, *,
                     dt_obs: float, k: int, workers: int = 1) -> GeneratedDataset:
    """Run the pulse protocol over the grid and extract training tuples.

    Every trajectory holds omega_low until the pulse at settle_time, so the
    settle, up to the last observation sample at or before settle_time, is
    run once. Each grid entry continues from an exact copy of it
    (Integrator.copy), except the first t_H = 0 entry, which continues the
    settle run itself; the cruise calibration then continues that entry's
    run (or the settle, when the grid has no 0). Every trajectory is
    bit-identical to a fresh run of its profile from t = 0, and
    learning.simulate is called once per grid entry, in grid order, then
    once for the calibration, each call returning the trajectory from t = 0.
    Segments with different end points become individual datapoints.
    Deterministic without a seed: no random numbers are drawn, and
    identical inputs give bit-identical outputs. A failing trajectory is
    logged as a rejection and skipped rather than aborting the run (a
    failure during the settle rejects every entry), while a failing
    calibration raises.
    """
    if not omega_low < omega_buckling < omega_high:
        raise ValueError("need omega_low < omega_buckling < omega_high")
    if sample_count(spec.settle_time, dt_obs) - 1 < k:
        raise ValueError(f"settle_time {spec.settle_time} s must cover the k = {k} "
                         f"observation intervals of the before-line ({k * dt_obs} s)")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    controls = controls or StepControls()

    datapoints: list = []
    rejections: list = []

    grid = [float(t_high) for t_high in spec.t_high_grid]
    owner = grid.index(0.0) if 0.0 in grid else None
    settle = Integrator(params, controls)
    try:
        settle.observe(AngularVelocityProfile.constant(omega_low),
                       sample_count(spec.settle_time, dt_obs), dt_obs)
    except Exception as exc:  # every grid entry shares the settle
        settle, results = None, [exc] * len(grid)
    else:
        # Every fork is taken before the owner advances the settle run.
        forks = [settle if i == owner else settle.copy() for i in range(len(grid))]
        jobs = [(fork,
                 AngularVelocityProfile.pulse(omega_low, omega_high, spec.settle_time, t_high),
                 spec.total_time, dt_obs)
                for fork, t_high in zip(forks, grid)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_pulse_job, jobs))
        else:
            results = [_pulse_job(j) for j in jobs]

    for t_high, result in zip(grid, results):
        if isinstance(result, Exception):
            rejections.append(RejectionRecord(t_high, float("nan"),
                                              f"simulation failed: {result}"))
            continue
        points, rejected = extract_segments(result[1], spec, t_high, dt_obs, k)
        datapoints.extend(points)
        rejections.extend(rejected)

    # The calibration is the constant-omega_low run again: it continues the
    # unpulsed entry, or the settle when the grid has no 0. After a failed
    # run it starts over from t = 0 and meets the same failure if that lies
    # within its length.
    if settle is None or (owner is not None and isinstance(results[owner], Exception)):
        start = None
    else:
        start = settle if owner is None else results[owner][0]
    speed, direction, _ = measure_cruise(params, omega_low, controls,
                                         spec.settle_time, dt_obs, start=start)
    return GeneratedDataset(datapoints=datapoints, rejections=rejections,
                            cruise_speed=speed, cruise_direction=direction)


def _pulse_job(args):
    """One grid entry from its fork: (advanced integrator, trajectory), or the error."""
    integrator, profile, total_time, dt_obs = args
    try:
        traj = simulate(integrator.params, profile, total_time, dt_obs, start=integrator)
    except Exception as exc:  # logged by the caller per trajectory
        return exc
    return integrator, traj


# ---------------------------------------------------------------------------
# inverse maps


@dataclass
class InverseMapsModels:
    f_high: TrainResult    # (h, alpha) -> t_high
    f_low: TrainResult     # (h, alpha) -> t_low
    f_beta: TrainResult    # (t_high, t_low) -> beta
    f_l: TrainResult       # (t_high, t_low) -> l


def dataset_arrays(datapoints) -> dict:
    arr = np.array([[d.t_high, d.t_low, d.h, d.alpha, d.beta, d.l]
                    for d in datapoints])
    return {
        "t_high": arr[:, 0], "t_low": arr[:, 1], "h": arr[:, 2],
        "alpha": arr[:, 3], "beta": arr[:, 4], "l": arr[:, 5],
    }


def fit_inverse_maps(datapoints, controls: TrainControls | None = None) -> InverseMapsModels:
    """Train the four separate regressors used by the controller."""
    if not datapoints:
        raise ValueError("dataset is empty")
    controls = controls or TrainControls()
    cols = dataset_arrays(datapoints)
    geometry_in = np.stack([cols["h"], cols["alpha"]], axis=1)
    timing_in = np.stack([cols["t_high"], cols["t_low"]], axis=1)
    results = {}
    seed_offsets = {"f_high": 1, "f_low": 2, "f_beta": 3, "f_l": 4}
    for name, x, y in (
        ("f_high", geometry_in, cols["t_high"]),
        ("f_low", geometry_in, cols["t_low"]),
        ("f_beta", timing_in, cols["beta"]),
        ("f_l", timing_in, cols["l"]),
    ):
        result = train_regressor(x, y, replace(controls, seed=controls.seed + seed_offsets[name]))
        result.model.metadata["target"] = name
        results[name] = result
    return InverseMapsModels(f_high=results["f_high"], f_low=results["f_low"],
                             f_beta=results["f_beta"], f_l=results["f_l"])


def steering_slope(datapoints) -> tuple[float, float]:
    """Slope c of alpha against t_high over the dataset, with its std error."""
    cols = dataset_arrays(datapoints)
    x = cols["t_high"]
    y = cols["alpha"]
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least three datapoints for the slope")
    den = n * np.sum(x * x) - np.sum(x) ** 2
    if den <= 0.0:
        raise ValueError("no spread in pulse durations")
    c = (n * np.sum(x * y) - np.sum(x) * np.sum(y)) / den
    intercept = (np.sum(y) - c * np.sum(x)) / n
    resid = y - c * x - intercept
    var = float(resid @ resid) / max(n - 2, 1)
    stderr = math.sqrt(n * var / den)
    return float(c), float(stderr)
