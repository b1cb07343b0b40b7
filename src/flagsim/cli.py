"""Command-line surface: simulate, gen-data, train, control, eval.

File formats: JSON for configs/models/logs, CSV for numeric series. A
trajectory CSV (simulate, control) has one row per observation sample:
time, head x_0, nodes x_1 and x_2, and omega, the rate applied from that
sample onwards. Writes are atomic (temp file then rename). A numerical
failure (SimulationError) prints "numerical failure: ..." to stderr, exits
2 and writes no output file. Exit codes: 0 success, 1 input error (a usage
error or a non-finite number included), 2 numerical failure.

Only train takes --seed: it seeds the only random numbers flagsim draws.
A dataset's _meta.json (read by train) and calibration.json (read by
control) must hold an object whose cruise_speed_m_s is missing or null (no
calibration) or a positive finite number.

control's trajectory reads omega 0 for one observation interval after
start-up: the controller's first plan starts one sample after the start-up
schedule ends (see control.Controller).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_config, parse_section
from .control import (
    ControlConfig,
    InverseMaps,
    run_closed_loop,
)
from .geometry import SteeringDatapoint, polyline_distance
from .learning import (
    DatasetSpec,
    MLPModel,
    TrainControls,
    fit_inverse_maps,
    generate_dataset,
)
from .stepper import AngularVelocityProfile, SimulationError, simulate

TRAJECTORY_HEADER = "t,x,y,z,x1x,x1y,x1z,x2x,x2y,x2z,omega"
DATASET_HEADER = "t_H,t_L,h,alpha,beta,l"
_SPEC_KEYS = {"total_time_s": "total_time", "t_high_grid_s": "t_high_grid",
              "settle_time_s": "settle_time",
              "segments_per_trajectory": "segments_per_trajectory", "seed": "seed"}


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trajectory_csv(traj) -> str:
    lines = [TRAJECTORY_HEADER]
    for i in range(traj.times.shape[0]):
        row = [traj.times[i], *traj.head[i], *traj.node1[i], *traj.node2[i], traj.omega[i]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _read_csv(path, header: str, kind: str) -> np.ndarray:
    """The rows of a numeric CSV under a fixed header; a bad row is an input error."""
    width = header.count(",") + 1
    rows = []
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise ConfigError(f"unexpected {kind} header {found!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ConfigError(f"malformed {kind} row at line {lineno}: "
                                  f"{len(parts)} fields, expected {width}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ConfigError(f"malformed {kind} row at line {lineno}: {exc}") from exc
    return np.array(rows, dtype=float).reshape(-1, width)


def read_trajectory_csv(path):
    data = _read_csv(path, TRAJECTORY_HEADER, "trajectory")
    if data.shape[0] == 0:
        raise ConfigError(f"trajectory {path} has no rows")
    return data


def dataset_csv(datapoints) -> str:
    lines = [DATASET_HEADER]
    for d in datapoints:
        lines.append(",".join(f"{v:.17g}" for v in
                              (d.t_high, d.t_low, d.h, d.alpha, d.beta, d.l)))
    return "\n".join(lines) + "\n"


def read_dataset_csv(path):
    return [SteeringDatapoint(*row) for row in _read_csv(path, DATASET_HEADER, "dataset").tolist()]


def _load_profile(path, fallback_rpm: float) -> AngularVelocityProfile:
    if path is None:
        return AngularVelocityProfile.constant(fallback_rpm * 2 * math.pi / 60.0)
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) - {"breakpoints_rpm"}:
        raise ConfigError("profile file must hold an object with only 'breakpoints_rpm'")
    try:
        pts = data["breakpoints_rpm"]
        times = np.array([p[0] for p in pts], dtype=float)
        omegas = np.array([p[1] for p in pts], dtype=float) * 2 * math.pi / 60.0
        return AngularVelocityProfile(times=times, omegas=omegas)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad profile: {type(exc).__name__}: {exc}") from exc


def _load_waypoints(path) -> np.ndarray:
    with open(path) as fh:
        pts = json.load(fh)
    try:
        waypoints = np.asarray(pts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad waypoints: {type(exc).__name__}: {exc}") from exc
    if waypoints.ndim != 2 or waypoints.shape[1] != 3 or waypoints.shape[0] < 2:
        raise ConfigError("waypoints file must hold at least two [x, y, z] points")
    if not np.all(np.isfinite(waypoints)):
        raise ConfigError("waypoints must be finite")
    return waypoints


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.preset)
    if not 0.0 <= args.duration < math.inf:
        raise ConfigError(f"--duration must be finite and nonnegative, got {args.duration}")
    profile = _load_profile(args.profile, cfg.control.omega_low_rpm)
    traj = simulate(cfg.physical, profile, args.duration,
                    cfg.control.observation_interval, controls=cfg.solver)
    _atomic_write(args.out, trajectory_csv(traj))
    print(f"wrote {args.out} ({traj.times.shape[0]} samples)")
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.preset)
    with open(args.spec) as fh:
        raw = json.load(fh)
    parse_section(raw, DatasetSpec, _SPEC_KEYS, "spec")  # every value present has its field's type
    try:
        spec = DatasetSpec(
            total_time=float(raw["total_time_s"]),
            t_high_grid=tuple(float(v) for v in raw["t_high_grid_s"]),
            settle_time=float(raw.get("settle_time_s", cfg.control.startup_time)),
            **{k: raw[k] for k in ("segments_per_trajectory", "seed") if k in raw},
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad dataset spec: {type(exc).__name__}: {exc}") from exc
    try:
        out = generate_dataset(
            cfg.physical, spec,
            omega_low=cfg.control.omega_low,
            omega_high=cfg.control.omega_high,
            omega_buckling=cfg.control.omega_buckling,
            controls=cfg.solver,
            dt_obs=cfg.control.observation_interval,
            k=cfg.control.history_length,
            workers=args.workers,
        )
    except ValueError as exc:  # the omega ordering or a settle too short for the before-line
        raise ConfigError(str(exc)) from exc
    _atomic_write(args.out, dataset_csv(out.datapoints))
    meta = {
        "cruise_speed_m_s": out.cruise_speed,
        "cruise_direction": out.cruise_direction.tolist(),
        "n_datapoints": len(out.datapoints),
        "n_rejections": len(out.rejections),
        "spec": raw,
    }
    _atomic_write(os.path.splitext(args.out)[0] + "_meta.json",
                  json.dumps(meta, indent=1, sort_keys=True) + "\n")
    rej_lines = [json.dumps({"t_H": r.t_high, "t_end": r.t_end, "reason": r.reason},
                            sort_keys=True) for r in out.rejections]
    _atomic_write(os.path.splitext(args.out)[0] + "_rejections.jsonl",
                  "\n".join(rej_lines) + ("\n" if rej_lines else ""))
    print(f"wrote {args.out}: {len(out.datapoints)} datapoints, "
          f"{len(out.rejections)} rejections")
    return 0


def cmd_train(args) -> int:
    """Fit every map before writing any file: a failed fit writes none."""
    points = read_dataset_csv(args.dataset)
    controls = TrainControls(seed=args.seed)
    meta_path = os.path.splitext(args.dataset)[0] + "_meta.json"
    calibration = {}
    if os.path.exists(meta_path):
        calibration["cruise_speed_m_s"] = _read_cruise_speed(meta_path)
    try:
        maps = fit_inverse_maps(points, controls)
    except ValueError as exc:  # an empty, too small or non-finite dataset
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    report = {}
    for name, result in (("f_H", maps.f_high), ("f_L", maps.f_low),
                         ("f_beta", maps.f_beta), ("f_l", maps.f_l)):
        path = os.path.join(args.out, f"{name}.json")
        _atomic_write(path, json.dumps(result.model.to_json_dict(),
                                       indent=1, sort_keys=True) + "\n")
        report[name] = {"train_rmse": result.train_rmse,
                        "val_rmse": result.val_rmse, "epochs": result.epochs}
    _atomic_write(os.path.join(args.out, "calibration.json"),
                  json.dumps(calibration, indent=1, sort_keys=True) + "\n")
    _atomic_write(os.path.join(args.out, "training_report.json"),
                  json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(report)} model files to {args.out}")
    return 0


def _read_cruise_speed(path: str) -> float | None:
    """The cruise speed a _meta.json or calibration.json records; None if missing or null."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold an object")
    speed = data.get("cruise_speed_m_s")
    if speed is not None and (type(speed) not in (int, float) or not 0.0 < speed < math.inf):
        raise ConfigError(f"{path}: cruise_speed_m_s must be a positive finite number, "
                          f"got {speed!r}")
    return speed


def _load_maps(models_dir: str) -> tuple[InverseMaps, float | None]:
    """The four inverse maps and the calibrated cruise speed, if calibration.json has one."""
    models = {}
    for name in ("f_H", "f_L", "f_beta", "f_l"):
        path = os.path.join(models_dir, f"{name}.json")
        if not os.path.exists(path):
            raise ConfigError(f"missing model file: {path}")
        try:
            models[name] = MLPModel.load(path)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model file {path}: {type(exc).__name__}: {exc}") from exc
    calib_path = os.path.join(models_dir, "calibration.json")
    speed = _read_cruise_speed(calib_path) if os.path.exists(calib_path) else None
    return InverseMaps(models["f_H"], models["f_L"], models["f_beta"],
                       models["f_l"]), speed


def cmd_control(args) -> int:
    cfg = load_config(args.config, args.preset)
    if not 0.0 <= args.max_duration < math.inf:
        raise ConfigError(f"--max-duration must be finite and nonnegative, "
                          f"got {args.max_duration}")
    maps, cruise_speed = _load_maps(args.models)
    waypoints = _load_waypoints(args.waypoints)
    control_cfg = cfg.control
    if cruise_speed is not None:
        control_cfg = replace(control_cfg, cruise_speed=float(cruise_speed))
    result = run_closed_loop(cfg.physical, maps, waypoints, control_cfg,
                             controls=cfg.solver, max_duration=args.max_duration)
    base = os.path.splitext(args.out)[0]
    _atomic_write(args.out, trajectory_csv(result))
    _atomic_write(base + "_control_log.jsonl",
                  "".join(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n"
                          for rec in result.log))
    err_lines = ["t,error"]
    err_lines += [f"{t:.17g},{e:.17g}" for t, e in zip(result.times, result.tracking_error)]
    _atomic_write(base + "_tracking_error.csv", "\n".join(err_lines) + "\n")
    print(f"wrote {args.out}, max tracking error "
          f"{float(np.max(result.tracking_error)):.4g} m")
    return 0


def steering_windows(times, omega, omega_buckling) -> list:
    """Contiguous above-buckling pulses, each extended by three durations."""
    windows = []
    above = omega > omega_buckling
    i = 0
    n = len(times)
    while i < n:
        if above[i]:
            j = i
            while j < n and above[j]:
                j += 1
            start = times[i]
            end = times[min(j, n - 1)]
            windows.append((start, end + 3.0 * (end - start)))
            i = j
        else:
            i += 1
    return windows


def cmd_eval(args) -> int:
    data = read_trajectory_csv(args.trajectory)
    waypoints = _load_waypoints(args.waypoints)
    times = data[:, 0]
    head = data[:, 1:4]
    omega = data[:, 10]
    errors = np.array([polyline_distance(h, waypoints) for h in head])
    omega_b = args.omega_buckling_rpm * 2 * math.pi / 60.0
    windows = steering_windows(times, omega, omega_b)
    per_window = []
    for start, end in windows:
        mask = (times >= start) & (times <= end)
        if np.any(mask):
            per_window.append({
                "start_s": float(start),
                "end_s": float(end),
                "max_error_m": float(np.max(errors[mask])),
            })
    summary = {
        "max_error_m": float(np.max(errors)),
        "median_error_m": float(np.median(errors)),
        "mean_error_m": float(np.mean(errors)),
        "per_steering_window": per_window,
    }
    _atomic_write(args.out, json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagsim",
        description="Simulation and control of a uniflagellar swimming robot",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config overriding the preset")
        p.add_argument("--preset", default="desk", choices=["desk", "paper"])

    p = sub.add_parser("simulate", help="run the forward dynamics")
    common(p)
    p.add_argument("--profile", default=None, help="JSON actuation schedule")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-data", help="generate the steering dataset")
    common(p)
    p.add_argument("--spec", required=True, help="JSON dataset spec")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the inverse maps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the initial weights and the validation split")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("control", help="run the closed-loop waypoint follower")
    common(p)
    p.add_argument("--models", required=True, help="directory of model JSON files")
    p.add_argument("--waypoints", required=True, help="JSON array of [x,y,z]")
    p.add_argument("--out", required=True)
    p.add_argument("--max-duration", type=float, default=2000.0)
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("eval", help="tracking-error summary for a trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--waypoints", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--omega-buckling-rpm", type=float, default=10.0)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
