import json
import math
import os

import numpy as np
import pytest

import flagsim.stepper
from flagsim.cli import (
    DATASET_HEADER,
    TRAJECTORY_HEADER,
    dataset_csv,
    main,
    read_dataset_csv,
    read_trajectory_csv,
    steering_windows,
    trajectory_csv,
)
from flagsim.config import ConfigError, load_config, preset
from flagsim.geometry import SteeringDatapoint, polyline_distance
from flagsim.hydro import HydroSolveError
from flagsim.stepper import StepControls


def tiny_config(tmp_path, duration_scale=1.0):
    """Desk preset shrunk to a few-node rod for fast CLI runs."""
    cfg = {
        "physical": {"node_count": 16, "time_step_s": 0.005},
        "control": {"observation_interval_s": 0.5, "startup_time_s": 5.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_preset_roundtrip(tmp_path):
    cfg = preset("desk")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = load_config(path, "desk")
    assert loaded.to_json_dict() == cfg.to_json_dict()
    # serialize -> parse -> serialize is identical text
    path2 = tmp_path / "cfg2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"physical": {"bogus_key": 1.0}}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")
    path.write_text(json.dumps({"bogus_section": {}}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")


def test_config_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"control": {"omega_high_rpm": 18.0}, "seed": 7}))
    cfg = load_config(path, "desk")
    assert cfg.control.omega_high_rpm == 18.0
    assert cfg.seed == 7
    assert cfg.physical.node_count == 42  # preset value retained


def test_mobility_floor_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        StepControls(mobility_floor=0.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"mobility_floor": 0}}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")


def test_simulate_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing_step(*args, **kwargs):
        raise HydroSolveError("nodes closer than the cutoff")

    monkeypatch.setattr(flagsim.stepper, "step", failing_step)
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", tiny_config(tmp_path), "--duration", "1.0",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


def test_simulate_zero_duration(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", tiny_config(tmp_path), "--duration", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 2


def test_simulate_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["simulate", "--config", cfg, "--duration", "2.0",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_profile_file(tmp_path):
    cfg = tiny_config(tmp_path)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"breakpoints_rpm": [[0.0, 3.0], [1.0, 15.0]]}))
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", cfg, "--profile", str(profile),
               "--duration", "1.5", "--out", str(out)])
    assert rc == 0
    data = read_trajectory_csv(out)
    omega = data[:, 10]
    assert omega[0] == pytest.approx(3.0 * 2 * math.pi / 60)
    assert omega[-1] == pytest.approx(15.0 * 2 * math.pi / 60)


def test_dataset_csv_roundtrip(tmp_path):
    points = [SteeringDatapoint(5.0, 100.0, 0.02, 12.0, -30.0, -0.004),
              SteeringDatapoint(10.0, 50.0, 0.008, 25.0, 10.0, 0.001)]
    path = tmp_path / "data.csv"
    path.write_text(dataset_csv(points))
    back = read_dataset_csv(path)
    assert back == points
    assert path.read_text().splitlines()[0] == DATASET_HEADER


def test_corrupt_dataset_row_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATASET_HEADER + "\n1,2,3,4,5,6\n1,2,junk,4,5,6\n")
    with pytest.raises(ConfigError, match="line 3"):
        read_dataset_csv(path)


def test_train_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(DATASET_HEADER + "\n1,2,nope,4,5,6\n")
    rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "models")])
    assert rc == 1


def test_train_and_retrain_identical(tmp_path):
    rng = np.random.default_rng(0)
    points = []
    for _ in range(40):
        th = rng.uniform(2, 30)
        tl = rng.uniform(30, 300)
        points.append(SteeringDatapoint(
            t_high=th, t_low=tl, h=2e-4 * tl, alpha=2.0 * th,
            beta=-20 + th, l=-0.004,
        ))
    data_path = tmp_path / "data.csv"
    data_path.write_text(dataset_csv(points))
    out1 = tmp_path / "m1"
    out2 = tmp_path / "m2"
    for out in (out1, out2):
        rc = main(["train", "--dataset", str(data_path), "--out", str(out),
                   "--seed", "3"])
        assert rc == 0
    for name in ("f_H", "f_L", "f_beta", "f_l"):
        a = (out1 / f"{name}.json").read_bytes()
        b = (out2 / f"{name}.json").read_bytes()
        assert a == b


def test_control_missing_model_file(tmp_path):
    waypoints = tmp_path / "wp.json"
    waypoints.write_text(json.dumps([[0.1, 0, 0], [0.2, 0, 0]]))
    rc = main(["control", "--config", tiny_config(tmp_path),
               "--models", str(tmp_path / "nonexistent"),
               "--waypoints", str(waypoints), "--out", str(tmp_path / "t.csv")])
    assert rc == 1


def test_eval_exact_and_offset(tmp_path):
    waypoints = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]
    wp_path = tmp_path / "wp.json"
    wp_path.write_text(json.dumps(waypoints))

    rows = [TRAJECTORY_HEADER]
    xs = np.linspace(0, 0.1, 21)
    for i, x in enumerate(xs):
        rows.append(",".join(f"{v:.17g}" for v in
                             [0.5 * i, x, 0.0, 0.0, 0, 0, 0, 0, 0, 0, 0.3]))
    traj_path = tmp_path / "on_path.csv"
    traj_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "summary.json"
    rc = main(["eval", "--trajectory", str(traj_path), "--waypoints", str(wp_path),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["max_error_m"] == pytest.approx(0.0, abs=1e-15)

    # constant offset d from the straight path -> max error d
    d = 0.0123
    rows = [TRAJECTORY_HEADER]
    for i, x in enumerate(xs):
        rows.append(",".join(f"{v:.17g}" for v in
                             [0.5 * i, x, d, 0.0, 0, 0, 0, 0, 0, 0, 0.3]))
    traj_path.write_text("\n".join(rows) + "\n")
    rc = main(["eval", "--trajectory", str(traj_path), "--waypoints", str(wp_path),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["max_error_m"] == pytest.approx(d, abs=1e-12)
    assert summary["median_error_m"] == pytest.approx(d, abs=1e-12)


def test_eval_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(4)
    waypoints = rng.standard_normal((5, 3)) * 0.1
    heads = rng.standard_normal((40, 3)) * 0.1
    for h in heads:
        got = polyline_distance(h, waypoints)
        brute = min(
            min(np.linalg.norm(h - ((1 - t) * waypoints[i] + t * waypoints[i + 1]))
                for t in np.linspace(0, 1, 4001))
            for i in range(4)
        )
        assert got <= brute + 1e-12
        assert got >= brute - 1e-4


def test_steering_window_extraction():
    times = np.arange(0.0, 100.0, 0.5)
    omega = np.full_like(times, 3 * 2 * math.pi / 60)
    hi = 15 * 2 * math.pi / 60
    omega[(times >= 40) & (times < 50)] = hi
    windows = steering_windows(times, omega, 10 * 2 * math.pi / 60)
    assert len(windows) == 1
    start, end = windows[0]
    assert start == pytest.approx(40.0)
    # pulse plus three durations of settling
    assert end == pytest.approx(50.0 + 3 * 10.0)


def test_gen_data_spec_validation(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"total_time_s": 20.0, "bogus": 1}))
    rc = main(["gen-data", "--config", tiny_config(tmp_path), "--spec", str(spec),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 1
