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
from flagsim.learning import GeneratedDataset, MLPModel
from flagsim.stepper import StepControls

from conftest import brute_polyline_distance, save_json


TINY_CONFIG = {
    "physical": {"node_count": 16, "time_step_s": 0.005},
    "control": {"observation_interval_s": 0.5, "startup_time_s": 5.0},
}


def tiny_config(tmp_path, duration_scale=1.0):
    """Desk preset shrunk to a few-node rod for fast CLI runs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def tiny_with(section, **values):
    """TINY_CONFIG with the given values of one section replaced."""
    return {**TINY_CONFIG, section: {**TINY_CONFIG[section], **values}}


def test_preset_roundtrip(tmp_path):
    cfg = preset("desk")
    path = tmp_path / "cfg.json"
    save_json(cfg, path)
    loaded = load_config(path, "desk")
    assert loaded.to_json_dict() == cfg.to_json_dict()
    # serialize -> parse -> serialize is identical text
    path2 = tmp_path / "cfg2.json"
    save_json(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"physical": {"bogus_key": 1.0}}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")
    path.write_text(json.dumps({"bogus_section": {}}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")
    path.write_text(json.dumps({"seed": 7}))
    with pytest.raises(ConfigError):
        load_config(path, "desk")


def test_config_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"control": {"omega_high_rpm": 18.0}}))
    cfg = load_config(path, "desk")
    assert cfg.control.omega_high_rpm == 18.0
    assert cfg.physical.node_count == 42  # preset value retained


def test_spectrum_policy_keys_are_unknown(tmp_path, capsys):
    # the spectral floor, its refresh interval and Newton's tolerance and
    # iteration cap are stepper constants
    path = tmp_path / "cfg.json"
    for key in ("mobility_floor", "mobility_refresh", "newton_tol", "max_newton_iters"):
        with pytest.raises(TypeError):
            StepControls(**{key: 1})
        path.write_text(json.dumps({"solver": {key: 1}}))
        with pytest.raises(ConfigError, match="solver"):
            load_config(path, "desk")
        rc = main(["simulate", "--config", str(path), "--duration", "1.0",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "input error: unknown top-level keys: ['solver']" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


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
    # 40 trajectory heads against a 4-segment waypoint path; a 4001-point
    # grid per segment overestimates each distance by less than 1e-4
    rng = np.random.default_rng(4)
    waypoints = rng.standard_normal((5, 3)) * 0.1
    heads = rng.standard_normal((40, 3)) * 0.1
    brute = brute_polyline_distance(heads, waypoints, 4001)
    got = np.array([polyline_distance(h, waypoints) for h in heads])
    assert np.all(got <= brute + 1e-12)
    assert np.all(got >= brute - 1e-4)

    wp_path = tmp_path / "wp.json"
    wp_path.write_text(json.dumps(waypoints.tolist()))
    rows = [TRAJECTORY_HEADER]
    for i, h in enumerate(heads):
        rows.append(",".join(f"{v:.17g}" for v in [0.5 * i, *h, 0, 0, 0, 0, 0, 0, 0.3]))
    traj_path = tmp_path / "heads.csv"
    traj_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "summary.json"
    rc = main(["eval", "--trajectory", str(traj_path), "--waypoints", str(wp_path),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(out.read_text())
    for key, stat in [("max_error_m", np.max), ("median_error_m", np.median),
                      ("mean_error_m", np.mean)]:
        assert stat(brute) - 1e-4 <= summary[key] <= stat(brute) + 1e-12


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


def test_gen_data_meta_copies_the_spec_without_a_seed(tmp_path, monkeypatch):
    # generation draws no random numbers: _meta.json keeps the spec as given
    # and adds no seed of its own
    def generate(*args, **kwargs):
        return GeneratedDataset([], [], 1e-4, np.array([1.0, 0.0, 0.0]))

    monkeypatch.setattr("flagsim.cli.generate_dataset", generate)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GEN_SPEC))
    rc = main(["gen-data", "--config", tiny_config(tmp_path), "--spec", str(spec),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 0
    meta = json.loads((tmp_path / "d_meta.json").read_text())
    assert "seed" not in meta
    assert meta["spec"] == GEN_SPEC


@pytest.mark.parametrize("spec", [
    {"total_time_s": 20.0, "t_high_grid_s": [1.0], "settle_time_s": -1.0},
    {"t_high_grid_s": [1.0], "settle_time_s": 5.0},
    # k = 10 samples of 0.5 s do not fit before a 4.5 s pulse
    {"total_time_s": 20.0, "t_high_grid_s": [1.0], "settle_time_s": 4.5},
    {"total_time_s": math.inf, "t_high_grid_s": [1.0], "settle_time_s": 5.0},
    {"total_time_s": 20.0, "t_high_grid_s": [math.nan], "settle_time_s": 5.0},
    {"total_time_s": 20.0, "t_high_grid_s": [1.0], "settle_time_s": math.inf},
], ids=["negative-settle", "no-total-time", "short-settle", "infinite-total-time",
        "nan-pulse", "infinite-settle"])
def test_gen_data_bad_spec_is_input_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(["gen-data", "--config", tiny_config(tmp_path), "--spec", str(path),
               "--out", str(tmp_path / "d.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "d.csv").exists()


RAGGED_WAYPOINTS = [[0.1, 0.0, 0.0], [0.2, 0.0]]
NAN_WAYPOINTS = [[0.1, 0.0, 0.0], [math.nan, 0.0, 0.0]]
GEN_SPEC = {"total_time_s": 20.0, "t_high_grid_s": [1.0], "settle_time_s": 5.0}
GEN_DATA_ON_INPUT_SPEC = ["gen-data", "--config", "{config}", "--spec", "{input}"]
CONTROL_ON_INPUT_CONFIG = ["control", "--config", "{input}", "--models", "{models}",
                           "--waypoints", "{waypoints}", "--max-duration", "6"]


def write_models(directory):
    """Four valid (linear, zero) model files for the control command."""
    directory.mkdir()
    model = MLPModel(layer_sizes=[2, 1], weights=[np.zeros((1, 2))], biases=[np.zeros(1)],
                     input_shift=np.zeros(2), input_scale=np.ones(2),
                     output_shift=np.zeros(1), output_scale=np.ones(1))
    for name in ("f_H", "f_L", "f_beta", "f_l"):
        save_json(model, directory / f"{name}.json")


@pytest.mark.parametrize("content, argv", [
    (DATASET_HEADER + "\n" + "1,2,3,4,5,6\n" * 19, ["train", "--dataset", "{input}"]),
    ({}, ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    ([[0.0, 3.0]], ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    ({"breakpoints_rpm": [[0.0, 3.0], [1.0]]},
     ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    ({"breakpoints_rpm": [[1.0, 3.0], [1.0, 15.0]]},
     ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    (None, ["simulate", "--config", "{config}", "--duration", "-1"]),
    (None, ["simulate", "--config", "{config}", "--duration", "inf"]),
    (None, ["simulate", "--config", "{config}", "--duration", "nan"]),
    ({"breakpoints_rpm": [[0.0, math.nan]]},
     ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    ({"breakpoints_rpm": [[0.0, 3.0], [0.5, math.inf]]},
     ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    ({"breakpoints_rpm": [[0.0, 3.0], [math.nan, 15.0]]},
     ["simulate", "--config", "{config}", "--profile", "{input}", "--duration", "1"]),
    (None, ["control", "--config", "{config}", "--models", "{models}",
            "--waypoints", "{waypoints}", "--max-duration", "inf"]),
    (None, ["control", "--config", "{config}", "--models", "{models}",
            "--waypoints", "{waypoints}", "--max-duration", "nan"]),
    (None, ["control", "--config", "{config}", "--models", "{models}",
            "--waypoints", "{waypoints}", "--max-duration", "-1"]),
    (RAGGED_WAYPOINTS, ["eval", "--trajectory", "{trajectory}", "--waypoints", "{input}"]),
    (RAGGED_WAYPOINTS, ["control", "--config", "{config}", "--models", "{models}",
                        "--waypoints", "{input}"]),
    (NAN_WAYPOINTS, ["eval", "--trajectory", "{trajectory}", "--waypoints", "{input}"]),
    (NAN_WAYPOINTS, ["control", "--config", "{config}", "--models", "{models}",
                     "--waypoints", "{input}"]),
    (TRAJECTORY_HEADER + "\n0,0,0,0,0,0,0,0,0,0,0.3\n0,0,x,0,0,0,0,0,0,0,0.3\n",
     ["eval", "--trajectory", "{input}", "--waypoints", "{waypoints}"]),
    (TRAJECTORY_HEADER + "\n0,0,0\n",
     ["eval", "--trajectory", "{input}", "--waypoints", "{waypoints}"]),
    (TRAJECTORY_HEADER + "\n", ["eval", "--trajectory", "{input}", "--waypoints", "{waypoints}"]),
    # usage errors: argparse's own exit code 2 is the numerical-failure code here
    (None, ["simulate"]),
    (None, ["train", "--dataset", "{input}", "--bogus"]),
    (None, ["train", "--dataset", "{input}", "--joint"]),
    # rejected before the settle: no simulation and no process starts
    (GEN_SPEC, ["gen-data", "--config", "{config}", "--spec", "{input}", "--workers", "0"]),
    (GEN_SPEC, ["gen-data", "--config", "{config}", "--spec", "{input}", "--workers", "-1"]),
    # the preset is chosen by --preset only
    ({"preset": "paper"}, ["simulate", "--config", "{input}", "--duration", "1"]),
    # only train takes a seed; a config has none
    (None, ["simulate", "--config", "{config}", "--seed", "1", "--duration", "1"]),
    ({"seed": "x"}, ["simulate", "--config", "{input}", "--duration", "1"]),
    # a config value must match its field's type
    (tiny_with("physical", node_count=16.5),
     ["simulate", "--config", "{input}", "--duration", "1"]),
    (tiny_with("physical", time_step_s=math.inf),
     ["simulate", "--config", "{input}", "--duration", "1"]),
    (tiny_with("control", history_length=10.5), CONTROL_ON_INPUT_CONFIG),
    (tiny_with("control", linearity_threshold_m2="x"), CONTROL_ON_INPUT_CONFIG),
    (tiny_with("control", cruise_speed_m_s=-1), CONTROL_ON_INPUT_CONFIG),
    # a dataset-spec value must match its field's type, as a config value does
    (5, GEN_DATA_ON_INPUT_SPEC),
    ({**GEN_SPEC, "t_high_grid_s": "12"}, GEN_DATA_ON_INPUT_SPEC),
    ({**GEN_SPEC, "segments_per_trajectory": 2.7}, GEN_DATA_ON_INPUT_SPEC),
    ({**GEN_SPEC, "seed": 1.5}, GEN_DATA_ON_INPUT_SPEC),
], ids=["train-19-rows", "profile-no-breakpoints", "profile-not-an-object", "profile-ragged",
        "profile-not-increasing", "negative-duration", "infinite-duration", "nan-duration",
        "profile-nan-rate", "profile-infinite-rate", "profile-nan-time",
        "control-infinite-duration", "control-nan-duration", "control-negative-duration",
        "eval-ragged-waypoints", "control-ragged-waypoints", "eval-nan-waypoint",
        "control-nan-waypoint", "trajectory-non-numeric", "trajectory-three-columns",
        "trajectory-header-only", "usage-missing-required", "usage-unknown-flag",
        "usage-train-joint", "gen-data-zero-workers", "gen-data-negative-workers",
        "config-preset-key", "usage-simulate-seed", "config-seed-key",
        "config-fractional-node-count", "config-infinite-time-step",
        "config-fractional-history-length", "config-string-threshold",
        "config-negative-cruise-speed", "spec-not-an-object", "spec-string-grid",
        "spec-fractional-segments", "spec-fractional-seed"])
def test_bad_input_is_input_error(tmp_path, capsys, content, argv):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    trajectory = tmp_path / "traj.csv"
    trajectory.write_text(TRAJECTORY_HEADER + "\n" + "0,0,0,0,0,0,0,0,0,0,0.3\n" * 2)
    write_models(tmp_path / "models")
    waypoints = tmp_path / "wp.json"
    waypoints.write_text(json.dumps([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
    out = tmp_path / "out"
    names = {"input": path, "config": tiny_config(tmp_path), "trajectory": trajectory,
             "models": tmp_path / "models", "waypoints": waypoints}
    rc = main([a.format(**names) for a in argv] + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]], ids=["top-level", "train"])
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0


# layer_sizes [2, 1] with a (1, 3) weight: loads, but fails at the first prediction
WIDE_WEIGHT_MODEL = {"layer_sizes": [2, 1], "weights": [[[0.0, 0.0, 0.0]]], "biases": [[0.0]],
                     "input_norm": {"shift": [0.0, 0.0], "scale": [1.0, 1.0]},
                     "output_norm": {"shift": [0.0], "scale": [1.0]}}


@pytest.mark.parametrize("content", [{}, WIDE_WEIGHT_MODEL], ids=["empty", "weight-too-wide"])
def test_malformed_model_file_is_input_error(tmp_path, capsys, content):
    write_models(tmp_path / "models")
    (tmp_path / "models" / "f_L.json").write_text(json.dumps(content))
    waypoints = tmp_path / "wp.json"
    waypoints.write_text(json.dumps([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))
    out = tmp_path / "t.csv"
    rc = main(["control", "--config", tiny_config(tmp_path), "--models",
               str(tmp_path / "models"), "--waypoints", str(waypoints), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "f_L.json" in err
    assert not out.exists()


BAD_CRUISE_FILES = [[1], {"cruise_speed_m_s": "fast"}, {"cruise_speed_m_s": -1.0},
                    {"cruise_speed_m_s": 0}, {"cruise_speed_m_s": math.inf}]
BAD_CRUISE_IDS = ["not-an-object", "string-speed", "negative-speed", "zero-speed",
                  "infinite-speed"]


@pytest.mark.parametrize("content", BAD_CRUISE_FILES, ids=BAD_CRUISE_IDS)
def test_malformed_calibration_file_is_input_error(tmp_path, capsys, content):
    write_models(tmp_path / "models")
    (tmp_path / "models" / "calibration.json").write_text(json.dumps(content))
    waypoints = tmp_path / "wp.json"
    waypoints.write_text(json.dumps([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))
    out = tmp_path / "t.csv"
    rc = main(["control", "--config", tiny_config(tmp_path), "--models",
               str(tmp_path / "models"), "--waypoints", str(waypoints), "--out", str(out),
               "--max-duration", "6"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "calibration.json" in err
    assert not out.exists()


@pytest.mark.parametrize("content", BAD_CRUISE_FILES, ids=BAD_CRUISE_IDS)
def test_malformed_dataset_meta_is_input_error(tmp_path, capsys, content):
    points = [SteeringDatapoint(t_high=1.0 + i, t_low=40.0 + i, h=0.01, alpha=2.0 + i,
                                beta=0.0, l=0.0) for i in range(40)]
    (tmp_path / "data.csv").write_text(dataset_csv(points))
    (tmp_path / "data_meta.json").write_text(json.dumps(content))
    out = tmp_path / "models"
    rc = main(["train", "--dataset", str(tmp_path / "data.csv"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "data_meta.json" in err
    assert not out.exists()


def test_control_writes_outputs(tmp_path):
    # One trajectory row per sample, one tracking error per sample and one
    # log line per decision; the controller decides after every interval.
    write_models(tmp_path / "models")
    waypoints = tmp_path / "wp.json"
    waypoints.write_text(json.dumps([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))
    out = tmp_path / "t.csv"
    rc = main(["control", "--config", tiny_config(tmp_path), "--models",
               str(tmp_path / "models"), "--waypoints", str(waypoints), "--out", str(out),
               "--max-duration", "6"])
    assert rc == 0
    times = read_trajectory_csv(out)[:, 0]
    np.testing.assert_array_equal(times, 0.5 * np.arange(13))

    errors = (tmp_path / "t_tracking_error.csv").read_text().splitlines()
    assert errors[0] == "t,error"
    rows = np.array([[float(v) for v in line.split(",")] for line in errors[1:]])
    np.testing.assert_array_equal(rows[:, 0], times)
    assert np.all(rows[:, 1] >= 0.0)

    log = [json.loads(line)
           for line in (tmp_path / "t_control_log.jsonl").read_text().splitlines()]
    assert [rec["time"] for rec in log] == times[1:].tolist()
    assert [rec["rejection"] for rec in log[:10]] == ["startup"] * 10
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "models", "t.csv", "t_control_log.jsonl", "t_tracking_error.csv",
        "wp.json"]
