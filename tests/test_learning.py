import json

import numpy as np
import pytest

from conftest import make_synthetic_dataset, save_json
from flagsim.learning import (
    MLPModel,
    TrainControls,
    dataset_arrays,
    fit_inverse_maps,
    steering_slope,
    train_regressor,
)


def test_constant_target():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(40, 2))
    c = 3.7
    result = train_regressor(x, np.full(40, c), TrainControls(seed=2, max_epochs=60))
    pred = result.model.predict(x)
    assert np.abs(pred - c).max() <= 1e-3 * abs(c) + 1e-6


def test_sincos_benchmark():
    # held-out RMSE below 1e-2 in normalized units on a smooth surface
    xs = np.linspace(0.0, np.pi, 20)
    gx, gy = np.meshgrid(xs, xs)
    inputs = np.stack([gx.ravel(), gy.ravel()], axis=1)
    targets = np.sin(inputs[:, 0]) * np.cos(inputs[:, 1])
    rng = np.random.default_rng(3)
    perm = rng.permutation(inputs.shape[0])
    train_idx, test_idx = perm[:320], perm[320:]
    result = train_regressor(inputs[train_idx], targets[train_idx],
                             TrainControls(seed=4, max_epochs=400))
    pred = result.model.predict(inputs[test_idx])[:, 0]
    rmse = np.sqrt(np.mean((pred - targets[test_idx]) ** 2)) / np.std(targets)
    assert rmse < 1e-2


def test_training_determinism(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, size=(50, 2))
    y = x[:, 0] * x[:, 1]
    r1 = train_regressor(x, y, TrainControls(seed=8, max_epochs=50))
    r2 = train_regressor(x, y, TrainControls(seed=8, max_epochs=50))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_json(r1.model, p1)
    save_json(r2.model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, size=(40, 2))
    y = x[:, 0] - x[:, 1] ** 2
    result = train_regressor(x, y, TrainControls(seed=10, max_epochs=40))
    path = tmp_path / "model.json"
    save_json(result.model, path)
    loaded = MLPModel.load(path)
    probe = rng.uniform(0, 1, size=(30, 2))
    assert np.array_equal(result.model.predict(probe), loaded.predict(probe))


def test_normalization_roundtrip():
    rng = np.random.default_rng(11)
    x = rng.uniform(-5, 5, size=(30, 2))
    y = x[:, 0]
    result = train_regressor(x, y, TrainControls(seed=12, max_epochs=5))
    m = result.model
    z = (x - m.input_shift) / m.input_scale
    back = z * m.input_scale + m.input_shift
    assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()


def test_predictions_finite_over_training_box():
    data = make_synthetic_dataset()
    maps = fit_inverse_maps(data, TrainControls(seed=13, max_epochs=60))
    for result in (maps.f_high, maps.f_low, maps.f_beta, maps.f_l):
        lo = np.asarray(result.model.metadata["input_low"])
        hi = np.asarray(result.model.metadata["input_high"])
        grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 7),
                                    np.linspace(lo[1], hi[1], 7)), axis=-1).reshape(-1, 2)
        assert np.all(np.isfinite(result.model.predict(grid)))


@pytest.fixture(scope="module")
def trained_maps():
    data = make_synthetic_dataset()
    maps = fit_inverse_maps(data, TrainControls(seed=14, max_epochs=250))
    return data, maps


def test_maps_self_consistency(trained_maps):
    data, maps = trained_maps
    cols = dataset_arrays(data)
    pred_beta = maps.f_beta.model.predict(
        np.stack([cols["t_high"], cols["t_low"]], axis=1))[:, 0]
    rmse_record = maps.f_beta.train_rmse * float(maps.f_beta.model.output_scale[0])
    err = np.abs(pred_beta - cols["beta"])
    assert np.median(err) <= 2.0 * max(rmse_record, 1e-6)


def test_maps_endpoint_error(trained_maps):
    # geometric reconstruction through the turn-point formula: place p2 from
    # (h, alpha, beta, l) in a canonical frame and compare against the
    # maneuver implied by the predicted times
    data, maps = trained_maps
    c, _ = steering_slope(data)
    cols = dataset_arrays(data)
    cruise = 2e-4

    def endpoint(h, alpha, beta, l):
        a = np.radians(alpha)
        b = np.radians(beta)
        direction = np.array([
            np.cos(a),
            np.sin(a) * np.cos(b),
            np.sin(a) * np.sin(b),
        ])
        return l * np.array([1.0, 0.0, 0.0]) + h * direction

    x = np.stack([cols["h"], cols["alpha"]], axis=1)
    t_high_pred = maps.f_high.model.predict(x)[:, 0]
    t_low_pred = maps.f_low.model.predict(x)[:, 0]
    rel = []
    for i in range(len(data)):
        alpha_hat = cols["alpha"][i] + c * (t_high_pred[i] - cols["t_high"][i])
        h_hat = cols["h"][i] + cruise * (t_low_pred[i] - cols["t_low"][i])
        p_true = endpoint(cols["h"][i], cols["alpha"][i], cols["beta"][i], cols["l"][i])
        p_hat = endpoint(h_hat, alpha_hat, cols["beta"][i], cols["l"][i])
        rel.append(np.linalg.norm(p_hat - p_true) / cols["h"][i])
    assert np.median(rel) < 0.05


def test_monotonicity_probe_warns_not_fails(trained_maps):
    # f_low should increase with h at fixed alpha over the training hull;
    # violations are reported, not fatal
    data, maps = trained_maps
    lo = np.asarray(maps.f_low.model.metadata["input_low"])
    hi = np.asarray(maps.f_low.model.metadata["input_high"])
    alpha_mid = 0.5 * (lo[1] + hi[1])
    hs = np.linspace(lo[0], hi[0], 25)
    pred = maps.f_low.model.predict(np.stack([hs, np.full_like(hs, alpha_mid)], axis=1))[:, 0]
    diffs = np.diff(pred)
    frac_increasing = float(np.mean(diffs > 0))
    if frac_increasing < 0.9:
        import warnings

        warnings.warn(f"f_low monotone on only {frac_increasing:.0%} of the probe")
    assert np.all(np.isfinite(pred))


def test_steering_slope_matches_oracle():
    data = make_synthetic_dataset()
    cols = dataset_arrays(data)
    c, stderr = steering_slope(data)
    design = np.stack([cols["t_high"], np.ones_like(cols["t_high"])], axis=1)
    (c_oracle, _), *_ = np.linalg.lstsq(design, cols["alpha"], rcond=None)
    assert c == pytest.approx(c_oracle, abs=1e-9)
    assert stderr >= 0.0


def test_train_rejects_small_or_bad_input():
    with pytest.raises(ValueError):
        train_regressor(np.zeros((5, 2)), np.zeros(5))
    x = np.zeros((25, 2))
    y = np.zeros(25)
    y[0] = np.nan
    with pytest.raises(ValueError):
        train_regressor(x, y)
    # one map has one output: a 2-D target array is rejected, one column or two
    for targets in (np.zeros((25, 1)), np.zeros((25, 2))):
        with pytest.raises(ValueError, match="one value per input row"):
            train_regressor(x, targets)
