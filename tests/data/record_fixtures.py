"""Record the regression fixtures that tests/test_regression.py compares against.

    PYTHONPATH=src python tests/data/record_fixtures.py

writes, next to this script:

- jacobian_n10.npz: the elastic force, energy and band Jacobian of the
  N=10 paper rod at two candidate configurations, with the inputs that
  produced them. "committed" is conftest.committed_perturbation(seed=1)
  evaluated on its own frames; "twisted" adds a further twist perturbation
  to its thetas, so every node carries a twist moment (w_t != 0).
- elastic_moved_n10.npz: the same outputs, plus the transported frames
  d1 and reference twist, at a candidate configuration displaced from
  the committed frames of jacobian_n10's "committed" state: positions
  moved by 2e-4 m and thetas by 0.2 rad (normal, seed 3), so the
  parallel transports and the reference-twist update are not the
  identity.
- pulse_tiny.npz: head and node-1 samples of the tiny rod (desk preset,
  N=16, dt=5 ms) on the 0.5 s grid for 3 s: 1 s at 3 rpm, a 1 s pulse at
  15 rpm, then 3 rpm again.
- paper_cruise.npz: head and node-1 samples of the paper rod (paper
  preset, N=122, dt=1 ms) at a constant 3 rpm on the 0.01 s grid for
  0.05 s: 50 steps, with the mobility spectrum built at steps 0 and 40.
- fallback_tiny.npz: head and node-1 samples of the tiny rod at a
  constant 3 rpm on the 0.1 s grid for 1 s, with its first full step
  failing (conftest.flaky_step): all 200 steps run as half steps in the
  one-second recovery window.
- training.npz: inputs, targets, predictions on those inputs and epochs
  of trained regressors. "maps_*" are the four inverse maps that
  fit_inverse_maps(conftest.make_synthetic_dataset(), TrainControls(seed=13,
  max_epochs=60)) fits, 128 training residuals each; "wide_*" is one
  train_regressor fit for 10 epochs on 450 seeded rows, whose 360 training
  residuals (90 rows are held out) outnumber the 331 parameters.

jacobian_n10.npz was recorded at commit e5b6400, the last revision with
the entry-by-entry bend/twist Hessian; elastic_moved_n10.npz at commit
f98e22a, the last revision that transported the frames and updated the
reference twist in two passes; training.npz at commit 35e3801, the last
revision that solved each damped Gauss-Newton step with np.linalg.solve on
the parameter-space matrix; pulse_tiny.npz and paper_cruise.npz on the
child of commit f2bac2b, the last revision that evaluated the elastics at
the explicit predictor on every spectrum refresh step, from whose
recordings these lie 1.7e-9 and 4.0e-10 of the head's travel (node 1
2.0e-9 and 8.7e-10); they were recorded before at e5b6400, on the child
of ad59413, the last revision that rebuilt the spectrum every 8 steps
rather than every 40 ms, on the child of dda8dfe, the last full-Newton
revision, and on the child of 8158981, the last revision that evaluated
at the explicit predictor in every step, whose recordings lie 1.4e-8 and
1.5e-8 of the head's travel from the dda8dfe ones;
fallback_tiny.npz at commit b17636b, the last revision that built a new
spectrum for every substep.
The energies in the two kernel fixtures were recorded from the kernel's own
energy, which the kernel no longer computes; a re-recording takes them
from conftest.der_energy, which agrees to about 1e-16 relative.
Re-record only after a deliberate change to the physics or the trainer.
Name fixtures to record only those:

    PYTHONPATH=src python tests/data/record_fixtures.py training
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import (  # noqa: E402
    committed_perturbation,
    der_energy,
    flaky_step,
    make_synthetic_dataset,
)
from flagsim import (  # noqa: E402
    RestConfiguration,
    build_initial_configuration,
    desk_parameters,
    paper_parameters,
    stepper,
)
from flagsim.elastic import CommittedFrames, evaluate_elastics, jacobian_from_eval  # noqa: E402
from flagsim.learning import (  # noqa: E402
    TrainControls,
    dataset_arrays,
    fit_inverse_maps,
    train_regressor,
)
from flagsim.stepper import (  # noqa: E402
    AngularVelocityProfile,
    NewtonDivergenceError,
    simulate,
)

RPM = 2.0 * math.pi / 60.0


def record_jacobians() -> dict[str, np.ndarray]:
    params = paper_parameters(node_count=10)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    state = committed_perturbation(built, rest, seed=1)
    twisted = state.thetas + 0.3 * np.random.default_rng(2).standard_normal(state.thetas.shape)
    out = {
        "ref_d1": state.ref_d1,
        "tangents": state.tangents,
        "ref_twist": state.ref_twist,
        "positions": state.positions,
    }
    for name, thetas in (("committed", state.thetas), ("twisted", twisted)):
        ev = evaluate_elastics(state.positions, thetas, CommittedFrames.from_state(state), rest)
        jac = jacobian_from_eval(ev, rest)
        out[f"{name}_thetas"] = thetas
        out[f"{name}_force"] = ev.force
        out[f"{name}_energy"] = np.array(der_energy(ev, thetas, rest))
        out[f"{name}_band"] = jac
    return out


def record_moved() -> dict[str, np.ndarray]:
    params = paper_parameters(node_count=10)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    state = committed_perturbation(built, rest, seed=1)
    rng = np.random.default_rng(3)
    positions = state.positions + 2e-4 * rng.standard_normal(state.positions.shape)
    thetas = state.thetas + 0.2 * rng.standard_normal(state.thetas.shape)
    ev = evaluate_elastics(positions, thetas, CommittedFrames.from_state(state), rest)
    return {
        "ref_d1": state.ref_d1,
        "tangents": state.tangents,
        "ref_twist": state.ref_twist,
        "positions": positions,
        "thetas": thetas,
        "force": ev.force,
        "energy": np.array(der_energy(ev, thetas, rest)),
        "band": jacobian_from_eval(ev, rest),
        "d1": ev.d1,
        "moved_ref_twist": ev.ref_twist,
    }


def record_pulse() -> dict[str, np.ndarray]:
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.pulse(3.0 * RPM, 15.0 * RPM, 1.0, 1.0)
    traj = simulate(params, profile, 3.0, 0.5)
    return {"head": traj.head, "node1": traj.node1}


def record_paper() -> dict[str, np.ndarray]:
    params = paper_parameters()
    traj = simulate(params, AngularVelocityProfile.constant(3.0 * RPM), 0.05, 0.01)
    return {"head": traj.head, "node1": traj.node1}


def record_fallback() -> dict[str, np.ndarray]:
    params = desk_parameters(node_count=16, time_step=0.005)
    real = stepper.step
    stepper.step, _ = flaky_step(real, NewtonDivergenceError("injected"))
    try:
        traj = simulate(params, AngularVelocityProfile.constant(3.0 * RPM), 1.0, 0.1)
    finally:
        stepper.step = real
    return {"head": traj.head, "node1": traj.node1}


def record_training() -> dict[str, np.ndarray]:
    data = make_synthetic_dataset()
    maps = fit_inverse_maps(data, TrainControls(seed=13, max_epochs=60))
    cols = dataset_arrays(data)
    geometry_in = np.stack([cols["h"], cols["alpha"]], axis=1)
    timing_in = np.stack([cols["t_high"], cols["t_low"]], axis=1)
    out = {}
    for name, x, y in (("f_high", geometry_in, cols["t_high"]),
                       ("f_low", geometry_in, cols["t_low"]),
                       ("f_beta", timing_in, cols["beta"]),
                       ("f_l", timing_in, cols["l"])):
        result = getattr(maps, name)
        out[f"maps_{name}_inputs"] = x
        out[f"maps_{name}_targets"] = y
        out[f"maps_{name}_pred"] = result.model.predict(x)[:, 0]
        out[f"maps_{name}_epochs"] = np.array(result.epochs)
    rng = np.random.default_rng(19)
    x = rng.uniform(-1.0, 1.0, size=(450, 2))
    y = np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1]) + 0.3 * x[:, 1]
    wide = train_regressor(x, y, TrainControls(seed=20, max_epochs=10))
    out["wide_inputs"] = x
    out["wide_targets"] = y
    out["wide_pred"] = wide.model.predict(x)[:, 0]
    out["wide_epochs"] = np.array(wide.epochs)
    return out


RECORDERS = {"jacobian_n10": record_jacobians, "elastic_moved_n10": record_moved,
             "pulse_tiny": record_pulse,
             "paper_cruise": record_paper, "fallback_tiny": record_fallback,
             "training": record_training}

if __name__ == "__main__":
    for name in sys.argv[1:] or RECORDERS:
        np.savez(HERE / f"{name}.npz", **RECORDERS[name]())
