"""Record the regression fixtures that tests/test_regression.py compares against.

    PYTHONPATH=src python tests/data/record_fixtures.py

writes, next to this script:

- jacobian_n10.npz: the elastic force, energy and band Jacobian of the
  N=10 paper rod at two candidate configurations, with the inputs that
  produced them. "committed" is conftest.committed_perturbation(seed=1)
  evaluated on its own frames; "twisted" adds a further twist perturbation
  to its thetas, so every node carries a twist moment (w_t != 0).
- pulse_tiny.npz: head and node-1 samples of the tiny rod (desk preset,
  N=16, dt=5 ms) on the 0.5 s grid for 3 s: 1 s at 3 rpm, a 1 s pulse at
  15 rpm, then 3 rpm again.

The committed files were recorded at commit e5b6400, the last revision
with the entry-by-entry bend/twist Hessian. Re-record only after a
deliberate change to the physics.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import committed_perturbation  # noqa: E402
from flagsim import (  # noqa: E402
    ElasticStiffnesses,
    RestConfiguration,
    build_initial_configuration,
    desk_parameters,
    paper_parameters,
)
from flagsim.elastic import evaluate_elastics  # noqa: E402
from flagsim.stepper import AngularVelocityProfile, simulate  # noqa: E402

RPM = 2.0 * math.pi / 60.0


def record_jacobians() -> dict[str, np.ndarray]:
    params = paper_parameters(node_count=10)
    built = build_initial_configuration(params)
    rest = RestConfiguration.from_built_state(params, built)
    stiff = ElasticStiffnesses.from_parameters(params)
    state = committed_perturbation(built, rest, stiff, seed=1)
    twisted = state.thetas + 0.3 * np.random.default_rng(2).standard_normal(state.thetas.shape)
    out = {
        "ref_d1": state.ref_d1,
        "tangents": state.tangents,
        "ref_twist": state.ref_twist,
        "positions": state.positions,
    }
    for name, thetas in (("committed", state.thetas), ("twisted", twisted)):
        ev, jac = evaluate_elastics(state.positions, thetas, state.ref_d1, state.tangents,
                                    state.ref_twist, rest, stiff, with_jacobian=True)
        out[f"{name}_thetas"] = thetas
        out[f"{name}_force"] = ev.force
        out[f"{name}_energy"] = np.array(ev.energy)
        out[f"{name}_band"] = jac
    return out


def record_pulse() -> dict[str, np.ndarray]:
    params = desk_parameters(node_count=16, time_step=0.005)
    profile = AngularVelocityProfile.pulse(3.0 * RPM, 15.0 * RPM, 1.0, 1.0)
    traj = simulate(params, profile, 3.0, 0.5)
    return {"times": traj.times, "head": traj.head, "node1": traj.node1}


if __name__ == "__main__":
    np.savez(HERE / "jacobian_n10.npz", **record_jacobians())
    np.savez(HERE / "pulse_tiny.npz", **record_pulse())
