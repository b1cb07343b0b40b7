"""Record the final head displacements that bench/run.py checks against.

Run from the repository root after a deliberate change to the physics:

    python3 bench/record_reference.py

It simulates every input the seeds can select (the paper cruise in its
built frame, the tiny cruise calibration and each grid trajectory, and
every closed-loop variant) with the same calls the benchmark makes, and
rewrites bench/reference.json.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench

os.environ.update({var: str(bench.BLAS_THREADS) for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
sys.path.insert(0, bench.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def displacement(traj) -> list:
    return (traj.head[-1] - traj.head[0]).tolist()


def main() -> int:
    reference = {"recorded_at": bench.git_commit()}

    paper = workloads.PaperCruise(0, workloads.build_setup("paper"))
    paper.rotations = [np.eye(3), np.eye(3)]
    _, traj, _, _ = paper.unit(0)
    reference[paper.name] = {"head_displacement_m": displacement(traj)}
    print(paper.name, "done", flush=True)

    tiny = workloads.build_setup("tiny")
    gen = workloads.TinyGenData(0, tiny)
    ctl = tiny.cfg.control
    _, _, cruise = workloads.flagsim.learning.measure_cruise(
        tiny.cfg.physical, ctl.omega_low, tiny.cfg.solver, ctl.startup_time,
        ctl.observation_interval)
    entries = {"cruise": displacement(cruise),
               "t_H=0": displacement(gen.pulse_trajectory(0.0))}
    for t_pulse in workloads.GEN_PULSES:
        entries[f"t_H={t_pulse}"] = displacement(gen.pulse_trajectory(t_pulse))
    reference[gen.name] = entries
    print(gen.name, "done", flush=True)

    loops = {}
    for variant in range(workloads.LOOP_VARIANTS):
        loop = workloads.TinyClosedLoop(variant, tiny)
        loop.prepare(workloads.Run())
        result, _ = loop.unit()
        loops[str(variant)] = displacement(result)
    reference[workloads.TinyClosedLoop.name] = loops
    print(workloads.TinyClosedLoop.name, "done", flush=True)

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
